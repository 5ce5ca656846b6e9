//! Seeded determinism regression: for every (protocol, scheduler, seed)
//! combination, the engine must reproduce the exact `History` captured in
//! `tests/golden_histories.txt`.
//!
//! The fixtures were captured from the pre-refactor linear-scan engine, so
//! this test is the equivalence proof for the indexed event-queue engine:
//! same seeds, bit-identical histories.  If it fails after an intentional
//! schedule-semantics change, regenerate with
//! `cargo run -p snow-bench --release -- golden --write`
//! and justify the change in the PR.

#[path = "support/fixtures.rs"]
mod fixtures;

use snow_bench::golden;

#[test]
fn histories_match_golden_fixtures_for_every_protocol_and_scheduler() {
    fixtures::assert_matches(include_str!("golden_histories.txt"), false);
}

#[test]
fn repeated_runs_are_identical_within_a_process() {
    // Independent of the committed fixtures: two fresh clusters with the
    // same seeds must agree action-for-action.
    for combo in golden::combos().iter().step_by(7) {
        assert_eq!(combo.canonical(), combo.canonical(), "{} not reproducible", combo.label);
    }
}
