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

use snow_bench::golden;
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("golden_histories.txt");

fn parse_fixture() -> BTreeMap<String, (usize, u64)> {
    let mut out = BTreeMap::new();
    for line in FIXTURE.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let label = parts.next().expect("fixture label").to_string();
        let ntx = parts
            .next()
            .and_then(|p| p.strip_prefix("ntx="))
            .expect("fixture ntx")
            .parse::<usize>()
            .expect("fixture ntx value");
        let hash = parts
            .next()
            .and_then(|p| p.strip_prefix("hash="))
            .expect("fixture hash");
        let hash = u64::from_str_radix(hash, 16).expect("fixture hash value");
        out.insert(label, (ntx, hash));
    }
    out
}

#[test]
fn histories_match_golden_fixtures_for_every_protocol_and_scheduler() {
    let fixtures = parse_fixture();
    let combos = golden::combos();
    assert_eq!(
        fixtures.len(),
        combos.len(),
        "fixture file and combo list out of sync; regenerate the fixtures"
    );
    let mut mismatches = Vec::new();
    for combo in &combos {
        let (ntx, want) = fixtures
            .get(&combo.label)
            .unwrap_or_else(|| panic!("no fixture for {}", combo.label));
        assert_eq!(*ntx, golden::COMBO_TXNS, "{}", combo.label);
        let canon = golden::run_combo(combo);
        let got = golden::fingerprint(&canon);
        if got != *want {
            eprintln!(
                "=== {} mismatch: want {want:016x}, got {got:016x} ===\n{canon}",
                combo.label
            );
            mismatches.push(combo.label.clone());
        }
    }
    assert!(
        mismatches.is_empty(),
        "histories diverged from golden fixtures: {mismatches:?}"
    );
}

#[test]
fn repeated_runs_are_identical_within_a_process() {
    // Independent of the committed fixtures: two fresh clusters with the
    // same seeds must agree action-for-action.
    for combo in golden::combos().iter().step_by(7) {
        assert_eq!(
            golden::run_combo(combo),
            golden::run_combo(combo),
            "{} not reproducible",
            combo.label
        );
    }
}
