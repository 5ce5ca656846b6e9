//! The golden-fixture check `tests/determinism.rs` and
//! `tests/fault_determinism.rs` share (each includes this file by path).

use snow_bench::golden;
use std::collections::BTreeMap;

/// Holds the engine to `committed`, the text of the clean or (`faults`)
/// the fault fixture file: every combo's fingerprint first, printing the
/// canonical history of each one that moved, then the whole rendered file
/// — header, sort order and every line.
pub fn assert_matches(committed: &str, faults: bool) {
    let combos = if faults { golden::fault_combos() } else { golden::combos() };
    let pinned: BTreeMap<&str, &str> = committed
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split_once(' ').expect("a `label ntx=<n> hash=<hex>` line"))
        .collect();
    assert_eq!(
        pinned.len(),
        combos.len(),
        "fixture file and combo list out of sync; regenerate the fixtures"
    );
    let mut mismatches = Vec::new();
    for combo in &combos {
        let want = pinned
            .get(combo.label.as_str())
            .unwrap_or_else(|| panic!("no fixture for {}", combo.label));
        let canon = combo.canonical();
        let got = format!("ntx={} hash={:016x}", golden::COMBO_TXNS, golden::fingerprint(&canon));
        if got != *want {
            eprintln!("=== {} mismatch: want {want}, got {got} ===\n{canon}", combo.label);
            mismatches.push(combo.label.clone());
        }
    }
    assert!(mismatches.is_empty(), "histories diverged from golden fixtures: {mismatches:?}");
    assert_eq!(
        golden::fixture_file(faults),
        committed,
        "the rendered fixture file differs from the committed one"
    );
}
