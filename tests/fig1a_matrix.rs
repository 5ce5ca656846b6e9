//! Integration test for experiment E1 (Fig. 1a): the ✓ cells hold
//! constructively and the × cells are convicted by the mechanized chains.

use snow::core::SystemConfig;
use snow::impossibility::{run_three_client_chain, run_two_client_chain};
use snow_bench::verify_alg_a_snow;

#[test]
fn two_clients_with_c2c_is_snow() {
    if let Err(failure) = verify_alg_a_snow(&SystemConfig::mwsr(2, 1, true), 0..25) {
        panic!("{failure}");
    }
}

#[test]
fn mwsr_with_c2c_is_snow() {
    if let Err(failure) = verify_alg_a_snow(&SystemConfig::mwsr(3, 3, true), 0..25) {
        panic!("{failure}");
    }
}

#[test]
fn three_clients_cell_is_impossible() {
    let report = run_three_client_chain();
    assert!(report.r2_before_r1);
    assert!(report.verdict_is_violation, "{}", report.verdict_detail);
}

#[test]
fn no_c2c_cell_is_impossible() {
    let report = run_two_client_chain();
    assert!(report.read_before_write_invocation);
    assert!(report.verdict_is_violation, "{}", report.verdict_detail);
}
