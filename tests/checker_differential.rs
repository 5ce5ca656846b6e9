//! Conviction tests through [`snow::checker::GraphChecker`], the name the
//! whole-history graph engine had and that is now a forward to
//! [`snow::checker::StreamChecker::check`].
//!
//! They pin the forward itself: code written against the old engine must
//! still convict the paper's counterexample histories and pass the benign
//! one.  The random differential against the backtracking search lives in
//! `tests/stream_differential.rs`, with the one history generator.

use snow::checker::GraphChecker;

#[test]
fn graph_convicts_the_eiger_fig5_history() {
    let (history, _) = snow::impossibility::fig5_history();
    let verdict = GraphChecker::new().check(&history);
    assert!(verdict.is_violation(), "{verdict:?}");
    assert!(snow::checker::check_auto(&history).is_violation());
}

#[test]
fn graph_convicts_the_impossibility_fragment_histories() {
    // φ from the two-client chain: the READ completes before the WRITE is
    // invoked yet returns the written values.
    let phi = snow::impossibility::phi_history();
    assert!(GraphChecker::new().check(&phi).is_violation());
    // α₁₀ from the three-client chain: R₂ (new values) wholly precedes R₁
    // (initial values) after W completed.
    let alpha10 = snow::impossibility::alpha10_history((0, 0), (1, 1));
    assert!(GraphChecker::new().check(&alpha10).is_violation());
    // The benign outcome assignment stays serializable.
    let benign = snow::impossibility::alpha10_history((1, 1), (1, 1));
    assert!(GraphChecker::new().check(&benign).is_serializable());
}
