//! The executable Fig. 5 counterexample (§6): Eiger's read-only transactions
//! are not strictly serializable.
//!
//! Three writes — `w₁` and `w₂` to the object on server `s_B` (our `o₁` on
//! `s₁`), `w₃` to the object on `s_A` (our `o₀` on `s₀`), with `w₃` issued
//! only after `w₂` completes — run concurrently with one READ transaction
//! `R = {r_A, r_B}`.  The network delivers `r_B` to `s₁` *before* `w₂`
//! arrives there, and `r_A` to `s₀` *after* `w₃` is applied.  The logical
//! validity intervals of the two returned versions overlap, so Eiger accepts
//! the combination `{w₃'s value, w₁'s value}` — but any serialization that
//! contains `w₃` must also contain `w₂` (which finished before `w₃` started),
//! so no strict serialization exists.  The search checker proves it.

use snow_checker::{SearchChecker, Verdict};
use snow_core::{ClientId, History, ObjectId, SystemConfig, TxSpec, Value};
use snow_protocols::eiger::EigerMsg;
use snow_protocols::{deploy_any, AnyMsg, AnyNode, ProtocolKind};
use snow_sim::{LatencyScheduler, PendingMessage, Simulation, StepOutcome};

/// The outcome of the Fig. 5 reproduction.
#[derive(Debug, Clone)]
pub struct Fig5Report {
    /// Value the READ returned for `o₀` (server `s_A`): must be w₃'s.
    pub read_o0: Value,
    /// Value the READ returned for `o₁` (server `s_B`): must be w₁'s.
    pub read_o1: Value,
    /// True if Eiger accepted the snapshot in its first round (the overlap
    /// check passed), as in the figure.
    pub accepted_first_round: bool,
    /// True if the checker proved the history is not strictly serializable.
    pub verdict_is_violation: bool,
    /// The checker's explanation.
    pub verdict_detail: String,
    /// Number of transactions in the produced history.
    pub transactions: usize,
}

/// The values the three writes use, chosen to be recognisable.
pub const W1_VALUE: Value = Value(100);
/// Value written by w₂.
pub const W2_VALUE: Value = Value(200);
/// Value written by w₃.
pub const W3_VALUE: Value = Value(300);

/// The Fig. 5 deployment — Eiger on two servers, one reader and two
/// writers, FIFO — with its reader and writers.
fn fig5_deployment() -> (Simulation<AnyNode, LatencyScheduler>, ClientId, Vec<ClientId>) {
    let config = SystemConfig {
        num_servers: 2,
        num_objects: 2,
        num_readers: 1,
        num_writers: 2,
        c2c_allowed: false,
    };
    let mut sim = Simulation::new(LatencyScheduler::fifo());
    for node in deploy_any(ProtocolKind::Eiger, &config).expect("valid config") {
        sim.add_process(node);
    }
    let reader = config.readers().next().unwrap();
    (sim, reader, config.writers().collect())
}

/// True for the READ's first-round request for object `of`.
fn read_first(p: &PendingMessage<AnyMsg>, of: ObjectId) -> bool {
    matches!(p.msg, AnyMsg::Eiger(EigerMsg::ReadFirst { object, .. }) if object == of)
}

/// Drives the Eiger deployment through the Fig. 5 schedule and returns the
/// raw history plus the READ's transaction id — the input any
/// strict-serializability engine must convict.
pub fn fig5_history() -> (History, snow_core::TxId) {
    let (mut sim, reader, writers) = fig5_deployment();

    // w1: writes o1 = 100; runs to completion.
    let w1 = sim.invoke_at(0, writers[0], TxSpec::write(vec![(ObjectId(1), W1_VALUE)]));
    assert!(sim.run_until_complete(w1));

    // The READ transaction begins, concurrent with w2 and w3.
    let r = sim.invoke_now(reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
    assert!(matches!(sim.step(), StepOutcome::Invoked(_)));
    // Deliver r_B (the read of o1) to s1 now, before w2 reaches s1.
    sim.deliver_where(|p| read_first(p, ObjectId(1)))
        .expect("read of o1 is in flight");

    // Hold the read of o0 back while w2 and then w3 run to completion.
    let hold = |p: &PendingMessage<AnyMsg>| !read_first(p, ObjectId(0));
    let w2 = sim.invoke_now(writers[0], TxSpec::write(vec![(ObjectId(1), W2_VALUE)]));
    sim.force_invoke(writers[0]);
    while !sim.is_complete(w2) {
        assert!(sim.deliver_where(hold).is_some());
    }
    let w3 = sim.invoke_now(writers[1], TxSpec::write(vec![(ObjectId(0), W3_VALUE)]));
    sim.force_invoke(writers[1]);
    while !sim.is_complete(w3) {
        assert!(sim.deliver_where(hold).is_some());
    }

    // Now deliver r_A (the read of o0): it observes w3.
    sim.deliver_where(|p| read_first(p, ObjectId(0)))
        .expect("read of o0 is in flight");
    assert!(sim.run_until_complete(r));
    (sim.history(), r)
}

/// Drives the Fig. 5 schedule and checks the resulting history.
pub fn run_fig5() -> Fig5Report {
    let (history, r) = fig5_history();
    let rec = history.get(r).expect("read recorded");
    let outcome = rec.outcome.as_ref().unwrap().as_read().unwrap();
    let read_o0 = outcome.value_for(ObjectId(0)).unwrap();
    let read_o1 = outcome.value_for(ObjectId(1)).unwrap();
    let accepted_first_round = rec.rounds == 1;

    let verdict = SearchChecker::new().check(&history);
    let (verdict_is_violation, verdict_detail) = match verdict {
        Verdict::NotSerializable(d) => (true, d),
        Verdict::Serializable(order) => (false, format!("unexpectedly serializable: {order:?}")),
        Verdict::Unknown(d) => (false, d),
    };

    Fig5Report {
        read_o0,
        read_o1,
        accepted_first_round,
        verdict_is_violation,
        verdict_detail,
        transactions: history.len(),
    }
}

/// Sanity companion to [`run_fig5`]: the same transactions issued
/// sequentially (no adversarial schedule) are strictly serializable, showing
/// the violation comes from the schedule, not from the workload.
pub fn run_fig5_sequential_control() -> bool {
    let (mut sim, reader, writers) = fig5_deployment();
    for (writer, spec) in [
        (writers[0], TxSpec::write(vec![(ObjectId(1), W1_VALUE)])),
        (writers[0], TxSpec::write(vec![(ObjectId(1), W2_VALUE)])),
        (writers[1], TxSpec::write(vec![(ObjectId(0), W3_VALUE)])),
    ] {
        let tx = sim.invoke_now(writer, spec);
        assert!(sim.run_until_complete(tx));
    }
    let r = sim.invoke_now(reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
    assert!(sim.run_until_complete(r));
    SearchChecker::new().check(&sim.history()).is_serializable()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_reproduces_the_paper_outcome() {
        let report = run_fig5();
        assert_eq!(report.read_o0, W3_VALUE, "r_A returns w3's value");
        assert_eq!(report.read_o1, W1_VALUE, "r_B returns w1's value, missing w2");
        assert!(report.accepted_first_round, "Eiger accepted the overlapping intervals");
        assert_eq!(report.transactions, 4, "the report counts w1, w2, w3 and R");
    }

    #[test]
    fn fig5_history_is_not_strictly_serializable() {
        let report = run_fig5();
        assert!(report.verdict_is_violation, "{}", report.verdict_detail);
    }

    #[test]
    fn sequential_control_is_serializable() {
        assert!(run_fig5_sequential_control());
    }
}
