//! The Fig. 4 argument behind Theorem 2: SNOW is impossible with one reader
//! and one writer when client-to-client communication is disallowed.
//!
//! Assume an algorithm `A` with all SNOW properties in the two-client
//! two-server system `{r₁, w, s_x, s_y}` and no C2C channel.  Lemmas 15–19
//! establish an execution η in which the reader's two request messages are
//! sent *before* the WRITE is invoked, the WRITE then runs to completion,
//! and only afterwards do the servers serve the two non-blocking read
//! fragments — which therefore return `(x₁, y₁)`.
//!
//! The inductive argument (the δ-chain) then pushes the two non-blocking
//! fragments earlier one prefix action at a time.  Actions at `w` or `r₁`
//! commute directly (Lemma 2); actions at a server are handled by the
//! *re-creation* argument: because the algorithm is non-blocking and
//! one-response, the network may deliver the read request at the earlier
//! point and the server must answer immediately — and by indistinguishability
//! the value it sends cannot change, because a single action cannot be the
//! point at which both servers switch versions (the Lemma 5-style minimal-k
//! argument).  Pushed all the way, `R₁` completes before `INV(W)` while still
//! returning `(x₁, y₁)` — an execution that violates strict serializability,
//! as the search checker confirms.

use crate::fragments::{Automaton, Execution, Fragment, MsgLabel};
use snow_checker::{SearchChecker, Verdict};
use snow_core::{
    ClientId, History, Key, ObjectId, ObjectRead, ReadOutcome, TxId, TxOutcome, TxRecord, TxSpec,
    Value, WriteOutcome,
};

/// One move of the δ-chain.
#[derive(Debug, Clone)]
pub struct DeltaMove {
    /// The fragment that was moved earlier.
    pub fragment: String,
    /// The prefix action it moved past.
    pub past: String,
    /// "Lemma 2" for cross-automaton swaps, "re-creation (N property)" for
    /// same-server moves.
    pub justification: String,
}

/// The report of the mechanized Theorem 2 argument.
#[derive(Debug, Clone)]
pub struct TwoClientReport {
    /// The fragment order of the starting execution η.
    pub initial_order: Vec<String>,
    /// The fragment order of the final execution φ.
    pub final_order: Vec<String>,
    /// Every move performed, in order.
    pub moves: Vec<DeltaMove>,
    /// True if, in φ, both read fragments precede `INV(W)`.
    pub read_before_write_invocation: bool,
    /// The version R₁ returns in φ (must be 1 for the contradiction).
    pub r1_returns_version: u8,
    /// The strict-serializability verdict on φ's outcome history.
    pub verdict_is_violation: bool,
    /// The checker's explanation.
    pub verdict_detail: String,
}

fn msg(s: &str) -> MsgLabel {
    MsgLabel::new(s)
}

/// Builds η (Lemma 19): the reader's sends precede `INV(W)`, the WRITE runs
/// to completion, and only then are the two read fragments served, returning
/// the new versions.
fn eta() -> Execution {
    Execution::new(vec![
        // The reader sends both read requests before the WRITE is invoked
        // (Lemma 17 arranges this, using only the asynchrony of the network).
        Fragment::new("I1", Automaton::Reader1, vec![], vec![msg("mx_r1"), msg("my_r1")]),
        // The WRITE transaction W = (x1, y1), action by action.
        Fragment::internal("INV(W)", Automaton::Writer),
        Fragment::new("send(wx)", Automaton::Writer, vec![], vec![msg("wx")]),
        Fragment::new("apply(wx)", Automaton::ServerX, vec![msg("wx")], vec![msg("ack_x")]),
        Fragment::new("recv(ack_x)", Automaton::Writer, vec![msg("ack_x")], vec![]),
        Fragment::new("send(wy)", Automaton::Writer, vec![], vec![msg("wy")]),
        Fragment::new("apply(wy)", Automaton::ServerY, vec![msg("wy")], vec![msg("ack_y")]),
        Fragment::new("recv(ack_y)", Automaton::Writer, vec![msg("ack_y")], vec![]),
        Fragment::internal("RESP(W)", Automaton::Writer),
        // The two non-blocking read fragments, served after the WRITE: by the
        // S property they return the new versions.
        Fragment::new("F1x", Automaton::ServerX, vec![msg("mx_r1")], vec![msg("x_r1")]).returning(1),
        Fragment::new("F1y", Automaton::ServerY, vec![msg("my_r1")], vec![msg("y_r1")]).returning(1),
        Fragment::new("E1", Automaton::Reader1, vec![msg("x_r1"), msg("y_r1")], vec![]),
    ])
}

/// Moves `fragment` one position left.  Cross-automaton, causally independent
/// moves use Lemma 2; a move past an action at the *same* server is the
/// re-creation step justified by the N property (the fragment's returned
/// version is preserved, which is exactly the paper's case (iii)/(iv)
/// analysis: one action cannot change the value both servers return).
fn move_left_with_recreation(exec: &Execution, fragment: &str) -> Option<(Execution, DeltaMove)> {
    let pos = exec.position(fragment)?;
    if pos == 0 {
        return None;
    }
    let left = exec.fragments[pos - 1].clone();
    let me = exec.fragments[pos].clone();
    // Never move a read fragment before the send of its own request.
    if left.sends.iter().any(|m| me.recvs.contains(m)) && left.at != me.at {
        return None;
    }
    let justification = if left.at != me.at && me.independent_of(&left) {
        "Lemma 2 (distinct automata, causally independent)".to_string()
    } else if left.at == me.at && me.returns_version.is_some() {
        "re-creation (N property): the server answers immediately wherever the request is \
         delivered; by the minimal-k argument the returned version is unchanged"
            .to_string()
    } else {
        // Same-automaton move of a non-read fragment, or an unresolvable
        // causal dependency: not justified by any argument of the paper.
        return None;
    };
    let mut fragments = exec.fragments.clone();
    fragments.swap(pos - 1, pos);
    Some((
        Execution::new(fragments),
        DeltaMove {
            fragment: fragment.to_string(),
            past: left.label,
            justification,
        },
    ))
}

/// Runs the δ-chain: pushes `F1x`, `F1y` and `E1` before every WRITE action.
pub fn run_two_client_chain() -> TwoClientReport {
    let start = eta();
    let initial_order = start.labels();
    let mut exec = start;
    let mut moves = Vec::new();

    // Push F1x as early as possible (it can go all the way to just after I1,
    // which sends its request), then F1y, then E1 (which must stay after
    // both F fragments because it receives their responses).
    for fragment in ["F1x", "F1y", "E1"] {
        while let Some((next, mv)) = move_left_with_recreation(&exec, fragment) {
            moves.push(mv);
            exec = next;
        }
    }

    let final_order = exec.labels();
    let inv_w = exec.position("INV(W)").unwrap();
    let read_before_write_invocation = ["F1x", "F1y", "E1"]
        .iter()
        .all(|f| exec.position(f).unwrap() < inv_w);
    let r1_returns_version = exec.fragments[exec.position("F1x").unwrap()]
        .returns_version
        .unwrap();

    // φ's outcome history: R1 completes before W is invoked, yet returns the
    // values W writes.
    let history = phi_history();
    let verdict = SearchChecker::new().check(&history);
    let (verdict_is_violation, verdict_detail) = match verdict {
        Verdict::NotSerializable(d) => (true, d),
        Verdict::Serializable(_) => (false, "unexpectedly serializable".into()),
        Verdict::Unknown(d) => (false, d),
    };

    TwoClientReport {
        initial_order,
        final_order,
        moves,
        read_before_write_invocation,
        r1_returns_version,
        verdict_is_violation,
        verdict_detail,
    }
}

/// The outcome history of φ: R₁ (returning the written values) completes
/// before W is invoked.  Public so external strict-serializability engines
/// can be held to convicting it.
pub fn phi_history() -> History {
    let writer = ClientId(1);
    let w_key = Key::new(1, writer);
    let mut h = History::new();

    let mut r = TxRecord::invoked(
        TxId(1),
        ClientId(0),
        TxSpec::read(vec![ObjectId(0), ObjectId(1)]),
        0,
    );
    r.responded_at = Some(10);
    r.outcome = Some(TxOutcome::Read(ReadOutcome {
        reads: vec![
            ObjectRead {
                object: ObjectId(0),
                key: w_key,
                value: Value(1),
            },
            ObjectRead {
                object: ObjectId(1),
                key: w_key,
                value: Value(1),
            },
        ],
        tag: None,
    }));
    h.push(r);

    let mut w = TxRecord::invoked(
        TxId(2),
        writer,
        TxSpec::write(vec![(ObjectId(0), Value(1)), (ObjectId(1), Value(1))]),
        20,
    );
    w.responded_at = Some(30);
    w.outcome = Some(TxOutcome::Write(WriteOutcome { key: w_key, tag: None }));
    h.push(w);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_delta_chain_pushes_the_read_before_the_write_invocation() {
        let report = run_two_client_chain();
        assert!(report.read_before_write_invocation, "{:?}", report.final_order);
        assert_eq!(report.r1_returns_version, 1);
        assert!(!report.moves.is_empty());
        // The read request sends themselves never move (I1 stays first).
        assert_eq!(report.final_order[0], "I1");
    }

    #[test]
    fn the_chain_uses_both_lemma2_and_recreation_moves() {
        let report = run_two_client_chain();
        let lemma2 = report.moves.iter().filter(|m| m.justification.starts_with("Lemma 2")).count();
        let recreation = report
            .moves
            .iter()
            .filter(|m| m.justification.starts_with("re-creation"))
            .count();
        assert!(lemma2 > 0, "some moves are plain Lemma 2 swaps");
        assert!(
            recreation >= 2,
            "moving past apply(wx)/apply(wy) requires the N-property re-creation argument"
        );
    }

    #[test]
    fn phi_outcome_violates_strict_serializability() {
        let report = run_two_client_chain();
        assert!(report.verdict_is_violation, "{}", report.verdict_detail);
    }

    #[test]
    fn eta_is_well_formed() {
        let e = eta();
        assert_eq!(e.fragments.len(), 12);
        // F1x depends on I1's send, so it can never move before I1.
        let i1 = e.position("I1").unwrap();
        let f1x = e.position("F1x").unwrap();
        assert!(i1 < f1x);
    }

    #[test]
    fn e1_never_overtakes_the_fragments_it_depends_on() {
        let report = run_two_client_chain();
        let pos = |l: &str| report.final_order.iter().position(|x| x == l).unwrap();
        assert!(pos("F1x") < pos("E1"));
        assert!(pos("F1y") < pos("E1"));
    }
}
