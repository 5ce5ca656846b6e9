//! # snow-checker
//!
//! Execution-history checkers for the SNOW properties (§2.1) and for strict
//! serializability of the transaction data type `OT` (§7).
//!
//! Three strict-serializability engines are provided:
//!
//! * [`tag_stream::TagOrderStream`] — the sufficient condition of
//!   **Lemma 20** (properties P1–P4 over the tag order), checked
//!   incrementally over a commit stream: P2 on each commit's arrival, P3/P4
//!   as the watermark certifies the rank-prefix of held commits, O(log held)
//!   per commit and no precedence graph.  It is the engine of choice for
//!   Algorithms A, B and C, which expose the tag each transaction
//!   serializes at.  It borrows each commit and holds only its rank,
//!   reading the record back by id from a record source (the cluster's
//!   `record` mid-run, [`snow_core::History::get`] at the end) when it
//!   certifies it; it never copies a record.  When tags cannot decide (an
//!   untagged commit, or a P2–P4 failure) it stops, and its verdict is
//!   [`stream::StreamChecker::check`] on the whole history.  It is the
//!   checker behind the drivers' checked runs, fed live, and behind
//!   [`strict::check_auto`], fed a finished history, so a checked run's
//!   verdict is `check_auto`'s on the history it took.
//! * [`stream::StreamChecker`] — the one semantic engine: ingests committed
//!   transactions one at a time, maintains the precedence DAG online with
//!   Pearce–Kelly topological ordering, and advances a sliding
//!   certification frontier that retires certified prefixes so memory stays
//!   O(live window + in-flight).  Violations are reported at the offending
//!   transaction.  [`stream::StreamChecker::check`] runs it over a whole
//!   history.
//! * [`strict::SearchChecker`] — a backtracking search for *any* total order
//!   consistent with real time and the sequential semantics of `OT`.  It is
//!   exponential in the worst case but complete, and remains the oracle the
//!   stream engine is differentially tested against on small histories.
//!
//! Behind the stream engine sits a crate-private window solver (`solve.rs`):
//! per-object version orders, a precedence DAG over a time chain,
//! Kahn/Tarjan cycle detection and a budgeted polygraph-style
//! constraint-splitting search.  The stream runs it over its live window
//! when the incremental order breaks, and over a sealed segment when a late
//! read forces it to be re-linearised — never over a whole history.
//!
//! [`strict::check_auto`] decides a finished history: a
//! [`tag_stream::TagOrderStream`] fed the history's commits in RESP order
//! under hindsight watermarks.  Its acceptance is authoritative, since
//! Lemma 20 is sufficient; where the tags cannot decide, the verdict is
//! [`stream::StreamChecker::check`]'s.  [`GraphChecker`] is a settings-free forward to
//! [`stream::StreamChecker::check`] under the name of the whole-history
//! graph engine it replaced.
//!
//! [`snow::SnowChecker`] verifies the N, O (one-round / one-version) and W
//! properties from the per-transaction instrumentation the simulator derives
//! from its trace, and [`metrics`] aggregates the latency / round / version
//! statistics the benchmark tables report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
pub mod metrics;
pub mod ot;
pub mod report;
pub mod snow;
mod solve;
pub mod stream;
pub mod strict;
pub mod tag_stream;

pub use graph::GraphChecker;
pub use metrics::{HistoryMetrics, LatencyStats};
pub use ot::SequentialOt;
pub use report::SnowReport;
pub use snow::SnowChecker;
pub use stream::{StreamChecker, StreamReport};
pub use strict::{check_auto, SearchChecker, Verdict};
pub use tag_stream::{StreamLane, TagOrderStream};
