//! # snow-checker
//!
//! Execution-history checkers for the SNOW properties (§2.1) and for strict
//! serializability of the transaction data type `OT` (§7).
//!
//! Five strict-serializability engines are provided:
//!
//! * [`strict::TagOrderChecker`] — implements the sufficient condition of
//!   **Lemma 20** (properties P1–P4 over the tag order).  Its P2/P4
//!   conditions run as single sweeps over the tag-sorted history
//!   (O(n log n) total), so it decides 100k+-transaction histories in
//!   milliseconds; it is the engine of choice for Algorithms A, B and C,
//!   which expose the tag each transaction serializes at.
//! * [`graph::GraphChecker`] — the scalable engine: extracts per-object
//!   version orders (from tags when present, from read observations and
//!   real time otherwise), builds a precedence DAG over transactions
//!   (real-time via an `O(n)` time chain, write→read, write→write,
//!   anti-dependency edges), detects cycles with iterative Kahn/Tarjan
//!   passes and replay-validates the topological witness.  Ambiguous
//!   version orders fall back to a budgeted polygraph-style
//!   constraint-splitting search.  It checks full workload histories
//!   (100k+ transactions) end to end when tags settle the version orders;
//!   on large untagged histories (the baselines' runs) the splitting
//!   budget can run out, and it returns `Unknown` where the stream engine
//!   below decides (ROADMAP item 13).
//! * [`strict::SearchChecker`] — a backtracking search for *any* total order
//!   consistent with real time and the sequential semantics of `OT`.  It is
//!   exponential in the worst case but complete, and remains the oracle the
//!   graph engine is differentially tested against on small histories.
//! * [`stream::StreamChecker`] — the graph engine made incremental: ingests
//!   committed transactions one at a time, maintains the precedence DAG
//!   online with Pearce–Kelly topological ordering, and advances a sliding
//!   certification frontier that retires certified prefixes so memory stays
//!   O(live window + in-flight).  Violations are reported at the offending
//!   transaction; ambiguous windows re-use [`graph::GraphChecker`]'s
//!   constraint-splitting solver over the live window only.
//! * [`tag_stream::TagOrderStream`] — Lemma 20 checked incrementally over
//!   the same commit stream: P2 on each commit's arrival, P3/P4 as the
//!   watermark certifies the rank-prefix of held commits, O(log held) per
//!   commit and no precedence graph.  It borrows each commit and holds
//!   only its rank, reading the record back from a record source (the
//!   cluster mid-run, the taken history at the end) when it certifies it.
//!   When tags cannot decide (an untagged commit, or a P2–P4 failure) it
//!   hands over to [`stream::StreamChecker`].  It is the checker behind
//!   the drivers' streaming check mode.
//!
//! [`strict::check_auto`] picks an engine by history shape: all-tagged
//! histories go to the tag-order checker (at any size), everything else to
//! the graph engine, with the search checker as the last resort for small
//! histories whose ambiguity exceeds the graph engine's splitting budget.
//! Tag-order *acceptance* is authoritative (Lemma 20 is sufficient); a
//! tag-order conviction is confirmed semantically by the graph engine
//! before being reported.
//!
//! [`snow::SnowChecker`] verifies the N, O (one-round / one-version) and W
//! properties from the per-transaction instrumentation the simulator derives
//! from its trace, and [`metrics`] aggregates the latency / round / version
//! statistics the benchmark tables report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod metrics;
pub mod ot;
pub mod report;
pub mod snow;
pub mod stream;
pub mod strict;
pub mod tag_stream;

pub use graph::GraphChecker;
pub use metrics::{HistoryMetrics, LatencyStats};
pub use ot::SequentialOt;
pub use report::SnowReport;
pub use snow::SnowChecker;
pub use stream::{StreamChecker, StreamReport};
pub use strict::{check_auto, SearchChecker, TagOrderChecker, Verdict};
pub use tag_stream::{StreamLane, TagOrderStream};
