//! Deterministic observability for the snow-rs workspace.
//!
//! Three pieces, each usable on its own:
//!
//! * [`event`] — the typed event vocabulary ([`ObsEvent`]) and the
//!   [`TraceSink`] trait the execution substrates emit into.  The default
//!   sink is [`NullSink`], whose `ENABLED = false` associated constant lets
//!   every emission site compile away under monomorphization: an unobserved
//!   simulation is *bit-identical* (goldens included) and *cost-identical*
//!   to one built before this crate existed.
//! * [`metrics`] — [`fold_events`] derives the simulator's metrics
//!   (counters, gauges, log2-bucket histograms) from a recorded event
//!   stream on demand, so the substrates never pay for live aggregation.
//! * [`perfetto`] — a Chrome-trace-event/Perfetto JSON writer (shards
//!   become threads, transactions become async spans) plus [`json`], a
//!   small JSON parser used to schema-check exported traces in tests.
//!
//! # Virtual time only
//!
//! Events are stamped with **virtual ticks only** — they are pure functions
//! of `(config, seeds, shards)` and reproduce byte for byte across runs
//! (`scripts/ci.sh` greps `crates/sim` to keep wall clocks out).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod perfetto;

pub use event::{NullSink, ObsEvent, RecordingSink, ShardEvent, TraceSink};
pub use metrics::{fold_events, HistogramSnapshot, Log2Histogram, MetricsSnapshot};
pub use perfetto::perfetto_json;
