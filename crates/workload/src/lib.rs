//! # snow-workload
//!
//! Workload generation and driving for the SNOW protocol comparisons:
//!
//! * [`zipf`] — a Zipfian popularity sampler (hot keys dominate, as in the
//!   TAO / Spanner workloads the paper's introduction cites);
//! * [`generator`] — read/write transaction mixes (e.g. the 500:1 read:write
//!   ratio Facebook reports for TAO), with configurable objects-per-READ and
//!   objects-per-WRITE;
//! * [`driver`] — drives a generated workload against any
//!   [`snow_protocols::Cluster`] in rounds of concurrent transactions, or
//!   paced per client, returning the history for the checker and the
//!   metrics tables;
//! * [`open_loop`] — drives any cluster at a fixed offered rate instead:
//!   latency-vs-load curves and saturation knees;
//! * [`scenario`] — the scenario matrix: protocols × geo-topologies ×
//!   workload shapes, each cell running on a topology-scheduled cluster and
//!   condensed into an [`SloReport`] (SNOW verdict, p50/p99 read latency,
//!   rounds, C2C counts) — one row of `snow table scenarios` (in `snow-bench`).
//!
//! Every driver is a plan run on one of two loops in [`driver`]: the round
//! loop, which waits for quiescence after each round (`run`,
//! `run_checked_mode`, `run_read_probe`, `run_scenario`), and the
//! completion loop, which waits for any transaction to complete and refills
//! that client's slot (`run_paced`, `drive_open_loop`).  The checked
//! entry points share one check path over either loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod generator;
pub mod open_loop;
pub mod scenario;
pub mod zipf;

pub use driver::{CheckMode, DriverReport, WorkloadDriver};
pub use open_loop::{
    arrival_schedule, drive_open_loop, drive_open_loop_checked, rate_sweep, zipf_sweep, Arrival,
    OpenLoopReport, OpenLoopSpec, RateSweep,
};
pub use generator::{GeneratedTx, WorkloadGenerator, WorkloadSpec};
pub use scenario::{
    run_scenario, scenario_matrix, slo_report, Scenario, ScenarioRun, SloReport, TopologyKind,
    WorkloadShape,
};
pub use zipf::Zipf;
