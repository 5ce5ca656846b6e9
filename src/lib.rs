//! # snow
//!
//! Facade crate for the `snow-rs` workspace: a reproduction of
//! *"SNOW Revisited: Understanding When Ideal READ Transactions Are
//! Possible"* (Konwar, Lloyd, Lu, Lynch).
//!
//! Re-exports every workspace crate under a short module name; see
//! `README.md` for the quickstart and `ARCHITECTURE.md` for the crate map,
//! the `Process`/`Effects` contract and the one simulator type.

#![forbid(unsafe_code)]

pub use snow_checker as checker;
pub use snow_core as core;
pub use snow_impossibility as impossibility;
pub use snow_obs as obs;
pub use snow_protocols as protocols;
pub use snow_sim as sim;
pub use snow_workload as workload;
