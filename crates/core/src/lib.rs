//! # snow-core
//!
//! Core data model for the `snow-rs` reproduction of *"SNOW Revisited:
//! Understanding When Ideal READ Transactions Are Possible"* (Konwar, Lloyd,
//! Lu, Lynch).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * process identities ([`ids`]) — clients (readers / writers) and servers
//!   (shards), matching the two-tier architecture of §2 of the paper;
//! * the transaction data type `OT` of §7.1 ([`txn`], [`value`]): READ
//!   transactions that read a subset of objects and WRITE transactions that
//!   update a subset of objects, each object living on exactly one shard;
//! * versioning vocabulary ([`key`]): keys `κ = (z, w)` identifying WRITE
//!   transactions and tags `t ∈ ℕ` giving them a total order;
//! * the versioned object store kept by servers ([`store`]);
//! * execution histories ([`history`]): INV/RESP records with the returned
//!   versions, round counts, and blocking behaviour used by `snow-checker`
//!   to validate the SNOW properties of §2.1;
//! * the SNOW property lattice itself ([`properties`]);
//! * system configuration ([`config`]) and error types ([`error`]);
//! * the transport-agnostic protocol engine contract ([`process`], [`msg`]):
//!   protocols are [`Process`] state machines emitting output actions into
//!   an [`Effects`] buffer, and their messages self-classify via
//!   [`ProtocolMessage`] so any substrate can derive round counts and
//!   non-blocking verdicts without understanding payloads.
//!
//! `snow-core` has no opinion on *how* messages are delivered; the
//! deterministic simulator (`snow-sim`) executes [`Process`] machines over
//! these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod hash;
pub mod history;
pub mod ids;
pub mod key;
pub mod msg;
pub mod process;
pub mod properties;
pub mod store;
pub mod txn;
pub mod value;

pub use config::SystemConfig;
pub use error::{Result, SnowError};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use history::{History, ReadResult, TxRecord};
pub use msg::{MsgId, MsgInfo, MsgKind, ProtocolMessage};
pub use process::{Effects, Process};
pub use ids::{ClientId, ClientRole, ObjectId, ProcessId, ServerId, TxId};
pub use key::{Key, Tag};
pub use properties::{PropertyReport, SnowProperty, SnowPropertySet};
pub use store::{ObjectVersions, ShardStore};
pub use txn::{ObjectRead, ReadOutcome, ReadSpec, TxKind, TxOutcome, TxSpec, WriteOutcome, WriteSpec};
pub use value::Value;
