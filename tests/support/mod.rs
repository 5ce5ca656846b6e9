//! Code shared by the integration tests (not a test target of its own).

pub mod lemma20;
