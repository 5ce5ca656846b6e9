//! Object values.
//!
//! The paper treats each object's value domain `Vᵢ` abstractly.  We use a
//! compact fixed-width payload: benchmarks never care about the bytes, and
//! the checker cares only about *which write produced* a value, which is
//! carried separately as a [`crate::key::Key`].

use std::fmt;

/// The value stored in an object.
///
/// The `u64` payload is opaque to every protocol.  The distinguished value
/// [`Value::INITIAL`] plays the role of the initial value `v⁰ᵢ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(pub u64);

impl Value {
    /// The initial value `v⁰` shared by every object at time zero.
    pub const INITIAL: Value = Value(0);

    /// Derives a deterministic, human-traceable value for the `seq`-th write
    /// of writer `w` to object `o`.  Used by workload generators so that a
    /// value read back can be eyeballed against the write that produced it.
    pub fn derived(writer: u32, seq: u64, object: u32) -> Value {
        // Pack (writer, seq, object) into 64 bits: 16 | 32 | 16.
        let w = (writer as u64 & 0xFFFF) << 48;
        let s = (seq & 0xFFFF_FFFF) << 16;
        let o = object as u64 & 0xFFFF;
        Value(w | s | o)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:x}", self.0)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_is_zero_and_default() {
        assert_eq!(Value::INITIAL, Value(0));
        assert_eq!(Value::default(), Value::INITIAL);
    }

    #[test]
    fn derived_values_are_distinct_across_writers_seqs_objects() {
        let a = Value::derived(1, 1, 0);
        let b = Value::derived(2, 1, 0);
        let c = Value::derived(1, 2, 0);
        let d = Value::derived(1, 1, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(b, c);
    }

    #[test]
    fn display_and_from() {
        let v: Value = 0x2au64.into();
        assert_eq!(v, Value(42));
        assert_eq!(v.to_string(), "v2a");
    }
}
