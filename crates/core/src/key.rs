//! Keys and tags: the versioning vocabulary of Algorithms A, B and C.
//!
//! * A **key** `κ = (z, w)` uniquely identifies the WRITE transaction that is
//!   the `z`-th WRITE issued by writer `w` (§5.2).  Keys name versions:
//!   server state maps keys to the value written under that key.
//! * A **tag** `t ∈ ℕ` is the position a WRITE transaction occupies in the
//!   ordered `List` (kept by the reader in Algorithm A, by the coordinator
//!   `s*` in Algorithms B and C).  Tags induce the total order used by the
//!   strict-serializability argument (Lemma 20, P3).

use crate::ids::ClientId;
use std::fmt;

/// A version key `κ = (z, w)`: the `z`-th WRITE transaction of writer `w`.
///
/// The distinguished initial key [`Key::initial`] plays the role of `κ₀`
/// in the paper: it names the initial value `v⁰` of every object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    /// Per-writer sequence number `z` (1-based for real writes; 0 for `κ₀`).
    pub seq: u64,
    /// Identifier of the writer that issued the WRITE transaction.
    pub writer: ClientId,
}

impl Key {
    /// The placeholder writer id `w₀` used by the initial key `κ₀`.
    pub const INITIAL_WRITER: ClientId = ClientId(u32::MAX);

    /// The initial key `κ₀ = (0, w₀)` naming the initial value of every object.
    pub const fn initial() -> Self {
        Key {
            seq: 0,
            writer: Self::INITIAL_WRITER,
        }
    }

    /// Creates a key for the `seq`-th WRITE of `writer`.  `seq` must be ≥ 1
    /// for real writes (0 is reserved for the initial key).
    pub const fn new(seq: u64, writer: ClientId) -> Self {
        Key { seq, writer }
    }

    /// True if this is the initial key `κ₀`.
    pub fn is_initial(&self) -> bool {
        self.seq == 0 && self.writer == Self::INITIAL_WRITER
    }
}

impl Default for Key {
    fn default() -> Self {
        Key::initial()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_initial() {
            write!(f, "κ0")
        } else {
            write!(f, "κ({},{})", self.seq, self.writer)
        }
    }
}

/// A tag `t ∈ ℕ`: the index of a WRITE transaction in the global `List`.
///
/// Tag 1 corresponds to the initial versions `(κ₀, v⁰)`; a WRITE that is
/// appended as the `n`-th element of `List` obtains tag `n`.  READ
/// transactions adopt the tag of the latest WRITE visible to them, which is
/// how Lemma 20's partial order `≺` is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag(pub u64);

impl Tag {
    /// The tag of the initial state (the `List` containing only `κ₀`).
    pub const INITIAL: Tag = Tag(1);

    /// Returns the next tag (the tag a WRITE appended after this one obtains).
    pub fn next(self) -> Tag {
        Tag(self.0 + 1)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_key_is_initial() {
        let k = Key::initial();
        assert!(k.is_initial());
        assert_eq!(k, Key::default());
        assert_eq!(k.to_string(), "κ0");
    }

    #[test]
    fn real_keys_are_not_initial() {
        let k = Key::new(1, ClientId(0));
        assert!(!k.is_initial());
        assert_eq!(k.to_string(), "κ(1,c0)");
        // A key with seq 0 but a real writer is not the initial key either.
        let odd = Key::new(0, ClientId(0));
        assert!(!odd.is_initial());
    }

    #[test]
    fn keys_order_by_seq_then_writer() {
        let a = Key::new(1, ClientId(0));
        let b = Key::new(1, ClientId(1));
        let c = Key::new(2, ClientId(0));
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn tags_are_ordered_and_advance() {
        assert!(Tag::INITIAL < Tag::INITIAL.next());
        assert_eq!(Tag(5).next(), Tag(6));
        assert_eq!(Tag(3).to_string(), "t3");
    }

    #[test]
    fn display_round_trip_identifies_keys_and_tags() {
        let k = Key::new(7, ClientId(2));
        assert_eq!(k.to_string(), "κ(7,c2)");
        assert_eq!(k, Key::new(7, ClientId(2)));
        assert_ne!(k.to_string(), Key::new(7, ClientId(3)).to_string());
        let t = Tag(42);
        assert_eq!(t.to_string(), "t42");
        assert_eq!(t, Tag(42));
    }
}
