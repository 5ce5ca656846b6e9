//! The SNOW properties (§2.1) as first-class values.
//!
//! * **S** — strict serializability: there is a total order of all
//!   transactions, consistent with real time, under which the execution is
//!   equivalent to a sequential one.
//! * **N** — non-blocking reads: servers answer read requests without
//!   waiting for any other input action.
//! * **O** — one response per read: each read uses one round trip and the
//!   response carries exactly one version.
//! * **W** — conflicting WRITE transactions: READ transactions coexist with
//!   concurrent WRITE transactions, and every WRITE eventually completes.
//!
//! The paper also studies relaxations of **O**: *one-round* (a single round
//!   trip, any number of versions — Algorithm C) and *one-version* (a single
//!   version per response, any bounded number of rounds — Algorithm B).

use std::fmt;

/// One of the four SNOW properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnowProperty {
    /// Strict serializability.
    StrictSerializability,
    /// Non-blocking reads.
    NonBlocking,
    /// One response per read (one round *and* one version).
    OneResponse,
    /// Conflicting, eventually-completing WRITE transactions.
    ConflictingWrites,
}

impl SnowProperty {
    /// The canonical single-letter name used by the paper.
    pub fn letter(&self) -> char {
        match self {
            SnowProperty::StrictSerializability => 'S',
            SnowProperty::NonBlocking => 'N',
            SnowProperty::OneResponse => 'O',
            SnowProperty::ConflictingWrites => 'W',
        }
    }

    /// All four properties, in S-N-O-W order.
    pub fn all() -> [SnowProperty; 4] {
        [
            SnowProperty::StrictSerializability,
            SnowProperty::NonBlocking,
            SnowProperty::OneResponse,
            SnowProperty::ConflictingWrites,
        ]
    }
}

impl fmt::Display for SnowProperty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// A set of SNOW properties an algorithm claims (or an execution exhibits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SnowPropertySet {
    /// Strict serializability.
    pub s: bool,
    /// Non-blocking reads.
    pub n: bool,
    /// One response per read (one round and one version).
    pub o: bool,
    /// Conflicting writes supported.
    pub w: bool,
}

impl SnowPropertySet {
    /// The full SNOW set.
    pub const SNOW: SnowPropertySet = SnowPropertySet {
        s: true,
        n: true,
        o: true,
        w: true,
    };

    /// The SNW set (O relaxed) claimed by Algorithms B and C.
    pub const SNW: SnowPropertySet = SnowPropertySet {
        s: true,
        n: true,
        o: false,
        w: true,
    };

    /// True if the given property is in the set.
    pub fn contains(&self, p: SnowProperty) -> bool {
        match p {
            SnowProperty::StrictSerializability => self.s,
            SnowProperty::NonBlocking => self.n,
            SnowProperty::OneResponse => self.o,
            SnowProperty::ConflictingWrites => self.w,
        }
    }

    /// True if every property in `other` is also in `self`.
    pub fn includes(&self, other: &SnowPropertySet) -> bool {
        (!other.s || self.s) && (!other.n || self.n) && (!other.o || self.o) && (!other.w || self.w)
    }

    /// Number of properties held.
    pub fn count(&self) -> usize {
        [self.s, self.n, self.o, self.w].iter().filter(|b| **b).count()
    }
}

impl fmt::Display for SnowPropertySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::with_capacity(4);
        for (held, c) in [(self.s, 'S'), (self.n, 'N'), (self.o, 'O'), (self.w, 'W')] {
            if held {
                out.push(c);
            } else {
                out.push('-');
            }
        }
        write!(f, "{out}")
    }
}

/// The verdict a checker reaches about one property over one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyReport {
    /// The property checked.
    pub property: SnowProperty,
    /// Whether the execution satisfied it.
    pub holds: bool,
    /// Human-readable explanation (the violating transaction(s), counts, …).
    pub detail: String,
}

impl PropertyReport {
    /// A passing report.
    pub fn pass(property: SnowProperty, detail: impl Into<String>) -> Self {
        PropertyReport {
            property,
            holds: true,
            detail: detail.into(),
        }
    }

    /// A failing report.
    pub fn fail(property: SnowProperty, detail: impl Into<String>) -> Self {
        PropertyReport {
            property,
            holds: false,
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_and_order() {
        let all = SnowProperty::all();
        let letters: String = all.iter().map(|p| p.letter()).collect();
        assert_eq!(letters, "SNOW");
        assert_eq!(SnowProperty::NonBlocking.to_string(), "N");
    }

    #[test]
    fn property_set_membership_and_display() {
        assert!(SnowPropertySet::SNOW.contains(SnowProperty::OneResponse));
        assert!(!SnowPropertySet::SNW.contains(SnowProperty::OneResponse));
        assert_eq!(SnowPropertySet::SNOW.to_string(), "SNOW");
        assert_eq!(SnowPropertySet::SNW.to_string(), "SN-W");
        assert_eq!(SnowPropertySet::SNOW.count(), 4);
        assert_eq!(SnowPropertySet::SNW.count(), 3);
        assert_eq!(SnowPropertySet::default().count(), 0);
    }

    #[test]
    fn includes_is_subset_order() {
        assert!(SnowPropertySet::SNOW.includes(&SnowPropertySet::SNW));
        assert!(!SnowPropertySet::SNW.includes(&SnowPropertySet::SNOW));
        assert!(SnowPropertySet::SNW.includes(&SnowPropertySet::default()));
    }

    #[test]
    fn reports_carry_verdicts() {
        let p = PropertyReport::pass(SnowProperty::NonBlocking, "all reads answered inline");
        assert!(p.holds);
        let f = PropertyReport::fail(SnowProperty::StrictSerializability, "cycle r1 -> w1 -> r1");
        assert!(!f.holds);
        assert_eq!(f.property, SnowProperty::StrictSerializability);
    }
}
