//! The execution-fragment algebra of §3.
//!
//! An [`Execution`] is a sequence of [`Fragment`]s, each of which groups a
//! run of consecutive actions that all occur at a single automaton of the
//! five-process system `{r₁, r₂, w, s_x, s_y}` used by the proofs.  A
//! fragment records which messages it sends and receives, which is enough to
//! decide when two adjacent fragments may be transposed:
//!
//! > **Lemma 2 (commuting fragments), operational form.**  Adjacent
//! > fragments `G₁ ∘ G₂` occurring at *distinct* automata can be swapped to
//! > `G₂ ∘ G₁` provided neither receives a message the other sends — i.e.
//! > there is no causal dependency between them.  The per-automaton
//! > projections (and therefore, by Lemma 3, every value any server sends)
//! > are unchanged by the swap.
//!
//! The paper states the side condition in terms of "input actions" /
//! "external actions"; the message-disjointness condition used here is the
//! semantic content of that requirement and has the advantage of being
//! mechanically checkable fragment by fragment.

use std::fmt;

/// The five automata of the impossibility arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Automaton {
    /// Reader r₁.
    Reader1,
    /// Reader r₂ (unused in the two-client argument).
    Reader2,
    /// The writer w.
    Writer,
    /// Server s_x (stores object x).
    ServerX,
    /// Server s_y (stores object y).
    ServerY,
}

impl fmt::Display for Automaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Automaton::Reader1 => "r1",
            Automaton::Reader2 => "r2",
            Automaton::Writer => "w",
            Automaton::ServerX => "sx",
            Automaton::ServerY => "sy",
        };
        write!(f, "{s}")
    }
}

/// A symbolic message label, e.g. `m_x^{r1}` or `x1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MsgLabel(pub String);

impl MsgLabel {
    /// Creates a label.
    pub fn new(s: impl Into<String>) -> Self {
        MsgLabel(s.into())
    }
}

impl fmt::Display for MsgLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A fragment: a run of consecutive actions all occurring at one automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Human-readable name, e.g. `"I1"`, `"F1x(x1)"`, `"a_{k+1}"`.
    pub label: String,
    /// The automaton at which every action of the fragment occurs.
    pub at: Automaton,
    /// Messages received within the fragment.
    pub recvs: Vec<MsgLabel>,
    /// Messages sent within the fragment.
    pub sends: Vec<MsgLabel>,
    /// The object-version the fragment returns, when it is a non-blocking
    /// read fragment `F` (0 = initial version, 1 = version written by `W`).
    pub returns_version: Option<u8>,
}

impl Fragment {
    /// Creates a fragment with no message traffic (e.g. an internal step or a
    /// pure invocation fragment before its sends are modelled explicitly).
    pub fn internal(label: impl Into<String>, at: Automaton) -> Self {
        Fragment {
            label: label.into(),
            at,
            recvs: Vec::new(),
            sends: Vec::new(),
            returns_version: None,
        }
    }

    /// Creates a fragment with explicit receive and send sets.
    pub fn new(
        label: impl Into<String>,
        at: Automaton,
        recvs: Vec<MsgLabel>,
        sends: Vec<MsgLabel>,
    ) -> Self {
        Fragment {
            label: label.into(),
            at,
            recvs,
            sends,
            returns_version: None,
        }
    }

    /// Tags the fragment with the version it returns (for `F` fragments).
    pub fn returning(mut self, version: u8) -> Self {
        self.returns_version = Some(version);
        self
    }

    /// True if this fragment and `other` are causally independent: neither
    /// receives a message the other sends.
    pub fn independent_of(&self, other: &Fragment) -> bool {
        let a_feeds_b = self.sends.iter().any(|m| other.recvs.contains(m));
        let b_feeds_a = other.sends.iter().any(|m| self.recvs.contains(m));
        !a_feeds_b && !b_feeds_a
    }
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.label, self.at)
    }
}

/// Why a commute was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommuteError {
    /// Index out of range.
    OutOfRange(usize),
    /// The two fragments occur at the same automaton.
    SameAutomaton(String, String),
    /// One fragment receives a message the other sends.
    CausallyDependent(String, String),
}

impl fmt::Display for CommuteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommuteError::OutOfRange(i) => write!(f, "no adjacent pair at index {i}"),
            CommuteError::SameAutomaton(a, b) => {
                write!(f, "cannot commute {a} and {b}: same automaton")
            }
            CommuteError::CausallyDependent(a, b) => {
                write!(f, "cannot commute {a} and {b}: causally dependent")
            }
        }
    }
}

impl std::error::Error for CommuteError {}

/// A symbolic execution: an ordered sequence of fragments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Execution {
    /// The fragments, in execution order.
    pub fragments: Vec<Fragment>,
}

impl Execution {
    /// Creates an execution from fragments.
    pub fn new(fragments: Vec<Fragment>) -> Self {
        Execution { fragments }
    }

    /// The position of the fragment with `label`, if present.
    pub fn position(&self, label: &str) -> Option<usize> {
        self.fragments.iter().position(|f| f.label == label)
    }

    /// Applies Lemma 2 to the adjacent pair at `(i, i+1)`, returning the
    /// transposed execution.  Fails if the side conditions do not hold.
    pub fn commute_adjacent(&self, i: usize) -> Result<Execution, CommuteError> {
        if i + 1 >= self.fragments.len() {
            return Err(CommuteError::OutOfRange(i));
        }
        let (a, b) = (&self.fragments[i], &self.fragments[i + 1]);
        if a.at == b.at {
            return Err(CommuteError::SameAutomaton(a.label.clone(), b.label.clone()));
        }
        if !a.independent_of(b) {
            return Err(CommuteError::CausallyDependent(a.label.clone(), b.label.clone()));
        }
        let mut fragments = self.fragments.clone();
        fragments.swap(i, i + 1);
        Ok(Execution { fragments })
    }

    /// Moves the fragment labelled `label` one position earlier (i.e.
    /// commutes it with its left neighbour).  Returns the swap performed.
    pub fn move_left(&self, label: &str) -> Result<(Execution, String), CommuteError> {
        let pos = self
            .position(label)
            .ok_or(CommuteError::OutOfRange(usize::MAX))?;
        if pos == 0 {
            return Err(CommuteError::OutOfRange(0));
        }
        let swapped_with = self.fragments[pos - 1].label.clone();
        let exec = self.commute_adjacent(pos - 1)?;
        Ok((exec, format!("swap {label} before {swapped_with}")))
    }

    /// Repeatedly moves `label` left until it sits immediately after the
    /// fragment labelled `barrier` (or at the front if `barrier` is `None`).
    /// Returns the resulting execution and the list of swaps performed.
    pub fn move_before_all_until(
        &self,
        label: &str,
        barrier: Option<&str>,
    ) -> Result<(Execution, Vec<String>), CommuteError> {
        let mut exec = self.clone();
        let mut swaps = Vec::new();
        loop {
            let pos = exec
                .position(label)
                .ok_or(CommuteError::OutOfRange(usize::MAX))?;
            if pos == 0 {
                break;
            }
            let left_label = exec.fragments[pos - 1].label.clone();
            if Some(left_label.as_str()) == barrier {
                break;
            }
            let (next, swap) = exec.move_left(label)?;
            swaps.push(swap);
            exec = next;
        }
        Ok((exec, swaps))
    }

    /// The per-automaton projection: the fragments occurring at `at`, in
    /// order.  Two executions with equal projections at an automaton are
    /// indistinguishable to it (Lemma 3).
    pub fn projection(&self, at: Automaton) -> Vec<&Fragment> {
        self.fragments.iter().filter(|f| f.at == at).collect()
    }

    /// True if `self` and `other` are indistinguishable at `at`.
    pub fn indistinguishable_at(&self, other: &Execution, at: Automaton) -> bool {
        let a: Vec<&Fragment> = self.projection(at);
        let b: Vec<&Fragment> = other.projection(at);
        a == b
    }

    /// The labels, in order — handy for rendering chains.
    pub fn labels(&self) -> Vec<String> {
        self.fragments.iter().map(|f| f.label.clone()).collect()
    }

    /// True if every fragment labelled in `earlier` occurs before every
    /// fragment labelled in `later`.
    pub fn all_before(&self, earlier: &[&str], later: &[&str]) -> bool {
        let pos = |l: &str| self.position(l);
        earlier.iter().all(|e| {
            later.iter().all(|l| match (pos(e), pos(l)) {
                (Some(pe), Some(pl)) => pe < pl,
                _ => false,
            })
        })
    }
}

impl fmt::Display for Execution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<String> = self.fragments.iter().map(|fr| fr.label.clone()).collect();
        write!(f, "{}", labels.join(" ∘ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(s: &str) -> MsgLabel {
        MsgLabel::new(s)
    }

    #[test]
    fn independent_fragments_commute() {
        let g1 = Fragment::new("G1", Automaton::ServerX, vec![msg("a")], vec![msg("b")]);
        let g2 = Fragment::new("G2", Automaton::ServerY, vec![msg("c")], vec![msg("d")]);
        let exec = Execution::new(vec![g1, g2]);
        let swapped = exec.commute_adjacent(0).unwrap();
        assert_eq!(swapped.labels(), vec!["G2", "G1"]);
        // Projections at each automaton are unchanged (Lemma 3's premise).
        assert!(exec.indistinguishable_at(&swapped, Automaton::ServerX));
        assert!(exec.indistinguishable_at(&swapped, Automaton::ServerY));
    }

    #[test]
    fn same_automaton_fragments_do_not_commute() {
        let g1 = Fragment::internal("G1", Automaton::ServerX);
        let g2 = Fragment::internal("G2", Automaton::ServerX);
        let exec = Execution::new(vec![g1, g2]);
        assert!(matches!(
            exec.commute_adjacent(0),
            Err(CommuteError::SameAutomaton(_, _))
        ));
    }

    #[test]
    fn causally_dependent_fragments_do_not_commute() {
        // G1 sends m, G2 receives m: the recv cannot move before the send.
        let g1 = Fragment::new("G1", Automaton::Reader1, vec![], vec![msg("m")]);
        let g2 = Fragment::new("G2", Automaton::ServerX, vec![msg("m")], vec![]);
        let exec = Execution::new(vec![g1, g2]);
        assert!(matches!(
            exec.commute_adjacent(0),
            Err(CommuteError::CausallyDependent(_, _))
        ));
        // And symmetrically.
        let g3 = Fragment::new("G3", Automaton::ServerX, vec![], vec![msg("n")]);
        let g4 = Fragment::new("G4", Automaton::Reader1, vec![msg("n")], vec![]);
        let exec2 = Execution::new(vec![g4.clone(), g3.clone()]);
        // g4 receives n which g3 sends: swapping would also be refused.
        assert!(matches!(
            exec2.commute_adjacent(0),
            Err(CommuteError::CausallyDependent(_, _))
        ));
    }

    #[test]
    fn out_of_range_commutes_are_rejected() {
        let exec = Execution::new(vec![Fragment::internal("G", Automaton::Writer)]);
        assert!(matches!(exec.commute_adjacent(0), Err(CommuteError::OutOfRange(_))));
        assert!(exec.move_left("G").is_err());
        assert!(exec.move_left("missing").is_err());
    }

    #[test]
    fn move_before_all_until_stops_at_barrier() {
        let exec = Execution::new(vec![
            Fragment::internal("P", Automaton::Writer),
            Fragment::internal("A", Automaton::ServerX),
            Fragment::internal("B", Automaton::ServerY),
            Fragment::internal("C", Automaton::Reader1),
        ]);
        let (moved, swaps) = exec.move_before_all_until("C", Some("P")).unwrap();
        assert_eq!(moved.labels(), vec!["P", "C", "A", "B"]);
        assert_eq!(swaps.len(), 2);
        // With no barrier it moves to the very front.
        let (front, swaps) = exec.move_before_all_until("C", None).unwrap();
        assert_eq!(front.labels()[0], "C");
        assert_eq!(swaps.len(), 3);
    }

    #[test]
    fn all_before_and_positions() {
        let exec = Execution::new(vec![
            Fragment::internal("A", Automaton::ServerX),
            Fragment::internal("B", Automaton::ServerY),
            Fragment::internal("C", Automaton::Reader1),
        ]);
        assert!(exec.all_before(&["A", "B"], &["C"]));
        assert!(!exec.all_before(&["C"], &["A"]));
        assert!(!exec.all_before(&["missing"], &["A"]));
        assert_eq!(exec.position("B"), Some(1));
        assert_eq!(exec.position("Z"), None);
        assert_eq!(exec.to_string(), "A ∘ B ∘ C");
    }

    #[test]
    fn returning_annotation_survives_swaps() {
        let f = Fragment::new("F1x", Automaton::ServerX, vec![msg("mx")], vec![msg("x")]).returning(1);
        let g = Fragment::internal("I2", Automaton::Reader2);
        let exec = Execution::new(vec![f.clone(), g]);
        let swapped = exec.commute_adjacent(0).unwrap();
        assert_eq!(swapped.fragments[1].returns_version, Some(1));
    }
}
