//! The sequential semantics of the transaction data type `OT` (§7.1).
//!
//! A sequential execution of `OT` applies transactions one at a time to a
//! state mapping every object to its current version.  The serializability
//! checkers replay candidate orders against this model: a READ is legal at a
//! point iff, for every object it returns, the returned *version key* equals
//! the key of the last WRITE to that object applied so far (or `κ₀` if none).

use snow_core::{Key, ObjectId, TxKind, TxOutcome, TxRecord, TxSpec};

/// A sequential `OT` state: the version key installed on each object,
/// indexed by [`ObjectId`] (object ids are dense); an object past the end
/// is at `κ₀`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SequentialOt {
    keys: Vec<Key>,
}

impl SequentialOt {
    /// Creates the initial state (every object at `κ₀`).
    pub fn new() -> Self {
        SequentialOt::default()
    }

    /// The current version key of `object`.
    pub fn key_of(&self, object: ObjectId) -> Key {
        self.keys.get(object.0 as usize).copied().unwrap_or_else(Key::initial)
    }

    /// Applies a WRITE transaction's effects.
    pub fn apply_write(&mut self, record: &TxRecord) {
        let key = match &record.outcome {
            Some(TxOutcome::Write(w)) => w.key,
            // An incomplete write still has a definite key only if the
            // protocol exposed it; fall back to deriving nothing.
            _ => return,
        };
        if let TxSpec::Write(spec) = &record.spec {
            for (object, _) in &spec.writes {
                let at = object.0 as usize;
                if self.keys.len() <= at {
                    self.keys.resize(at + 1, Key::initial());
                }
                self.keys[at] = key;
            }
        }
    }

    /// Checks whether a READ transaction's outcome is legal in the current
    /// state: every returned version key must match the installed one.
    /// Returns the first mismatching object, if any.
    pub fn check_read(&self, record: &TxRecord) -> Result<(), ObjectId> {
        let outcome = match &record.outcome {
            Some(TxOutcome::Read(r)) => r,
            _ => return Ok(()),
        };
        for read in &outcome.reads {
            if read.key != self.key_of(read.object) {
                return Err(read.object);
            }
        }
        Ok(())
    }

    /// Applies a transaction: WRITEs mutate the state, READs are validated
    /// (returning `Err(object)` on the first inconsistency).
    pub fn apply(&mut self, record: &TxRecord) -> Result<(), ObjectId> {
        match record.kind() {
            TxKind::Write => {
                self.apply_write(record);
                Ok(())
            }
            TxKind::Read => self.check_read(record),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{
        ClientId, ObjectRead, ReadOutcome, TxId, TxOutcome, Value, WriteOutcome,
    };

    fn write_rec(id: u64, client: u32, key_seq: u64, objects: &[u32]) -> TxRecord {
        let spec = TxSpec::write(objects.iter().map(|o| (ObjectId(*o), Value(key_seq))).collect());
        let mut rec = TxRecord::invoked(TxId(id), ClientId(client), spec, id * 10);
        rec.responded_at = Some(id * 10 + 5);
        rec.outcome = Some(TxOutcome::Write(WriteOutcome {
            key: Key::new(key_seq, ClientId(client)),
            tag: None,
        }));
        rec
    }

    fn read_rec(id: u64, reads: Vec<(u32, Key)>) -> TxRecord {
        let spec = TxSpec::read(reads.iter().map(|(o, _)| ObjectId(*o)).collect());
        let mut rec = TxRecord::invoked(TxId(id), ClientId(0), spec, id * 10);
        rec.responded_at = Some(id * 10 + 5);
        rec.outcome = Some(TxOutcome::Read(ReadOutcome {
            reads: reads
                .into_iter()
                .map(|(o, k)| ObjectRead {
                    object: ObjectId(o),
                    key: k,
                    value: Value(0),
                })
                .collect(),
            tag: None,
        }));
        rec
    }

    #[test]
    fn initial_state_is_kappa_zero_everywhere() {
        let ot = SequentialOt::new();
        assert_eq!(ot.key_of(ObjectId(0)), Key::initial());
        assert_eq!(ot.key_of(ObjectId(99)), Key::initial());
    }

    #[test]
    fn writes_install_their_key_on_all_their_objects() {
        let mut ot = SequentialOt::new();
        let w = write_rec(1, 1, 1, &[0, 2]);
        ot.apply(&w).unwrap();
        assert_eq!(ot.key_of(ObjectId(0)), Key::new(1, ClientId(1)));
        assert_eq!(ot.key_of(ObjectId(2)), Key::new(1, ClientId(1)));
        assert_eq!(ot.key_of(ObjectId(1)), Key::initial());
    }

    #[test]
    fn reads_validate_against_installed_versions() {
        let mut ot = SequentialOt::new();
        ot.apply(&write_rec(1, 1, 1, &[0, 1])).unwrap();
        // Consistent read.
        let good = read_rec(
            2,
            vec![(0, Key::new(1, ClientId(1))), (1, Key::new(1, ClientId(1)))],
        );
        assert!(ot.apply(&good).is_ok());
        // Torn read: object 1 still at κ0.
        let torn = read_rec(3, vec![(0, Key::new(1, ClientId(1))), (1, Key::initial())]);
        assert_eq!(ot.apply(&torn), Err(ObjectId(1)));
    }

    #[test]
    fn later_writes_overwrite_earlier_ones() {
        let mut ot = SequentialOt::new();
        ot.apply(&write_rec(1, 1, 1, &[0])).unwrap();
        ot.apply(&write_rec(2, 2, 1, &[0])).unwrap();
        assert_eq!(ot.key_of(ObjectId(0)), Key::new(1, ClientId(2)));
    }

    #[test]
    fn incomplete_write_is_a_noop() {
        let mut ot = SequentialOt::new();
        let mut w = write_rec(1, 1, 1, &[0]);
        w.outcome = None;
        w.responded_at = None;
        ot.apply(&w).unwrap();
        assert_eq!(ot.key_of(ObjectId(0)), Key::initial());
    }
}
