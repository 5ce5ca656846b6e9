//! The simulator's two dense tables: the **record log** and the
//! **process table**.  Ids are small integers handed out densely, so every
//! per-step lookup [`crate::Simulation`] makes — the record a send is stamped into, the
//! process a message is delivered to — is a `Vec` index, not a tree walk.

use snow_core::{ClientId, ProcessId, TxId, TxOutcome, TxRecord};

/// The transaction records, in INV order.
///
/// The clock clamp (`Simulation::advance_past`) stamps every INV
/// strictly after the previous one, so the order of appending *is* the
/// `(invoked_at, tx_id)` order of a [`snow_core::History`], and "the
/// earliest transaction still in flight" is a cursor that only moves
/// forward.  Invariants: `log` is strictly increasing in `invoked_at`;
/// `slot_of[tx]` is the index of `tx`'s record or [`ABSENT`]; every record
/// before `first_open` has responded.
#[derive(Debug, Default)]
pub(crate) struct RecordLog {
    log: Vec<TxRecord>,
    /// `TxId → index into log`, indexed by the id itself; an id not (yet)
    /// invoked is [`ABSENT`].
    slot_of: Vec<u32>,
    first_open: usize,
}

/// `slot_of` entry of a transaction that was not invoked.
const ABSENT: u32 = u32::MAX;

impl RecordLog {
    /// Makes room for `additional` more invocations.  `Vec::reserve`: a
    /// log that must grow at least doubles.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.log.reserve(additional);
    }

    /// Sizes the log for `additional` more records and the slot table for
    /// ids below `id_end`, each at exactly that capacity: a planned run's
    /// one allocation of each, which then never regrows.
    pub(crate) fn reserve_exact(&mut self, additional: usize, id_end: usize) {
        self.log.reserve_exact(additional);
        self.slot_of.reserve_exact(id_end.saturating_sub(self.slot_of.len()));
    }

    /// INV: appends `rec`, which must be invoked after every record logged
    /// so far and under an id not yet seen.
    pub(crate) fn invoke(&mut self, rec: TxRecord) {
        debug_assert!(
            self.log.last().is_none_or(|last| last.invoked_at < rec.invoked_at),
            "{} invoked at {}, not after the previous INV",
            rec.tx_id,
            rec.invoked_at
        );
        let tx = rec.tx_id.0 as usize;
        if self.slot_of.len() <= tx {
            self.slot_of.resize(tx + 1, ABSENT);
        }
        assert_eq!(self.slot_of[tx], ABSENT, "{} invoked twice", rec.tx_id);
        assert!(self.log.len() < ABSENT as usize, "record log full");
        self.slot_of[tx] = self.log.len() as u32;
        self.log.push(rec);
    }

    #[inline]
    fn slot(&self, tx: TxId) -> Option<usize> {
        let slot = *self.slot_of.get(tx.0 as usize)?;
        (slot != ABSENT).then_some(slot as usize)
    }

    #[inline]
    pub(crate) fn get(&self, tx: TxId) -> Option<&TxRecord> {
        self.slot(tx).map(|slot| &self.log[slot])
    }

    /// For folding instrumentation into a record; RESP goes through
    /// [`RecordLog::respond`], which also moves the cursor.
    #[inline]
    pub(crate) fn get_mut(&mut self, tx: TxId) -> Option<&mut TxRecord> {
        self.slot(tx).map(|slot| &mut self.log[slot])
    }

    #[inline]
    pub(crate) fn is_complete(&self, tx: TxId) -> bool {
        self.get(tx).is_some_and(TxRecord::is_complete)
    }

    /// RESP: completes `tx`'s record, if it was invoked, and returns it.
    #[inline]
    pub(crate) fn respond(&mut self, tx: TxId, at: u64, outcome: TxOutcome) -> Option<&TxRecord> {
        let slot = self.slot(tx)?;
        let rec = &mut self.log[slot];
        rec.responded_at = Some(at);
        rec.outcome = Some(outcome);
        while self.log.get(self.first_open).is_some_and(TxRecord::is_complete) {
            self.first_open += 1;
        }
        Some(&self.log[slot])
    }

    /// A lower bound on the `invoked_at` of every record that completes
    /// from here on, on a clock that reads `now`: in-flight
    /// transactions keep their invocation time, and any not-yet-dispatched
    /// invocation will be stamped `max(now, at) + 1 > now` by the clock
    /// clamp.  Never regresses as the run proceeds.
    #[inline]
    pub(crate) fn inv_floor(&self, now: u64) -> u64 {
        let earliest_open = self.log.get(self.first_open).map_or(u64::MAX, |rec| rec.invoked_at);
        earliest_open.min(now + 1)
    }

    /// Retires every transaction still in flight as [`TxOutcome::Aborted`]
    /// at `at`, returning them in INV order.
    pub(crate) fn abort_open(&mut self, at: u64) -> Vec<(TxId, ClientId)> {
        let open = std::mem::replace(&mut self.first_open, self.log.len());
        self.log[open..]
            .iter_mut()
            .filter(|rec| !rec.is_complete())
            .map(|rec| {
                rec.responded_at = Some(at);
                rec.outcome = Some(TxOutcome::Aborted);
                (rec.tx_id, rec.client)
            })
            .collect()
    }

    /// The records in INV order — sorted by `(invoked_at, tx_id)`.
    pub(crate) fn as_slice(&self) -> &[TxRecord] {
        &self.log
    }

    /// Moves every record out, in INV order, and leaves the log empty: no
    /// id has a slot, and nothing is in flight.
    pub(crate) fn take(&mut self) -> Vec<TxRecord> {
        self.slot_of.clear();
        self.first_open = 0;
        std::mem::take(&mut self.log)
    }
}

/// The processes: one slot vector per role, indexed by the role's id.
#[derive(Debug)]
pub(crate) struct ProcessTable<P> {
    clients: Vec<Option<P>>,
    servers: Vec<Option<P>>,
}

impl<P> ProcessTable<P> {
    pub(crate) fn new() -> Self {
        ProcessTable { clients: Vec::new(), servers: Vec::new() }
    }

    pub(crate) fn get(&self, id: ProcessId) -> Option<&P> {
        match id {
            ProcessId::Client(c) => self.clients.get(c.0 as usize)?.as_ref(),
            ProcessId::Server(s) => self.servers.get(s.0 as usize)?.as_ref(),
        }
    }

    pub(crate) fn get_mut(&mut self, id: ProcessId) -> Option<&mut P> {
        match id {
            ProcessId::Client(c) => self.clients.get_mut(c.0 as usize)?.as_mut(),
            ProcessId::Server(s) => self.servers.get_mut(s.0 as usize)?.as_mut(),
        }
    }

    /// Installs `process` as `id`, returning the process it replaces.
    pub(crate) fn insert(&mut self, id: ProcessId, process: P) -> Option<P> {
        let (slots, index) = match id {
            ProcessId::Client(c) => (&mut self.clients, c.0 as usize),
            ProcessId::Server(s) => (&mut self.servers, s.0 as usize),
        };
        if slots.len() <= index {
            slots.resize_with(index + 1, || None);
        }
        slots[index].replace(process)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::hash::splitmix64;
    use snow_core::{ObjectId, ReadOutcome, ServerId, TxSpec};
    use std::collections::{BTreeMap, BTreeSet};

    /// The structures the log replaced: records by id, and the
    /// `(invoked_at, tx)` set of the transactions in flight.
    #[derive(Default)]
    struct Reference {
        records: BTreeMap<TxId, TxRecord>,
        in_flight: BTreeSet<(u64, TxId)>,
    }

    impl Reference {
        fn invoke(&mut self, rec: TxRecord) {
            self.in_flight.insert((rec.invoked_at, rec.tx_id));
            self.records.insert(rec.tx_id, rec);
        }

        fn respond(&mut self, tx: TxId, at: u64, outcome: TxOutcome) -> bool {
            let Some(rec) = self.records.get_mut(&tx) else { return false };
            rec.responded_at = Some(at);
            rec.outcome = Some(outcome);
            self.in_flight.remove(&(rec.invoked_at, tx));
            true
        }

        fn inv_floor(&self, now: u64) -> u64 {
            self.in_flight.first().map_or(u64::MAX, |&(at, _)| at).min(now + 1)
        }

        fn abort_open(&mut self, at: u64) -> Vec<(TxId, ClientId)> {
            std::mem::take(&mut self.in_flight)
                .into_iter()
                .map(|(_, tx)| {
                    let rec = self.records.get_mut(&tx).expect("in flight, so invoked");
                    rec.responded_at = Some(at);
                    rec.outcome = Some(TxOutcome::Aborted);
                    (tx, rec.client)
                })
                .collect()
        }
    }

    /// Random invoke / respond / abort interleavings over dense ids,
    /// checking the log against the reference after every step.
    fn model_run(seed: u64) {
        let mut state = seed;
        let mut draw = |below: u64| {
            state = splitmix64(state);
            state % below
        };
        let read = || TxOutcome::Read(ReadOutcome { reads: Vec::new(), tag: None });
        let (mut log, mut reference) = (RecordLog::default(), Reference::default());
        let (mut now, mut floor, mut next_id) = (0u64, 0u64, 0u64);
        let mut ids: Vec<TxId> = Vec::new();
        for _ in 0..600 {
            now += 1 + draw(3);
            match draw(16) {
                0..=6 => {
                    let tx = TxId(next_id);
                    next_id += 1;
                    let client = ClientId(draw(5) as u32);
                    let rec = TxRecord::invoked(tx, client, TxSpec::read(vec![ObjectId(0)]), now);
                    reference.invoke(rec.clone());
                    log.invoke(rec);
                    ids.push(tx);
                }
                // A RESP of any id: invoked (perhaps responded before — a
                // duplicate answer), or never planned.
                7..=14 => {
                    let tx = match draw(8) {
                        0 => TxId(draw(next_id + 2)),
                        _ if ids.is_empty() => continue,
                        _ => ids[draw(ids.len() as u64) as usize],
                    };
                    let held = reference.respond(tx, now, read());
                    let rec = log.respond(tx, now, read()).cloned();
                    assert_eq!(rec.is_some(), held, "seed {seed}: {tx}");
                    assert_eq!(rec.as_ref(), reference.records.get(&tx).filter(|_| held));
                }
                _ => assert_eq!(log.abort_open(now), reference.abort_open(now), "seed {seed}"),
            }
            for id in 0..=next_id {
                let tx = TxId(id);
                assert_eq!(log.get(tx), reference.records.get(&tx), "seed {seed}: {tx}");
                let complete = reference.records.get(&tx).is_some_and(TxRecord::is_complete);
                assert_eq!(log.is_complete(tx), complete, "seed {seed}: {tx}");
            }
            assert_eq!(log.inv_floor(now), reference.inv_floor(now), "seed {seed} at {now}");
            assert!(log.inv_floor(now) >= floor, "seed {seed}: inv_floor regressed at {now}");
            floor = log.inv_floor(now);
        }
        // History order: what `BTreeMap::values` + the stable sort gave.
        let mut sorted: Vec<&TxRecord> = reference.records.values().collect();
        sorted.sort_by_key(|rec| (rec.invoked_at, rec.tx_id));
        assert_eq!(log.as_slice().iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn the_record_log_agrees_with_the_ordered_maps_it_replaced() {
        for seed in 0..24 {
            model_run(seed);
        }
    }

    #[test]
    fn a_reserved_log_is_allocated_once() {
        let rec = |id| TxRecord::invoked(TxId(id), ClientId(0), TxSpec::read(vec![ObjectId(0)]), id);
        let mut log = RecordLog::default();
        log.invoke(rec(1));
        // Room for ids 2..=100 after the one logged: exactly that.
        log.reserve_exact(99, 101);
        let buffers = |log: &RecordLog| (log.log.as_ptr(), log.slot_of.as_ptr());
        let (before, capacity) = (buffers(&log), (log.log.capacity(), log.slot_of.capacity()));
        assert_eq!(capacity, (100, 101));
        for id in 2..=100 {
            log.invoke(rec(id));
        }
        assert_eq!(buffers(&log), before, "neither table moved");
        assert_eq!((log.log.capacity(), log.slot_of.capacity()), capacity);
    }

    #[test]
    fn the_log_rejects_a_second_invocation_of_an_id() {
        let rec = |at| TxRecord::invoked(TxId(3), ClientId(0), TxSpec::read(vec![ObjectId(0)]), at);
        let mut log = RecordLog::default();
        log.invoke(rec(1));
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| log.invoke(rec(2))));
        assert!(again.is_err());
    }

    #[test]
    fn the_process_table_indexes_each_role_by_its_id() {
        let mut table: ProcessTable<&str> = ProcessTable::new();
        let (c2, s2) = (ProcessId::Client(ClientId(2)), ProcessId::Server(ServerId(2)));
        assert_eq!(table.insert(c2, "client"), None);
        assert_eq!(table.insert(s2, "server"), None);
        assert_eq!((table.get(c2), table.get(s2)), (Some(&"client"), Some(&"server")));
        // Ids below a registered one, and past the end, are empty slots.
        assert_eq!(table.get(ProcessId::Client(ClientId(0))), None);
        assert_eq!(table.get_mut(ProcessId::Server(ServerId(9))), None);
        // A second insert replaces and hands the old process back.
        assert_eq!(table.insert(s2, "restarted"), Some("server"));
        assert_eq!(table.get_mut(s2), Some(&mut "restarted"));
    }
}
