//! The in-flight message pool, the simulator's event-queue core: a slab and
//! one heap.
//!
//! Every sent-but-undelivered message sits in a slot of the slab (a
//! `Vec<Option<PendingMessage>>`; the next insert reuses the slot freed
//! last, so the slab never holds more slots than were ever in flight at
//! once), and the delivery heap holds one `(deliver_at, MsgId, slot)`
//! entry per insert or re-queue, in one `u128`: `deliver_at << 64 | id <<
//! 24 | slot`, which orders as the triple does, so the heap compares
//! entries in one integer comparison.  An
//! entry is **live iff its slot still holds that id under that key**;
//! anything else is discarded on its way to the top.  That one rule
//! covers both ways an entry goes stale: its message was picked another
//! way ([`MessagePool::find_first`], [`MessagePool::nth_live`]) and taken,
//! or a crash window's `QueueInFlight` re-queued it under the same id and
//! a later key, in the very slot the old entry names, and the old entry
//! must not resurface it early.
//!
//! The picks each name the slot of the message they chose and leave the
//! message there; the engine reads its header in place
//! ([`MessagePool::get`]) and then moves it out once
//! ([`MessagePool::take`]) or re-queues it where it lies
//! ([`MessagePool::requeue`]):
//!
//! * [`MessagePool::pop`] — the smallest `(deliver_at, id)`, the entry
//!   [`MessagePool::peek_earliest`] found, amortized O(log n):
//!   [`crate::LatencyScheduler`]'s pick.  This is the classic
//!   discrete-event core, a binary min-heap popped by `(time, id)`; equal
//!   times go to the smaller id, which is send order.  The engine peeks
//!   once per dispatch — the peek decides whether an invocation is due —
//!   and the pop takes that same entry without looking again.
//! * [`MessagePool::find_first`] — the first message in send (id) order
//!   matching a predicate, one pass over the slab: adversarial driving
//!   ([`crate::Simulation::deliver_where`]).
//! * [`MessagePool::nth_live`] — the k-th live message in send order, an
//!   O(live) selection over a reused scratch buffer: `RandomScheduler`'s
//!   pick.  It is the message the first engine's send-ordered `Vec` held at
//!   index k, so every seeded Random schedule is choice-for-choice
//!   unchanged.
//!
//! A message is written once, into its slot ([`MessagePool::insert`]), and
//! read out of it once; only the 16-byte heap entries move while it waits.
//! The heap keeps an entry until it is popped or found stale at the top,
//! so under a scheduler that never pops (the random adversary) it keeps
//! one stale entry per send until the pool is dropped.

use crate::message::{MsgId, PendingMessage};

/// A delivery-heap entry, `deliver_at << 64 | pack(id, slot)`: its order
/// is `(deliver_at, id, slot)`'s.
type Entry = u128;

/// Bits of a packed entry word that hold the slot.
const SLOT_BITS: u32 = 24;

/// Packs a message id and its slot into one word, `id << 24 | slot`, whose
/// order is `(id, slot)`'s.
///
/// # Panics
/// Panics if `id ≥ 2⁴⁰` or `slot ≥ 2²⁴` — a run of over 10¹² sends, or
/// over 16 777 216 messages in flight at once — rather than wrap into
/// another entry's order.
#[inline]
fn pack(id: u64, slot: usize) -> u64 {
    assert!(id < 1 << (64 - SLOT_BITS), "message id {id} reaches the pool's 2⁴⁰ limit");
    assert!(slot < 1 << SLOT_BITS, "pool slot {slot} reaches the 2²⁴ in-flight limit");
    id << SLOT_BITS | slot as u64
}

/// The `(id, slot)` a [`pack`]ed word holds.
#[inline]
fn unpack(word: u64) -> (u64, usize) {
    (word >> SLOT_BITS, (word & ((1 << SLOT_BITS) - 1)) as usize)
}

/// The heap entry of message `id`, in `slot`, keyed `deliver_at`.
#[inline]
fn entry(deliver_at: u64, id: u64, slot: usize) -> Entry {
    u128::from(deliver_at) << 64 | u128::from(pack(id, slot))
}

/// The `(deliver_at, id, slot)` an [`entry`] holds.
#[inline]
fn unentry(entry: Entry) -> (u64, u64, usize) {
    let (id, slot) = unpack(entry as u64);
    ((entry >> 64) as u64, id, slot)
}

/// The delivery heap: a binary min-heap of [`Entry`]s in one vector,
/// `v[i] ≤ v[2i + 1], v[2i + 2]`.
///
/// A pop takes the root and walks the hole it leaves down to a leaf,
/// moving the smaller child up at each level — chosen without a branch,
/// by adding the comparison's outcome to the left child's index — and
/// then sifts the last entry up from that leaf (Floyd's bottom-up
/// deletion).  The last entry came from the bottom level, so it seldom
/// rises far, and the walk down makes one comparison per level where a
/// top-down sift makes two.  Every entry is distinct but for a message
/// re-queued under its own key, so the pop order is the entries' order,
/// whatever the heap's shape.
#[derive(Debug, Clone, Default)]
struct DeliveryHeap(Vec<Entry>);

impl DeliveryHeap {
    /// The smallest entry.
    #[inline]
    fn peek(&self) -> Option<Entry> {
        self.0.first().copied()
    }

    /// Adds `entry`, sifting it up from the new leaf.
    #[inline]
    fn push(&mut self, entry: Entry) {
        let v = &mut self.0;
        v.push(entry);
        let hole = v.len() - 1;
        Self::sift_up(v, hole, entry);
    }

    /// Removes and returns the smallest entry.
    #[inline]
    fn pop(&mut self) -> Option<Entry> {
        let v = &mut self.0;
        let last = v.pop()?;
        let Some(&top) = v.first() else { return Some(last) };
        let end = v.len();
        let (mut hole, mut child) = (0, 1);
        while child + 1 < end {
            child += usize::from(v[child + 1] < v[child]);
            v[hole] = v[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child < end {
            v[hole] = v[child];
            hole = child;
        }
        Self::sift_up(v, hole, last);
        Some(top)
    }

    /// Removes the smallest entry, which is stale: out of line, because
    /// only a pick other than the heap's, or a re-queue, leaves one.
    #[cold]
    fn discard(&mut self) {
        self.pop();
    }

    /// Fills `hole` with `entry`, moving it up past every larger parent.
    #[inline]
    fn sift_up(v: &mut [Entry], mut hole: usize, entry: Entry) {
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if v[parent] <= entry {
                break;
            }
            v[hole] = v[parent];
            hole = parent;
        }
        v[hole] = entry;
    }
}

/// Where a message lies in the pool's slab.  A pick returns the slot of the
/// message it chose; the message stays there, readable through
/// [`MessagePool::get`], until [`MessagePool::take`] moves it out or
/// [`MessagePool::requeue`] keys it again.  A popped message has no heap
/// entry left, so one of the two must follow before anything else picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// The earliest live message, as [`MessagePool::peek_earliest`] found it at
/// the top of the heap.  Valid until the pool next changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Earliest {
    /// Its delivery time, the heap key.
    pub deliver_at: u64,
    /// Its id, which breaks ties between equal keys.
    pub id: MsgId,
    slot: Slot,
}

/// The set of in-flight messages: a slab and one delivery heap.
#[derive(Debug, Clone)]
pub struct MessagePool<M> {
    /// The slab: in-flight messages by slot, `None` in a free slot.
    slots: Vec<Option<PendingMessage<M>>>,
    /// Free slots, reused last-freed first.
    free: Vec<usize>,
    /// The delivery heap (see the module docs for which entries are live).
    queue: DeliveryHeap,
    /// [`MessagePool::nth_live`]'s scratch: the live `(id, slot)`s it
    /// selects from.  Empty between calls; a field so a Random pick
    /// allocates nothing per step.
    ranked: Vec<(u64, usize)>,
}

impl<M> Default for MessagePool<M> {
    fn default() -> Self {
        MessagePool {
            slots: Vec::new(),
            free: Vec::new(),
            queue: DeliveryHeap::default(),
            ranked: Vec::new(),
        }
    }
}

impl<M> MessagePool<M> {
    /// An empty pool.
    pub fn new() -> Self {
        MessagePool::default()
    }

    /// Number of in-flight messages.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True if no messages are in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes a sent message into the slot freed last (else a new one) —
    /// the one copy of it into the pool — pushes its heap entry, keyed by
    /// its `deliver_at`, and returns the slot.  Its id must not be live:
    /// the engine assigns each send a fresh one.
    pub fn insert(&mut self, msg: PendingMessage<M>) -> Slot {
        let (key, id) = (msg.deliver_at, msg.id.0);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[slot] = Some(msg);
        self.queue.push(entry(key, id, slot));
        Slot(slot)
    }

    /// The message in `slot`, in place.
    ///
    /// # Panics
    /// Panics if the slot is free: a [`Slot`] names a message only until it
    /// is taken.
    pub fn get(&self, slot: Slot) -> &PendingMessage<M> {
        self.slots[slot.0]
            .as_ref()
            .expect("a picked slot is occupied")
    }

    /// Moves the message out of `slot` — the one copy of it out of the
    /// pool — and frees the slot.  A heap entry still naming it goes stale.
    ///
    /// # Panics
    /// Panics if the slot is free.
    pub fn take(&mut self, slot: Slot) -> PendingMessage<M> {
        let msg = self.slots[slot.0]
            .take()
            .expect("a picked slot is occupied");
        self.free.push(slot.0);
        msg
    }

    /// Keys the message in `slot` again, at `deliver_at`, where it lies: a
    /// crash window's `QueueInFlight` holding a picked message for the
    /// restarted process.  Any older entry naming it goes stale (a later
    /// key), or stays a second live entry under the same key, which is
    /// harmless: the message is still taken once.
    pub fn requeue(&mut self, slot: Slot, deliver_at: u64) {
        let msg = self.slots[slot.0]
            .as_mut()
            .expect("a picked slot is occupied");
        msg.deliver_at = deliver_at;
        self.queue.push(entry(deliver_at, msg.id.0, slot.0));
    }

    /// The heap's top live entry — the smallest `(deliver_at, id)` — without
    /// taking it, discarding stale entries on the way: amortized O(log n).
    /// The dispatch core compares its key with the earliest planned
    /// invocation (the one dispatch rule) and hands it to the scheduler.
    pub fn peek_earliest(&mut self) -> Option<Earliest> {
        while let Some(top) = self.queue.peek() {
            let (key, id, slot) = unentry(top);
            let msg = self.slots[slot].as_ref();
            if msg.is_some_and(|msg| msg.id.0 == id && msg.deliver_at == key) {
                return Some(Earliest {
                    deliver_at: key,
                    id: MsgId(id),
                    slot: Slot(slot),
                });
            }
            self.queue.discard();
        }
        None
    }

    /// Picks `earliest`, which must be what [`MessagePool::peek_earliest`]
    /// returned with nothing changed since: pops its heap entry and returns
    /// its slot — O(log n), no second look at the top.
    pub fn pop(&mut self, earliest: Earliest) -> Slot {
        let top = self.queue.pop();
        debug_assert_eq!(
            top,
            Some(entry(earliest.deliver_at, earliest.id.0, earliest.slot.0)),
            "popped an entry other than the one peeked"
        );
        earliest.slot
    }

    /// Picks the first message in send (id) order matching `pred` — one
    /// pass over the slab.  Its heap entry goes stale once it is taken.
    pub fn find_first(&self, pred: impl Fn(&PendingMessage<M>) -> bool) -> Option<Slot> {
        let (_, slot) = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, msg)| {
                msg.as_ref()
                    .filter(|msg| pred(msg))
                    .map(|msg| (msg.id, slot))
            })
            .min()?;
        Some(Slot(slot))
    }

    /// Picks the `k`-th live message in ascending id (send) order, or
    /// `None` if fewer than `k + 1` are live — O(live): the live ids are
    /// gathered into a reused scratch buffer and selected in linear time.
    /// Its heap entry goes stale once it is taken.
    pub fn nth_live(&mut self, k: usize) -> Option<Slot> {
        if k >= self.len() {
            return None;
        }
        let live = self.slots.iter().enumerate();
        self.ranked
            .extend(live.filter_map(|(slot, msg)| Some((msg.as_ref()?.id.0, slot))));
        let (_, &mut (_, slot), _) = self.ranked.select_nth_unstable(k);
        self.ranked.clear();
        Some(Slot(slot))
    }

    /// The in-flight messages in ascending id (send) order.  An inspection
    /// view — it collects and sorts, O(live log live) — that no dispatch
    /// path uses.
    pub fn iter(&self) -> impl Iterator<Item = &PendingMessage<M>> + '_ {
        let mut live: Vec<_> = self.slots.iter().flatten().collect();
        live.sort_unstable_by_key(|msg| msg.id);
        live.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Causal;
    use proptest::prelude::*;
    use snow_core::hash::SplitMix;
    use snow_core::{ClientId, ProcessId, ServerId};
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};

    #[derive(Debug, Clone)]
    struct M;
    impl crate::message::SimMessage for M {}

    fn pending(id: u64, sent_at: u64, deliver_at: u64) -> PendingMessage<M> {
        PendingMessage {
            id: MsgId(id),
            src: ProcessId::Client(ClientId(0)),
            dst: ProcessId::Server(ServerId(0)),
            msg: M,
            sent_at,
            causal: Causal::ROOT,
            deliver_at,
        }
    }

    fn ids(pool: &MessagePool<M>) -> Vec<u64> {
        pool.iter().map(|m| m.id.0).collect()
    }

    /// The heap pick and the take after it, as the engine makes them.
    fn pop_earliest(pool: &mut MessagePool<M>) -> Option<PendingMessage<M>> {
        let earliest = pool.peek_earliest()?;
        let slot = pool.pop(earliest);
        Some(pool.take(slot))
    }

    fn take_first(
        pool: &mut MessagePool<M>,
        pred: impl Fn(&PendingMessage<M>) -> bool,
    ) -> Option<PendingMessage<M>> {
        let slot = pool.find_first(pred)?;
        Some(pool.take(slot))
    }

    fn take_nth_live(pool: &mut MessagePool<M>, k: usize) -> Option<PendingMessage<M>> {
        let slot = pool.nth_live(k)?;
        Some(pool.take(slot))
    }

    fn peek(pool: &mut MessagePool<M>) -> Option<(u64, MsgId)> {
        pool.peek_earliest().map(|e| (e.deliver_at, e.id))
    }

    /// What the pool stores per heap entry; the slab's payload is pinned in
    /// `snow_protocols::any` (`the_pools_working_set_cannot_silently_widen`).
    #[test]
    fn a_heap_entry_cannot_silently_widen() {
        assert!(std::mem::size_of::<Entry>() <= 16);
    }

    /// The heap against `std`'s `BinaryHeap` (of `Reverse` entries), over
    /// every sequence of up to 7 operations drawn from "push 0", "push 1",
    /// "push 2" and "pop": every heap of 0 to 7 entries, ties in every
    /// position, pops of an empty heap, and the walk's leaf edge (a last
    /// parent with one child, or none) at each size.
    #[test]
    fn the_heap_agrees_with_std_on_every_short_sequence() {
        for len in 0..=7u32 {
            for code in 0..4u32.pow(len) {
                let (mut heap, mut model) = (DeliveryHeap::default(), BinaryHeap::new());
                for op in (0..len).map(|i| code / 4u32.pow(i) % 4) {
                    if op == 3 {
                        let want = model.pop().map(|Reverse(e)| e);
                        assert_eq!(heap.pop(), want, "sequence {code} of {len}");
                    } else {
                        heap.push(Entry::from(op));
                        model.push(Reverse(Entry::from(op)));
                    }
                    assert_eq!(heap.peek(), model.peek().map(|&Reverse(e)| e));
                }
            }
        }
    }

    /// The packed word holds both ends of each range and orders as
    /// `(id, slot)` does across them.
    #[test]
    fn a_packed_entry_round_trips_at_both_limits() {
        const ID_MAX: u64 = (1 << 40) - 1;
        const SLOT_MAX: usize = (1 << 24) - 1;
        let corners = [(0, 0), (0, SLOT_MAX), (1, 0), (ID_MAX, 0), (ID_MAX, SLOT_MAX)];
        for (id, slot) in corners {
            assert_eq!(unpack(pack(id, slot)), (id, slot));
        }
        for pair in corners.windows(2) {
            assert!(pack(pair[0].0, pair[0].1) < pack(pair[1].0, pair[1].1), "{pair:?}");
        }
    }

    #[test]
    #[should_panic(expected = "2⁴⁰ limit")]
    fn an_id_one_past_the_limit_is_refused() {
        pack(1 << 40, 0);
    }

    #[test]
    #[should_panic(expected = "2²⁴ in-flight limit")]
    fn a_slot_one_past_the_limit_is_refused() {
        pack(0, 1 << 24);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The pool is the ordered map of its live messages, `(deliver_at,
        /// id) → slot`, under random inserts (keys drawn from a narrow
        /// range, so ties are common), heap pops, `find_first` and
        /// `nth_live` picks, each picked message either taken or re-queued
        /// at its own key or a later one.  An insert drawn while `live`
        /// messages are in flight pops instead, so a low cap keeps the
        /// heap at a few entries, where its pop's walk meets the leaves.  After every step the heap's top
        /// live entry is the map's first: pops come out in `(deliver_at,
        /// id)` order, and no stale entry — a taken message's, or a
        /// re-queued one's old key — ever resurfaces.
        #[test]
        fn the_pool_agrees_with_an_ordered_map(
            seed in 0u64..u64::MAX,
            steps in 1usize..400,
            keys in 1u64..20,
            live in 1usize..40,
        ) {
            let mut rng = SplitMix::new(seed);
            let mut draw = |n: u64| rng.below(n);
            let mut pool: MessagePool<M> = MessagePool::new();
            let mut model: BTreeMap<(u64, u64), Slot> = BTreeMap::new();
            let mut next_id = 0;
            for _ in 0..steps {
                let picked = match draw(8) {
                    0..=2 if model.len() < live => {
                        let key = draw(keys);
                        let slot = pool.insert(pending(next_id, 0, key));
                        prop_assert!(model.values().all(|&s| s != slot), "a live slot reused");
                        model.insert((key, next_id), slot);
                        next_id += 1;
                        None
                    }
                    0..=4 => pool.peek_earliest().map(|earliest| {
                        let first = model.first_key_value().map(|(&k, &s)| (k, s));
                        let top = ((earliest.deliver_at, earliest.id.0), earliest.slot);
                        prop_assert_eq!(first, Some(top));
                        pool.pop(earliest)
                    }),
                    5 => {
                        let modulus = draw(3) + 1;
                        let slot = pool.find_first(|m| m.id.0 % modulus == 0);
                        let matching = model.iter().filter(|((_, id), _)| id % modulus == 0);
                        let want = matching.min_by_key(|((_, id), _)| *id).map(|(_, &s)| s);
                        prop_assert_eq!(slot, want);
                        slot
                    }
                    _ => {
                        let k = draw(model.len() as u64 + 2) as usize;
                        let slot = pool.nth_live(k);
                        let mut live: Vec<_> = model.iter().map(|(&(_, id), &s)| (id, s)).collect();
                        live.sort_unstable_by_key(|&(id, _)| id);
                        prop_assert_eq!(slot, live.get(k).map(|&(_, s)| s));
                        slot
                    }
                };
                if let Some(slot) = picked {
                    let (key, id) = (pool.get(slot).deliver_at, pool.get(slot).id.0);
                    prop_assert_eq!(model.remove(&(key, id)), Some(slot));
                    if draw(3) == 0 {
                        let later = key + draw(3);
                        pool.requeue(slot, later);
                        model.insert((later, id), slot);
                    } else {
                        prop_assert_eq!(pool.take(slot).id.0, id);
                    }
                }
                prop_assert_eq!(pool.len(), model.len());
                let top = pool.peek_earliest().map(|e| ((e.deliver_at, e.id.0), e.slot));
                prop_assert_eq!(top, model.first_key_value().map(|(&k, &s)| (k, s)));
            }
            // Drained by pops, the pool yields the map in order.
            let mut drained = Vec::new();
            while let Some(m) = pop_earliest(&mut pool) {
                drained.push((m.deliver_at, m.id.0));
            }
            prop_assert!(drained.into_iter().eq(model.into_keys()));
        }
    }

    #[test]
    fn insert_remove_and_rank_selection() {
        let mut pool: MessagePool<M> = MessagePool::new();
        for id in 0..5 {
            pool.insert(pending(id, id, id));
        }
        assert_eq!(pool.len(), 5);
        let taken = take_first(&mut pool, |m| m.id == MsgId(1)).unwrap();
        assert_eq!(taken.id, MsgId(1));
        assert!(take_first(&mut pool, |m| m.id == MsgId(1)).is_none());
        assert_eq!(ids(&pool), vec![0, 2, 3, 4]);
        assert!(take_nth_live(&mut pool, 4).is_none());
        // Rank order is id order: live [0, 2, 3, 4], rank 1 is id 2.
        assert_eq!(take_nth_live(&mut pool, 1).unwrap().id, MsgId(2));
        // Id 5 reuses the slot id 2 left (last freed), ahead of id 3's:
        // slot order is no longer send order, and nothing looks at it.
        pool.insert(pending(5, 5, 5));
        assert_eq!(pool.slots.len(), 5);
        assert_eq!(ids(&pool), vec![0, 3, 4, 5]);
        assert_eq!(take_first(&mut pool, |m| m.id.0 >= 3).unwrap().id, MsgId(3));
        assert_eq!(take_nth_live(&mut pool, 2).unwrap().id, MsgId(5));
        assert_eq!(ids(&pool), vec![0, 4]);
    }

    #[test]
    fn pop_earliest_orders_by_delivery_time_then_id() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, 30));
        pool.insert(pending(1, 0, 10));
        pool.insert(pending(2, 0, 10));
        pool.insert(pending(3, 0, 20));
        let order: Vec<u64> = (0..3)
            .map(|_| pop_earliest(&mut pool).unwrap().id.0)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn pop_earliest_skips_adversarially_removed_messages() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, 5));
        pool.insert(pending(1, 0, 6));
        take_first(&mut pool, |m| m.id == MsgId(0)).unwrap(); // delivered via deliver_where
        assert_eq!(pop_earliest(&mut pool).map(|m| m.id), Some(MsgId(1)));
        assert!(pop_earliest(&mut pool).is_none());
        assert!(pool.is_empty());
    }

    #[test]
    fn requeued_id_is_not_resurfaced_by_its_stale_entry() {
        // A crash window's `QueueInFlight` re-keys the *same* id, in its
        // slot, under a later key.  If the old entry was never consumed (a
        // `deliver_where` pick), it must not resurface the message ahead of
        // everything keyed in between — even though it names the very slot
        // the message still lies in.
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, 5));
        pool.insert(pending(1, 0, 8));
        let held = pool.find_first(|m| m.id == MsgId(0)).unwrap();
        pool.requeue(held, 20);
        assert_eq!(held, Slot(0));
        assert_eq!(
            (pool.get(held).id, pool.get(held).deliver_at),
            (MsgId(0), 20)
        );
        assert_eq!(peek(&mut pool), Some((8, MsgId(1))));
        assert_eq!(pop_earliest(&mut pool).map(|m| m.id), Some(MsgId(1)));
        assert_eq!(peek(&mut pool), Some((20, MsgId(0))));
        assert_eq!(pop_earliest(&mut pool).map(|m| m.id), Some(MsgId(0)));
        // Re-queued under its *own* key, a message has two live entries;
        // it is still taken once.
        pool.insert(pending(2, 0, 30));
        let held = pool.find_first(|_| true).unwrap();
        pool.requeue(held, 30);
        assert_eq!(pool.queue.0.len(), 2);
        assert_eq!(pop_earliest(&mut pool).map(|m| m.id), Some(MsgId(2)));
        assert!(pop_earliest(&mut pool).is_none());
        assert!(pool.is_empty() && pool.queue.0.is_empty());
    }

    /// A popped message stays in its slot, read in place, until it is
    /// taken; the slot is then the next insert's.
    #[test]
    fn a_pick_leaves_the_message_in_place_until_it_is_taken() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, 9));
        let first = pool.insert(pending(1, 0, 4));
        let earliest = pool.peek_earliest().unwrap();
        assert_eq!((earliest.deliver_at, earliest.id), (4, MsgId(1)));
        let slot = pool.pop(earliest);
        assert_eq!(slot, first);
        assert_eq!((pool.len(), pool.get(slot).id), (2, MsgId(1)));
        assert_eq!(pool.take(slot).id, MsgId(1));
        assert_eq!(
            pool.insert(pending(2, 0, 1)),
            first,
            "the freed slot is reused"
        );
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn heap_drains_are_logarithmic_and_never_build_the_rank_index() {
        // Complexity guard without a wall clock: 10 000 messages, distinct
        // keys except that every 100th shares its predecessor's.  A pop
        // takes the heap top and pushes nothing back, so the heap holds
        // exactly one entry per live message all the way down, and an
        // equal-key run drains in id order.
        const N: u64 = 10_000;
        let mut pool: MessagePool<M> = MessagePool::new();
        for id in 0..N {
            let key = if id % 100 == 99 { id - 1 } else { id };
            pool.insert(pending(id, 0, 1_000 + key));
        }
        let mut drained = 0;
        while let Some(m) = pop_earliest(&mut pool) {
            assert_eq!(m.id, MsgId(drained), "(key, id) order");
            drained += 1;
            assert_eq!(pool.queue.0.len(), pool.len(), "a pop re-pushed an entry");
        }
        assert_eq!(drained, N);
        // Only rank selection gathers the live ids; a heap drain never does.
        assert_eq!(pool.ranked.capacity(), 0, "a heap drain ranked the pool");
        pool.insert(pending(N, 0, 0));
        assert_eq!(take_nth_live(&mut pool, 0).map(|m| m.id), Some(MsgId(N)));
        assert!(
            pool.ranked.is_empty() && pool.ranked.capacity() > 0,
            "rank selection reuses its scratch"
        );
    }

    #[test]
    fn index_stays_bounded_under_long_churn() {
        // Regression for ISSUE 6: an id-indexed table once grew with every
        // id ever seen (200k entries here).  The slab reuses freed slots,
        // so it holds no more slots than were ever in flight at once.
        let mut pool: MessagePool<M> = MessagePool::new();
        const TOTAL: u64 = 200_000;
        const IN_FLIGHT: u64 = 128;
        for id in 0..TOTAL {
            pool.insert(pending(id, id, id + 5));
            if id >= IN_FLIGHT {
                assert_eq!(
                    pop_earliest(&mut pool).map(|m| m.id),
                    Some(MsgId(id - IN_FLIGHT))
                );
            }
        }
        assert_eq!(pool.len(), IN_FLIGHT as usize);
        assert!(
            pool.slots.len() <= IN_FLIGHT as usize + 1,
            "{} slots",
            pool.slots.len()
        );
        assert_eq!(ids(&pool), (TOTAL - IN_FLIGHT..TOTAL).collect::<Vec<u64>>());
    }
}
