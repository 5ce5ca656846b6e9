//! The in-flight message pool, the simulator's event-queue core: a slab and
//! one heap.
//!
//! Every sent-but-undelivered message sits in a slot of the slab (a
//! `Vec<Option<PendingMessage>>`; the next insert reuses the slot freed
//! last, so the slab never holds more slots than were ever in flight at
//! once), and the delivery heap holds one `(delivery_key, MsgId, slot)`
//! entry per insert.  An entry is **live iff its slot still holds that id
//! under that key**; anything else is discarded on its way to the top.
//! That one rule covers both ways an entry goes stale: its message was
//! taken another way ([`MessagePool::take_first`],
//! [`MessagePool::take_nth_live`]), or a crash window's `QueueInFlight`
//! re-queued it under the same id and a later key — possibly into the very
//! slot it just left — and the old entry must not resurface it early.
//!
//! The picks, each of which moves its message out of its slot once:
//!
//! * [`MessagePool::pop_earliest`] — the smallest `(delivery_key, id)`,
//!   amortized O(log n); [`MessagePool::pop_earliest_by`] re-breaks
//!   equal-key ties by a rank — the tied entries are the heap's top, so
//!   O(log n + ties), no pool scan.  FIFO, latency and topology scheduling.
//! * [`MessagePool::take_first`] — the first message in send (id) order
//!   matching a predicate, one pass over the slab: adversarial driving
//!   ([`crate::Simulation::deliver_where`]).
//! * [`MessagePool::take_nth_live`] — the k-th live message in send order,
//!   an O(live) selection over a reused scratch buffer: `RandomScheduler`'s
//!   pick.  It is the message the first engine's send-ordered `Vec` held at
//!   index k, so every seeded Random schedule is choice-for-choice
//!   unchanged.
//!
//! The heap keeps an entry until it is popped or found stale at the top,
//! so under a scheduler that never pops (the random adversary) it keeps
//! one stale entry per send until the pool is dropped.

use crate::message::{MsgId, PendingMessage};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A delivery-heap entry, `(delivery_key, id, slot)`, smallest on top.
type Entry = Reverse<(u64, u64, usize)>;

/// The set of in-flight messages: a slab and one delivery heap.
#[derive(Debug, Clone)]
pub struct MessagePool<M> {
    /// The slab: in-flight messages by slot, `None` in a free slot.
    slots: Vec<Option<PendingMessage<M>>>,
    /// Free slots, reused last-freed first.
    free: Vec<usize>,
    /// The delivery heap (see the module docs for which entries are live).
    queue: BinaryHeap<Entry>,
    /// [`MessagePool::pop_earliest_by`]'s scratch: the tied `(id, slot)`s
    /// it pushes back.  Empty between calls; a field to reuse the
    /// allocation.
    ties: Vec<(u64, usize)>,
    /// [`MessagePool::take_nth_live`]'s scratch: the live `(id, slot)`s it
    /// selects from.  Empty between calls; a field so a Random pick
    /// allocates nothing per step.
    ranked: Vec<(u64, usize)>,
}

impl<M> Default for MessagePool<M> {
    fn default() -> Self {
        MessagePool {
            slots: Vec::new(),
            free: Vec::new(),
            queue: BinaryHeap::new(),
            ties: Vec::new(),
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

    /// Inserts a sent message into the slot freed last (else a new one) and
    /// pushes its heap entry, keyed by `deliver_at` when the scheduler
    /// stamped one, else by the send time (under a monotone clock both
    /// orders FIFO delivery by send order).  Its id must not be live: the
    /// engine assigns each send a fresh one, and a crash window re-queues a
    /// message only after taking it out.
    pub fn insert(&mut self, msg: PendingMessage<M>) {
        let (key, id) = (msg.delivery_key(), msg.id.0);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(msg);
                slot
            }
            None => {
                self.slots.push(Some(msg));
                self.slots.len() - 1
            }
        };
        self.queue.push(Reverse((key, id, slot)));
    }

    /// Moves the message out of `slot` and frees the slot.
    fn take(&mut self, slot: usize) -> PendingMessage<M> {
        self.free.push(slot);
        self.slots[slot]
            .take()
            .expect("a live entry's slot is occupied")
    }

    /// The heap's top live entry, discarding stale ones on the way.
    fn peek_live(&mut self) -> Option<(u64, u64, usize)> {
        while let Some(&Reverse((key, id, slot))) = self.queue.peek() {
            let msg = self.slots[slot].as_ref();
            if msg.is_some_and(|msg| msg.id.0 == id && msg.delivery_key() == key) {
                return Some((key, id, slot));
            }
            self.queue.pop();
        }
        None
    }

    /// The `(delivery_key, id)` of the message [`MessagePool::pop_earliest`]
    /// would take, without taking it — amortized O(log n).  The dispatch
    /// core compares the key with the earliest planned invocation (the one
    /// dispatch rule).
    pub fn peek_earliest(&mut self) -> Option<(u64, MsgId)> {
        self.peek_live().map(|(key, id, _)| (key, MsgId(id)))
    }

    /// Takes the message with the smallest `(delivery_key, id)` — amortized
    /// O(log n).
    pub fn pop_earliest(&mut self) -> Option<PendingMessage<M>> {
        let (_, _, slot) = self.peek_live()?;
        self.queue.pop();
        Some(self.take(slot))
    }

    /// [`MessagePool::pop_earliest`] with equal-key ties broken by the
    /// smallest `rank`, not the smallest id.  The tied entries are the top
    /// of the heap: pop that run, keep the winner, push the others back —
    /// O(log n) without a tie (no `rank` call, no allocation), O(t log n)
    /// for a run of t.
    pub fn pop_earliest_by<R: Ord>(
        &mut self,
        rank: impl Fn(&PendingMessage<M>) -> R,
    ) -> Option<PendingMessage<M>> {
        let (key, id, slot) = self.peek_live()?;
        self.queue.pop();
        let mut best = (id, slot);
        while let Some((_, id, slot)) = self.peek_live().filter(|&(k, _, _)| k == key) {
            self.queue.pop();
            let mut loser = (id, slot);
            let rank_of = |slot: usize| rank(self.slots[slot].as_ref().expect("live"));
            if rank_of(loser.1) < rank_of(best.1) {
                std::mem::swap(&mut best, &mut loser);
            }
            self.ties.push(loser);
        }
        for (id, slot) in self.ties.drain(..) {
            self.queue.push(Reverse((key, id, slot)));
        }
        Some(self.take(best.1))
    }

    /// Takes the first message in send (id) order matching `pred` — one
    /// pass over the slab.  Its heap entry is left behind, stale.
    pub fn take_first(
        &mut self,
        pred: impl Fn(&PendingMessage<M>) -> bool,
    ) -> Option<PendingMessage<M>> {
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
        Some(self.take(slot))
    }

    /// Takes the `k`-th live message in ascending id (send) order, or
    /// `None` if fewer than `k + 1` are live — O(live): the live ids are
    /// gathered into a reused scratch buffer and selected in linear time.
    /// Its heap entry is left behind, stale.
    pub fn take_nth_live(&mut self, k: usize) -> Option<PendingMessage<M>> {
        if k >= self.len() {
            return None;
        }
        let live = self.slots.iter().enumerate();
        self.ranked
            .extend(live.filter_map(|(slot, msg)| Some((msg.as_ref()?.id.0, slot))));
        let (_, &mut (_, slot), _) = self.ranked.select_nth_unstable(k);
        self.ranked.clear();
        Some(self.take(slot))
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
    use snow_core::{ClientId, ProcessId, ServerId};

    #[derive(Debug, Clone)]
    struct M;
    impl crate::message::SimMessage for M {}

    fn pending(id: u64, sent_at: u64, deliver_at: Option<u64>) -> PendingMessage<M> {
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

    /// What the pool stores per heap entry; the slab's payload is pinned in
    /// `snow_protocols::any` (`the_pools_working_set_cannot_silently_widen`).
    #[test]
    fn a_heap_entry_cannot_silently_widen() {
        assert!(std::mem::size_of::<Entry>() <= 24);
    }

    #[test]
    fn insert_remove_and_rank_selection() {
        let mut pool: MessagePool<M> = MessagePool::new();
        for id in 0..5 {
            pool.insert(pending(id, id, None));
        }
        assert_eq!(pool.len(), 5);
        let taken = pool.take_first(|m| m.id == MsgId(1)).unwrap();
        assert_eq!(taken.id, MsgId(1));
        assert!(pool.take_first(|m| m.id == MsgId(1)).is_none());
        assert_eq!(ids(&pool), vec![0, 2, 3, 4]);
        assert!(pool.take_nth_live(4).is_none());
        // Rank order is id order: live [0, 2, 3, 4], rank 1 is id 2.
        assert_eq!(pool.take_nth_live(1).unwrap().id, MsgId(2));
        // Id 5 reuses the slot id 2 left (last freed), ahead of id 3's:
        // slot order is no longer send order, and nothing looks at it.
        pool.insert(pending(5, 5, None));
        assert_eq!(pool.slots.len(), 5);
        assert_eq!(ids(&pool), vec![0, 3, 4, 5]);
        assert_eq!(pool.take_first(|m| m.id.0 >= 3).unwrap().id, MsgId(3));
        assert_eq!(pool.take_nth_live(2).unwrap().id, MsgId(5));
        assert_eq!(ids(&pool), vec![0, 4]);
    }

    #[test]
    fn pop_earliest_orders_by_delivery_time_then_id() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, Some(30)));
        pool.insert(pending(1, 0, Some(10)));
        pool.insert(pending(2, 0, Some(10)));
        pool.insert(pending(3, 0, Some(20)));
        let order: Vec<u64> = (0..3).map(|_| pool.pop_earliest().unwrap().id.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn pop_earliest_skips_adversarially_removed_messages() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, Some(5)));
        pool.insert(pending(1, 0, Some(6)));
        pool.take_first(|m| m.id == MsgId(0)).unwrap(); // delivered via deliver_where
        assert_eq!(pool.pop_earliest().map(|m| m.id), Some(MsgId(1)));
        assert!(pool.pop_earliest().is_none());
        assert!(pool.is_empty());
    }

    #[test]
    fn requeued_id_is_not_resurfaced_by_its_stale_entry() {
        // A crash window's `QueueInFlight` re-inserts the *same* id under a
        // later key.  If the old entry was never consumed (a
        // `deliver_where` delivery), it must not resurface the message
        // ahead of everything keyed in between — even though the message
        // lands back in the very slot its old entry names.
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, Some(5)));
        pool.insert(pending(1, 0, Some(8)));
        let held = pool.take_first(|m| m.id == MsgId(0)).unwrap();
        pool.insert(PendingMessage {
            deliver_at: Some(20),
            ..held
        });
        assert_eq!(
            pool.slots[0].as_ref().map(|m| (m.id, m.deliver_at)),
            Some((MsgId(0), Some(20)))
        );
        assert_eq!(pool.peek_earliest(), Some((8, MsgId(1))));
        assert_eq!(pool.pop_earliest().map(|m| m.id), Some(MsgId(1)));
        assert_eq!(pool.peek_earliest(), Some((20, MsgId(0))));
        assert_eq!(
            pool.pop_earliest_by(|m| m.sent_at).map(|m| m.id),
            Some(MsgId(0))
        );
        // Re-queued under its *own* key, a message has two live entries;
        // it is still taken once.
        pool.insert(pending(2, 0, Some(30)));
        let held = pool.take_first(|_| true).unwrap();
        pool.insert(held);
        assert_eq!(
            pool.pop_earliest_by(|m| m.sent_at).map(|m| m.id),
            Some(MsgId(2))
        );
        assert!(pool.pop_earliest().is_none());
    }

    #[test]
    fn pop_earliest_by_breaks_ties_by_rank_and_keeps_the_losers() {
        let mut pool: MessagePool<M> = MessagePool::new();
        // Three messages tie at key 10; rank is `sent_at`, so id 2 wins,
        // then id 0 (sent_at 4), then id 1 (sent_at 7), then key 11.
        pool.insert(pending(0, 4, Some(10)));
        pool.insert(pending(1, 7, Some(10)));
        pool.insert(pending(2, 3, Some(10)));
        pool.insert(pending(3, 0, Some(11)));
        let mut order = Vec::new();
        while let Some(m) = pool.pop_earliest_by(|m| m.sent_at) {
            order.push(m.id.0);
        }
        assert_eq!(order, vec![2, 0, 1, 3]);
    }

    #[test]
    fn heap_drains_are_logarithmic_and_never_build_the_rank_index() {
        // Complexity guard without a wall clock: 10 000 messages, distinct
        // keys except that every 100th shares its predecessor's.  The
        // rank-taking pop may evaluate `rank` only inside a tie run — the
        // whole-pool scan it replaced evaluated n²/2 candidates.
        const N: u64 = 10_000;
        let fill = || {
            let mut pool: MessagePool<M> = MessagePool::new();
            for id in 0..N {
                let key = if id % 100 == 99 { id - 1 } else { id };
                pool.insert(pending(id, 0, Some(1_000 + key)));
            }
            pool
        };
        let ties = N / 100;
        let evaluations = std::cell::Cell::new(0u64);
        let mut pool = fill();
        let mut drained = 0;
        while let Some(m) = pool.pop_earliest_by(|m| {
            evaluations.set(evaluations.get() + 1);
            std::cmp::Reverse(m.id)
        }) {
            // Reverse-id rank: the later id of each tied pair goes first.
            let expected = match drained % 100 {
                98 => drained + 1,
                99 => drained - 1,
                _ => drained,
            };
            assert_eq!(m.id, MsgId(expected));
            drained += 1;
        }
        assert_eq!(drained, N);
        assert_eq!(
            evaluations.get(),
            2 * ties,
            "rank is evaluated inside tie runs only (the bound is n + ties)"
        );
        // Only rank selection gathers the live ids; a heap drain never does.
        assert_eq!(
            pool.ranked.capacity(),
            0,
            "a rank-taking heap drain ranked the pool"
        );

        let mut fifo = fill();
        while fifo.pop_earliest().is_some() {}
        assert!(fifo.is_empty());
        assert_eq!(fifo.ranked.capacity(), 0, "a FIFO drain ranked the pool");
        fifo.insert(pending(N, 0, None));
        assert_eq!(fifo.take_nth_live(0).map(|m| m.id), Some(MsgId(N)));
        assert!(
            fifo.ranked.is_empty() && fifo.ranked.capacity() > 0,
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
            pool.insert(pending(id, id, Some(id + 5)));
            if id >= IN_FLIGHT {
                assert_eq!(
                    pool.pop_earliest().map(|m| m.id),
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
