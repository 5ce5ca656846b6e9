//! The in-flight message pool, the simulator's event-queue core: a slab and
//! one heap.
//!
//! Every sent-but-undelivered message sits in a slot of the slab (a
//! `Vec<Option<PendingMessage>>`; the next insert reuses the slot freed
//! last, so the slab never holds more slots than were ever in flight at
//! once), and the delivery heap holds one `(deliver_at, MsgId, slot)`
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
//! * [`MessagePool::pop_earliest`] — the smallest `(deliver_at, id)`,
//!   amortized O(log n): [`crate::LatencyScheduler`]'s pick.  This is
//!   the classic discrete-event core, a `BinaryHeap` popped by `(time,
//!   id)`; equal times go to the smaller id, which is send order.
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

/// A delivery-heap entry, `(deliver_at, id, slot)`, smallest on top.
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
    /// pushes its heap entry, keyed by its `deliver_at`.  Its id must not be
    /// live: the engine assigns each send a fresh one, and a crash window
    /// re-queues a message only after taking it out.
    pub fn insert(&mut self, msg: PendingMessage<M>) {
        let (key, id) = (msg.deliver_at, msg.id.0);
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
            if msg.is_some_and(|msg| msg.id.0 == id && msg.deliver_at == key) {
                return Some((key, id, slot));
            }
            self.queue.pop();
        }
        None
    }

    /// The `(deliver_at, id)` of the message [`MessagePool::pop_earliest`]
    /// would take, without taking it — amortized O(log n).  The dispatch
    /// core compares the key with the earliest planned invocation (the one
    /// dispatch rule).
    pub fn peek_earliest(&mut self) -> Option<(u64, MsgId)> {
        self.peek_live().map(|(key, id, _)| (key, MsgId(id)))
    }

    /// Takes the message with the smallest `(deliver_at, id)` — amortized
    /// O(log n).
    pub fn pop_earliest(&mut self) -> Option<PendingMessage<M>> {
        let (_, _, slot) = self.peek_live()?;
        self.queue.pop();
        Some(self.take(slot))
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
            pool.insert(pending(id, id, id));
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
        pool.insert(pending(5, 5, 5));
        assert_eq!(pool.slots.len(), 5);
        assert_eq!(ids(&pool), vec![0, 3, 4, 5]);
        assert_eq!(pool.take_first(|m| m.id.0 >= 3).unwrap().id, MsgId(3));
        assert_eq!(pool.take_nth_live(2).unwrap().id, MsgId(5));
        assert_eq!(ids(&pool), vec![0, 4]);
    }

    #[test]
    fn pop_earliest_orders_by_delivery_time_then_id() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, 30));
        pool.insert(pending(1, 0, 10));
        pool.insert(pending(2, 0, 10));
        pool.insert(pending(3, 0, 20));
        let order: Vec<u64> = (0..3).map(|_| pool.pop_earliest().unwrap().id.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn pop_earliest_skips_adversarially_removed_messages() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, 5));
        pool.insert(pending(1, 0, 6));
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
        pool.insert(pending(0, 0, 5));
        pool.insert(pending(1, 0, 8));
        let held = pool.take_first(|m| m.id == MsgId(0)).unwrap();
        pool.insert(PendingMessage {
            deliver_at: 20,
            ..held
        });
        assert_eq!(
            pool.slots[0].as_ref().map(|m| (m.id, m.deliver_at)),
            Some((MsgId(0), 20))
        );
        assert_eq!(pool.peek_earliest(), Some((8, MsgId(1))));
        assert_eq!(pool.pop_earliest().map(|m| m.id), Some(MsgId(1)));
        assert_eq!(pool.peek_earliest(), Some((20, MsgId(0))));
        assert_eq!(pool.pop_earliest().map(|m| m.id), Some(MsgId(0)));
        // Re-queued under its *own* key, a message has two live entries;
        // it is still taken once.
        pool.insert(pending(2, 0, 30));
        let held = pool.take_first(|_| true).unwrap();
        pool.insert(held);
        assert_eq!(pool.pop_earliest().map(|m| m.id), Some(MsgId(2)));
        assert!(pool.pop_earliest().is_none());
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
        while let Some(m) = pool.pop_earliest() {
            assert_eq!(m.id, MsgId(drained), "(key, id) order");
            drained += 1;
            assert_eq!(pool.queue.len(), pool.len(), "a pop re-pushed an entry");
        }
        assert_eq!(drained, N);
        // Only rank selection gathers the live ids; a heap drain never does.
        assert_eq!(pool.ranked.capacity(), 0, "a heap drain ranked the pool");
        pool.insert(pending(N, 0, 0));
        assert_eq!(pool.take_nth_live(0).map(|m| m.id), Some(MsgId(N)));
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
