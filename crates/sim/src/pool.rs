//! The indexed in-flight message pool: the simulator's event-queue core.
//!
//! [`MessagePool`] keeps every sent-but-undelivered message and answers the
//! three access patterns the engine needs, each with its own index:
//!
//! * **Earliest-delivery pop** — a [`BinaryHeap`] keyed by
//!   `(delivery_time, MsgId)` gives every heap scheduler an O(log n)
//!   [`MessagePool::pop_earliest`], or [`MessagePool::pop_earliest_by`]
//!   where equal-key ties are re-broken by a rank (the tied entries sit
//!   together at the heap top: no pool scan).  Entries are removed lazily:
//!   one whose id is no longer live (delivered adversarially via
//!   [`crate::Simulation::deliver_where`]) or no longer keyed as the entry
//!   says (re-queued by a crash window) is skipped on pop.
//! * **Removal by id** — messages live in a slot vector with O(1)
//!   swap-remove; a dense `MsgId → slot` table keeps slots addressable.
//! * **Rank selection in send order** — a Fenwick (binary indexed) tree over
//!   the id space marks live ids, giving O(log n)
//!   [`MessagePool::nth_live`] rank selection.  `RandomScheduler` uses it
//!   so a uniform draw over the pool picks *the k-th message in send order*
//!   — exactly the semantics of indexing the old send-ordered `Vec`, which
//!   keeps seeded schedules (and therefore golden histories) bit-identical
//!   across the engine refactor.  The tree is **built by `nth_live`**:
//!   FIFO, latency and topology runs never select by rank and pay for the
//!   heap and the slot table only (the id-order iterator needs no tree).
//!
//! Memory: the id-indexed tables are a **sliding window** over the id
//! space.  Delivered ids at the front of the window are trimmed (and the
//! Fenwick tree dropped, for `nth_live` to rebuild) once the dead prefix
//! reaches half the window, so a long run's index footprint is
//! O(in-flight), not O(messages-ever-sent) — the property that keeps
//! open-loop saturation runs flat in memory.  Live ids below the window
//! base (cross-shard imports racing a trim) fall back to a `BTreeMap`
//! side-table; it is empty on the serial path.  `MsgId`s themselves stay
//! monotone — only the *index* is windowed — so rank selection still means
//! "k-th live message in send order" and seeded schedules (golden
//! histories) are unchanged.  The delivery heap holds at most one entry
//! per insert; heap-popping schedulers drain it as the run progresses,
//! while schedulers that never pop (e.g. the random adversary) leave one
//! stale entry per send until the pool is dropped.

use crate::message::{MsgId, PendingMessage};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A Fenwick (binary indexed) tree over a growable 0/1 array, supporting
/// O(log n) set/clear, prefix counts, and rank selection.
#[derive(Debug, Clone, Default)]
pub struct Fenwick {
    /// 1-indexed partial sums: `tree[i]` covers `(i - lowbit(i), i]`.
    tree: Vec<u32>,
    /// Number of live (set) positions.
    count: usize,
}

impl Fenwick {
    /// An empty tree over an empty id space.
    pub fn new() -> Self {
        Fenwick::default()
    }

    /// Number of positions the tree covers (the id space so far).
    pub fn capacity(&self) -> usize {
        self.tree.len()
    }

    /// Number of set positions.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Extends the id space by one (unset) position.
    pub fn append_zero(&mut self) {
        // Appending index n (1-based) must initialise tree[n] to the sum of
        // the range (n - lowbit(n), n], all of whose members already exist.
        let n = self.tree.len() + 1;
        let lowbit = n & n.wrapping_neg();
        let value = self.prefix(n - 1) - self.prefix(n - lowbit);
        self.tree.push(value as u32);
    }

    /// Sum of positions `1..=i` (1-based internal indexing).
    fn prefix(&self, mut i: usize) -> usize {
        let mut sum = 0usize;
        while i > 0 {
            sum += self.tree[i - 1] as usize;
            i -= i & i.wrapping_neg();
        }
        sum
    }

    fn add(&mut self, index: usize, delta: i32) {
        let mut i = index + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = (self.tree[i - 1] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Marks position `index` live.  The position must be within capacity
    /// and currently unset.
    pub fn set(&mut self, index: usize) {
        self.add(index, 1);
        self.count += 1;
    }

    /// Clears position `index`.  The position must be currently set.
    pub fn clear(&mut self, index: usize) {
        self.add(index, -1);
        self.count -= 1;
    }

    /// The position holding the `k`-th live entry (0-based, ascending), or
    /// `None` if fewer than `k + 1` entries are live.
    pub fn kth(&self, k: usize) -> Option<usize> {
        if k >= self.count {
            return None;
        }
        let mut remaining = k + 1;
        let mut pos = 0usize; // 1-based prefix position
        let mut step = self.tree.len().next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= self.tree.len() && (self.tree[next - 1] as usize) < remaining {
                remaining -= self.tree[next - 1] as usize;
                pos = next;
            }
            step >>= 1;
        }
        Some(pos) // pos is 1-based index of the match, i.e. 0-based position
    }

    /// Builds a tree from a liveness bitmap in O(n) (used when the message
    /// pool trims its index window).
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut tree: Vec<u32> = bits.into_iter().map(u32::from).collect();
        let count = tree.iter().map(|&v| v as usize).sum();
        let n = tree.len();
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent - 1] += tree[i - 1];
            }
        }
        Fenwick { tree, count }
    }
}

/// The set of in-flight messages, indexed for O(log n) scheduling.
///
/// The `MsgId → slot` index is a sliding window: ids below `base` that have
/// been retired are trimmed away, so the index stays O(in-flight) no matter
/// how many messages a run sends (satellite of ISSUE 6 — the previous dense
/// table grew monotonically with every id ever seen).
#[derive(Debug, Clone)]
pub struct MessagePool<M> {
    /// Live messages in arbitrary slot order (swap-remove).
    slots: Vec<PendingMessage<M>>,
    /// Windowed `MsgId → slot` table: `window[id - base]`; [`DEAD`] marks
    /// delivered/unknown ids.
    window: Vec<usize>,
    /// First id covered by `window`.
    base: u64,
    /// Number of leading [`DEAD`] entries of `window` already verified
    /// (monotone between trims; reset if an import lands inside it).
    dead_prefix: usize,
    /// Live ids below `base` — cross-shard imports that raced a trim.
    /// Always empty on the serial path; iterated before the window by
    /// rank selection (every old id precedes every windowed id).
    old: BTreeMap<u64, usize>,
    /// Live-id marks over the window's offsets, for rank selection: built
    /// by [`MessagePool::nth_live`], dropped at trims, else kept current.
    live: Option<Fenwick>,
    /// Delivery queue keyed by `(delivery_time, id)`; entries whose id is
    /// dead or re-keyed are skipped lazily on pop.
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    /// [`MessagePool::pop_earliest_by`]'s scratch (the ids it pushes back);
    /// empty between calls, a field only to reuse the allocation.
    ties: Vec<u64>,
}

const DEAD: usize = usize::MAX;

/// Minimum dead prefix before a trim is worth shifting the window.
const TRIM_MIN: usize = 64;

impl<M> Default for MessagePool<M> {
    fn default() -> Self {
        MessagePool {
            slots: Vec::new(),
            window: Vec::new(),
            base: 0,
            dead_prefix: 0,
            old: BTreeMap::new(),
            live: None,
            queue: BinaryHeap::new(),
            ties: Vec::new(),
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
        self.slots.len()
    }

    /// True if no messages are in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot holding live message `id`, or `None`.
    fn slot_index(&self, id: u64) -> Option<usize> {
        if id >= self.base {
            match self.window.get((id - self.base) as usize) {
                Some(&slot) if slot != DEAD => Some(slot),
                _ => None,
            }
        } else {
            self.old.get(&id).copied()
        }
    }

    /// Points the index entry for live message `id` at `slot`.
    fn set_slot(&mut self, id: u64, slot: usize) {
        if id >= self.base {
            self.window[(id - self.base) as usize] = slot;
        } else {
            self.old.insert(id, slot);
        }
    }

    /// Advances the verified dead prefix and, once it reaches both
    /// [`TRIM_MIN`] and half the window, slides the window base past it —
    /// amortized O(1) per message over a run.
    fn maybe_trim(&mut self) {
        while self.dead_prefix < self.window.len() && self.window[self.dead_prefix] == DEAD {
            self.dead_prefix += 1;
        }
        if self.dead_prefix >= TRIM_MIN && self.dead_prefix * 2 >= self.window.len() {
            self.window.drain(..self.dead_prefix);
            self.base += self.dead_prefix as u64;
            self.dead_prefix = 0;
            self.live = None;
        }
    }

    /// Inserts a newly sent message.  Its delivery-queue key is
    /// `deliver_at` when the scheduler stamped one, else the send time
    /// (under a monotone clock both orders FIFO delivery by send order).
    ///
    /// # Panics
    /// Panics if a message with the same id is already live.
    pub fn insert(&mut self, msg: PendingMessage<M>) {
        let id = msg.id.0;
        assert!(
            self.slot_index(id).is_none(),
            "duplicate in-flight message {}",
            msg.id
        );
        let key = msg.delivery_key();
        let slot = self.slots.len();
        if id >= self.base {
            let offset = (id - self.base) as usize;
            while self.window.len() <= offset {
                self.window.push(DEAD);
                self.live.iter_mut().for_each(Fenwick::append_zero);
            }
            self.window[offset] = slot;
            self.live.iter_mut().for_each(|live| live.set(offset));
            // An import landing inside the verified dead prefix reopens it.
            if offset < self.dead_prefix {
                self.dead_prefix = offset;
            }
        } else {
            // Cross-shard import below the window base (raced a trim).
            self.old.insert(id, slot);
        }
        self.queue.push(Reverse((key, id)));
        self.slots.push(msg);
        self.maybe_trim();
    }

    /// True if `id` is in flight.
    pub fn contains(&self, id: MsgId) -> bool {
        self.slot_index(id.0).is_some()
    }

    /// The in-flight message `id`, if any.
    pub fn get(&self, id: MsgId) -> Option<&PendingMessage<M>> {
        self.slot_index(id.0).map(|slot| &self.slots[slot])
    }

    /// Removes and returns message `id` in O(1) (swap-remove) plus an
    /// O(log n) update of the rank index, if built.  Any delivery-queue
    /// entry for `id` becomes stale and is skipped lazily.
    pub fn remove(&mut self, id: MsgId) -> Option<PendingMessage<M>> {
        let slot = self.slot_index(id.0)?;
        if id.0 >= self.base {
            let offset = (id.0 - self.base) as usize;
            self.window[offset] = DEAD;
            self.live.iter_mut().for_each(|live| live.clear(offset));
        } else {
            self.old.remove(&id.0);
        }
        let msg = self.slots.swap_remove(slot);
        if slot < self.slots.len() {
            let moved_id = self.slots[slot].id.0;
            self.set_slot(moved_id, slot);
        }
        self.maybe_trim();
        Some(msg)
    }

    /// Pops the live message with the smallest `(delivery_time, id)` key
    /// from the delivery queue — amortized O(log n).  The message stays in
    /// the pool (callers deliver it via [`MessagePool::remove`]); its queue
    /// entry is consumed, so each call yields a distinct message.
    pub fn pop_earliest(&mut self) -> Option<MsgId> {
        let (_, id) = self.peek_earliest()?;
        self.queue.pop();
        Some(id)
    }

    /// [`MessagePool::pop_earliest`] with equal-key ties broken by the
    /// smallest `rank`, not the smallest id.  The tied entries are the top
    /// of the heap: pop that run, keep the winner, push the others back —
    /// O(log n) without a tie (no `rank` call, no allocation), O(t log n)
    /// for a run of t.
    pub fn pop_earliest_by<R: Ord>(
        &mut self,
        rank: impl Fn(&PendingMessage<M>) -> R,
    ) -> Option<MsgId> {
        let (key, mut best) = self.peek_earliest()?;
        self.queue.pop();
        while let Some((_, mut loser)) = self.peek_earliest().filter(|&(k, _)| k == key) {
            self.queue.pop();
            let rank_of = |id| rank(self.get(id).expect("peeked entries are live"));
            if rank_of(loser) < rank_of(best) {
                std::mem::swap(&mut best, &mut loser);
            }
            self.ties.push(loser.0);
        }
        for id in self.ties.drain(..) {
            self.queue.push(Reverse((key, id)));
        }
        Some(best)
    }

    /// The `(delivery_time, id)` key of the live message
    /// [`MessagePool::pop_earliest`] would yield, without consuming its
    /// queue entry — amortized O(log n) (stale entries are discarded on the
    /// way).  The dispatch core uses this to decide whether the next
    /// delivery falls inside the current watermark (`u64::MAX` on the
    /// serial path, the epoch's virtual-time watermark on the sharded
    /// path).
    pub fn peek_earliest(&mut self) -> Option<(u64, MsgId)> {
        while let Some(&Reverse((key, id))) = self.queue.peek() {
            // Live *and keyed as the entry says*: a crash window's
            // `QueueInFlight` re-inserts the same id under a later key, and
            // its old entry must not resurface it under the old one.
            let msg = self.get(MsgId(id));
            if msg.is_some_and(|msg| msg.delivery_key() == key) {
                return Some((key, MsgId(id)));
            }
            self.queue.pop();
        }
        None
    }

    /// The `k`-th live message in ascending id (send) order — O(log n)
    /// (plus O(|old|) when pre-window imports exist; every old id precedes
    /// every windowed id, so the global order is old-ids-then-window).
    /// Builds the rank index in O(window) if it is absent (first use, or
    /// first use after a trim); inserts and removes then keep it current.
    pub fn nth_live(&mut self, k: usize) -> Option<MsgId> {
        if k < self.old.len() {
            return self.old.keys().nth(k).map(|&id| MsgId(id));
        }
        let live = self.live.get_or_insert_with(|| {
            Fenwick::from_bits(self.window.iter().map(|&slot| slot != DEAD))
        });
        live.kth(k - self.old.len())
            .map(|offset| MsgId(self.base + offset as u64))
    }

    /// Index-footprint diagnostic: `(window entries, pre-window side-table
    /// entries)`.  Regression tests use this to prove long runs stay
    /// O(in-flight) rather than O(ids-ever-seen).
    pub fn index_footprint(&self) -> (usize, usize) {
        (self.window.len(), self.old.len())
    }

    /// First id covered by the index window (ids below it are either
    /// retired or in the `old` side-table).
    pub fn window_base(&self) -> u64 {
        self.base
    }

    /// Iterates over in-flight messages in ascending id (send) order: one
    /// pass over the pre-window side-table and the index window.
    pub fn iter(&self) -> impl Iterator<Item = &PendingMessage<M>> + '_ {
        let windowed = self.window.iter().filter(|&&slot| slot != DEAD);
        self.old
            .values()
            .chain(windowed)
            .map(|&slot| &self.slots[slot])
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

    #[test]
    fn fenwick_set_clear_select() {
        let mut f = Fenwick::new();
        for _ in 0..10 {
            f.append_zero();
        }
        for i in [2usize, 3, 5, 7] {
            f.set(i);
        }
        assert_eq!(f.count(), 4);
        assert_eq!(f.kth(0), Some(2));
        assert_eq!(f.kth(1), Some(3));
        assert_eq!(f.kth(2), Some(5));
        assert_eq!(f.kth(3), Some(7));
        assert_eq!(f.kth(4), None);
        f.clear(3);
        assert_eq!(f.kth(1), Some(5));
        // Appending after sets keeps partial sums correct.
        f.append_zero();
        f.set(10);
        assert_eq!(f.kth(3), Some(10));
        assert_eq!(f.count(), 4);
    }

    #[test]
    fn insert_remove_and_rank_selection() {
        let mut pool: MessagePool<M> = MessagePool::new();
        for id in 0..5 {
            pool.insert(pending(id, id, None));
        }
        assert_eq!(pool.len(), 5);
        assert!(pool.contains(MsgId(3)));
        // Rank order is id order regardless of slot shuffling.
        let removed = pool.remove(MsgId(1)).unwrap();
        assert_eq!(removed.id, MsgId(1));
        assert_eq!(pool.remove(MsgId(1)).map(|m| m.id), None);
        assert_eq!(pool.nth_live(0), Some(MsgId(0)));
        assert_eq!(pool.nth_live(1), Some(MsgId(2)));
        assert_eq!(pool.nth_live(3), Some(MsgId(4)));
        assert_eq!(pool.nth_live(4), None);
        let ids: Vec<u64> = pool.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![0, 2, 3, 4]);
    }

    #[test]
    fn pop_earliest_orders_by_delivery_time_then_id() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, Some(30)));
        pool.insert(pending(1, 0, Some(10)));
        pool.insert(pending(2, 0, Some(10)));
        pool.insert(pending(3, 0, Some(20)));
        let a = pool.pop_earliest().unwrap();
        pool.remove(a).unwrap();
        let b = pool.pop_earliest().unwrap();
        pool.remove(b).unwrap();
        let c = pool.pop_earliest().unwrap();
        pool.remove(c).unwrap();
        assert_eq!((a, b, c), (MsgId(1), MsgId(2), MsgId(3)));
    }

    #[test]
    fn pop_earliest_skips_adversarially_removed_messages() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, Some(5)));
        pool.insert(pending(1, 0, Some(6)));
        pool.remove(MsgId(0)).unwrap(); // delivered via deliver_where
        assert_eq!(pool.pop_earliest(), Some(MsgId(1)));
        pool.remove(MsgId(1)).unwrap();
        assert_eq!(pool.pop_earliest(), None);
        assert!(pool.is_empty());
    }

    #[test]
    fn requeued_id_is_not_resurfaced_by_its_stale_entry() {
        // A crash window's `QueueInFlight` re-inserts the *same* id under a
        // later key.  If the old entry was never consumed (a
        // `deliver_where` delivery), it must not resurface the message
        // ahead of everything keyed in between.
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, Some(5)));
        pool.insert(pending(1, 0, Some(8)));
        let held = pool.remove(MsgId(0)).unwrap();
        pool.insert(PendingMessage {
            deliver_at: Some(20),
            ..held
        });
        assert_eq!(pool.peek_earliest(), Some((8, MsgId(1))));
        assert_eq!(pool.pop_earliest(), Some(MsgId(1)));
        pool.remove(MsgId(1)).unwrap();
        assert_eq!(pool.peek_earliest(), Some((20, MsgId(0))));
        assert_eq!(pool.pop_earliest_by(|m| m.sent_at), Some(MsgId(0)));
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
        while let Some(id) = pool.pop_earliest_by(|m| m.sent_at) {
            pool.remove(id).unwrap();
            order.push(id.0);
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
        while let Some(id) = pool.pop_earliest_by(|m| {
            evaluations.set(evaluations.get() + 1);
            std::cmp::Reverse(m.id)
        }) {
            // Reverse-id rank: the later id of each tied pair goes first.
            let expected = match drained % 100 {
                98 => drained + 1,
                99 => drained - 1,
                _ => drained,
            };
            assert_eq!(id, MsgId(expected));
            pool.remove(id).unwrap();
            drained += 1;
        }
        assert_eq!(drained, N);
        assert_eq!(
            evaluations.get(),
            2 * ties,
            "rank is evaluated inside tie runs only (the bound is n + ties)"
        );
        assert!(
            pool.live.is_none(),
            "a rank-taking heap drain built the Fenwick tree"
        );

        let mut fifo = fill();
        while let Some(id) = fifo.pop_earliest() {
            fifo.remove(id).unwrap();
        }
        assert!(fifo.is_empty());
        assert!(fifo.live.is_none(), "a FIFO drain built the Fenwick tree");
        assert!(fifo.nth_live(0).is_none());
        assert!(fifo.live.is_some(), "rank selection builds it on first use");
    }

    #[test]
    fn lazy_rank_index_matches_sorted_live_ids_under_churn() {
        // The same insert/remove churn (long enough to trim the window
        // several times) on two pools: `eager` selects by rank from the
        // first step, so its tree is maintained incrementally throughout;
        // `lazy` builds its tree only after the churn.  Both must agree
        // with the sorted live ids.
        for seed in 0..8u64 {
            // A 64-bit LCG (Knuth's MMIX constants), top bits: stateful
            // RNG draws in this crate are confined to scheduler.rs.
            let mut state = seed;
            let mut below = |n: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % n
            };
            let mut eager: MessagePool<M> = MessagePool::new();
            let mut lazy: MessagePool<M> = MessagePool::new();
            assert_eq!(eager.nth_live(0), None);
            let mut live: Vec<u64> = Vec::new();
            let mut next_id = 0u64;
            for _ in 0..3_000 {
                if live.is_empty() || below(100) < 52 {
                    // Strided ids, as on a shard; occasionally an import
                    // below the trimmed base.
                    let base = lazy.window_base();
                    let import = base > 0 && below(20) == 0;
                    let id = match import.then(|| below(base)) {
                        Some(id) if !live.contains(&id) => id,
                        _ => {
                            next_id += 1 + below(3);
                            next_id
                        }
                    };
                    eager.insert(pending(id, 0, None));
                    lazy.insert(pending(id, 0, None));
                    live.push(id);
                } else {
                    // Mostly retire the oldest (so the window trims),
                    // sometimes a random one.
                    let at = if below(4) == 0 {
                        below(live.len() as u64) as usize
                    } else {
                        0
                    };
                    let id = live.remove(at);
                    eager.remove(MsgId(id)).unwrap();
                    lazy.remove(MsgId(id)).unwrap();
                }
                let k = below(live.len() as u64 + 1) as usize;
                let mut sorted = live.clone();
                sorted.sort_unstable();
                assert_eq!(eager.nth_live(k).map(|id| id.0), sorted.get(k).copied());
            }
            assert!(lazy.window_base() > 0, "churn never trimmed the window");
            assert!(lazy.live.is_none());
            live.sort_unstable();
            let by_rank = |pool: &mut MessagePool<M>| -> Vec<u64> {
                (0..pool.len())
                    .map(|k| pool.nth_live(k).unwrap().0)
                    .collect()
            };
            assert_eq!(by_rank(&mut lazy), live);
            assert_eq!(by_rank(&mut eager), live);
            assert_eq!(lazy.nth_live(live.len()), None);
            assert_eq!(lazy.iter().map(|m| m.id.0).collect::<Vec<_>>(), live);
        }
    }

    #[test]
    fn index_stays_bounded_under_long_churn() {
        // Regression for ISSUE 6: the old dense `slot_of` table grew with
        // every id ever seen (200k entries here).  The windowed index must
        // stay O(in-flight) — a few hundred entries for 128 in flight.
        let mut pool: MessagePool<M> = MessagePool::new();
        const TOTAL: u64 = 200_000;
        const IN_FLIGHT: u64 = 128;
        for id in 0..TOTAL {
            pool.insert(pending(id, id, Some(id + 5)));
            if id >= IN_FLIGHT {
                pool.remove(MsgId(id - IN_FLIGHT)).unwrap();
            }
        }
        assert_eq!(pool.len(), IN_FLIGHT as usize);
        let (window, old) = pool.index_footprint();
        assert_eq!(old, 0, "serial-path churn must not populate the side-table");
        assert!(
            window < 1_024,
            "index window grew to {window} entries for {IN_FLIGHT} in flight"
        );
        assert!(pool.window_base() > TOTAL - 2 * IN_FLIGHT - 2 * 64);
        // The index still resolves the survivors, in send order.
        let ids: Vec<u64> = pool.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, (TOTAL - IN_FLIGHT..TOTAL).collect::<Vec<u64>>());
    }

    #[test]
    fn pre_window_imports_keep_global_send_order() {
        // Cross-shard imports can carry ids below the trimmed window base;
        // they must stay addressable and sort before every windowed id.
        let mut pool: MessagePool<M> = MessagePool::new();
        for id in 0..400 {
            pool.insert(pending(id, id, None));
        }
        for id in 0..300 {
            pool.remove(MsgId(id)).unwrap();
        }
        let base = pool.window_base();
        assert!(base > 0, "expected churn to trim the window");
        // An import whose id falls below the base lands in the side-table.
        let import = base - 1;
        pool.insert(pending(import, 0, None));
        let (_, old) = pool.index_footprint();
        assert_eq!(old, 1);
        assert!(pool.contains(MsgId(import)));
        assert_eq!(pool.nth_live(0), Some(MsgId(import)));
        assert_eq!(pool.nth_live(1), Some(MsgId(300)));
        let removed = pool.remove(MsgId(import)).unwrap();
        assert_eq!(removed.id, MsgId(import));
        assert_eq!(pool.index_footprint().1, 0);
        assert_eq!(pool.nth_live(0), Some(MsgId(300)));
    }

    #[test]
    #[should_panic]
    fn duplicate_ids_rejected() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(4, 0, None));
        pool.insert(pending(4, 1, None));
    }
}
