//! Delivery schedulers: who decides which in-flight message is delivered
//! next.
//!
//! The paper's adversary is the asynchronous network: it may delay any
//! message arbitrarily (but not forever).  Two schedulers model it:
//!
//! * [`LatencyScheduler`] — stamps each message with its delivery time,
//!   `sent_at` plus a latency drawn from the link it crosses (a
//!   [`Topology`]'s link distributions; one link for every pair in
//!   [`LatencyScheduler::new`]), all in engine ticks, and delivers in
//!   delivery-time order.  A zero-latency link
//!   ([`LatencyScheduler::fifo`]) delivers in send order;
//! * [`RandomScheduler`] — a seeded uniformly random adversary, used by the
//!   property-based tests to explore many interleavings reproducibly.
//!
//! Fully adversarial (scripted) schedules are expressed by driving the
//! simulation manually via [`crate::Simulation::deliver_where`], which is how
//! `snow-impossibility` constructs the executions of Figs. 3–5.
//!
//! # Event-queue architecture and complexity contract
//!
//! Schedulers pick directly from the engine's [`MessagePool`] (a slab and
//! one delivery heap) and hand back the slot of the message they chose:
//!
//! * [`Scheduler::on_send`] stamps a delivery time when a message is sent
//!   — a pure function of the send's coordinates (`send_hash`), so a
//!   message's latency does not depend on which other sends the engine
//!   decided first.  The pool keys its delivery heap by
//!   `(deliver_at, MsgId)`.
//! * [`Scheduler::next`] picks the message to deliver.  Its provided body
//!   — what [`LatencyScheduler`] uses — is one O(log n) heap pop of the
//!   smallest `(deliver_at, id)`, the entry the engine's one peek of the
//!   dispatch already found ([`MessagePool::pop`]).  Because the engine
//!   issues ids in send order, one handler per tick, the id that breaks an
//!   equal-key tie is also the send's `(sent_at, source, emission order)`.
//!   The random adversary overrides it: it draws a uniform rank and takes
//!   the k-th live message in send order ([`MessagePool::nth_live`]) — the
//!   same distribution *and the same per-seed choices* as indexing the
//!   first engine's send-ordered `Vec`.
//!
//! The heap scheduler is therefore O(log n) per step; the random
//! adversary is **O(live) per pick** — a linear selection over the live
//! ids, in a scratch buffer the pool reuses, so it allocates nothing per
//! step.  Either way the chosen message stays in its slot: the engine
//! reads its header there and moves it out once, into the handler.

use crate::pool::{Earliest, MessagePool, Slot};
use crate::topology::{LinkDist, Topology};
use snow_core::hash::{splitmix64, SplitMix};
use snow_core::ProcessId;
use std::sync::Arc;

/// A policy choosing which pending message to deliver next.
pub trait Scheduler<M> {
    /// Picks the next message to deliver: returns its slot, `None` iff the
    /// pool is empty (reliable channels require eventual delivery, which
    /// the simulation enforces by only stopping when nothing is pending).
    /// The engine takes the message out of the slot and delivers it.
    /// `earliest` is what [`MessagePool::peek_earliest`] returned just
    /// before the call — `None` iff the pool is empty.
    ///
    /// The provided body takes the smallest `(deliver_at, id)` — one heap
    /// pop of `earliest` ([`MessagePool::pop`]).
    fn next(
        &mut self,
        pool: &mut MessagePool<M>,
        earliest: Option<Earliest>,
        now: u64,
    ) -> Option<Slot> {
        let _ = now;
        Some(pool.pop(earliest?))
    }

    /// Hook called when a message is sent: returns its delivery time, a
    /// function of the send's **coordinates** — its endpoints, its send
    /// time, and its `ordinal` among the sends of the handler execution
    /// that made it (fault-engine duplicates and dropped sends included).
    /// The provided body returns `sent_at`, keying the message in send
    /// order; [`RandomScheduler`] keeps it.
    ///
    /// `&self`: a draw is a function of the send, never of the draws before
    /// it (the crate's `send_hash`).
    fn on_send(&self, src: ProcessId, dst: ProcessId, sent_at: u64, ordinal: u64) -> u64 {
        let _ = (src, dst, ordinal);
        sent_at
    }
}

/// **The one key of every per-message draw** — latencies and fault gates:
/// `seed` mixed with the send's coordinates.
/// A process dispatches at most once per tick, so `(src, sent_at)` names
/// the handler execution and `ordinal` the send within it.  Never the
/// `MsgId`: the coordinates name a send by what happened, which is what a
/// recorded schedule replays by (ROADMAP item 2), and a draw keyed by them
/// does not depend on how many ids were handed out before it.
#[inline]
pub(crate) fn send_hash(
    seed: u64,
    src: ProcessId,
    dst: ProcessId,
    sent_at: u64,
    ordinal: u64,
) -> u64 {
    splitmix64(
        seed ^ pid_bits(src).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ pid_bits(dst).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ sent_at.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ ordinal.wrapping_mul(0xFF51_AFD7_ED55_8CCD),
    )
}

/// Encodes a process id into disjoint 64-bit ranges for hashing.
#[inline]
pub(crate) fn pid_bits(id: ProcessId) -> u64 {
    match id {
        ProcessId::Server(s) => (1 << 32) | s.0 as u64,
        ProcessId::Client(c) => (2 << 32) | c.0 as u64,
    }
}

/// Delivers a uniformly random pending message; deterministic per seed.
///
/// The draw selects a uniform *rank* in send order
/// ([`MessagePool::nth_live`], O(live)).  The n-th pick is draw n of
/// [`SplitMix::new(seed)`](SplitMix), reduced by the pool's length.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    stream: SplitMix,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler { stream: SplitMix::new(seed) }
    }
}

impl<M> Scheduler<M> for RandomScheduler {
    fn next(&mut self, pool: &mut MessagePool<M>, _: Option<Earliest>, _: u64) -> Option<Slot> {
        if pool.is_empty() {
            return None;
        }
        pool.nth_live(self.stream.below(pool.len() as u64) as usize)
    }
}

/// Stamps each send at `sent_at + topology.link_draw(src, dst).draw(h)`, `h`
/// the `send_hash` of its coordinates, and delivers the earliest stamp
/// first — one O(log n) pop of the `(deliver_at, id)`-keyed queue per step.
///
/// A message's latency is a function of its coordinates and nothing else,
/// so it does not depend on dispatch order.  Keys may tie; ties go to the
/// smaller id, which is send order.
#[derive(Debug, Clone)]
pub struct LatencyScheduler {
    topology: Arc<Topology>,
    seed: u64,
}

impl LatencyScheduler {
    /// Latencies drawn uniformly from `[min_latency, max_latency]` ticks on
    /// every link: a scheduler over [`Topology::one_site`].
    ///
    /// # Panics
    /// Panics if `min_latency > max_latency`.
    pub fn new(seed: u64, min_latency: u64, max_latency: u64) -> Self {
        assert!(min_latency <= max_latency, "min_latency must be <= max_latency");
        let link = LinkDist::Uniform { min: min_latency, max: max_latency };
        LatencyScheduler::over(Arc::new(Topology::one_site(link)), seed)
    }

    /// Zero latency on every link: each message is keyed by its send time,
    /// so messages are delivered in send order.
    pub fn fifo() -> Self {
        LatencyScheduler::new(0, 0, 0)
    }

    /// Latencies drawn from `topology`'s link distributions, keyed by
    /// `seed` (see the [`crate::topology`] module docs).
    pub fn over(topology: Arc<Topology>, seed: u64) -> Self {
        LatencyScheduler { topology, seed }
    }
}

impl<M> Scheduler<M> for LatencyScheduler {
    #[inline]
    fn on_send(&self, src: ProcessId, dst: ProcessId, sent_at: u64, ordinal: u64) -> u64 {
        let h = send_hash(self.seed, src, dst, sent_at, ordinal);
        sent_at + self.topology.link_draw(src, dst).draw(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Causal, MsgId, PendingMessage};
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

    fn pool_of(msgs: Vec<PendingMessage<M>>) -> MessagePool<M> {
        let mut pool = MessagePool::new();
        for m in msgs {
            pool.insert(m);
        }
        pool
    }

    /// One pick through a scheduler and the take after it, as the engine
    /// makes them.
    fn pick<S: Scheduler<M>>(s: &mut S, pool: &mut MessagePool<M>) -> Option<PendingMessage<M>> {
        let earliest = pool.peek_earliest();
        let slot = s.next(pool, earliest, 0)?;
        Some(pool.take(slot))
    }

    /// Drains the pool through a scheduler, returning delivery order.
    fn drain<S: Scheduler<M>>(s: &mut S, pool: &mut MessagePool<M>) -> Vec<u64> {
        let mut order = Vec::new();
        while let Some(m) = pick(s, pool) {
            order.push(m.id.0);
        }
        order
    }

    #[test]
    fn fifo_delivers_in_send_order() {
        let mut s = LatencyScheduler::fifo();
        let (src, dst) = (ProcessId::Client(ClientId(0)), ProcessId::Server(ServerId(0)));
        assert_eq!(Scheduler::<M>::on_send(&s, src, dst, 10, 3), 10);
        let mut pool = pool_of(vec![pending(0, 0, 0), pending(1, 1, 1), pending(2, 2, 2)]);
        assert_eq!(drain(&mut s, &mut pool), vec![0, 1, 2]);
        assert!(pick(&mut s, &mut pool).is_none());
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let make_pool = || {
            pool_of(vec![
                pending(0, 0, 0),
                pending(1, 0, 0),
                pending(2, 0, 0),
                pending(3, 0, 0),
            ])
        };
        let order_a = drain(&mut RandomScheduler::new(7), &mut make_pool());
        let order_b = drain(&mut RandomScheduler::new(7), &mut make_pool());
        assert_eq!(order_a, order_b);
        let mut sorted = order_a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "every message delivered once");
        // Different seed should (almost surely) give a different sequence
        // over enough draws.
        let big_pool = || pool_of((0..16).map(|i| pending(i, 0, 0)).collect());
        assert_ne!(
            drain(&mut RandomScheduler::new(7), &mut big_pool()),
            drain(&mut RandomScheduler::new(8), &mut big_pool()),
        );
        let mut empty: MessagePool<M> = MessagePool::new();
        assert!(pick(&mut RandomScheduler::new(1), &mut empty).is_none());
    }

    #[test]
    fn latency_orders_by_delivery_time() {
        let mut s = LatencyScheduler::new(1, 5, 5);
        // on_send stamps sent_at + 5, whatever the endpoints.
        let (src, dst) = (ProcessId::Client(ClientId(0)), ProcessId::Server(ServerId(0)));
        assert_eq!(Scheduler::<M>::on_send(&s, src, dst, 10, 0), 15);
        let mut pool = pool_of(vec![pending(0, 0, 30), pending(1, 0, 10), pending(2, 0, 20)]);
        assert_eq!(drain(&mut s, &mut pool), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic]
    fn latency_rejects_inverted_bounds() {
        let _ = LatencyScheduler::new(0, 10, 1);
    }
}
