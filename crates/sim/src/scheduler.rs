//! Delivery schedulers: who decides which in-flight message is delivered
//! next.
//!
//! The paper's adversary is the asynchronous network: it may delay any
//! message arbitrarily (but not forever).  Schedulers model different
//! adversaries:
//!
//! * [`FifoScheduler`] — delivers messages in send order (a well-behaved
//!   network; useful as a baseline and for making examples readable);
//! * [`RandomScheduler`] — a seeded uniformly random adversary, used by the
//!   property-based tests to explore many interleavings reproducibly;
//! * [`LatencyScheduler`] — assigns each message a pseudo-random latency and
//!   delivers in delivery-time order, which is what the performance-oriented
//!   simulations use;
//! * [`TopologyScheduler`](crate::topology::TopologyScheduler) — the same,
//!   with per-link latency distributions (see [`crate::topology`]).
//!
//! Fully adversarial (scripted) schedules are expressed by driving the
//! simulation manually via [`crate::Simulation::deliver_where`], which is how
//! `snow-impossibility` constructs the executions of Figs. 3–5.
//!
//! # Event-queue architecture and complexity contract
//!
//! Schedulers pick directly from the engine's [`MessagePool`] (a slab and
//! one delivery heap) and hand back the message they took:
//!
//! * [`Scheduler::on_send`] optionally stamps a delivery time when a message
//!   is sent — a pure function of the send's coordinates (`send_hash`), so
//!   a message's latency does not depend on which other sends the engine
//!   decided first.  The pool keys its delivery heap by
//!   `(deliver_at | sent_at, MsgId)`.
//! * [`Scheduler::next`] takes the message to deliver out of the pool.
//!   FIFO and latency scheduling are a single O(log n) heap pop
//!   ([`MessagePool::pop_earliest`]): under the engine's monotone clock, the
//!   `(sent_at, id)` key order *is* send order, so FIFO needs no scan (the
//!   heap tie-breaks equal keys by id, exactly the minimum a scan would
//!   compute).  Topology scheduling is the same pop with equal-key ties
//!   re-broken by a send-coordinate rank ([`MessagePool::pop_earliest_by`]:
//!   the tied entries are the heap's top, so O(log n) plus the tie run).
//!   The random adversary draws a uniform rank and takes the k-th live
//!   message in send order ([`MessagePool::take_nth_live`]) — the same
//!   distribution *and the same per-seed choices* as indexing the first
//!   engine's send-ordered `Vec`.
//!
//! The heap schedulers are therefore O(log n) per step (plus the tie run,
//! where ties are re-broken); the random adversary is **O(live) per pick**
//! — a linear selection over the live ids, in a scratch buffer the pool
//! reuses, so it allocates nothing per step.  Either way the chosen message
//! moves out of its slot once, straight to the engine.

use crate::message::PendingMessage;
use crate::pool::MessagePool;
use crate::topology::LinkDist;
use snow_core::hash::splitmix64;
use snow_core::ProcessId;

/// A policy choosing which pending message to deliver next.
pub trait Scheduler<M> {
    /// Takes the next message to deliver out of the pool: returns the
    /// message it took, `None` iff the pool is empty (reliable channels
    /// require eventual delivery, which the simulation enforces by only
    /// stopping when nothing is pending).  The engine delivers it.
    fn next(&mut self, pool: &mut MessagePool<M>, now: u64) -> Option<PendingMessage<M>>;

    /// Hook called when a message is sent, letting latency-model schedulers
    /// stamp a delivery time from the send's **coordinates**: its
    /// endpoints, its send time, and its `ordinal` among
    /// the sends of the handler execution that made it (fault-engine
    /// duplicates and dropped sends included).  Returns the delivery time,
    /// if the scheduler assigns one; `None` (the default) keys the message
    /// by its send time (FIFO order).
    ///
    /// `&self`: a draw is a function of the send, never of the draws before
    /// it (the crate's `send_hash`).
    fn on_send(&self, src: ProcessId, dst: ProcessId, sent_at: u64, ordinal: u64) -> Option<u64> {
        let _ = (src, dst, sent_at, ordinal);
        None
    }
}

/// **The one key of every per-message draw** — latencies (both latency
/// schedulers) and fault gates: `seed` mixed with the send's coordinates.
/// A process dispatches at most once per tick, so `(src, sent_at)` names
/// the handler execution and `ordinal` the send within it.  Never the
/// `MsgId`: the coordinates name a send by what happened, which is what a
/// recorded schedule replays by (ROADMAP item 2), and a draw keyed by them
/// does not depend on how many ids were handed out before it.
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
pub(crate) fn pid_bits(id: ProcessId) -> u64 {
    match id {
        ProcessId::Server(s) => (1 << 32) | s.0 as u64,
        ProcessId::Client(c) => (2 << 32) | c.0 as u64,
    }
}

/// Delivers messages in the order they were sent: one O(log n) pop of the
/// `(sent_at, id)`-keyed delivery queue per step.
#[derive(Debug, Default, Clone)]
pub struct FifoScheduler;

impl FifoScheduler {
    /// Creates a FIFO scheduler.
    pub fn new() -> Self {
        FifoScheduler
    }
}

impl<M> Scheduler<M> for FifoScheduler {
    fn next(&mut self, pool: &mut MessagePool<M>, _now: u64) -> Option<PendingMessage<M>> {
        pool.pop_earliest()
    }
}

/// Delivers a uniformly random pending message; deterministic per seed.
///
/// The draw selects a uniform *rank* in send order
/// ([`MessagePool::take_nth_live`], O(live)).  The n-th draw is
/// `splitmix64(seed + n·γ)` — the SplitMix64 stream, which is what the
/// vendored `rand` shim's generator produced when this scheduler drew from
/// it, so no seeded Random schedule moved when the dependency went.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    state: u64,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler { state: seed }
    }
}

impl<M> Scheduler<M> for RandomScheduler {
    fn next(&mut self, pool: &mut MessagePool<M>, _now: u64) -> Option<PendingMessage<M>> {
        if pool.is_empty() {
            return None;
        }
        let rank = splitmix64(self.state) % pool.len() as u64;
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15); // SplitMix64's γ
        pool.take_nth_live(rank as usize)
    }
}

/// Assigns each message a pseudo-random latency in `[min_latency, max_latency]`
/// ticks and delivers the message with the earliest delivery time first —
/// one O(log n) pop of the `(deliver_at, id)`-keyed queue per step.
///
/// A message's latency is `send_hash` of its coordinates and nothing
/// else, so it does not depend on dispatch order.  Keys may tie across
/// destinations; ties go to the smaller id.
#[derive(Debug, Clone)]
pub struct LatencyScheduler {
    seed: u64,
    latency: LinkDist,
}

impl LatencyScheduler {
    /// Creates a latency-model scheduler.
    ///
    /// # Panics
    /// Panics if `min_latency > max_latency`.
    pub fn new(seed: u64, min_latency: u64, max_latency: u64) -> Self {
        assert!(min_latency <= max_latency, "min_latency must be <= max_latency");
        LatencyScheduler { seed, latency: LinkDist::Uniform { min: min_latency, max: max_latency } }
    }
}

impl<M> Scheduler<M> for LatencyScheduler {
    fn next(&mut self, pool: &mut MessagePool<M>, _now: u64) -> Option<PendingMessage<M>> {
        pool.pop_earliest()
    }

    fn on_send(&self, src: ProcessId, dst: ProcessId, sent_at: u64, ordinal: u64) -> Option<u64> {
        Some(sent_at + self.latency.draw(send_hash(self.seed, src, dst, sent_at, ordinal)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Causal, MsgId};
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

    fn pool_of(msgs: Vec<PendingMessage<M>>) -> MessagePool<M> {
        let mut pool = MessagePool::new();
        for m in msgs {
            pool.insert(m);
        }
        pool
    }

    /// Drains the pool through a scheduler, returning delivery order.
    fn drain<S: Scheduler<M>>(s: &mut S, pool: &mut MessagePool<M>) -> Vec<u64> {
        let mut order = Vec::new();
        while let Some(m) = s.next(pool, 0) {
            order.push(m.id.0);
        }
        order
    }

    #[test]
    fn fifo_delivers_in_send_order() {
        let mut s = FifoScheduler::new();
        let mut pool = pool_of(vec![pending(0, 0, None), pending(1, 1, None), pending(2, 2, None)]);
        assert_eq!(drain(&mut s, &mut pool), vec![0, 1, 2]);
        assert!(Scheduler::<M>::next(&mut s, &mut pool, 5).is_none());
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let make_pool = || {
            pool_of(vec![
                pending(0, 0, None),
                pending(1, 0, None),
                pending(2, 0, None),
                pending(3, 0, None),
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
        let big_pool = || pool_of((0..16).map(|i| pending(i, 0, None)).collect());
        assert_ne!(
            drain(&mut RandomScheduler::new(7), &mut big_pool()),
            drain(&mut RandomScheduler::new(8), &mut big_pool()),
        );
        let mut empty: MessagePool<M> = MessagePool::new();
        assert!(RandomScheduler::new(1).next(&mut empty, 0).is_none());
    }

    #[test]
    fn latency_orders_by_delivery_time() {
        let mut s = LatencyScheduler::new(1, 5, 5);
        // on_send stamps sent_at + 5, whatever the endpoints.
        let (src, dst) = (ProcessId::Client(ClientId(0)), ProcessId::Server(ServerId(0)));
        assert_eq!(Scheduler::<M>::on_send(&s, src, dst, 10, 0), Some(15));
        let mut pool = pool_of(vec![
            pending(0, 0, Some(30)),
            pending(1, 0, Some(10)),
            pending(2, 0, Some(20)),
        ]);
        assert_eq!(drain(&mut s, &mut pool), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic]
    fn latency_rejects_inverted_bounds() {
        let _ = LatencyScheduler::new(0, 10, 1);
    }
}
