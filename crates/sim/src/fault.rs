//! Deterministic fault injection: the schedule data model and its pure
//! decision functions.
//!
//! A [`FaultSchedule`] describes *what goes wrong* in a run — message-level
//! fault regions (drop / duplicate / extra delay over `(src, dst,
//! virtual-time interval)` predicates), link-level [`Partition`]s with heal
//! times, and server [`Crash`]es with recovery and state loss — as plain
//! data, evaluated by pure functions of the message being decided.  The
//! determinism contract matches the schedulers': a faulty history is a pure
//! function of `(configuration, seeds, fault schedule)`.  Three properties
//! make that hold:
//!
//! * **per-message decisions** — a region's probabilistic gate hashes the
//!   schedule seed with the send's coordinates (source, destination, send
//!   tick, ordinal within its handler: the key latency draws use,
//!   `scheduler::send_hash`), never a draw-order RNG or the `MsgId`, so the
//!   verdict for a message does not depend on which other messages were
//!   decided first, and a recorded schedule that names its sends by those
//!   coordinates replays the same verdicts;
//! * **single decision sites** — send-side faults (regions, partitions) are
//!   decided inside `apply_effects`, delivery-side faults (crash windows)
//!   inside the dispatch step; both are private methods of
//!   [`crate::Simulation`], whose fault state no other module can reach;
//! * **one timeline** — the plan's timed transitions (a crash, a recovery,
//!   a cut, a heal) are compiled when the simulation is built into one
//!   list sorted by `(tick, transition)`, and both decision sites read it
//!   through one cursor: each transition is applied once, at the first
//!   decision at or past its tick, before that decision is made.
//!
//! An **empty schedule is structurally inert**: the simulator guards every
//! fault check with `faults.is_some()`, message-id assignment is never
//! perturbed, and the 30 golden histories stay byte-identical (pinned by
//! `tests/fault_determinism.rs`).

use crate::scheduler::send_hash;
use snow_core::hash::splitmix64;
use snow_core::{ClientId, ProcessId, ServerId};
use std::collections::VecDeque;

/// What a matched [`FaultRegion`] does to a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The message is silently lost in flight (sent, never delivered).
    Drop,
    /// The message is delivered twice: a second copy with its own id is
    /// sent alongside the original.
    Duplicate,
    /// The message's delivery key is pushed back by this many extra ticks —
    /// reordering beyond the scheduler's own latitude.
    Delay(u64),
}

/// Selects the processes a fault region applies to at one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointSel {
    /// Any process.
    Any,
    /// Any client.
    AnyClient,
    /// Any server.
    AnyServer,
    /// One specific client.
    Client(ClientId),
    /// One specific server.
    Server(ServerId),
    /// Every process placed at one topology site, as bitmasks over server
    /// and client ids — build with [`EndpointSel::site`].  Keeps the
    /// selector `Copy` while covering an arbitrary process set.
    Site {
        /// Bit `i` set ⇒ `ServerId(i)` is selected.
        servers: u64,
        /// Bit `i` set ⇒ `ClientId(i)` is selected.
        clients: u64,
    },
}

impl EndpointSel {
    /// Selects every process the topology places at `site` — so a WAN
    /// fault region targets a whole site without enumerating ids.
    ///
    /// # Panics
    /// Panics if the topology has a process id ≥ 64 (see
    /// [`Topology::site_masks`](crate::topology::Topology::site_masks)).
    pub fn site(topology: &crate::topology::Topology, site: usize) -> Self {
        let (servers, clients) = topology.site_masks(site);
        EndpointSel::Site { servers, clients }
    }

    /// True if `id` is selected.
    pub fn matches(&self, id: ProcessId) -> bool {
        match (self, id) {
            (EndpointSel::Any, _) => true,
            (EndpointSel::AnyClient, ProcessId::Client(_)) => true,
            (EndpointSel::AnyServer, ProcessId::Server(_)) => true,
            (EndpointSel::Client(c), ProcessId::Client(x)) => *c == x,
            (EndpointSel::Server(s), ProcessId::Server(x)) => *s == x,
            (EndpointSel::Site { servers, .. }, ProcessId::Server(x)) => {
                x.0 < 64 && servers & (1 << x.0) != 0
            }
            (EndpointSel::Site { clients, .. }, ProcessId::Client(x)) => {
                x.0 < 64 && clients & (1 << x.0) != 0
            }
            _ => false,
        }
    }
}

/// A message-level fault region: `action` applies to messages from `src` to
/// `dst` sent in `[from, until)`, gated per message by `chance_pct`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRegion {
    /// What happens to a matched message.
    pub action: FaultAction,
    /// Sending-endpoint selector.
    pub src: EndpointSel,
    /// Destination-endpoint selector.
    pub dst: EndpointSel,
    /// First send tick the region covers (inclusive).
    pub from: u64,
    /// First send tick past the region (exclusive; `u64::MAX` = forever).
    pub until: u64,
    /// Percentage of matched messages actually affected (100 = all),
    /// decided by a deterministic per-message hash — see `splitmix64`.
    pub chance_pct: u8,
}

impl FaultRegion {
    /// A region affecting every matched message (`chance_pct` 100).
    pub fn always(action: FaultAction, src: EndpointSel, dst: EndpointSel, from: u64, until: u64) -> Self {
        FaultRegion { action, src, dst, from, until, chance_pct: 100 }
    }

    /// True if the region covers a message with these coordinates (before
    /// the probabilistic gate).
    pub fn covers(&self, src: ProcessId, dst: ProcessId, sent_at: u64) -> bool {
        sent_at >= self.from && sent_at < self.until && self.src.matches(src) && self.dst.matches(dst)
    }
}

/// What happens to a message crossing an active partition cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Messages crossing the cut are lost.
    Drop,
    /// Messages crossing the cut are held and delivered no earlier than the
    /// heal time (`until`).
    Queue,
}

/// A link-level partition: messages from side A to side B (and, if
/// `symmetric`, B to A) sent in `[from, until)` are cut per `policy`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut.
    pub side_a: Vec<ProcessId>,
    /// The other side; empty means "every process not in `side_a`".
    pub side_b: Vec<ProcessId>,
    /// Cut both directions (`true`) or only A→B (`false`, an asymmetric
    /// partition: B can still reach A).
    pub symmetric: bool,
    /// First send tick the partition is in force (inclusive).
    pub from: u64,
    /// Heal time (exclusive): sends at or past this tick cross freely.
    pub until: u64,
    /// What happens to cut messages.
    pub policy: PartitionPolicy,
}

impl Partition {
    /// Isolates one server from every other process in `[from, until)`.
    pub fn isolate_server(server: ServerId, from: u64, until: u64, policy: PartitionPolicy) -> Self {
        Partition {
            side_a: vec![ProcessId::Server(server)],
            side_b: Vec::new(),
            symmetric: true,
            from,
            until,
            policy,
        }
    }

    /// Isolates every process the topology places at `site` from the rest
    /// of the world in `[from, until)` — a WAN partition in one line.
    pub fn isolate_site(
        topology: &crate::topology::Topology,
        site: usize,
        from: u64,
        until: u64,
        policy: PartitionPolicy,
    ) -> Self {
        Partition {
            side_a: topology.site_processes(site),
            side_b: Vec::new(),
            symmetric: true,
            from,
            until,
            policy,
        }
    }

    fn in_a(&self, id: ProcessId) -> bool {
        self.side_a.contains(&id)
    }

    fn in_b(&self, id: ProcessId) -> bool {
        if self.side_b.is_empty() {
            !self.in_a(id)
        } else {
            self.side_b.contains(&id)
        }
    }

    /// True if a message `src → dst` sent at `at` crosses the active cut.
    pub fn cuts(&self, src: ProcessId, dst: ProcessId, at: u64) -> bool {
        if at < self.from || at >= self.until {
            return false;
        }
        (self.in_a(src) && self.in_b(dst)) || (self.symmetric && self.in_a(dst) && self.in_b(src))
    }
}

/// What happens to messages addressed to a server inside its crash window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    /// In-flight messages to the crashed server are dropped.
    DropInFlight,
    /// In-flight messages to the crashed server are held and re-delivered
    /// once it recovers.
    QueueInFlight,
}

/// A server crash with recovery and state loss: deliveries attempted in
/// `[at, recover_at)` hit a dead process (per `policy`); every delivery at
/// or past `recover_at` finds the server restarted **from fresh state**
/// (the engine's restart factory rebuilds the process).  Messages already
/// sent *by* the server before the crash still deliver — the classic
/// crash-stop-with-restart model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The crashing server.
    pub server: ServerId,
    /// First tick of the crash window (inclusive).
    pub at: u64,
    /// Recovery tick (exclusive end of the window, after `at`).  Windows of
    /// one server must not overlap; the simulation checks both when it is
    /// built.
    pub recover_at: u64,
    /// What happens to deliveries attempted inside the window.
    pub policy: CrashPolicy,
}

/// A complete fault plan for a run: seeded, pure data.  See the module docs
/// for the determinism contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed of the per-message probabilistic gates.
    pub seed: u64,
    /// Message-level fault regions, evaluated in order at send time.
    pub regions: Vec<FaultRegion>,
    /// Link-level partitions, evaluated at send time.
    pub partitions: Vec<Partition>,
    /// Server crash windows, evaluated at delivery time.
    pub crashes: Vec<Crash>,
}

/// How the send-side fault evaluation disposed of one message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SendVerdict {
    /// The message is lost (a drop region or a `Drop`-policy partition).
    pub(crate) dropped: bool,
    /// A duplicate with its own id is sent alongside the original.
    pub(crate) duplicate: bool,
    /// Extra ticks added to the delivery key (sum of matched delay
    /// regions).
    pub(crate) extra_delay: u64,
    /// Deliver no earlier than this tick (a `Queue`-policy partition's heal
    /// time).
    pub(crate) hold_until: Option<u64>,
}

impl SendVerdict {
    /// The delivery time of a send the scheduler stamped `drawn`: pushed
    /// back by the matched delay regions, and no earlier than a
    /// `Queue`-policy partition's heal.  `drawn` itself for a clean send.
    #[inline]
    pub(crate) fn delay(&self, drawn: u64) -> u64 {
        drawn.saturating_add(self.extra_delay).max(self.hold_until.unwrap_or(0))
    }

    /// True if the send proceeds untouched.
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        *self == SendVerdict::default()
    }
}

impl FaultSchedule {
    /// An empty schedule gated by `seed` (regions added later may use
    /// probabilistic chances).
    pub fn new(seed: u64) -> Self {
        FaultSchedule { seed, ..FaultSchedule::default() }
    }

    /// True if the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty() && self.partitions.is_empty() && self.crashes.is_empty()
    }

    /// Adds a message-level fault region (builder style).
    pub fn with_region(mut self, region: FaultRegion) -> Self {
        self.regions.push(region);
        self
    }

    /// Adds a partition (builder style).
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Adds a crash window (builder style).
    pub fn with_crash(mut self, crash: Crash) -> Self {
        self.crashes.push(crash);
        self
    }

    /// The pure send-side verdict for a message: regions first (a matched
    /// `Drop` wins; `Duplicate` and `Delay` accumulate), then partitions
    /// (`Drop` policy loses the message, `Queue` holds it to the heal
    /// time).  A function of `(schedule, src, dst, sent_at, ordinal)` only —
    /// the send's coordinates, as [`crate::Scheduler::on_send`] gets them.
    pub(crate) fn send_verdict(
        &self,
        src: ProcessId,
        dst: ProcessId,
        sent_at: u64,
        ordinal: u64,
    ) -> SendVerdict {
        let mut verdict = SendVerdict::default();
        let key = || send_hash(self.seed, src, dst, sent_at, ordinal);
        for (i, region) in self.regions.iter().enumerate() {
            if !region.covers(src, dst, sent_at) || !gate(key, i as u64, region.chance_pct) {
                continue;
            }
            match region.action {
                FaultAction::Drop => verdict.dropped = true,
                FaultAction::Duplicate => verdict.duplicate = true,
                FaultAction::Delay(extra) => {
                    verdict.extra_delay = verdict.extra_delay.saturating_add(extra)
                }
            }
        }
        for partition in &self.partitions {
            if !partition.cuts(src, dst, sent_at) {
                continue;
            }
            match partition.policy {
                PartitionPolicy::Drop => verdict.dropped = true,
                PartitionPolicy::Queue => {
                    let held = verdict.hold_until.unwrap_or(0).max(partition.until);
                    verdict.hold_until = Some(held);
                }
            }
        }
        verdict
    }
}

/// The deterministic per-message probabilistic gate of region `region`:
/// affects the message iff `hash(key, region + 1) % 100 < chance_pct`, where
/// `key` is the send's `send_hash` (asked for only by a gate that is
/// probabilistic).  The `+ 1` is part of the gate's definition: every
/// fault golden's gate outcomes were drawn with it, so dropping it would
/// move them.
fn gate(key: impl Fn() -> u64, region: u64, chance_pct: u8) -> bool {
    chance_pct >= 100
        || splitmix64(key() ^ (region + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)) % 100
            < chance_pct as u64
}

/// The factory a fault-enabled engine uses to rebuild a crashed process
/// from fresh state at recovery.
pub type RestartFn<P> = Box<dyn FnMut(ProcessId) -> P>;

/// One timed transition of a fault plan, naming its window by its index in
/// the schedule (`crashes` for a crash or a recovery, `partitions` for a
/// cut or a heal).  The variant order breaks ties at one tick: a recovery
/// comes before a crash, so back-to-back windows of one server hand over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Transition {
    Recover(usize),
    Heal(usize),
    Crash(usize),
    Cut(usize),
}

/// Runtime fault state attached to one simulation: the schedule, the
/// restart factory, the plan's transitions not yet applied and the crash
/// window each server is in.
pub(crate) struct FaultState<P> {
    pub(crate) schedule: FaultSchedule,
    pub(crate) restart: Option<RestartFn<P>>,
    /// The transitions still to apply, sorted by `(tick, transition)`: the
    /// front is the cursor.
    pub(crate) timeline: VecDeque<(u64, Transition)>,
    /// Per server id: the index of the crash window it is in, if any.
    pub(crate) down: Vec<Option<usize>>,
}

impl<P> FaultState<P> {
    /// Compiles `schedule` into its timeline.
    ///
    /// # Panics
    /// Panics if the schedule has crash windows but no restart factory, if
    /// a window does not close after it opens, or if two crash windows of
    /// one server overlap.
    pub(crate) fn new(schedule: FaultSchedule, restart: Option<RestartFn<P>>) -> Self {
        assert!(
            schedule.crashes.is_empty() || restart.is_some(),
            "a fault schedule with crash windows needs a restart factory"
        );
        let crashes = &schedule.crashes;
        for (i, c) in crashes.iter().enumerate() {
            assert!(c.at < c.recover_at, "crash window {i} recovers at {} ≤ its crash at {}", c.recover_at, c.at);
            let overlap = |o: &Crash| o.server == c.server && o.at < c.recover_at && c.at < o.recover_at;
            assert!(!crashes[..i].iter().any(overlap), "crash window {i} overlaps another of {}", c.server);
        }
        for (i, p) in schedule.partitions.iter().enumerate() {
            assert!(p.from < p.until, "partition {i} heals at {} ≤ its start at {}", p.until, p.from);
        }
        let windows = crashes.iter().enumerate().flat_map(|(i, c)| {
            [(c.at, Transition::Crash(i)), (c.recover_at, Transition::Recover(i))]
        });
        let cuts = schedule.partitions.iter().enumerate().flat_map(|(i, p)| {
            [(p.from, Transition::Cut(i)), (p.until, Transition::Heal(i))]
        });
        let mut timeline: Vec<_> = windows.chain(cuts).collect();
        timeline.sort_unstable();
        let servers = crashes.iter().map(|c| c.server.0 as usize + 1).max().unwrap_or(0);
        FaultState { schedule, restart, timeline: timeline.into(), down: vec![None; servers] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: ProcessId = ProcessId::Client(ClientId(0));
    const S0: ProcessId = ProcessId::Server(ServerId(0));
    const S1: ProcessId = ProcessId::Server(ServerId(1));

    #[test]
    fn endpoint_selectors_match_expected_processes() {
        assert!(EndpointSel::Any.matches(C0) && EndpointSel::Any.matches(S0));
        assert!(EndpointSel::AnyClient.matches(C0) && !EndpointSel::AnyClient.matches(S0));
        assert!(EndpointSel::AnyServer.matches(S0) && !EndpointSel::AnyServer.matches(C0));
        assert!(EndpointSel::Server(ServerId(0)).matches(S0));
        assert!(!EndpointSel::Server(ServerId(0)).matches(S1));
        assert!(!EndpointSel::Client(ClientId(0)).matches(S0));
    }

    #[test]
    fn site_selector_matches_per_mask_and_builds_from_topology() {
        let sel = EndpointSel::Site { servers: 0b01, clients: 0b10 };
        assert!(sel.matches(S0));
        assert!(!sel.matches(S1));
        assert!(!sel.matches(C0));
        assert!(sel.matches(ProcessId::Client(ClientId(1))));

        // From a topology: site 1 holds server 1 and client 0.
        let config = snow_core::SystemConfig::mwmr(2, 1, 1);
        let mut t = crate::topology::Topology::for_config(
            &config,
            &["a", "b"],
            crate::topology::LinkDist::Uniform { min: 1, max: 1 },
            crate::topology::LinkDist::Uniform { min: 5, max: 5 },
        );
        t.place_server(ServerId(1), 1);
        t.place_client(ClientId(0), 1);
        let sel = EndpointSel::site(&t, 1);
        assert!(sel.matches(S1) && sel.matches(C0));
        assert!(!sel.matches(S0));
        let region = FaultRegion::always(FaultAction::Drop, EndpointSel::Any, sel, 0, u64::MAX);
        assert!(region.covers(S0, S1, 3));
        assert!(!region.covers(S1, S0, 3));
    }

    #[test]
    fn isolate_site_cuts_exactly_the_sites_processes() {
        let config = snow_core::SystemConfig::mwmr(2, 1, 1);
        let mut t = crate::topology::Topology::for_config(
            &config,
            &["dc", "edge"],
            crate::topology::LinkDist::Uniform { min: 1, max: 1 },
            crate::topology::LinkDist::Uniform { min: 5, max: 5 },
        );
        t.place_server(ServerId(1), 1);
        let p = Partition::isolate_site(&t, 1, 10, 20, PartitionPolicy::Drop);
        assert!(p.cuts(S1, S0, 10));
        assert!(p.cuts(S0, S1, 15), "symmetric cut");
        assert!(!p.cuts(S0, C0, 15), "intra-remainder traffic flows");
        assert!(!p.cuts(S1, S0, 20), "healed at `until`");
    }

    #[test]
    fn regions_cover_their_interval_and_endpoints() {
        let r = FaultRegion::always(FaultAction::Drop, EndpointSel::AnyClient, EndpointSel::Server(ServerId(0)), 10, 20);
        assert!(r.covers(C0, S0, 10));
        assert!(r.covers(C0, S0, 19));
        assert!(!r.covers(C0, S0, 9));
        assert!(!r.covers(C0, S0, 20));
        assert!(!r.covers(C0, S1, 15));
        assert!(!r.covers(S1, S0, 15));
    }

    #[test]
    fn send_verdicts_are_pure_and_combine_regions() {
        let s = FaultSchedule::new(7)
            .with_region(FaultRegion::always(FaultAction::Delay(5), EndpointSel::Any, EndpointSel::Any, 0, u64::MAX))
            .with_region(FaultRegion::always(FaultAction::Delay(3), EndpointSel::Any, EndpointSel::Server(ServerId(0)), 0, u64::MAX))
            .with_region(FaultRegion::always(FaultAction::Duplicate, EndpointSel::Any, EndpointSel::Server(ServerId(1)), 0, u64::MAX));
        let v0 = s.send_verdict(C0, S0, 4, 9);
        assert_eq!(v0.extra_delay, 8);
        assert!(!v0.duplicate && !v0.dropped && v0.hold_until.is_none());
        let v1 = s.send_verdict(C0, S1, 4, 9);
        assert_eq!(v1.extra_delay, 5);
        assert!(v1.duplicate);
        // Purity: identical inputs, identical verdicts.
        assert_eq!(v0, s.send_verdict(C0, S0, 4, 9));
    }

    #[test]
    fn probabilistic_gate_is_a_function_of_the_sends_coordinates() {
        let s = FaultSchedule::new(42).with_region(FaultRegion {
            action: FaultAction::Drop,
            src: EndpointSel::Any,
            dst: EndpointSel::Any,
            from: 0,
            until: u64::MAX,
            chance_pct: 30,
        });
        let dropped: Vec<bool> =
            (0..200u64).map(|at| s.send_verdict(C0, S0, at, 0).dropped).collect();
        let again: Vec<bool> =
            (0..200u64).map(|at| s.send_verdict(C0, S0, at, 0).dropped).collect();
        assert_eq!(dropped, again, "gate must be a pure function of the coordinates");
        let hits = dropped.iter().filter(|&&d| d).count();
        assert!(hits > 20 && hits < 100, "~30% of 200 expected, got {hits}");
        // A different seed, endpoint or ordinal decides differently somewhere.
        let other = FaultSchedule { seed: 43, ..s.clone() };
        for moved in [
            (0..200u64).map(|at| other.send_verdict(C0, S0, at, 0).dropped).collect::<Vec<_>>(),
            (0..200u64).map(|at| s.send_verdict(C0, S1, at, 0).dropped).collect(),
            (0..200u64).map(|at| s.send_verdict(C0, S0, at, 1).dropped).collect(),
        ] {
            assert_ne!(dropped, moved);
        }
    }

    #[test]
    fn partitions_cut_by_side_and_direction() {
        let asym = Partition {
            side_a: vec![S0],
            side_b: Vec::new(),
            symmetric: false,
            from: 10,
            until: 20,
            policy: PartitionPolicy::Drop,
        };
        assert!(asym.cuts(S0, C0, 15), "A→B cut");
        assert!(!asym.cuts(C0, S0, 15), "B→A open (asymmetric)");
        assert!(!asym.cuts(S0, C0, 25), "healed");
        let sym = Partition { symmetric: true, ..asym.clone() };
        assert!(sym.cuts(C0, S0, 15), "B→A cut too (symmetric)");
        assert!(!sym.cuts(C0, C0, 15), "within one side");
        let v = FaultSchedule::new(0)
            .with_partition(Partition::isolate_server(ServerId(0), 5, 9, PartitionPolicy::Queue))
            .send_verdict(C0, S0, 6, 1);
        assert_eq!(v.hold_until, Some(9));
        assert!(!v.dropped);
    }

    fn window(server: u32, at: u64, recover_at: u64) -> Crash {
        Crash { server: ServerId(server), at, recover_at, policy: CrashPolicy::DropInFlight }
    }

    /// The plan compiles into one list sorted by tick; at one tick a
    /// recovery comes before a crash and a heal before a cut.
    #[test]
    fn the_timeline_sorts_transitions_by_tick_recoveries_first() {
        let schedule = FaultSchedule::new(0)
            .with_crash(window(1, 50, 90))
            .with_crash(window(1, 10, 50))
            .with_partition(Partition::isolate_server(ServerId(0), 50, 60, PartitionPolicy::Drop))
            .with_partition(Partition::isolate_server(ServerId(0), 5, 50, PartitionPolicy::Drop));
        let state = FaultState::<()>::new(schedule, Some(Box::new(|_| ())));
        use Transition::*;
        let timeline: Vec<_> = state.timeline.into_iter().collect();
        assert_eq!(
            timeline,
            [(5, Cut(1)), (10, Crash(1)), (50, Recover(1)), (50, Heal(1)), (50, Crash(0)), (50, Cut(0)), (60, Heal(0)), (90, Recover(0))]
        );
        assert_eq!(state.down, [None, None], "one slot per server up to the last that crashes");
    }

    #[test]
    #[should_panic(expected = "crash window 0 recovers at 10 ≤ its crash at 10")]
    fn a_crash_window_must_recover_after_it_crashes() {
        let _ = FaultState::<()>::new(FaultSchedule::new(0).with_crash(window(0, 10, 10)), Some(Box::new(|_| ())));
    }

    #[test]
    #[should_panic(expected = "crash window 1 overlaps another of s0")]
    fn crash_windows_of_one_server_must_not_overlap() {
        let schedule = FaultSchedule::new(0).with_crash(window(0, 10, 50)).with_crash(window(0, 49, 90));
        let _ = FaultState::<()>::new(schedule, Some(Box::new(|_| ())));
    }

    #[test]
    #[should_panic(expected = "partition 0 heals at 20 ≤ its start at 30")]
    fn a_partition_must_heal_after_it_starts() {
        let cut = Partition::isolate_server(ServerId(0), 30, 20, PartitionPolicy::Queue);
        let _ = FaultState::<()>::new(FaultSchedule::new(0).with_partition(cut), None);
    }

    #[test]
    fn empty_schedule_is_empty_and_clean() {
        let s = FaultSchedule::new(9);
        assert!(s.is_empty());
        assert!(s.send_verdict(C0, S0, 0, 0).is_clean());
        let non_empty = s.with_crash(Crash {
            server: ServerId(0),
            at: 0,
            recover_at: 1,
            policy: CrashPolicy::QueueInFlight,
        });
        assert!(!non_empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "restart factory")]
    fn crash_schedules_require_a_restart_factory() {
        let schedule = FaultSchedule::new(0).with_crash(Crash {
            server: ServerId(0),
            at: 0,
            recover_at: 10,
            policy: CrashPolicy::DropInFlight,
        });
        let _ = FaultState::<()>::new(schedule, None);
    }
}
