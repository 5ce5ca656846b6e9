//! Geo-topology: named sites, per-link latency distributions, and the
//! [`TopologyScheduler`].
//!
//! The paper's read-latency results (and the geo-replicated Eiger lineage
//! it evaluates against) assume clients and replicas separated by
//! heterogeneous WAN/LAN links.  A [`Topology`] models that directly:
//! processes are placed at named sites, and each ordered site pair has a
//! [`LinkDist`] — a uniform range for well-behaved links, or a discretized
//! heavy tail for congested WAN paths.
//!
//! # Time units: µticks
//!
//! The topology layer measures latency in **site-ticks** and stamps
//! delivery times in **µticks** ([`TICK`] µticks = 1 site-tick).  The
//! sub-tick bits carry a per-message jitter hash confined to a
//! **per-destination band** (see below), so delivery keys for different
//! destinations can never collide.  Reports divide by [`TICK`] to present
//! site-tick latencies.
//!
//! # Determinism contract
//!
//! The [`TopologyScheduler`] is built so a history is a pure function of
//! `(deployment, topology, seed, invocation plan)`, and so that every
//! delivery is named by coordinates a recorded schedule can replay by
//! (ROADMAP item 2).  Three ingredients, on top of the engine's one
//! dispatch rule (an invocation keyed before every pending delivery
//! dispatches first, so a kickoff wave planned at quiescence stamps
//! `planned + 1`):
//!
//! 1. **Pure latencies.**  Each latency is the crate's one per-message
//!    hash (`scheduler::send_hash` — the key the fault engine's
//!    probabilistic gates use too) of the message's **coordinates**:
//!    source, destination, send tick, and the send's ordinal within its
//!    handler execution, which the engine supplies — never the `MsgId`, so
//!    a draw does not depend on dispatch order.
//! 2. **Collision-free keys across destinations.**  Delivery keys are
//!    aligned to site-tick slots, and the sub-tick offset lives in a
//!    jitter band private to the destination — so two messages can share
//!    a key only if they target the *same* process.  The bands are part of
//!    the schedule's definition: every WAN and DC history in the repo is
//!    pinned on them.
//! 3. **Coordinate tie-breaks.**  Same-destination equal keys are
//!    resolved by `(sent_at, source, emission order)` — from the top of
//!    the delivery heap, where the tied entries sit together
//!    ([`MessagePool::pop_earliest_by`]): O(log n + ties) per delivery.
//!
//! Every latency clears one full site-tick ([`TICK`] µticks), far above
//! any invocation-kickoff window.  The result — topology-scheduled
//! histories that replay bit for bit — is pinned by
//! `tests/topology_scenarios.rs`.

use crate::message::PendingMessage;
use crate::pool::MessagePool;
use crate::scheduler::{pid_bits, send_hash, Scheduler};
use snow_core::hash::splitmix64;
use snow_core::{ClientId, ProcessId, ServerId, SystemConfig};
use std::sync::Arc;

/// µticks per site-tick: the scale factor between the topology layer's
/// human-readable latency unit and the engine's clock.
pub const TICK: u64 = 1024;

/// A per-link latency distribution, in site-ticks.  Draws are pure
/// functions of a 64-bit hash — no RNG state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDist {
    /// Uniform latency in `[min, max]` site-ticks.
    Uniform {
        /// Minimum latency (site-ticks; clamped to ≥ 1 at draw time).
        min: u64,
        /// Maximum latency (site-ticks).
        max: u64,
    },
    /// A discretized heavy tail: `base + U[0, jitter]` plus, with
    /// probability `2^-k`, an extra `step·2^(k-1)` (k = 1..=cap) — a
    /// log2-bucketed Pareto(α≈1) tail in integer arithmetic.  Models
    /// congested WAN paths where p99 ≫ p50.
    HeavyTail {
        /// Body latency floor (site-ticks).
        base: u64,
        /// Uniform body spread above the floor (site-ticks).
        jitter: u64,
        /// First tail bucket's extra latency; bucket k adds `step·2^(k-1)`.
        step: u64,
        /// Deepest tail bucket (caps the worst case at `step·2^(cap-1)`).
        cap: u32,
    },
}

impl LinkDist {
    /// Draws a latency in site-ticks from hash `h`.  Pure.
    pub fn draw(self, h: u64) -> u64 {
        match self {
            LinkDist::Uniform { min, max } => {
                let span = max.saturating_sub(min);
                min + if span > 0 { h % (span + 1) } else { 0 }
            }
            LinkDist::HeavyTail { base, jitter, step, cap } => {
                let body = base + h % (jitter + 1);
                // P(k trailing ones) = 2^-k: doubling the extra halves its
                // probability — the power-law signature.
                let k = (h >> 32).trailing_ones().min(cap);
                body + if k > 0 { step << (k - 1) } else { 0 }
            }
        }
    }
}

/// Named sites, per-link latency distributions, and process→site
/// placement.  Construct with [`Topology::for_config`] (every process
/// starts at site 0), then [`Topology::place_server`] /
/// [`Topology::place_client`] / [`Topology::set_link`] — or use a preset
/// ([`Topology::single_dc`], [`Topology::wan3`],
/// [`Topology::client_remote`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    sites: Vec<String>,
    /// Flattened `[from][to]` link matrix, including intra-site `[i][i]`.
    links: Vec<LinkDist>,
    server_sites: Vec<usize>,
    client_sites: Vec<usize>,
}

impl Topology {
    /// A topology over `config`'s processes: `site_names` sites, `intra`
    /// on every same-site link, `inter` on every cross-site link, and
    /// every process placed at site 0.
    ///
    /// # Panics
    /// Panics if `site_names` is empty.
    pub fn for_config(
        config: &SystemConfig,
        site_names: &[&str],
        intra: LinkDist,
        inter: LinkDist,
    ) -> Self {
        assert!(!site_names.is_empty(), "a topology needs at least one site");
        let n = site_names.len();
        let mut links = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                links.push(if from == to { intra } else { inter });
            }
        }
        Topology {
            sites: site_names.iter().map(|s| s.to_string()).collect(),
            links,
            server_sites: vec![0; config.num_servers as usize],
            client_sites: vec![0; config.num_clients() as usize],
        }
    }

    /// Single-DC preset: one site, every link `Uniform[1, 3]` site-ticks.
    pub fn single_dc(config: &SystemConfig) -> Self {
        Topology::for_config(config, &["dc"], LinkDist::Uniform { min: 1, max: 3 }, LinkDist::Uniform { min: 1, max: 3 })
    }

    /// Three-site WAN preset: servers and clients round-robined across
    /// `us-east` / `eu-west` / `ap-south`, LAN links inside a site, and
    /// heavy-tailed WAN links between them (farther pairs slower).
    pub fn wan3(config: &SystemConfig) -> Self {
        let mut t = Topology::for_config(
            config,
            &["us-east", "eu-west", "ap-south"],
            LinkDist::Uniform { min: 1, max: 3 },
            LinkDist::HeavyTail { base: 18, jitter: 6, step: 8, cap: 5 },
        );
        t.set_link(0, 2, LinkDist::HeavyTail { base: 40, jitter: 10, step: 12, cap: 5 });
        t.set_link(1, 2, LinkDist::HeavyTail { base: 28, jitter: 8, step: 10, cap: 5 });
        for s in 0..t.server_sites.len() {
            t.server_sites[s] = s % 3;
        }
        for c in 0..t.client_sites.len() {
            t.client_sites[c] = c % 3;
        }
        t
    }

    /// Client-remote preset: every server in one `dc` site, every client
    /// at a remote `edge` site behind a heavy-tailed WAN link — the
    /// geo-replicated reading-client setting of the paper's latency
    /// tables.
    pub fn client_remote(config: &SystemConfig) -> Self {
        let mut t = Topology::for_config(
            config,
            &["dc", "edge"],
            LinkDist::Uniform { min: 1, max: 3 },
            LinkDist::HeavyTail { base: 24, jitter: 8, step: 10, cap: 5 },
        );
        for c in 0..t.client_sites.len() {
            t.client_sites[c] = 1;
        }
        t
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Site names, in index order.
    pub fn site_names(&self) -> &[String] {
        &self.sites
    }

    /// The index of the site named `name`, if any.
    pub fn site_index(&self, name: &str) -> Option<usize> {
        self.sites.iter().position(|s| s == name)
    }

    /// Sets the link distribution between sites `a` and `b`, **both
    /// directions** (use the returned `&mut self` pattern for asymmetric
    /// links by calling twice via [`Topology::set_link_directed`]).
    pub fn set_link(&mut self, a: usize, b: usize, dist: LinkDist) {
        self.set_link_directed(a, b, dist);
        self.set_link_directed(b, a, dist);
    }

    /// Sets the `from → to` link distribution only.
    pub fn set_link_directed(&mut self, from: usize, to: usize, dist: LinkDist) {
        let n = self.sites.len();
        assert!(from < n && to < n, "site index out of range");
        self.links[from * n + to] = dist;
    }

    /// Places a server at a site.
    pub fn place_server(&mut self, server: ServerId, site: usize) {
        assert!(site < self.sites.len(), "site index out of range");
        self.server_sites[server.0 as usize] = site;
    }

    /// Places a client at a site.
    pub fn place_client(&mut self, client: ClientId, site: usize) {
        assert!(site < self.sites.len(), "site index out of range");
        self.client_sites[client.0 as usize] = site;
    }

    /// The site a process lives at.
    ///
    /// # Panics
    /// Panics if the process is outside the configuration the topology was
    /// built for.
    pub fn site_of(&self, id: ProcessId) -> usize {
        match id {
            ProcessId::Server(s) => self.server_sites[s.0 as usize],
            ProcessId::Client(c) => self.client_sites[c.0 as usize],
        }
    }

    /// The latency distribution of the `src → dst` link.
    pub fn link(&self, src: ProcessId, dst: ProcessId) -> LinkDist {
        let n = self.sites.len();
        self.links[self.site_of(src) * n + self.site_of(dst)]
    }

    /// Every process placed at `site`, servers first — the membership a
    /// site-wide [`Partition`](crate::fault::Partition) cuts.
    pub fn site_processes(&self, site: usize) -> Vec<ProcessId> {
        let servers = self
            .server_sites
            .iter()
            .enumerate()
            .filter(|&(_, s)| *s == site)
            .map(|(i, _)| ProcessId::Server(ServerId(i as u32)));
        let clients = self
            .client_sites
            .iter()
            .enumerate()
            .filter(|&(_, s)| *s == site)
            .map(|(i, _)| ProcessId::Client(ClientId(i as u32)));
        servers.chain(clients).collect()
    }

    /// Number of servers the topology places.
    pub fn num_servers(&self) -> usize {
        self.server_sites.len()
    }

    /// Number of clients the topology places.
    pub fn num_clients(&self) -> usize {
        self.client_sites.len()
    }

    /// Total number of placed processes (servers + clients).
    pub fn num_processes(&self) -> usize {
        self.server_sites.len() + self.client_sites.len()
    }

    /// Bitmasks of `(servers, clients)` placed at `site` — the compact
    /// membership an [`EndpointSel::Site`](crate::fault::EndpointSel)
    /// selector carries.
    ///
    /// # Panics
    /// Panics if any placed process id is ≥ 64 (the selector is a 64-bit
    /// mask; simulated deployments are far smaller).
    pub fn site_masks(&self, site: usize) -> (u64, u64) {
        assert!(
            self.server_sites.len() <= 64 && self.client_sites.len() <= 64,
            "site selectors support at most 64 servers and 64 clients"
        );
        let fold = |sites: &[usize]| {
            sites
                .iter()
                .enumerate()
                .filter(|&(_, s)| *s == site)
                .fold(0u64, |mask, (i, _)| mask | (1 << i))
        };
        (fold(&self.server_sites), fold(&self.client_sites))
    }
}

/// A [`Scheduler`] delivering messages in delivery-time order with
/// latencies drawn from a [`Topology`]'s link distributions — stamped in
/// µticks, hashed statelessly per message so the schedule is independent
/// of decision order (see the module docs).
#[derive(Debug, Clone)]
pub struct TopologyScheduler {
    topology: Arc<Topology>,
    seed: u64,
    /// Sub-tick jitter span per destination class: `TICK /
    /// num_processes`.  Each destination's delivery keys live in a
    /// disjoint residue band of the site-tick slot, so **two messages to
    /// different destinations can never share a delivery key**
    /// (same-destination collisions resolve by the tie-break in
    /// [`Scheduler::next`]).
    class_width: u64,
}

impl TopologyScheduler {
    /// Creates a scheduler over `topology` with the given latency seed.
    ///
    /// # Panics
    /// Panics if the topology places more than [`TICK`] processes (each
    /// destination needs its own sub-tick jitter band).
    pub fn new(topology: Arc<Topology>, seed: u64) -> Self {
        let processes = topology.num_processes() as u64;
        assert!(
            (1..=TICK).contains(&processes),
            "TopologyScheduler supports 1..={TICK} processes, got {processes}"
        );
        let class_width = TICK / processes;
        TopologyScheduler { topology, seed, class_width }
    }

    /// The topology this scheduler draws from.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The destination's jitter-band index: servers first, then clients.
    fn class_of(&self, dst: ProcessId) -> u64 {
        match dst {
            ProcessId::Server(s) => s.0 as u64,
            ProcessId::Client(c) => self.topology.num_servers() as u64 + c.0 as u64,
        }
    }

    /// The pure per-message latency, in µticks.
    ///
    /// The link's site-tick draw (clamped to ≥ 1) sets the nominal
    /// arrival; the delivery key is the **next site-tick slot boundary**
    /// after it, plus a sub-tick offset inside the destination's jitter
    /// band.  Slot alignment is what makes the bands meaningful: the key
    /// modulo [`TICK`] is exactly `class·width + h % width`, so keys for
    /// different destinations differ in their residue and can never
    /// collide.  Every latency strictly clears one full site-tick — far
    /// above any invocation-kickoff window.
    fn latency_microticks(&self, src: ProcessId, dst: ProcessId, sent_at: u64, ordinal: u64) -> u64 {
        let h = send_hash(self.seed, src, dst, sent_at, ordinal);
        let ticks = self.topology.link(src, dst).draw(h).max(1);
        let slot = (sent_at / TICK + ticks + 1) * TICK;
        let offset = self.class_of(dst) * self.class_width + splitmix64(h) % self.class_width;
        slot + offset - sent_at
    }
}

impl<M> Scheduler<M> for TopologyScheduler {
    fn next(&mut self, pool: &mut MessagePool<M>, _now: u64) -> Option<PendingMessage<M>> {
        // Equal keys are same-destination by construction (disjoint
        // per-destination jitter bands).  Break the tie on the sends'
        // coordinates: `(sent_at, src)` orders distinct handler executions,
        // and within one handler execution (same `sent_at`, same `src`) the
        // relative id order *is* emission order, so it is safe as the final
        // component.
        pool.pop_earliest_by(|p| (p.sent_at, pid_bits(p.src), p.id.0))
    }

    fn on_send(&self, src: ProcessId, dst: ProcessId, sent_at: u64, ordinal: u64) -> Option<u64> {
        Some(sent_at + self.latency_microticks(src, dst, sent_at, ordinal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Causal, MsgId};

    #[derive(Debug, Clone)]
    struct M;
    impl crate::message::SimMessage for M {}

    const S0: ProcessId = ProcessId::Server(ServerId(0));
    const S1: ProcessId = ProcessId::Server(ServerId(1));
    const C0: ProcessId = ProcessId::Client(ClientId(0));

    fn config() -> SystemConfig {
        SystemConfig::mwmr(4, 2, 2)
    }

    #[test]
    fn uniform_draws_stay_in_range() {
        let d = LinkDist::Uniform { min: 3, max: 9 };
        for h in 0..500u64 {
            let v = d.draw(splitmix64(h));
            assert!((3..=9).contains(&v), "{v}");
        }
        assert_eq!(LinkDist::Uniform { min: 5, max: 5 }.draw(77), 5);
    }

    #[test]
    fn heavy_tail_has_a_body_and_a_rare_deep_tail() {
        let d = LinkDist::HeavyTail { base: 10, jitter: 4, step: 8, cap: 5 };
        let draws: Vec<u64> = (0..4000u64).map(|h| d.draw(splitmix64(h))).collect();
        let body = draws.iter().filter(|&&v| v <= 14).count();
        let tail = draws.iter().filter(|&&v| v > 14).count();
        // Half the hashes have k ≥ 1 (one trailing one), so body ≈ tail.
        assert!(body > 1500 && tail > 1500, "body={body} tail={tail}");
        // The deep tail is reachable but rare: k = 5 adds 8·16 = 128.
        let deep = draws.iter().filter(|&&v| v >= 138).count();
        assert!(deep > 0 && deep < 400, "deep={deep}");
        // Capped: nothing beyond base + jitter + step·2^(cap-1).
        assert!(draws.iter().all(|&v| v <= 10 + 4 + 128));
    }

    #[test]
    fn placement_and_links_resolve_per_site() {
        let mut t = Topology::for_config(
            &config(),
            &["a", "b"],
            LinkDist::Uniform { min: 1, max: 2 },
            LinkDist::Uniform { min: 20, max: 30 },
        );
        t.place_server(ServerId(1), 1);
        t.place_client(ClientId(0), 1);
        assert_eq!(t.site_of(S0), 0);
        assert_eq!(t.site_of(S1), 1);
        assert_eq!(t.site_of(C0), 1);
        assert_eq!(t.link(S0, S1), LinkDist::Uniform { min: 20, max: 30 });
        assert_eq!(t.link(C0, S1), LinkDist::Uniform { min: 1, max: 2 });
        assert_eq!(t.site_index("b"), Some(1));
        assert_eq!(t.site_index("zz"), None);
        assert_eq!(t.num_sites(), 2);
        assert!(t.site_processes(1).contains(&S1));
        assert!(t.site_processes(1).contains(&C0));
        assert!(!t.site_processes(0).contains(&S1));
        let (servers, clients) = t.site_masks(1);
        assert_eq!(servers, 0b10);
        assert_eq!(clients, 0b1);
    }

    #[test]
    fn presets_cover_every_process() {
        let config = config();
        for t in [
            Topology::single_dc(&config),
            Topology::wan3(&config),
            Topology::client_remote(&config),
        ] {
            for s in 0..config.num_servers {
                assert!(t.site_of(ProcessId::Server(ServerId(s))) < t.num_sites());
            }
            for c in 0..config.num_clients() {
                assert!(t.site_of(ProcessId::Client(ClientId(c))) < t.num_sites());
            }
        }
        let remote = Topology::client_remote(&config);
        assert_eq!(remote.site_of(S0), remote.site_index("dc").unwrap());
        assert_eq!(remote.site_of(C0), remote.site_index("edge").unwrap());
    }

    #[test]
    fn latency_draws_are_pure_and_order_independent() {
        // Two handler executions, fed to two instances in different orders:
        // per-message stamps are identical because the draw is keyed on the
        // send's coordinates, not on call order.
        fn check(a: impl Scheduler<M>, b: impl Scheduler<M>) {
            let x0 = a.on_send(C0, S0, 100, 0);
            let x1 = a.on_send(C0, S1, 100, 1);
            let y0 = a.on_send(S0, C0, 5000, 0);
            assert_eq!(y0, b.on_send(S0, C0, 5000, 0));
            assert_eq!(x1, b.on_send(C0, S1, 100, 1));
            assert_eq!(x0, b.on_send(C0, S0, 100, 0));
            // Distinct sends from one handler draw distinct latencies.
            assert_ne!(x0, x1);
        }
        let topo = Arc::new(Topology::client_remote(&config()));
        check(TopologyScheduler::new(topo.clone(), 9), TopologyScheduler::new(topo, 9));
        check(crate::LatencyScheduler::new(9, 1, 1000), crate::LatencyScheduler::new(9, 1, 1000));
    }

    #[test]
    fn latencies_scale_with_the_link_and_clear_the_minimum() {
        let topo = Arc::new(Topology::client_remote(&config()));
        let s = TopologyScheduler::new(topo, 4);
        // Client → server crosses the WAN link: > base (24) site-ticks
        // nominal, at most base + jitter (8) + tail (10·2^4) + 2 slots.
        let wan = Scheduler::<M>::on_send(&s, C0, S0, 0, 0).unwrap();
        assert!(wan > 24 * TICK, "wan latency {wan}");
        assert!(wan < (24 + 8 + 160 + 2) * TICK, "wan latency {wan}");
        // Server → server stays inside the DC: 1..=3 site-ticks nominal,
        // plus the slot round-up and sub-tick band offset.
        let lan = Scheduler::<M>::on_send(&s, S0, S1, 0, 1).unwrap();
        assert!((TICK..5 * TICK).contains(&lan), "lan latency {lan}");
        // Every latency strictly clears one full site-tick — above any
        // invocation-kickoff window.
        assert!(lan > TICK && wan > TICK);
    }

    #[test]
    fn delivery_keys_never_collide_across_destinations() {
        let config = SystemConfig::mwmr(4, 2, 4);
        let topo = Arc::new(Topology::wan3(&config));
        let s = TopologyScheduler::new(topo, 0xC0FFEE);
        // Many senders, many send times, every destination: keys for
        // different destinations must differ even when slots coincide,
        // because each destination's sub-tick offset lives in its own
        // band.
        let mut seen: std::collections::BTreeMap<u64, ProcessId> = std::collections::BTreeMap::new();
        for sent_at in [0u64, 7, 1024, 4096, 4100] {
            for src in 0..6u32 {
                let src = ProcessId::Client(ClientId(src));
                // One fan-out per handler: its n-th send goes to server n.
                for n in 0..4u32 {
                    let dst = ProcessId::Server(ServerId(n));
                    let key = Scheduler::<M>::on_send(&s, src, dst, sent_at, n as u64).unwrap();
                    if let Some(prev) = seen.insert(key, dst) {
                        assert_eq!(prev, dst, "cross-destination key collision at {key}");
                    }
                }
            }
        }
        // Band arithmetic: the key's sub-tick residue identifies the
        // destination class.
        let width = TICK / 10; // 4 servers + 6 clients
        for (key, dst) in seen {
            let class = (key % TICK) / width;
            assert_eq!(class, match dst {
                ProcessId::Server(s) => s.0 as u64,
                ProcessId::Client(c) => 4 + c.0 as u64,
            });
        }
    }

    #[test]
    fn equal_key_ties_break_on_shard_invariant_coordinates() {
        let topo = Arc::new(Topology::single_dc(&config()));
        let mut s = TopologyScheduler::new(topo, 1);
        let mut pool = MessagePool::new();
        // Three same-destination messages stamped with the same delivery
        // key, inserted with ids in the "wrong" order: the pick must follow
        // `(sent_at, src, id)`, not id alone.
        for (id, src, sent_at) in [(9u64, S1, 40u64), (2, S0, 50), (5, S0, 40)] {
            pool.insert(PendingMessage {
                id: MsgId(id),
                src,
                dst: C0,
                msg: M,
                sent_at,
                causal: Causal::ROOT,
                deliver_at: Some(7000),
            });
        }
        let mut order = Vec::new();
        while let Some(m) = Scheduler::<M>::next(&mut s, &mut pool, 0) {
            order.push(m.id.0);
        }
        // sent_at 40 before 50; at 40, server 0 before server 1.
        assert_eq!(order, vec![5, 9, 2]);
    }

    #[test]
    fn scheduler_delivers_in_key_order() {
        let topo = Arc::new(Topology::single_dc(&config()));
        let mut s = TopologyScheduler::new(topo, 1);
        let mut pool = MessagePool::new();
        for (id, key) in [(0u64, 3000u64), (1, 1200), (2, 2100)] {
            pool.insert(PendingMessage {
                id: MsgId(id),
                src: C0,
                dst: S0,
                msg: M,
                sent_at: 0,
                causal: Causal::ROOT,
                deliver_at: Some(key),
            });
        }
        let mut order = Vec::new();
        while let Some(m) = Scheduler::<M>::next(&mut s, &mut pool, 0) {
            order.push(m.id.0);
        }
        assert_eq!(order, vec![1, 2, 0]);
    }
}
