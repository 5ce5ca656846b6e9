//! Geo-topology: named sites and per-link latency distributions.
//!
//! The paper's read-latency results (and the geo-replicated Eiger lineage
//! it evaluates against) assume clients and replicas separated by
//! heterogeneous WAN/LAN links.  A [`Topology`] models that directly:
//! processes are placed at named sites, and each ordered site pair has a
//! [`LinkDist`] — a uniform range for well-behaved links, or a discretized
//! heavy tail for congested WAN paths.
//! [`LatencyScheduler::over`](crate::LatencyScheduler::over) turns a
//! topology into the scheduler that delivers by it.
//!
//! # Time unit: engine ticks
//!
//! A link's draw is in engine ticks, the clock's one unit, and it *is* the
//! message's latency: a send at `t` over a `Uniform { min, max }` link is
//! keyed for delivery in `[t + min, t + max]`.  The presets state every
//! parameter as `n * TICK`: a [`TICK`] is a *site-tick*, the unit the
//! scenario SLO rows and the partition drill report in by dividing by it.
//!
//! # Determinism contract
//!
//! A topology-scheduled history is a pure function of `(deployment,
//! topology, seed, invocation plan)`, and every delivery is named by
//! coordinates a recorded schedule can replay by (ROADMAP item 2).  Two
//! ingredients, on top of the engine's one dispatch rule (an invocation
//! keyed before every pending delivery dispatches first, so a kickoff wave
//! planned at quiescence stamps `planned + 1`):
//!
//! 1. **Pure draws.**  Each latency is the crate's one per-message hash
//!    (`scheduler::send_hash` — the key the fault engine's probabilistic
//!    gates use too) of the message's **coordinates**: source,
//!    destination, send tick, and the send's ordinal within its handler
//!    execution, which the engine supplies — never the `MsgId`, so a draw
//!    does not depend on dispatch order.
//! 2. **Send-order tie-breaks.**  Equal keys go to the smaller `MsgId` —
//!    one pop of the `(key, id)` delivery heap
//!    ([`MessagePool::pop`](crate::MessagePool::pop)),
//!    O(log n) per delivery.  The engine issues ids in send order and runs
//!    one handler per tick, so id order *is* the send's `(sent_at, source,
//!    emission order)`: the tie-break is a pure function of coordinates
//!    without ranking them.
//!
//! Every preset link's minimum is one site-tick, far above any
//! invocation-kickoff window.  The result — topology-scheduled histories
//! that replay bit for bit — is pinned by `tests/topology_scenarios.rs`.
//!
//! # Prepared draws
//!
//! A draw reduces the hash modulo the link's spread plus one.  A topology
//! keeps each link prepared (`LinkDraw`): the divisor's `Remainder`, which
//! computes `h % d` exactly with three multiplications instead of a 64-bit
//! division, and the heavy tail's parameters, with a uniform link as the
//! tail-free case, so one branch-free formula draws on every link.
//! [`LinkDist::draw`] prepares, then draws: the two return the same value.

use snow_core::{ClientId, ProcessId, ServerId, SystemConfig};

/// Engine ticks per site-tick: the unit the presets state their links in,
/// and the divisor of reports in site-ticks.
pub const TICK: u64 = 1024;

/// A per-link latency distribution, in engine ticks.  Draws are pure
/// functions of a 64-bit hash — no RNG state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDist {
    /// Uniform latency in `[min, max]`.
    Uniform {
        /// Minimum latency; a draw may be exactly `min`, 0 included.
        min: u64,
        /// Maximum latency.
        max: u64,
    },
    /// A discretized heavy tail: `base + U[0, jitter]` plus, with
    /// probability `2^-k`, an extra `step·2^(k-1)` (k = 1..=cap) — a
    /// log2-bucketed Pareto(α≈1) tail in integer arithmetic.  Models
    /// congested WAN paths where p99 ≫ p50.
    HeavyTail {
        /// Body latency floor.
        base: u64,
        /// Uniform body spread above the floor.
        jitter: u64,
        /// First tail bucket's extra latency; bucket k adds `step·2^(k-1)`.
        step: u64,
        /// Deepest tail bucket (caps the worst case at `step·2^(cap-1)`).
        cap: u32,
    },
}

impl LinkDist {
    /// Draws a latency from hash `h`: the link prepared (see the module
    /// docs), then drawn.  Pure.  A topology keeps its links prepared, so
    /// a scheduler pays for the preparation once per link, not per draw.
    ///
    /// # Panics
    /// Panics if the body's spread (`max − min`, or `jitter`) is
    /// `u64::MAX`: its divisor would not fit in 64 bits.
    pub fn draw(self, h: u64) -> u64 {
        LinkDraw::new(self).draw(h)
    }
}

/// `h % d` for one fixed divisor `d`, by Lemire, Kaser and Kurz's direct
/// remainder (*Faster Remainder by Direct Computation*, Software: Practice
/// and Experience, 2019): with `M = ⌈2¹²⁸ / d⌉` (and `M = 0` for `d = 1`),
/// `h % d` is the high 64 bits of `(M·h mod 2¹²⁸)·d`.  Exact for every
/// 64-bit `h` and `d`, because the 128-bit fraction has at least
/// `64 + log₂ d` bits; three multiplications and no division.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Remainder {
    divisor: u64,
    /// `⌈2¹²⁸ / divisor⌉`, wrapped to 0 for a divisor of 1.
    m: u128,
}

impl Remainder {
    /// Prepares the remainder by `divisor`.
    ///
    /// # Panics
    /// Panics if `divisor` is 0.
    pub fn new(divisor: u64) -> Self {
        assert!(divisor > 0, "a remainder needs a nonzero divisor");
        // ⌊(2¹²⁸ − 1) / d⌋ + 1 = ⌈2¹²⁸ / d⌉, whether or not d divides 2¹²⁸.
        Remainder { divisor, m: (u128::MAX / u128::from(divisor)).wrapping_add(1) }
    }

    /// `h % divisor`.
    #[inline]
    pub fn of(self, h: u64) -> u64 {
        let fraction = self.m.wrapping_mul(u128::from(h));
        let d = u128::from(self.divisor);
        // The high 64 of the 192-bit `fraction · d`, summed in halves.
        let low = (u128::from(fraction as u64) * d) >> 64;
        let high = (fraction >> 64) * d;
        ((high + low) >> 64) as u64
    }
}

/// A [`LinkDist`] prepared for drawing: `floor + h % (spread + 1)` plus a
/// tail of `step·2^(k−1)` for `k` the trailing ones of `h >> 32`, capped
/// at `cap`.  A uniform link is `floor = min`, `spread = max − min` (0
/// when `max ≤ min`) and no tail (`cap = 0`); a heavy tail is `base`,
/// `jitter` and its own tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkDraw {
    floor: u64,
    body: Remainder,
    step: u64,
    cap: u32,
}

impl LinkDraw {
    /// Prepares `dist`.
    ///
    /// # Panics
    /// Panics if the body's spread is `u64::MAX`, as [`LinkDist::draw`].
    pub fn new(dist: LinkDist) -> Self {
        let (floor, spread, step, cap) = match dist {
            LinkDist::Uniform { min, max } => (min, max.saturating_sub(min), 0, 0),
            LinkDist::HeavyTail { base, jitter, step, cap } => (base, jitter, step, cap),
        };
        let divisor = spread.checked_add(1).expect("a link's spread must be below u64::MAX");
        LinkDraw { floor, body: Remainder::new(divisor), step, cap }
    }

    /// Draws a latency from hash `h`.  Pure.
    #[inline]
    pub fn draw(&self, h: u64) -> u64 {
        // P(k trailing ones) = 2^-k: doubling the extra halves its
        // probability — the power-law signature.
        let k = (h >> 32).trailing_ones().min(self.cap);
        self.floor + self.body.of(h) + if k > 0 { self.step << (k - 1) } else { 0 }
    }
}

/// The presets' LAN link: `Uniform[1, 3]` site-ticks.
const LAN: LinkDist = LinkDist::Uniform { min: TICK, max: 3 * TICK };

/// A preset WAN link, its parameters in site-ticks: `base + U[0, jitter]`
/// plus a tail of up to `step·2^4`.
const fn wan(base: u64, jitter: u64, step: u64) -> LinkDist {
    LinkDist::HeavyTail { base: base * TICK, jitter: jitter * TICK, step: step * TICK, cap: 5 }
}

/// Named sites, per-link latency distributions, and process→site
/// placement.  Construct with [`Topology::for_config`] (every process
/// starts at site 0), then [`Topology::place_server`] /
/// [`Topology::place_client`] / [`Topology::set_link`] — or use a preset
/// ([`Topology::single_dc`], [`Topology::wan3`],
/// [`Topology::client_remote`]), or [`Topology::one_site`] for one link
/// between every pair of processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    sites: Vec<String>,
    /// Flattened `[from][to]` link matrix, including intra-site `[i][i]`.
    links: Vec<LinkDist>,
    /// `links`, each prepared for drawing: written wherever `links` is.
    draws: Vec<LinkDraw>,
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
        let links: Vec<LinkDist> =
            (0..n * n).map(|i| if i / n == i % n { intra } else { inter }).collect();
        Topology {
            sites: site_names.iter().map(|s| s.to_string()).collect(),
            draws: links.iter().map(|&link| LinkDraw::new(link)).collect(),
            links,
            server_sites: vec![0; config.num_servers as usize],
            client_sites: vec![0; config.num_clients() as usize],
        }
    }

    /// One site whose one link is `link`, placing no process: with one
    /// site, [`Topology::link`] returns the only link without asking where
    /// a process lives, so the topology serves any configuration.
    pub fn one_site(link: LinkDist) -> Self {
        Topology {
            sites: vec!["site".to_string()],
            links: vec![link],
            draws: vec![LinkDraw::new(link)],
            server_sites: Vec::new(),
            client_sites: Vec::new(),
        }
    }

    /// Single-DC preset: one site, every link `Uniform[1, 3]` site-ticks.
    pub fn single_dc(config: &SystemConfig) -> Self {
        Topology::for_config(config, &["dc"], LAN, LAN)
    }

    /// Three-site WAN preset: servers and clients round-robined across
    /// `us-east` / `eu-west` / `ap-south`, LAN links inside a site, and
    /// heavy-tailed WAN links between them (farther pairs slower).
    pub fn wan3(config: &SystemConfig) -> Self {
        let sites = ["us-east", "eu-west", "ap-south"];
        let mut t = Topology::for_config(config, &sites, LAN, wan(18, 6, 8));
        t.set_link(0, 2, wan(40, 10, 12));
        t.set_link(1, 2, wan(28, 8, 10));
        t.server_sites = (0..t.server_sites.len()).map(|s| s % 3).collect();
        t.client_sites = (0..t.client_sites.len()).map(|c| c % 3).collect();
        t
    }

    /// Client-remote preset: every server in one `dc` site, every client
    /// at a remote `edge` site behind a heavy-tailed WAN link — the
    /// geo-replicated reading-client setting of the paper's latency
    /// tables.
    pub fn client_remote(config: &SystemConfig) -> Self {
        let mut t = Topology::for_config(config, &["dc", "edge"], LAN, wan(24, 8, 10));
        t.client_sites.fill(1);
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
    /// directions** (for an asymmetric link, call
    /// [`Topology::set_link_directed`] once per direction).
    pub fn set_link(&mut self, a: usize, b: usize, dist: LinkDist) {
        self.set_link_directed(a, b, dist);
        self.set_link_directed(b, a, dist);
    }

    /// Sets the `from → to` link distribution only.
    pub fn set_link_directed(&mut self, from: usize, to: usize, dist: LinkDist) {
        let n = self.sites.len();
        assert!(from < n && to < n, "site index out of range");
        self.links[from * n + to] = dist;
        self.draws[from * n + to] = LinkDraw::new(dist);
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
    #[inline]
    pub fn site_of(&self, id: ProcessId) -> usize {
        match id {
            ProcessId::Server(s) => self.server_sites[s.0 as usize],
            ProcessId::Client(c) => self.client_sites[c.0 as usize],
        }
    }

    /// The latency distribution of the `src → dst` link: the only link of
    /// a one-site topology, whatever its placement.
    #[inline]
    pub fn link(&self, src: ProcessId, dst: ProcessId) -> LinkDist {
        self.links[self.link_index(src, dst)]
    }

    /// The `src → dst` link prepared for drawing: what a scheduler draws
    /// each send's latency from.
    #[inline]
    pub(crate) fn link_draw(&self, src: ProcessId, dst: ProcessId) -> &LinkDraw {
        &self.draws[self.link_index(src, dst)]
    }

    /// The `src → dst` link's index in the matrix: 0 on one site.
    #[inline]
    fn link_index(&self, src: ProcessId, dst: ProcessId) -> usize {
        match self.sites.len() {
            1 => 0,
            n => self.site_of(src) * n + self.site_of(dst),
        }
    }

    /// Every link distribution, one per ordered site pair.
    pub fn links(&self) -> impl Iterator<Item = LinkDist> + '_ {
        self.links.iter().copied()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Causal, MsgId, PendingMessage};
    use crate::pool::MessagePool;
    use crate::{LatencyScheduler, Scheduler};
    use snow_core::hash::splitmix64;
    use std::sync::Arc;

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

    /// The direct remainder equals `%` at the divisors where it is easiest
    /// to get wrong (1, powers of two and their neighbours, the 32-bit
    /// boundary, 2⁶³, `u64::MAX`) and at random ones, for dividends at the
    /// edges (0, `d − 1`, `d`, `d + 1`, `u64::MAX`) and random ones.
    #[test]
    fn the_direct_remainder_equals_the_division() {
        let fixed =
            [1, 2, 3, 16, 17, 2049, 6145, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 63, u64::MAX];
        let random = (0..2_000u64).map(|i| splitmix64(i) >> (i % 64));
        for d in fixed.into_iter().chain(random.filter(|&d| d > 0)) {
            let r = Remainder::new(d);
            let edges = [0, d - 1, d, d.wrapping_add(1), u64::MAX, u64::MAX - 1];
            let hashes = (0..64u64).map(|i| splitmix64(d ^ i));
            for h in edges.into_iter().chain(hashes) {
                assert_eq!(r.of(h), h % d, "{h} % {d}");
            }
        }
    }

    /// A prepared draw returns what the division-based draw it replaced
    /// returned (the model below): on every link of the three presets, on
    /// the one-site links the tests and the golden combos use, and on
    /// uniform links with no spread or an inverted range.
    #[test]
    fn a_prepared_draw_equals_the_divided_draw() {
        fn divided(link: LinkDist, h: u64) -> u64 {
            match link {
                LinkDist::Uniform { min, max } => {
                    let span = max.saturating_sub(min);
                    min + if span > 0 { h % (span + 1) } else { 0 }
                }
                LinkDist::HeavyTail { base, jitter, step, cap } => {
                    let body = base + h % (jitter + 1);
                    let k = (h >> 32).trailing_ones().min(cap);
                    body + if k > 0 { step << (k - 1) } else { 0 }
                }
            }
        }
        let config = SystemConfig::mwmr(4, 3, 3);
        let presets = [
            Topology::single_dc(&config),
            Topology::wan3(&config),
            Topology::client_remote(&config),
        ];
        let one_site = [(1, 16), (1, 15), (1, 20), (0, 0), (5, 5), (9, 3), (1, 1000)]
            .map(|(min, max)| LinkDist::Uniform { min, max });
        let links = presets.iter().flat_map(|t| t.links().collect::<Vec<_>>()).chain(one_site);
        for link in links {
            let prepared = LinkDraw::new(link);
            for h in (0..20_000u64).map(splitmix64).chain([0, u64::MAX, u64::MAX << 32]) {
                assert_eq!(prepared.draw(h), divided(link, h), "{link:?} at {h:#x}");
                assert_eq!(link.draw(h), divided(link, h), "{link:?} at {h:#x}");
            }
        }
        for t in &presets {
            for (i, &link) in t.links.iter().enumerate() {
                assert_eq!(t.draws[i], LinkDraw::new(link), "a topology keeps each link prepared");
            }
        }
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
        // One site needs no placement: every pair gets the only link.
        let one = Topology::one_site(LinkDist::Uniform { min: 2, max: 4 });
        assert_eq!((one.num_sites(), one.num_servers(), one.num_clients()), (1, 0, 0));
        assert_eq!(one.link(C0, S1), LinkDist::Uniform { min: 2, max: 4 });
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
        check(LatencyScheduler::over(topo.clone(), 9), LatencyScheduler::over(topo, 9));
        check(LatencyScheduler::new(9, 1, 1000), LatencyScheduler::new(9, 1, 1000));
    }

    #[test]
    fn latencies_scale_with_the_link_and_clear_the_minimum() {
        let topo = Arc::new(Topology::client_remote(&config()));
        let s = LatencyScheduler::over(topo, 4);
        // Client → server crosses the WAN link: at least base (24)
        // site-ticks, at most base + jitter (8) + tail (10·2^4).
        let wan = Scheduler::<M>::on_send(&s, C0, S0, 0, 0);
        assert!((24 * TICK..=(24 + 8 + 160) * TICK).contains(&wan), "wan latency {wan}");
        // Server → server stays inside the DC: 1..=3 site-ticks.
        let lan = Scheduler::<M>::on_send(&s, S0, S1, 0, 1);
        assert!((TICK..=3 * TICK).contains(&lan), "lan latency {lan}");
        // Every latency clears one full site-tick — above any
        // invocation-kickoff window.
        assert!(lan >= TICK && wan >= TICK);
    }

    /// A link delivers in the range it names: on every preset, over a grid
    /// of send coordinates, `on_send − sent_at` lies in the support of the
    /// link's distribution, and the LAN draws reach near both ends of theirs.
    #[test]
    fn every_draw_lies_in_its_links_support() {
        let support = |link: LinkDist| match link {
            LinkDist::Uniform { min, max } => min..=max,
            LinkDist::HeavyTail { base, jitter, step, cap } => {
                base..=base + jitter + (step << (cap - 1))
            }
        };
        let config = SystemConfig::mwmr(4, 3, 3);
        let servers = (0..config.num_servers).map(|s| ProcessId::Server(ServerId(s)));
        let clients = (0..config.num_clients()).map(|c| ProcessId::Client(ClientId(c)));
        let processes: Vec<ProcessId> = servers.chain(clients).collect();
        for topology in [
            Topology::single_dc(&config),
            Topology::wan3(&config),
            Topology::client_remote(&config),
        ] {
            let s = LatencyScheduler::over(Arc::new(topology.clone()), 0x5EED);
            let mut lan = (u64::MAX, 0);
            for &src in &processes {
                for &dst in &processes {
                    for sent_at in [0, 1, 7, TICK - 1, TICK, 5 * TICK + 3, 123_457] {
                        for ordinal in 0..8 {
                            let link = topology.link(src, dst);
                            let latency = Scheduler::<M>::on_send(&s, src, dst, sent_at, ordinal)
                                - sent_at;
                            assert!(
                                support(link).contains(&latency),
                                "{src} → {dst} at {sent_at}: {latency} outside {link:?}"
                            );
                            if link == LAN {
                                lan = (lan.0.min(latency), lan.1.max(latency));
                            }
                        }
                    }
                }
            }
            let (lo, hi) = lan;
            assert!(lo < TICK + TICK / 8 && hi > 3 * TICK - TICK / 8, "LAN draws span {lan:?}");
        }
    }

    #[test]
    fn scheduler_delivers_in_key_order() {
        let topo = Arc::new(Topology::single_dc(&config()));
        let mut s = LatencyScheduler::over(topo, 1);
        let mut pool = MessagePool::new();
        for (id, key) in [(0u64, 3000u64), (1, 1200), (2, 2100)] {
            pool.insert(PendingMessage {
                id: MsgId(id),
                src: C0,
                dst: S0,
                msg: M,
                sent_at: 0,
                causal: Causal::ROOT,
                deliver_at: key,
            });
        }
        let mut order = Vec::new();
        loop {
            let earliest = pool.peek_earliest();
            let Some(slot) = Scheduler::<M>::next(&mut s, &mut pool, earliest, 0) else { break };
            order.push(pool.take(slot).id.0);
        }
        assert_eq!(order, vec![1, 2, 0]);
    }
}
