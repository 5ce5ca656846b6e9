//! Streaming strict-serializability: the crate's one semantic engine, an
//! online precedence graph with a sliding certification frontier.
//!
//! [`StreamChecker`] ingests **committed** transactions one at a time (in
//! commit — RESP — order) and maintains a precedence structure over them
//! online (a whole history goes through [`StreamChecker::check`]; what
//! [`crate::strict::check_auto`] hands over to when the tag order does not
//! accept is this engine, fed the same way):
//!
//! * **Per-object version orders**, extended incrementally: a tagged write
//!   whose tie key sorts after the current tail is appended in O(1); a write
//!   that lands inside the order (or any untagged overlap) marks the window
//!   dirty and triggers a window re-solve.
//! * **The precedence DAG** over the live window — real-time edges
//!   (transitively reduced against the live antichain instead of the time
//!   node chain, which is equivalent over a window whose retired prefix
//!   wholly precedes it), write→read observation edges, write→write edges
//!   between consecutive versions and read→successor anti-dependency edges —
//!   with **Pearce–Kelly online topological ordering** over unique, gapped
//!   labels: a new edge that respects the current order costs O(1); the
//!   first out-edge of a node that has none, when it violates the order,
//!   moves the node into the label gap above its predecessors; only the
//!   other order-violating edges trigger a local reorder of the affected
//!   region.
//! * **A sliding certification frontier.**  `advance_watermark(t)` promises
//!   that every transaction ingested later was invoked at or after `t`.
//!   Once a prefix of the window is closed (responded before the watermark),
//!   has no pending observations and no order ambiguity that the future
//!   could still flip, its verdict is final: its transactions are appended
//!   to the witness, replay-validated against [`SequentialOt`], and their
//!   nodes, edges and version metadata are retired.  Memory stays
//!   O(live window + in-flight), not O(history).
//!
//! When the incremental order breaks (a Pearce–Kelly cycle or a dirty
//! version order), the checker re-solves **only the live window** with the
//! crate's window solver (`solve.rs`: version orders, a precedence DAG with
//! a time chain, Kahn/Tarjan passes and a budgeted constraint-splitting
//! search), so ambiguous overlap groups inside the window are branched on
//! without rebuilding a whole-history DAG.  Violations are reported at the
//! offending transaction (see [`StreamChecker::offending_index`]), not at
//! shutdown.  A re-solve that runs out of splitting budget does not end the
//! check: nothing retires from then on, the window keeps collecting
//! commits (up to 65 536 live transactions), and `finish` re-solves it
//! once more, so a contradiction that needs no splitting, arriving later,
//! still convicts.
//!
//! Closed but still-ambiguous overlap groups (concurrent writes whose
//! relative order a *future* stale read could still force) are retired into
//! **sealed segments**: their verdict contribution is final, but the
//! segment's internal order stays revisable until a later version of the
//! object closes, at which point the seal expires and the segment is
//! replayed into the witness.
//!
//! **Cost contract.**  Per commit: O(log window) to find the real-time
//! edges, O(live versions of the object) to place a version, O(in-degree)
//! for the first out-edge of a node that has none, O(affected region) for
//! other order-violating edges, O(objects in the segment) for an
//! observation of a sealed version — and no heap allocation in steady
//! state: searches and retire passes run in buffers kept on the checker,
//! retired transactions and expired seals hand their vectors to the next
//! ones.  A sealed segment answers observations from a per-object summary
//! (its last version and the latest response among the earlier ones),
//! rebuilt whenever the segment's record order changes.  [`StreamReport`]
//! counts the work exactly; `tests/stream_hot_path.rs` pins it.
//!
//! ```
//! use snow_checker::stream::StreamChecker;
//! use snow_core::{
//!     ClientId, History, Key, ObjectId, ObjectRead, ReadOutcome, TxId, TxOutcome,
//!     TxRecord, TxSpec, Value, WriteOutcome,
//! };
//!
//! let mut checker = StreamChecker::new();
//! // WRITE x=1, committed at t=10.
//! let mut w = TxRecord::invoked(
//!     TxId(0),
//!     ClientId(0),
//!     TxSpec::write(vec![(ObjectId(0), Value(1))]),
//!     0,
//! );
//! w.responded_at = Some(10);
//! let key = Key::new(1, ClientId(0));
//! w.outcome = Some(TxOutcome::Write(WriteOutcome { key, tag: None }));
//! checker.ingest(w);
//! // READ x observing that write, committed at t=30.
//! let mut r = TxRecord::invoked(TxId(1), ClientId(1), TxSpec::read(vec![ObjectId(0)]), 20);
//! r.responded_at = Some(30);
//! r.outcome = Some(TxOutcome::Read(ReadOutcome {
//!     reads: vec![ObjectRead { object: ObjectId(0), key, value: Value(1) }],
//!     tag: None,
//! }));
//! checker.ingest(r);
//! // No in-flight transaction can precede t=31 any more: the prefix retires.
//! checker.advance_watermark(31);
//! assert_eq!(checker.certified(), 2);
//! assert!(checker.finish().is_serializable());
//! ```

use crate::ot::SequentialOt;
use crate::solve::{solve_ctx, Ctx, ObjectOrder, Obs};
use crate::strict::{SearchChecker, Verdict};
use snow_core::{FxHashMap, FxHashSet, History, Key, ObjectId, TxKind, TxOutcome, TxRecord};
use std::collections::{BTreeMap, VecDeque};

/// How many of the earliest records are kept around so an `Unknown` verdict
/// on a small history can fall back to the complete search.
const SEARCH_FALLBACK_KEEP: usize = 25;

/// After a window re-solve runs out of splitting budget, the window keeps
/// collecting commits, unretired, for one more re-solve at `finish`, up to
/// this many live transactions; past it the `Unknown` is final at once.
const UNDECIDED_KEEP: usize = 1 << 16;

/// The default of [`StreamChecker::split_budget`].
const SPLIT_BUDGET: usize = 4096;

/// One observation recorded on a live reader.
#[derive(Debug, Clone, Copy)]
struct ReaderObs {
    object: ObjectId,
    key: Key,
    target: ObsTarget,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ObsTarget {
    /// Observed write is a live node.
    Live(u32),
    /// Observed the latest retired version (or κ₀ before any version):
    /// the reader precedes every live version of the object.
    Boundary,
    /// Key not installed yet — the writer may still be in flight.  The
    /// reader (and the object's writes) are pinned until it resolves.
    Pending,
}

/// A transaction in the live window.
#[derive(Debug)]
struct LiveTx {
    rec: TxRecord,
    /// Global ingest index (commit sequence number), for offending-site
    /// reporting.
    index: usize,
    /// Pearce–Kelly topological key: every edge goes from lower to higher.
    ord: Label,
    out: Vec<u32>,
    preds: Vec<u32>,
    /// Reads: resolved/pending observations.
    obs: Vec<ReaderObs>,
    /// Writes: live readers that observed this version, per object.
    readers: Vec<(ObjectId, u32)>,
    /// Number of unresolved observations (reads only).
    pending_obs: u32,
}

impl LiveTx {
    fn inv(&self) -> u64 {
        self.rec.invoked_at
    }

    fn resp(&self) -> u64 {
        self.rec.responded_at.unwrap_or(u64::MAX)
    }

    fn tie(&self) -> (u64, u64, u64) {
        let tag = self.rec.outcome.as_ref().and_then(|o| o.tag()).map(|t| t.0).unwrap_or(0);
        (tag, self.rec.invoked_at, self.rec.tx_id.0)
    }
}

/// Room left between the `major`s of consecutive fresh nodes, for
/// [`StreamChecker::place_sink`] to bisect.
const ORD_GAP: u64 = 1 << 20;

/// A live node's Pearce–Kelly key, compared as `(major, seq)`.  `seq` comes
/// from a counter that is never reused, so no two labels are equal — the
/// reorder's pool of labels is a set, and every sort by label has one
/// answer.  `major` is where the room is: fresh nodes are [`ORD_GAP`]
/// apart, so a node can later take a fresh label between two others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Label {
    major: u64,
    seq: u64,
}

/// A [`LiveTx`]'s `out`, `preds`, `obs` and `readers`.
type SpareVecs = (Vec<u32>, Vec<u32>, Vec<ReaderObs>, Vec<(ObjectId, u32)>);

/// Per-object streaming state.
#[derive(Debug, Default)]
struct ObjectState {
    /// Live writes in current candidate version order (slot ids).
    live: Vec<u32>,
    /// Live readers that must precede the object's first live version
    /// (κ₀ readers and readers of the latest retired version).
    boundary_readers: Vec<u32>,
    /// Latest retired version, when it retired unambiguously.
    latest_retired: Option<Key>,
    /// Seal currently holding this object's newest retired (ambiguous)
    /// versions, if any.
    open_seal: Option<usize>,
    /// Total versions retired (sealed or not).
    retired_versions: u64,
    /// Unresolved observations on this object: pins write retirement.
    pending_reads: u32,
}

/// Where a version key currently lives.
#[derive(Debug, Clone, Copy)]
enum KeyState {
    Live(u32),
    Sealed { seal: usize },
    RetiredLatest,
}

/// A retired-but-revisable segment: a contiguous run of certified
/// transactions containing at least one ambiguous overlap group.  The
/// segment's membership in the witness is final; its internal order can
/// still be re-linearised if a future stale read forces a member to be the
/// group's last version, until the seal expires (a later version of every
/// flip object closes).
#[derive(Debug, Default)]
struct Seal {
    /// Segment records, in current internal order.
    recs: Vec<TxRecord>,
    /// Per-object projections of live reads that observed a sealed
    /// version: the constraints every re-linearisation must satisfy.
    ghosts: Vec<Ghost>,
    /// Version keys installed by the segment, per object.
    members: Vec<(ObjectId, Key)>,
    /// Objects whose internal order is still revisable (no later version
    /// of the object has closed yet).
    open_objects: Vec<ObjectId>,
    /// Per object the segment writes: the key and response of its last
    /// write in `recs` order, and the latest response among its earlier
    /// ones (version keys are unique per object: a duplicate is a sticky
    /// `Unknown` at ingest).  **Invariant:** rebuilt by [`Seal::summarize`]
    /// whenever `recs` changes order, so a sealed observation is a lookup.
    summary: Vec<(ObjectId, Key, u64, u64)>,
}

/// A live read's observation of one sealed version, kept as scalars and
/// turned into a single-object READ record only for a re-linearisation.
#[derive(Debug, Clone, Copy)]
struct Ghost {
    tx_id: snow_core::TxId,
    client: snow_core::ClientId,
    read: snow_core::ObjectRead,
    inv: u64,
    resp: Option<u64>,
}

impl Ghost {
    fn record(&self) -> TxRecord {
        let spec = snow_core::TxSpec::read(vec![self.read.object]);
        let mut rec = TxRecord::invoked(self.tx_id, self.client, spec, self.inv);
        rec.responded_at = self.resp;
        rec.outcome =
            Some(TxOutcome::Read(snow_core::ReadOutcome { reads: vec![self.read], tag: None }));
        rec
    }
}

impl Seal {
    fn summarize(&mut self) {
        self.summary.clear();
        for rec in &self.recs {
            let Some(TxOutcome::Write(wo)) = rec.outcome.as_ref() else { continue };
            let resp = rec.responded_at.unwrap_or(u64::MAX);
            for object in rec.spec.objects_iter() {
                match self.summary.iter_mut().find(|s| s.0 == object) {
                    Some(s) => *s = (object, wo.key, resp, s.3.max(s.2)),
                    None => self.summary.push((object, wo.key, resp, 0)),
                }
            }
        }
    }

    /// True when the current order already satisfies a read of `object`
    /// invoked at `inv` that observed `key`: `key` is the object's last
    /// version in the segment and every sibling version responded by `inv`.
    fn satisfies(&self, object: ObjectId, key: Key, inv: u64) -> bool {
        let hit = |&(o, last, _, earlier): &(ObjectId, Key, u64, u64)| {
            o == object && last == key && earlier <= inv
        };
        self.summary.iter().any(hit)
    }

    /// [`Self::satisfies`] by scanning the segment: the definition, which
    /// debug builds assert the summary against.
    fn scan_satisfies(&self, object: ObjectId, key: Key, inv: u64) -> bool {
        let (mut last, mut all_before) = (None, true);
        for rec in &self.recs {
            if let Some(TxOutcome::Write(wo)) = rec.outcome.as_ref() {
                if rec.spec.objects_iter().any(|o| o == object) {
                    last = Some(wo.key);
                    all_before &= wo.key == key || rec.responded_at.unwrap_or(u64::MAX) <= inv;
                }
            }
        }
        last == Some(key) && all_before
    }
}

/// Reusable Pearce–Kelly buffers: a reorder allocates nothing once they
/// have grown to the largest region seen.
#[derive(Debug, Default)]
struct PkScratch {
    /// Per slot, the epoch of the search that last visited it.
    stamp: Vec<u32>,
    epoch: u32,
    /// The two regions as `(ord, slot)`.
    fwd: Vec<ByOrd>,
    bwd: Vec<ByOrd>,
    stack: Vec<u32>,
    pool: Vec<Label>,
}

/// `(ord, slot)`: labels are unique, so sorting these tuples sorts by `ord`
/// alone and no tie is left for the witness to depend on.
type ByOrd = (Label, u32);

/// Reusable buffers of a retire pass, all O(live window): a pass allocates
/// only for the seals it creates.
#[derive(Debug, Default)]
struct RetireScratch {
    /// Per slot: still retiring this pass.
    retiring: Vec<bool>,
    /// Objects a candidate writes or boundary-reads, ascending.
    touched: Vec<ObjectId>,
    /// Overlap components as `(object, from, to)` ranges of `comp_slots`,
    /// grouped by object in `touched` order.
    comps: Vec<(ObjectId, usize, usize)>,
    comp_slots: Vec<u32>,
    /// Input of [`StreamChecker::components`]: writes as `(invoked, tx id,
    /// position in the candidate order, slot)`, so that sorting the tuples
    /// is the stable sort by `(invoked, tx id)`.
    sorted: Vec<(u64, u64, u32, u32)>,
    /// Retiring slots in `ord` order; `pos_of[slot]` is a slot's position
    /// (valid for emitted slots only), `seal_of_pos[position]` the seal it
    /// is routed into (`usize::MAX` = none).
    emission: Vec<ByOrd>,
    pos_of: Vec<usize>,
    seal_of_pos: Vec<usize>,
    intervals: Vec<(usize, usize, ObjectId)>,
}

/// An entry awaiting replay into the final witness.
#[derive(Debug)]
enum ReplayEntry {
    Tx(TxRecord),
    Seal(usize),
}

/// Aggregate counters exposed for benchmarking and the bounded-memory CI
/// assertion.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamReport {
    /// Transactions ingested (committed feed).
    pub ingested: usize,
    /// Transactions whose verdict contribution is final.
    pub certified: usize,
    /// High-water mark of records held (live window + sealed segments +
    /// replay tail).
    pub peak_live_window: usize,
    /// Records currently held.
    pub live_window: usize,
    /// Precedence edges accepted into the live window's order graph.
    pub edges_added: u64,
    /// Constraint-solver re-solves triggered by ambiguous observations.
    pub window_resolves: u64,
    /// Largest gap (in response-time units) between a transaction's
    /// response and the watermark that finally retired it.
    pub max_retirement_lag: u64,
    /// Accepted edges that violated the current Pearce–Kelly order and
    /// forced a local reorder.  The others cost O(1), or O(in-degree) when
    /// the edge's source had no out-edges and took a label in a gap.
    pub pk_reorders: u64,
    /// Nodes in the affected regions of those reorders, summed:
    /// `pk_region_nodes / pk_reorders` is the mean reorder size.
    pub pk_region_nodes: u64,
    /// Read observations that resolved to a sealed version.
    pub sealed_observations: u64,
    /// Sealed observations the segment's current order did not already
    /// satisfy, so the segment was re-solved.
    pub seal_relinearizations: u64,
}

/// Incremental strict-serializability checker over a commit stream.
///
/// See the [module docs](self) for the algorithm and a usage example.
#[derive(Debug)]
pub struct StreamChecker {
    /// Maximum number of branch states one window re-solve's
    /// constraint-splitting search may explore before it gives up (4096 by
    /// default).  The window then stops retiring and is re-solved once
    /// more at `finish`; if that runs out too, the verdict is
    /// [`Verdict::Unknown`].
    pub split_budget: usize,

    slots: Vec<Option<LiveTx>>,
    free: Vec<u32>,
    /// The emptied edge/observation vectors of retired transactions, handed
    /// to the next [`Self::alloc`].
    spare: Vec<SpareVecs>,
    spare_seals: Vec<Seal>,
    pk: PkScratch,
    retire: RetireScratch,
    /// Live slots in commit (RESP) order.
    by_resp: Vec<u32>,
    /// Aligned with `by_resp`: the two largest invocation times over each
    /// prefix, so real-time edge insertion can binary-search its
    /// uncovered-predecessor suffix instead of scanning the window.
    pref_top: Vec<(u64, u64)>,
    objects: BTreeMap<ObjectId, ObjectState>,
    keys: FxHashMap<(ObjectId, Key), KeyState>,
    pending: FxHashMap<(ObjectId, Key), Vec<u32>>,
    seals: Vec<Seal>,
    replay_tail: VecDeque<ReplayEntry>,
    tail_records: usize,
    witness: Vec<snow_core::TxId>,
    replay: SequentialOt,

    watermark: u64,
    last_resp: u64,
    /// The `major` of the next fresh node's label.
    next_major: u64,
    /// The `seq` of the next label handed out.
    next_seq: u64,
    ingested: usize,
    optional_included: usize,
    live_count: usize,
    peak_live: usize,
    finishing: bool,
    fatal: Option<Verdict>,
    offending: Option<usize>,
    /// The `Unknown` of a window re-solve that ran out of budget, while
    /// the window keeps collecting commits for one more re-solve at
    /// `finish` (up to `UNDECIDED_KEEP` live transactions).
    undecided: Option<(usize, Verdict)>,
    /// Copies of the first records fed, for the small-history search
    /// fallback; `early_lost` notes a record fed when there was no room.
    early: Vec<TxRecord>,
    early_lost: bool,

    edges_added: u64,
    window_resolves: u64,
    max_retirement_lag: u64,
    pk_reorders: u64,
    pk_region_nodes: u64,
    sealed_observations: u64,
    seal_relinearizations: u64,
    /// When observed (see [`Self::with_obs`]), a [`CheckerRetired`]
    /// event is recorded at every retirement pass that frees slots.
    ///
    /// [`CheckerRetired`]: snow_obs::ObsEvent::CheckerRetired
    obs: Option<snow_obs::RecordingSink>,
}

impl Default for StreamChecker {
    fn default() -> Self {
        StreamChecker {
            split_budget: SPLIT_BUDGET,
            slots: Vec::new(),
            free: Vec::new(),
            spare: Vec::new(),
            spare_seals: Vec::new(),
            pk: PkScratch::default(),
            retire: RetireScratch::default(),
            by_resp: Vec::new(),
            pref_top: Vec::new(),
            objects: BTreeMap::new(),
            keys: FxHashMap::default(),
            pending: FxHashMap::default(),
            seals: Vec::new(),
            replay_tail: VecDeque::new(),
            tail_records: 0,
            witness: Vec::new(),
            replay: SequentialOt::new(),
            watermark: 0,
            last_resp: 0,
            next_major: 0,
            next_seq: 0,
            ingested: 0,
            optional_included: 0,
            live_count: 0,
            peak_live: 0,
            finishing: false,
            fatal: None,
            offending: None,
            undecided: None,
            early: Vec::new(),
            early_lost: false,
            edges_added: 0,
            window_resolves: 0,
            max_retirement_lag: 0,
            pk_reorders: 0,
            pk_region_nodes: 0,
            sealed_observations: 0,
            seal_relinearizations: 0,
            obs: None,
        }
    }
}

impl StreamChecker {
    /// Creates a checker with the default budgets.
    pub fn new() -> Self {
        StreamChecker::default()
    }

    /// Creates a checker with an explicit constraint-splitting budget.
    pub fn with_split_budget(split_budget: usize) -> Self {
        StreamChecker { split_budget, ..StreamChecker::default() }
    }

    /// Enables observability: every retirement pass that frees slots
    /// records a [`snow_obs::ObsEvent::CheckerRetired`] event (stamped
    /// with the retiring watermark — virtual time, never wall-clock).
    /// Drain them with [`Self::drain_obs_events`].
    pub fn with_obs(mut self) -> Self {
        self.obs = Some(snow_obs::RecordingSink::new());
        self
    }

    /// Takes the observability events recorded so far (empty when the
    /// checker was not built [`Self::with_obs`]).
    pub fn drain_obs_events(&mut self) -> Vec<snow_obs::ObsEvent> {
        use snow_obs::TraceSink;
        self.obs.as_mut().map(|s| s.drain()).unwrap_or_default()
    }

    /// The verdict so far, if it is not "serializable so far": a violation,
    /// or an `Unknown` (sticky, or pending the re-solve at `finish`).
    pub fn violation(&self) -> Option<&Verdict> {
        self.fatal.as_ref().or(self.undecided.as_ref().map(|(_, v)| v))
    }

    /// The commit index (0-based position in the ingest stream) at which
    /// the verdict became final, for convictions.
    pub fn offending_index(&self) -> Option<usize> {
        self.offending
    }

    /// Transactions whose verdict contribution has been finalised (retired
    /// past the certification frontier, sealed or replayed).
    pub fn certified(&self) -> usize {
        (self.ingested + self.optional_included) - self.live_count
    }

    /// Records currently held: the live window plus sealed segments still
    /// awaiting replay.
    pub fn live_window(&self) -> usize {
        self.live_count + self.tail_records
    }

    /// High-water mark of [`Self::live_window`].
    pub fn peak_live_window(&self) -> usize {
        self.peak_live
    }

    /// Aggregate counters for benchmarks and memory assertions.
    pub fn report(&self) -> StreamReport {
        StreamReport {
            ingested: self.ingested,
            certified: self.certified(),
            peak_live_window: self.peak_live,
            live_window: self.live_window(),
            edges_added: self.edges_added,
            window_resolves: self.window_resolves,
            max_retirement_lag: self.max_retirement_lag,
            pk_reorders: self.pk_reorders,
            pk_region_nodes: self.pk_region_nodes,
            sealed_observations: self.sealed_observations,
            seal_relinearizations: self.seal_relinearizations,
        }
    }

    fn convict(&mut self, index: usize, verdict: Verdict) {
        if self.fatal.is_none() {
            self.fatal = Some(verdict);
            self.offending = Some(index);
        }
    }

    fn sticky_unknown(&mut self, index: usize, why: String) {
        if self.fatal.is_none() {
            self.fatal = Some(Verdict::Unknown(why));
            self.offending = Some(index);
        }
    }

    /// Makes a pending `Unknown` final, where the re-solve first ran out.
    fn give_up(&mut self) {
        if let Some((index, unknown)) = self.undecided.take() {
            if self.fatal.is_none() {
                self.fatal = Some(unknown);
                self.offending = Some(index);
            }
        }
    }

    /// Keeps a copy of `rec` for the search fallback while there is room.
    fn keep_early(&mut self, rec: &TxRecord) {
        if self.early.len() < SEARCH_FALLBACK_KEEP {
            self.early.push(rec.clone());
        } else {
            self.early_lost = true;
        }
    }

    // ---- slot / PK plumbing ------------------------------------------------

    /// A label no node has had before, at `major`.
    fn fresh_label(&mut self, major: u64) -> Label {
        let seq = self.next_seq;
        self.next_seq += 1;
        Label { major, seq }
    }

    fn alloc(&mut self, rec: TxRecord, index: usize) -> u32 {
        let ord = self.fresh_label(self.next_major);
        self.next_major += ORD_GAP;
        let inv = rec.invoked_at;
        let (out, preds, obs, readers) = self.spare.pop().unwrap_or_default();
        let tx = LiveTx { rec, index, ord, out, preds, obs, readers, pending_obs: 0 };
        self.live_count += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(tx);
                s
            }
            None => {
                self.slots.push(Some(tx));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_resp.push(slot);
        let (m1, m2) = self.pref_top.last().copied().unwrap_or((0, 0));
        self.pref_top.push(if inv > m1 {
            (inv, m1)
        } else if inv > m2 {
            (m1, inv)
        } else {
            (m1, m2)
        });
        slot
    }

    /// Recomputes the prefix invocation maxima after `by_resp` was
    /// compacted by a retirement or window rebuild.
    fn rebuild_pref_top(&mut self) {
        let mut m1 = 0u64;
        let mut m2 = 0u64;
        self.pref_top.clear();
        for i in 0..self.by_resp.len() {
            let ui = self.tx(self.by_resp[i]).inv();
            if ui > m1 {
                m2 = m1;
                m1 = ui;
            } else if ui > m2 {
                m2 = ui;
            }
            self.pref_top.push((m1, m2));
        }
    }

    fn tx(&self, slot: u32) -> &LiveTx {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    fn tx_mut(&mut self, slot: u32) -> &mut LiveTx {
        self.slots[slot as usize].as_mut().expect("live slot")
    }

    /// The version key live `slot` installs, if it is a write that has one.
    fn written_key(&self, slot: u32) -> Option<Key> {
        match self.tx(slot).rec.outcome.as_ref() {
            Some(TxOutcome::Write(wo)) => Some(wo.key),
            _ => None,
        }
    }

    /// Pearce–Kelly edge insertion.  Returns `false` when the edge closes a
    /// cycle (the graph is left without the edge; callers fall back to a
    /// window re-solve which rebuilds everything).
    fn add_edge(&mut self, a: u32, b: u32) -> bool {
        if a == b {
            return false;
        }
        let (oa, ob) = (self.tx(a).ord, self.tx(b).ord);
        if oa > ob && !(self.tx(a).out.is_empty() && self.place_sink(a, ob)) {
            let mut pk = std::mem::take(&mut self.pk);
            let acyclic = self.reorder(&mut pk, a, b, oa, ob);
            self.pk = pk;
            if !acyclic {
                return false;
            }
        }
        self.tx_mut(a).out.push(b);
        self.tx_mut(b).preds.push(a);
        self.edges_added += 1;
        true
    }

    /// The O(in-degree) way to take an order-violating edge out of `a`,
    /// which has no successors yet: `a` only has to sit above its
    /// predecessors and below `ob`, so when the `major`s leave room between
    /// the highest predecessor and `ob`, `a` takes a fresh label at the
    /// midpoint.  Returns `false` when there is no room.  The edge cannot
    /// close a cycle here: that needs a predecessor reachable from `b`,
    /// whose label is above `ob`, which leaves no room.
    fn place_sink(&mut self, a: u32, ob: Label) -> bool {
        let floor = self.tx(a).preds.iter().map(|&p| self.tx(p).ord.major).max().unwrap_or(0);
        match ob.major.checked_sub(floor) {
            Some(room) if room > 1 => {
                self.tx_mut(a).ord = self.fresh_label(floor + room / 2);
                true
            }
            _ => false,
        }
    }

    /// The order-violating half of [`Self::add_edge`]: discovers the
    /// affected region (forward from `b` within ord ≤ `oa`, backward from
    /// `a` within ord ≥ `ob`) and reassigns its ord values.  Returns `false`
    /// when `a` is reachable from `b` (the edge would close a cycle).
    fn reorder(&mut self, pk: &mut PkScratch, a: u32, b: u32, oa: Label, ob: Label) -> bool {
        // Two fresh visit stamps per call; on wrap-around every stale stamp
        // is forgotten so none can collide with a reused epoch.
        if pk.epoch >= u32::MAX - 1 {
            pk.stamp.fill(0);
            pk.epoch = 0;
        }
        pk.stamp.resize(self.slots.len(), 0);
        let (seen_f, seen_b) = (pk.epoch + 1, pk.epoch + 2);
        pk.epoch = seen_b;
        pk.fwd.clear();
        pk.bwd.clear();
        pk.stack.clear();
        pk.stack.push(b);
        pk.stamp[b as usize] = seen_f;
        while let Some(v) = pk.stack.pop() {
            pk.fwd.push((self.tx(v).ord, v));
            if v == a {
                return false; // cycle: a →* ... b →* a with the new edge
            }
            for &w in &self.tx(v).out {
                if self.tx(w).ord <= oa && pk.stamp[w as usize] != seen_f {
                    pk.stamp[w as usize] = seen_f;
                    pk.stack.push(w);
                }
            }
        }
        pk.stack.push(a);
        pk.stamp[a as usize] = seen_b;
        while let Some(v) = pk.stack.pop() {
            pk.bwd.push((self.tx(v).ord, v));
            for &w in &self.tx(v).preds {
                if self.tx(w).ord >= ob && pk.stamp[w as usize] != seen_b {
                    pk.stamp[w as usize] = seen_b;
                    pk.stack.push(w);
                }
            }
        }
        // Reassign: backward region first, then forward, onto the sorted
        // pool of their existing ord values.
        pk.bwd.sort_unstable();
        pk.fwd.sort_unstable();
        pk.pool.clear();
        pk.pool.extend(pk.bwd.iter().chain(pk.fwd.iter()).map(|&(ord, _)| ord));
        pk.pool.sort_unstable();
        for (&(_, v), &o) in pk.bwd.iter().chain(pk.fwd.iter()).zip(pk.pool.iter()) {
            self.tx_mut(v).ord = o;
        }
        self.pk_reorders += 1;
        self.pk_region_nodes += pk.pool.len() as u64;
        true
    }

    /// Adds the (transitively reduced) real-time edges into a freshly
    /// ingested node: from every live transaction that responded before
    /// `slot` was invoked and is not already covered through another such
    /// transaction.
    fn add_real_time_edges(&mut self, slot: u32) -> bool {
        let inv = self.tx(slot).inv();
        // `by_resp` is commit-ordered (nondecreasing RESP) and compacted
        // on retirement, so the real-time predecessors are exactly the
        // prefix with resp < inv — binary-searchable.  (`slot` itself sits
        // at the end with resp ≥ inv, so it is never in the prefix.)
        let k = self.by_resp.partition_point(|&u| self.tx(u).resp() < inv);
        if k == 0 {
            return true;
        }
        // Largest / second-largest inv among the predecessors, from the
        // maintained prefix maxima.
        let (max1, max2) = self.pref_top[k - 1];
        // Covered: some other predecessor was invoked after `u` responded,
        // so the chain u → v → slot is already present.  For non-maximal
        // `u` the cover is max1, so the uncovered candidates (resp ≥ max1)
        // are a suffix of the prefix; the inv-maximal element has
        // resp ≥ inv = max1 and therefore also lives in that suffix.
        let j = self.by_resp[..k].partition_point(|&u| self.tx(u).resp() < max1);
        let mut ok = true;
        for idx in j..k {
            let u = self.by_resp[idx];
            let t = self.tx(u);
            let cover = if t.inv() == max1 { max2 } else { max1 };
            if cover > t.resp() {
                continue;
            }
            ok &= self.add_edge(u, slot);
        }
        ok
    }

    // ---- ingestion ---------------------------------------------------------

    /// Ingests the next committed transaction.  Transactions must arrive in
    /// commit (RESP) order; ties may arrive in any deterministic order.
    pub fn ingest(&mut self, rec: TxRecord) {
        let index = self.ingested;
        self.ingested += 1;
        self.keep_early(&rec);
        if self.fatal.is_some() {
            return;
        }
        debug_assert!(rec.responded_at.is_some(), "ingest() takes committed transactions");
        debug_assert!(
            rec.responded_at.unwrap_or(0) >= self.last_resp,
            "commits must be fed in RESP order"
        );
        self.last_resp = rec.responded_at.unwrap_or(self.last_resp);
        let slot = self.alloc(rec, index);
        let mut clean = self.add_real_time_edges(slot);
        clean &= match self.tx(slot).rec.kind() {
            TxKind::Write => self.ingest_write(slot),
            TxKind::Read => self.ingest_read(slot),
        };
        if self.fatal.is_none() && !clean && self.undecided.is_none() {
            self.resolve_window(slot);
        }
        self.peak_live = self.peak_live.max(self.live_window());
        if self.live_count > UNDECIDED_KEEP {
            self.give_up();
        }
    }

    /// Returns `false` when the window needs a re-solve.
    fn ingest_write(&mut self, slot: u32) -> bool {
        // A write without a known outcome is a node only.
        let Some(key) = self.written_key(slot) else { return true };
        let index = self.tx(slot).index;
        // Duplicate version keys break the (object, key) → write map: the
        // version order cannot be keyed.
        let spec = &self.tx(slot).rec.spec;
        let duplicate = spec.objects_iter().find(|&o| self.keys.contains_key(&(o, key)));
        if let Some(object) = duplicate {
            self.sticky_unknown(
                index,
                format!(
                    "two writes install version {key} on {object}; the version \
                     order cannot be keyed"
                ),
            );
            return true;
        }
        let mut clean = true;
        for i in 0.. {
            let Some(object) = self.tx(slot).rec.spec.objects_iter().nth(i) else { break };
            clean &= self.place_version(slot, object, key);
            if self.fatal.is_some() {
                return true;
            }
        }
        clean
    }

    /// Inserts `slot` into `object`'s live version order and wires the
    /// version-order edges.  Returns `false` when the placement is
    /// ambiguous (untagged overlap / out-of-order tie) and the window must
    /// be re-solved.
    fn place_version(&mut self, slot: u32, object: ObjectId, key: Key) -> bool {
        // The object's lists are worked on in place: taken here, restored
        // below; nothing in between looks at the object's state.
        let state = self.objects.entry(object).or_default();
        let mut live = std::mem::take(&mut state.live);
        let boundary = std::mem::take(&mut state.boundary_readers);
        let inv = self.tx(slot).inv();
        let mut clean = true;
        let mut pos = live.len();
        if !live.is_empty() {
            // Tagged fast path: all live versions and the new one carry
            // pairwise distinct tags — the tie order is the candidate.  One
            // pass decides it when the live order is already tie-sorted
            // (strictly ascending tags, so only the new tag can collide).
            let new_tie = self.tx(slot).tie();
            let (mut tagged, mut ascending, mut clash) = (new_tie.0 != 0, true, false);
            let (mut prev_tag, mut after) = (0, None);
            for (i, &w) in live.iter().enumerate() {
                let tie = self.tx(w).tie();
                tagged &= tie.0 != 0;
                ascending &= prev_tag < tie.0;
                clash |= tie.0 == new_tie.0;
                prev_tag = tie.0;
                if after.is_none() && tie > new_tie {
                    after = Some(i);
                }
            }
            let distinct = tagged
                && if ascending {
                    !clash
                } else {
                    let mut tags: Vec<u64> = live.iter().map(|&w| self.tx(w).tie().0).collect();
                    tags.push(new_tie.0);
                    tags.sort_unstable();
                    tags.windows(2).all(|w| w[0] != w[1])
                };
            if distinct {
                pos = after.unwrap_or(live.len());
            } else if live.iter().any(|&u| inv <= self.tx(u).resp()) {
                // Untagged (or colliding tags) and the new write overlaps a
                // live version (commit order means only `inv(new) ≤
                // resp(u)` can hold): the order is ambiguous.
                clean = false;
            }
        }
        // Inserting below an already-read suffix contradicts a forced
        // observation inference (the reader finished before this write was
        // invoked, so the observed version precedes it): re-solve.
        let read_before = |&(o, r): &(ObjectId, u32)| {
            o == object && self.slots[r as usize].as_ref().is_some_and(|t| t.resp() < inv)
        };
        if clean && live[pos..].iter().any(|&u| self.tx(u).readers.iter().any(read_before)) {
            clean = false;
        }
        if clean {
            if pos > 0 {
                let prev = live[pos - 1];
                clean &= self.add_edge(prev, slot);
                for i in 0..self.tx(prev).readers.len() {
                    let (o, r) = self.tx(prev).readers[i];
                    if o == object && self.slots[r as usize].is_some() {
                        clean &= self.add_edge(r, slot);
                    }
                }
            } else {
                for &r in &boundary {
                    if self.slots[r as usize].is_some() {
                        clean &= self.add_edge(r, slot);
                    }
                }
            }
            if pos < live.len() {
                clean &= self.add_edge(slot, live[pos]);
            }
        }
        live.insert(pos, slot);
        let succ = live.get(pos + 1).copied();
        let state = self.objects.get_mut(&object).expect("entry created above");
        state.live = live;
        state.boundary_readers = boundary;
        self.keys.insert((object, key), KeyState::Live(slot));
        // Resolve reads that observed this version while it was in flight.
        if let Some(waiters) = self.pending.remove(&(object, key)) {
            for r in waiters {
                if self.slots[r as usize].is_none() {
                    continue;
                }
                clean &= self.add_edge(slot, r);
                if let Some(next) = succ {
                    clean &= self.add_edge(r, next);
                }
                {
                    let rt = self.tx_mut(r);
                    rt.pending_obs -= 1;
                    for o in rt.obs.iter_mut() {
                        if o.object == object && o.key == key && o.target == ObsTarget::Pending
                        {
                            o.target = ObsTarget::Live(slot);
                        }
                    }
                }
                self.tx_mut(slot).readers.push((object, r));
                let state = self.objects.entry(object).or_default();
                state.pending_reads = state.pending_reads.saturating_sub(1);
            }
        }
        clean
    }

    /// Returns `false` when the window needs a re-solve.
    fn ingest_read(&mut self, slot: u32) -> bool {
        let index = self.tx(slot).index;
        let tx_id = self.tx(slot).rec.tx_id;
        let inv = self.tx(slot).inv();
        let mut clean = true;
        let mut i = 0;
        while let Some(TxOutcome::Read(r)) = self.tx(slot).rec.outcome.as_ref() {
            let Some(&snow_core::ObjectRead { object, key, .. }) = r.reads.get(i) else { break };
            i += 1;
            if key.is_initial() {
                let retired = self
                    .objects
                    .get(&object)
                    .map(|s| s.retired_versions > 0)
                    .unwrap_or(false);
                if retired {
                    self.convict(
                        index,
                        Verdict::NotSerializable(format!(
                            "READ {tx_id} (commit #{index}) returned the initial version \
                             for {object} after earlier versions were certified"
                        )),
                    );
                    return true;
                }
                clean &= self.boundary_obs(slot, object, key);
                continue;
            }
            match self.keys.get(&(object, key)).copied() {
                Some(KeyState::Live(w)) => {
                    clean &= self.add_edge(w, slot);
                    let (succ, stale) = {
                        let state = self.objects.get(&object).expect("live version has state");
                        let p = state
                            .live
                            .iter()
                            .position(|&x| x == w)
                            .expect("live version indexed");
                        // Forced inference: a later live version that
                        // completed before this read was invoked must
                        // precede the observed one — the candidate needs a
                        // re-solve (reorder or conviction).
                        let stale = state.live[p + 1..]
                            .iter()
                            .any(|&x| self.tx(x).resp() < inv);
                        (state.live.get(p + 1).copied(), stale)
                    };
                    if let Some(next) = succ {
                        clean &= self.add_edge(slot, next);
                    }
                    if stale {
                        clean = false;
                    }
                    self.tx_mut(w).readers.push((object, slot));
                    self.tx_mut(slot).obs.push(ReaderObs {
                        object,
                        key,
                        target: ObsTarget::Live(w),
                    });
                }
                Some(KeyState::Sealed { seal }) => {
                    if !self.flip_seal(slot, index, object, key, seal) {
                        return true; // convicted
                    }
                    clean &= self.boundary_obs(slot, object, key);
                }
                Some(KeyState::RetiredLatest) => {
                    if self.live_write_precedes(object, inv) {
                        self.convict(
                            index,
                            Verdict::NotSerializable(format!(
                                "READ {tx_id} (commit #{index}) returned retired version \
                                 {key} for {object} although a newer write completed \
                                 before it was invoked"
                            )),
                        );
                        return true;
                    }
                    clean &= self.boundary_obs(slot, object, key);
                }
                None => {
                    self.pending.entry((object, key)).or_default().push(slot);
                    self.tx_mut(slot).pending_obs += 1;
                    self.tx_mut(slot).obs.push(ReaderObs {
                        object,
                        key,
                        target: ObsTarget::Pending,
                    });
                    self.objects.entry(object).or_default().pending_reads += 1;
                }
            }
        }
        clean
    }

    /// True when some live version of `object` completed before `inv`: a
    /// read invoked at `inv` that observed a retired version is stale.
    fn live_write_precedes(&self, object: ObjectId, inv: u64) -> bool {
        self.objects
            .get(&object)
            .map(|s| s.live.iter().any(|&w| self.tx(w).resp() < inv))
            .unwrap_or(false)
    }

    /// Registers `slot` as preceding `object`'s first live version.
    fn boundary_obs(&mut self, slot: u32, object: ObjectId, key: Key) -> bool {
        let first = self.objects.get(&object).and_then(|s| s.live.first().copied());
        let mut clean = true;
        if let Some(first) = first {
            clean &= self.add_edge(slot, first);
        }
        self.objects.entry(object).or_default().boundary_readers.push(slot);
        self.tx_mut(slot).obs.push(ReaderObs { object, key, target: ObsTarget::Boundary });
        clean
    }

    // ---- window re-solve ---------------------------------------------------

    /// Re-solves the live window with the window solver over a borrowed
    /// [`Ctx`], so ambiguous overlap groups are branched on by the
    /// constraint-splitting search without ever rebuilding a
    /// whole-history DAG.  On
    /// success the incremental structures (Pearce–Kelly order, candidate
    /// version orders, edges) are rebuilt from the winning branch; on
    /// failure the verdict is final, attributed to the transaction whose
    /// ingestion broke the window.
    fn resolve_window(&mut self, at_slot: u32) {
        self.window_resolves += 1;
        let at_index = self.tx(at_slot).index;
        let at_tx = self.tx(at_slot).rec.tx_id;
        let mut nodes: Vec<u32> = Vec::new();
        let mut node_of = vec![usize::MAX; self.slots.len()];
        for (i, s) in self.slots.iter().enumerate() {
            if s.is_some() {
                node_of[i] = nodes.len();
                nodes.push(i as u32);
            }
        }
        let solved = {
            let mut txs: Vec<&TxRecord> = Vec::with_capacity(nodes.len());
            let mut writes_of: BTreeMap<ObjectId, Vec<usize>> = BTreeMap::new();
            let mut obs: Vec<Obs> = Vec::new();
            let mut obs_of: BTreeMap<ObjectId, Vec<usize>> = BTreeMap::new();
            for (n, &slot) in nodes.iter().enumerate() {
                let t = self.slots[slot as usize].as_ref().expect("live slot");
                txs.push(&t.rec);
                if matches!(t.rec.outcome, Some(TxOutcome::Write(_))) {
                    for o in t.rec.spec.objects_iter() {
                        writes_of.entry(o).or_default().push(n);
                    }
                }
                for ro in &t.obs {
                    let write = match ro.target {
                        ObsTarget::Live(w) => Some(node_of[w as usize]),
                        ObsTarget::Boundary => None,
                        // An unresolved observation imposes no constraint
                        // yet; it pins retirement instead.
                        ObsTarget::Pending => continue,
                    };
                    obs_of.entry(ro.object).or_default().push(obs.len());
                    obs.push(Obs { reader: n, object: ro.object, write });
                }
            }
            solve_ctx(&Ctx { txs, writes_of, obs, obs_of }, self.split_budget)
        };
        match solved {
            Ok((witness, orders)) => self.rebuild(&nodes, &witness, &orders),
            Err(Verdict::NotSerializable(why)) => self.convict(
                at_index,
                Verdict::NotSerializable(format!(
                    "at {at_tx} (commit #{at_index}): {why}"
                )),
            ),
            // Out of budget: keep collecting commits, unretired, for one
            // more re-solve at `finish`.  A later forced contradiction
            // (an observation-forced cyclic version order needs no
            // splitting) still convicts there.
            Err(unknown @ Verdict::Unknown(_)) if !self.finishing => {
                self.undecided = Some((at_index, unknown));
            }
            Err(Verdict::Unknown(why)) => self.sticky_unknown(at_index, why),
            Err(v) => self.convict(at_index, v),
        }
    }

    /// Rebuilds the incremental structures from a window solution.
    fn rebuild(
        &mut self,
        nodes: &[u32],
        witness: &[usize],
        orders: &BTreeMap<ObjectId, ObjectOrder>,
    ) {
        for (i, &n) in witness.iter().enumerate() {
            let ord = self.fresh_label(i as u64 * ORD_GAP);
            self.tx_mut(nodes[n]).ord = ord;
        }
        self.next_major = witness.len() as u64 * ORD_GAP;
        for &slot in nodes {
            let t = self.tx_mut(slot);
            t.out.clear();
            t.preds.clear();
        }
        for (object, oo) in orders {
            let state = self.objects.entry(*object).or_default();
            state.live = oo.candidate.iter().map(|&n| nodes[n]).collect();
        }
        // Real-time edges, in commit order so the transitive reduction
        // sees exactly the predecessors each node had at ingestion.
        self.by_resp.retain(|&s| self.slots[s as usize].is_some());
        self.rebuild_pref_top();
        let order = self.by_resp.clone();
        for &slot in &order {
            let ok = self.add_real_time_edges(slot);
            debug_assert!(ok, "window witness violates real time");
        }
        let objects: Vec<ObjectId> = self.objects.keys().copied().collect();
        for object in objects {
            let (live, boundary) = {
                let s = &self.objects[&object];
                (s.live.clone(), s.boundary_readers.clone())
            };
            for w in live.windows(2) {
                let ok = self.add_edge(w[0], w[1]);
                debug_assert!(ok, "window witness violates a version order");
            }
            if let Some(&first) = live.first() {
                for r in boundary {
                    if self.slots[r as usize].is_some() {
                        let ok = self.add_edge(r, first);
                        debug_assert!(ok, "window witness violates a boundary read");
                    }
                }
            }
            for (i, &w) in live.iter().enumerate() {
                let readers = self.tx(w).readers.clone();
                for (o, r) in readers {
                    if o != object || self.slots[r as usize].is_none() {
                        continue;
                    }
                    let ok = self.add_edge(w, r);
                    debug_assert!(ok, "window witness violates an observation");
                    if let Some(&next) = live.get(i + 1) {
                        let ok = self.add_edge(r, next);
                        debug_assert!(ok, "window witness violates an anti-dependency");
                    }
                }
            }
        }
    }

    // ---- certification frontier --------------------------------------------

    /// Advances the certification frontier: the caller promises that every
    /// transaction ingested from now on was invoked at or after `watermark`
    /// (and commits in RESP order, as always).  Prefixes of the live window
    /// that the future can no longer reach are certified and retired.
    pub fn advance_watermark(&mut self, watermark: u64) {
        if watermark <= self.watermark {
            return;
        }
        self.watermark = watermark;
        if self.fatal.is_some() || self.undecided.is_some() {
            return;
        }
        // Cheap necessary condition: a retire pass only ever closes
        // transactions that responded before the watermark, and `by_resp`
        // is commit-ordered with its head live (retirement compacts it) —
        // if even the oldest live commit is still inside the window, the
        // full pass cannot free anything.
        if let Some(&first) = self.by_resp.first() {
            if self.tx(first).resp() >= watermark {
                return;
            }
        }
        self.retire_pass();
        self.peak_live = self.peak_live.max(self.live_window());
    }

    /// Appends the overlap components of `writes` (time-overlapping runs,
    /// the unit of version-order ambiguity — matches the window solver's
    /// grouping)
    /// to `sc.comps` as ranges of `sc.comp_slots`.
    ///
    /// With `closed_prefix`, stops after the first component that contains
    /// a still-open member: every later component starts past that member's
    /// response time, so none of its members can be closed (let alone
    /// retiring) this pass, and the retire rules on them are no-ops.
    fn components(
        &self,
        sc: &mut RetireScratch,
        object: ObjectId,
        writes: impl Iterator<Item = u32>,
        closed_prefix: bool,
    ) {
        sc.sorted.clear();
        let key = |(w, i)| (self.tx(w).inv(), self.tx(w).rec.tx_id.0, i, w);
        sc.sorted.extend(writes.zip(0u32..).map(key));
        sc.sorted.sort_unstable();
        let mut start = sc.comp_slots.len();
        let mut max_resp = 0u64;
        let mut open = false;
        for &(inv, _, _, w) in &sc.sorted {
            if sc.comp_slots.len() > start && inv > max_resp {
                sc.comps.push((object, start, sc.comp_slots.len()));
                start = sc.comp_slots.len();
                if open {
                    return;
                }
            }
            max_resp = max_resp.max(self.tx(w).resp());
            open |= closed_prefix && self.tx(w).resp() >= self.watermark;
            sc.comp_slots.push(w);
        }
        if sc.comp_slots.len() > start {
            sc.comps.push((object, start, sc.comp_slots.len()));
        }
    }

    /// Retires every certifiable prefix of the live window: transactions
    /// that responded before the watermark, whose predecessors, readers and
    /// whole overlap components retire with them, and whose observations
    /// are all resolved.  Retired transactions are appended to the witness
    /// (through the replay queue); multi-write overlap components retire
    /// into sealed segments that stay revisable until a later version of
    /// the object closes.
    fn retire_pass(&mut self) {
        if self.fatal.is_some() || self.undecided.is_some() {
            return;
        }
        let mut sc = std::mem::take(&mut self.retire);
        self.retire_with(&mut sc);
        self.retire = sc;
    }

    fn retire_with(&mut self, sc: &mut RetireScratch) {
        // `by_resp` holds exactly the live slots (compacted on every
        // retirement) in nondecreasing response order, so candidates —
        // which must have responded before the watermark — form a prefix.
        let close_end = if self.finishing {
            self.by_resp.len()
        } else {
            self.by_resp.partition_point(|&u| self.tx(u).resp() < self.watermark)
        };
        let n = self.slots.len();
        sc.retiring.clear();
        sc.retiring.resize(n, false);
        // Objects a candidate writes or boundary-reads, ascending: the only
        // ones whose state this pass can change.
        sc.touched.clear();
        for &slot in &self.by_resp[..close_end] {
            let t = self.tx(slot);
            // Unresolved observations pin the reader and every write of
            // the objects involved: an in-flight write may still land
            // anywhere in those orders.
            let read_pinned =
                |o| self.objects.get(&o).is_some_and(|s: &ObjectState| s.pending_reads > 0);
            let is_write = t.rec.kind() == TxKind::Write;
            if t.pending_obs > 0 || (is_write && t.rec.spec.objects_iter().any(read_pinned)) {
                continue;
            }
            sc.retiring[slot as usize] = true;
            if is_write {
                sc.touched.extend(t.rec.spec.objects_iter());
            } else {
                let boundary = t.obs.iter().filter(|o| o.target == ObsTarget::Boundary);
                sc.touched.extend(boundary.map(|o| o.object));
            }
        }
        sc.touched.sort_unstable();
        sc.touched.dedup();
        // Overlap components, computed once per pass: the candidate orders
        // do not change until the drain below, and the retiring set only
        // shrinks — objects with no retiring member never need their rules
        // applied.
        sc.comps.clear();
        sc.comp_slots.clear();
        for i in 0..sc.touched.len() {
            let object = sc.touched[i];
            let Some(state) = self.objects.get(&object) else { continue };
            if state.live.iter().any(|&w| sc.retiring[w as usize]) {
                self.components(sc, object, state.live.iter().copied(), !self.finishing);
            }
        }
        loop {
            let mut changed = false;
            for &slot in &self.by_resp[..close_end] {
                if !sc.retiring[slot as usize] {
                    continue;
                }
                let t = self.tx(slot);
                let stays = |s: u32| self.slots[s as usize].is_some() && !sc.retiring[s as usize];
                if t.preds.iter().any(|&p| stays(p)) || t.readers.iter().any(|&(_, r)| stays(r)) {
                    sc.retiring[slot as usize] = false;
                    changed = true;
                }
            }
            let mut c = 0;
            while c < sc.comps.len() {
                let object = sc.comps[c].0;
                // Retiring versions must be a candidate-order prefix...
                let live = &self.objects[&object].live;
                let cut = live.iter().position(|&w| !sc.retiring[w as usize]).unwrap_or(live.len());
                for &w in &live[cut..] {
                    changed |= std::mem::replace(&mut sc.retiring[w as usize], false);
                }
                // ...and overlap components retire whole or not at all.
                while c < sc.comps.len() && sc.comps[c].0 == object {
                    let comp = &sc.comp_slots[sc.comps[c].1..sc.comps[c].2];
                    if comp.iter().any(|&w| !sc.retiring[w as usize]) {
                        for &w in comp {
                            changed |= std::mem::replace(&mut sc.retiring[w as usize], false);
                        }
                    }
                    c += 1;
                }
            }
            if !changed {
                break;
            }
        }
        // Emission order: by `ord`.
        sc.emission.clear();
        let retiring = self.by_resp.iter().filter(|&&s| sc.retiring[s as usize]);
        sc.emission.extend(retiring.map(|&s| (self.tx(s).ord, s)));
        if sc.emission.is_empty() {
            return;
        }
        sc.emission.sort_unstable();
        debug_assert!(
            sc.emission.windows(2).all(|e| e[0].0 < e[1].0),
            "two retiring transactions share an `ord` label"
        );
        sc.pos_of.resize(n, 0);
        for (p, &(_, s)) in sc.emission.iter().enumerate() {
            sc.pos_of[s as usize] = p;
        }
        // Plan sealed segments: every fully-retiring multi-write overlap
        // component spans an interval of the emission (its members plus
        // their observers); overlapping intervals merge into one seal.
        sc.intervals.clear();
        for &(object, from, to) in &sc.comps {
            let comp = &sc.comp_slots[from..to];
            if comp.len() < 2 || comp.iter().any(|&w| !sc.retiring[w as usize]) {
                continue;
            }
            let (mut lo, mut hi) = (usize::MAX, 0usize);
            for &w in comp {
                let live_readers = self.tx(w).readers.iter().filter_map(|&(o, r)| {
                    (o == object && self.slots[r as usize].is_some()).then_some(r)
                });
                for s in live_readers.chain([w]) {
                    lo = lo.min(sc.pos_of[s as usize]);
                    hi = hi.max(sc.pos_of[s as usize]);
                }
            }
            sc.intervals.push((lo, hi, object));
        }
        sc.intervals.sort_unstable_by_key(|&(lo, _, _)| lo);
        // Materialise the seals up front so per-object state can reference
        // them; records are routed in below.
        let first_seal = self.seals.len();
        let mut merged_hi = 0usize;
        sc.seal_of_pos.clear();
        sc.seal_of_pos.resize(sc.emission.len(), usize::MAX);
        for &(lo, hi, object) in &sc.intervals {
            if self.seals.len() > first_seal && lo <= merged_hi {
                merged_hi = merged_hi.max(hi);
                let open = &mut self.seals.last_mut().expect("a seal of this pass").open_objects;
                if !open.contains(&object) {
                    open.push(object);
                }
            } else {
                merged_hi = hi;
                let mut seal = self.spare_seals.pop().unwrap_or_default();
                seal.open_objects.push(object);
                self.seals.push(seal);
            }
            sc.seal_of_pos[lo..=hi].fill(self.seals.len() - 1);
        }
        // Per-object state updates: walk each object's retiring prefix in
        // candidate order; each new unit expires the previous latest
        // version (and the previous seal's claim on the object).
        for i in 0..sc.touched.len() {
            let object = sc.touched[i];
            let Some(state) = self.objects.get_mut(&object) else { continue };
            state.boundary_readers.retain(|&r| !sc.retiring[r as usize]);
            let cut = state
                .live
                .iter()
                .position(|&w| !sc.retiring[w as usize])
                .unwrap_or(state.live.len());
            sc.comps.clear();
            sc.comp_slots.clear();
            let prefix = self.objects[&object].live[..cut].iter().copied();
            self.components(sc, object, prefix, false);
            self.objects.get_mut(&object).expect("touched object exists").live.drain(..cut);
            for c in 0..sc.comps.len() {
                let comp = &sc.comp_slots[sc.comps[c].1..sc.comps[c].2];
                self.expire_object(object);
                let state = self.objects.get_mut(&object).expect("touched object exists");
                state.retired_versions += comp.len() as u64;
                if let [w] = *comp {
                    let key = self.written_key(w);
                    let state = self.objects.get_mut(&object).expect("touched object exists");
                    state.latest_retired = key;
                    if let Some(key) = key {
                        self.keys.insert((object, key), KeyState::RetiredLatest);
                    }
                } else {
                    let seal = sc.seal_of_pos[sc.pos_of[comp[0] as usize]];
                    state.latest_retired = None;
                    state.open_seal = Some(seal);
                    // An earlier component of this pass may have expired
                    // the object in this very seal; this one is still
                    // revisable.
                    let open = &mut self.seals[seal].open_objects;
                    if !open.contains(&object) {
                        open.push(object);
                    }
                    for &w in comp {
                        let Some(key) = self.written_key(w) else { continue };
                        self.keys.insert((object, key), KeyState::Sealed { seal });
                        self.seals[seal].members.push((object, key));
                    }
                }
            }
        }
        // Retirement lag: the oldest emitted response waited this long (in
        // response-time units) for the watermark that finally retired it.
        // The watermark is clamped to the last real response: the final
        // drain advances it to u64::MAX, which says nothing about how far
        // certification actually trailed the commit stream.
        let oldest_resp =
            sc.emission.iter().map(|e| self.tx(e.1).resp()).min().expect("emission is non-empty");
        let retire_mark = self.watermark.min(self.last_resp);
        let lag = retire_mark.saturating_sub(oldest_resp);
        self.max_retirement_lag = self.max_retirement_lag.max(lag);
        // Emit: free the slots, route records into seals / the replay queue.
        for (p, &(_, slot)) in sc.emission.iter().enumerate() {
            let t = self.slots[slot as usize].take().expect("retiring slot is live");
            self.live_count -= 1;
            self.free.push(slot);
            self.tail_records += 1;
            let LiveTx { rec, mut out, mut preds, mut obs, mut readers, .. } = t;
            // The slot is about to be reused: no successor that stays may
            // keep its id among its predecessors.
            for &w in &out {
                if let Some(succ) = self.slots[w as usize].as_mut() {
                    succ.preds.retain(|&u| u != slot);
                }
            }
            out.clear();
            preds.clear();
            obs.clear();
            readers.clear();
            self.spare.push((out, preds, obs, readers));
            match sc.seal_of_pos[p] {
                usize::MAX => self.replay_tail.push_back(ReplayEntry::Tx(rec)),
                sid => {
                    if self.seals[sid].recs.is_empty() {
                        self.replay_tail.push_back(ReplayEntry::Seal(sid));
                    }
                    self.seals[sid].recs.push(rec);
                }
            }
        }
        self.seals[first_seal..].iter_mut().for_each(Seal::summarize);
        self.by_resp.retain(|&s| self.slots[s as usize].is_some());
        self.rebuild_pref_top();
        if self.obs.is_some() {
            use snow_obs::TraceSink;
            let event = snow_obs::ObsEvent::CheckerRetired {
                at: retire_mark,
                certified: self.certified() as u64,
                live_window: self.live_window() as u32,
                frontier: self.by_resp.len() as u32,
                edges_added: self.edges_added,
                window_resolves: self.window_resolves,
                retirement_lag: lag,
            };
            if let Some(sink) = self.obs.as_mut() {
                sink.emit(event);
            }
        }
        self.drain_replay();
    }

    /// A later version of `object` has closed: the object's previous
    /// latest version is no longer observable (future reads of it are
    /// stale) and the previous seal — if any — loses its last flip
    /// freedom on this object.
    fn expire_object(&mut self, object: ObjectId) {
        let state = self.objects.entry(object).or_default();
        if let Some(prev) = state.latest_retired.take() {
            self.keys.remove(&(object, prev));
        }
        if let Some(seal) = state.open_seal.take() {
            let s = &mut self.seals[seal];
            s.open_objects.retain(|&o| o != object);
            for &(o, key) in &s.members {
                if o == object {
                    self.keys.remove(&(object, key));
                }
            }
        }
    }

    /// Replays the certified queue head into the witness: plain
    /// transactions immediately, sealed segments once every flip freedom
    /// has expired.
    fn drain_replay(&mut self) {
        while let Some(front) = self.replay_tail.front() {
            match front {
                ReplayEntry::Tx(_) => {
                    let Some(ReplayEntry::Tx(rec)) = self.replay_tail.pop_front() else {
                        unreachable!()
                    };
                    self.tail_records -= 1;
                    self.replay_one(&rec);
                    if self.fatal.is_some() {
                        return;
                    }
                }
                ReplayEntry::Seal(sid) => {
                    let sid = *sid;
                    if !self.seals[sid].open_objects.is_empty() {
                        return;
                    }
                    self.replay_tail.pop_front();
                    // The emptied vectors go to the next seal created —
                    // except `members`: an object with two components in
                    // this seal still names it as its `open_seal`, and
                    // expires those keys through it later.
                    let mut seal = std::mem::take(&mut self.seals[sid]);
                    self.seals[sid].members = std::mem::take(&mut seal.members);
                    for rec in seal.recs.drain(..) {
                        self.tail_records -= 1;
                        self.replay_one(&rec);
                        if self.fatal.is_some() {
                            return;
                        }
                    }
                    seal.ghosts.clear();
                    self.spare_seals.push(seal);
                }
            }
        }
    }

    /// Appends one certified transaction to the witness, validating it
    /// against the sequential object-type semantics.
    fn replay_one(&mut self, rec: &TxRecord) {
        if let Err(object) = self.replay.apply(rec) {
            debug_assert!(false, "streaming witness replay failed on {object} at {}", rec.tx_id);
            self.convict(
                self.ingested.saturating_sub(1),
                Verdict::NotSerializable(format!(
                    "internal witness replay failed on object {object} at {}",
                    rec.tx_id
                )),
            );
            return;
        }
        self.witness.push(rec.tx_id);
    }

    // ---- sealed-segment flips ----------------------------------------------

    /// A live read observed a sealed version.  The segment's internal
    /// order is still revisable: record the observation as a ghost read and
    /// re-linearise the segment under all accumulated ghosts with the
    /// window solver.  Returns `false` when the read
    /// convicts the history (the verdict is already recorded).
    fn flip_seal(
        &mut self,
        slot: u32,
        index: usize,
        object: ObjectId,
        key: Key,
        seal: usize,
    ) -> bool {
        self.sealed_observations += 1;
        let tx_id = self.tx(slot).rec.tx_id;
        let inv = self.tx(slot).inv();
        // A newer live version completed before this read was invoked: the
        // sealed observation is stale no matter how the segment flips.
        if self.live_write_precedes(object, inv) {
            self.convict(
                index,
                Verdict::NotSerializable(format!(
                    "READ {tx_id} (commit #{index}) returned sealed version {key} for \
                     {object} although a newer write completed before it was invoked"
                )),
            );
            return false;
        }
        // Ghost read: this reader's observation of `object`, projected out
        // of its full record so the segment solver sees exactly the
        // constraints a whole-history precedence graph would.
        let t = self.tx(slot);
        let read = match t.rec.outcome.as_ref() {
            Some(TxOutcome::Read(r)) => r.reads.iter().find(|or| or.object == object),
            _ => None,
        };
        let Some(&observed) = read else { return true };
        let read = snow_core::ObjectRead { key, ..observed };
        let ghost = Ghost { tx_id, client: t.rec.client, read, inv, resp: t.rec.responded_at };
        let s = &mut self.seals[seal];
        s.ghosts.push(ghost);
        // Fast path: the observed version is already the last of its
        // object in the segment and every sibling version responded before
        // this read was invoked — the current order satisfies the new
        // constraint as-is.
        let consistent = s.satisfies(object, key, inv);
        debug_assert_eq!(consistent, s.scan_satisfies(object, key, inv), "stale seal summary");
        if consistent {
            return true;
        }
        self.relinearize_seal(seal, index, tx_id)
    }

    /// Re-solves a sealed segment under its accumulated ghost reads and
    /// adopts the new internal order.  Returns `false` on conviction.
    fn relinearize_seal(&mut self, seal: usize, index: usize, at_tx: snow_core::TxId) -> bool {
        self.seal_relinearizations += 1;
        let ghosts: Vec<TxRecord> = self.seals[seal].ghosts.iter().map(Ghost::record).collect();
        let solved = {
            let s = &self.seals[seal];
            let mut txs: Vec<&TxRecord> = Vec::new();
            let mut writes_of: BTreeMap<ObjectId, Vec<usize>> = BTreeMap::new();
            let mut installs: FxHashMap<(ObjectId, Key), usize> = FxHashMap::default();
            for (n, rec) in s.recs.iter().enumerate() {
                txs.push(rec);
                if let Some(TxOutcome::Write(wo)) = rec.outcome.as_ref() {
                    for o in rec.spec.objects_iter() {
                        writes_of.entry(o).or_default().push(n);
                        installs.insert((o, wo.key), n);
                    }
                }
            }
            txs.extend(ghosts.iter());
            let mut obs: Vec<Obs> = Vec::new();
            let mut obs_of: BTreeMap<ObjectId, Vec<usize>> = BTreeMap::new();
            for (n, rec) in txs.iter().enumerate() {
                if let Some(TxOutcome::Read(ro)) = rec.outcome.as_ref() {
                    for or in &ro.reads {
                        // Versions installed outside the segment precede
                        // it wholly: κ₀-like boundary observations.
                        let write = installs.get(&(or.object, or.key)).copied();
                        obs_of.entry(or.object).or_default().push(obs.len());
                        obs.push(Obs { reader: n, object: or.object, write });
                    }
                }
            }
            solve_ctx(&Ctx { txs, writes_of, obs, obs_of }, self.split_budget)
        };
        match solved {
            Ok((witness, _)) => {
                let s = &mut self.seals[seal];
                let n_recs = s.recs.len();
                let old = std::mem::take(&mut s.recs);
                let mut old: Vec<Option<TxRecord>> = old.into_iter().map(Some).collect();
                for &node in &witness {
                    if node < n_recs {
                        s.recs.push(old[node].take().expect("witness node unique"));
                    }
                }
                debug_assert_eq!(s.recs.len(), n_recs);
                s.summarize();
                true
            }
            Err(Verdict::NotSerializable(why)) => {
                self.convict(
                    index,
                    Verdict::NotSerializable(format!(
                        "at {at_tx} (commit #{index}): certified segment admits no \
                         order consistent with the stale read: {why}"
                    )),
                );
                false
            }
            Err(v) => {
                self.sticky_unknown(index, format!("sealed segment re-solve: {v:?}"));
                false
            }
        }
    }

    // ---- finish ------------------------------------------------------------

    /// Includes an incomplete (never-responded) WRITE whose effects were
    /// observed by a committed read.  Call for each incomplete write with
    /// an outcome before [`Self::finish`]; unobserved ones are ignored:
    /// they can always be dropped from a witness without invalidating it
    /// (Definition 7.1's incomplete transactions).
    pub fn ingest_incomplete(&mut self, rec: TxRecord) {
        let Some(TxOutcome::Write(w)) = rec.outcome.as_ref() else { return };
        let key = w.key;
        if self.fatal.is_some() {
            // Whether a READ observed it is no longer tracked; the search
            // fallback may place it or leave it out.
            self.keep_early(&rec);
            return;
        }
        if !rec.spec.objects_iter().any(|o| self.pending.contains_key(&(o, key))) {
            return;
        }
        self.keep_early(&rec);
        self.optional_included += 1;
        let slot = self.alloc(rec, self.ingested);
        let mut clean = self.add_real_time_edges(slot);
        clean &= self.ingest_write(slot);
        if self.fatal.is_none() && !clean && self.undecided.is_none() {
            self.resolve_window(slot);
        }
        self.peak_live = self.peak_live.max(self.live_window());
    }

    /// Finalises the stream: convicts unresolved observations, retires the
    /// remaining window and returns the overall verdict with a full
    /// replay-validated witness on success.  Feed incomplete observed
    /// writes via [`Self::ingest_incomplete`] first.
    pub fn finish(&mut self) -> Verdict {
        if self.fatal.is_none() {
            // A read returned a version no write installs: a conviction,
            // attributed to the earliest reader.
            let mut worst: Option<(usize, snow_core::TxId, ObjectId, Key)> = None;
            for (&(object, key), readers) in &self.pending {
                for &r in readers {
                    let Some(t) = self.slots[r as usize].as_ref() else { continue };
                    if worst.map(|(i, ..)| t.index < i).unwrap_or(true) {
                        worst = Some((t.index, t.rec.tx_id, object, key));
                    }
                }
            }
            if let Some((index, tx, object, key)) = worst {
                self.convict(
                    index,
                    Verdict::NotSerializable(format!(
                        "READ {tx} returned version {key} for {object} but no write \
                         installs it"
                    )),
                );
            }
        }
        if self.fatal.is_none() {
            if let Some(&last) = self.by_resp.last() {
                if let Some((index, unknown)) = self.undecided.take() {
                    // One re-solve over every commit collected since the
                    // window ran out of budget; if it runs out again, the
                    // `Unknown` stays where it first arose.
                    self.finishing = true;
                    self.resolve_window(last);
                    if matches!(self.fatal, Some(Verdict::Unknown(_))) {
                        self.fatal = Some(unknown);
                        self.offending = Some(index);
                    }
                }
            }
            self.give_up();
        }
        match &self.fatal {
            Some(v) if v.is_violation() => return v.clone(),
            Some(v) => {
                // An undecided small history goes to the exhaustive
                // search, provided `early` kept every record fed.
                let search = SearchChecker::default();
                if !self.early_lost && self.early.len() <= search.max_transactions {
                    let mut h = History::new();
                    for rec in &self.early {
                        h.push(rec.clone());
                    }
                    return search.check(&h);
                }
                return v.clone();
            }
            None => {}
        }
        self.finishing = true;
        self.retire_pass();
        for s in &mut self.seals {
            s.open_objects.clear();
        }
        self.drain_replay();
        if let Some(v) = &self.fatal {
            return v.clone();
        }
        debug_assert_eq!(self.live_count, 0, "finish must certify the whole window");
        Verdict::Serializable(self.witness.clone())
    }

    // ---- whole-history conveniences ----------------------------------------

    /// Feeds a complete history in commit order, advancing the watermark
    /// after each commit as tightly as hindsight allows: to the earliest
    /// invocation among the commits still to come and the incomplete
    /// WRITEs a completed READ observed.  Incomplete writes are fed at the
    /// end; an unobserved one is dropped there and holds nothing back.
    /// [`crate::TagOrderStream::feed_history`] feeds by the same rule.
    pub fn feed_history(&mut self, history: &History) {
        for (rec, watermark) in hindsight_commits(history) {
            self.ingest(rec.clone());
            self.advance_watermark(watermark);
        }
        for rec in &history.records {
            if !rec.is_complete() {
                self.ingest_incomplete(rec.clone());
            }
        }
    }

    /// One-shot: checks a complete history through the streaming engine.
    /// Equivalent in verdict to feeding the commit stream live.
    pub fn check(history: &History) -> Verdict {
        let mut checker = StreamChecker::new();
        checker.feed_history(history);
        checker.finish()
    }
}

/// `history`'s completed records in commit (RESP) order, each with the
/// hindsight watermark to advance to once it is ingested: the earliest
/// invocation among the commits still to come and the incomplete WRITEs a
/// completed READ observed.  Those writes are fed after every commit, so a
/// watermark past one's invocation could retire a commit it must precede.
/// The one watermark rule of both `feed_history`s.
pub(crate) fn hindsight_commits(history: &History) -> Vec<(&TxRecord, u64)> {
    let mut commits: Vec<(&TxRecord, u64)> = history.completed().map(|r| (r, 0)).collect();
    // The keys are unique (one record per id), so the unstable sort's
    // order is the stable one's.
    commits.sort_unstable_by_key(|(r, _)| (r.responded_at, r.tx_id));
    let mut watermark = observed_incomplete_floor(history);
    for (rec, w) in commits.iter_mut().rev() {
        *w = watermark;
        watermark = watermark.min(rec.invoked_at);
    }
    commits
}

/// The earliest invocation among `history`'s incomplete WRITEs that a
/// completed READ observed, `u64::MAX` for none.  Most histories hold no
/// incomplete WRITE, and then the READs' keys are not collected.
fn observed_incomplete_floor(history: &History) -> u64 {
    let incomplete_writes = || {
        history.records.iter().filter(|r| !r.is_complete()).filter_map(|r| match &r.outcome {
            Some(TxOutcome::Write(w)) => Some((r, w.key)),
            _ => None,
        })
    };
    if incomplete_writes().next().is_none() {
        return u64::MAX;
    }
    let observed: FxHashSet<(ObjectId, Key)> = history
        .completed()
        .filter_map(|r| match &r.outcome {
            Some(TxOutcome::Read(o)) => Some(o.reads.iter().map(|x| (x.object, x.key))),
            _ => None,
        })
        .flatten()
        .collect();
    incomplete_writes()
        .filter(|(r, key)| r.spec.objects_iter().any(|o| observed.contains(&(o, *key))))
        .map(|(r, _)| r.invoked_at)
        .min()
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use snow_core::hash::SplitMix;
    use snow_core::{ClientId, ObjectRead, ReadOutcome, Tag, TxId, TxSpec, Value, WriteOutcome};

    /// A checker holding `n` fresh nodes, slots `0..n` in label order.
    fn nodes(n: u32) -> StreamChecker {
        let mut checker = StreamChecker::new();
        for i in 0..n {
            let spec = TxSpec::read(vec![ObjectId(0)]);
            let rec = TxRecord::invoked(TxId(i as u64), ClientId(0), spec, 0);
            assert_eq!(checker.alloc(rec, i as usize), i);
        }
        checker
    }

    /// An untagged WRITE of `objects` by client `writer`, installing
    /// `Key::new(seq, writer)`.
    pub(crate) fn write(
        id: u64,
        objects: &[u32],
        (seq, writer): (u64, u32),
        inv: u64,
        resp: u64,
    ) -> TxRecord {
        let spec = TxSpec::write(objects.iter().map(|&o| (ObjectId(o), Value(id))).collect());
        let mut rec = TxRecord::invoked(TxId(id), ClientId(writer), spec, inv);
        rec.responded_at = Some(resp);
        let key = Key::new(seq, ClientId(writer));
        rec.outcome = Some(TxOutcome::Write(WriteOutcome { key, tag: None }));
        rec
    }

    /// `rec`, a WRITE, carrying `tag`.
    pub(crate) fn tagged(mut rec: TxRecord, tag: u64) -> TxRecord {
        if let Some(TxOutcome::Write(w)) = rec.outcome.as_mut() {
            w.tag = Some(Tag(tag));
        }
        rec
    }

    /// A READ returning the listed key for each listed object.
    pub(crate) fn read(id: u64, observed: &[(u32, Key)], inv: u64, resp: u64) -> TxRecord {
        let spec = TxSpec::read(observed.iter().map(|&(o, _)| ObjectId(o)).collect());
        let mut rec = TxRecord::invoked(TxId(id), ClientId(99), spec, inv);
        rec.responded_at = Some(resp);
        let reads = observed.iter().map(|&(o, key)| ObjectRead {
            object: ObjectId(o),
            key,
            value: Value(0),
        });
        rec.outcome = Some(TxOutcome::Read(ReadOutcome { reads: reads.collect(), tag: None }));
        rec
    }

    pub(crate) fn k(seq: u64, writer: u32) -> Key {
        Key::new(seq, ClientId(writer))
    }

    /// The witness in `verdict`, after replaying it against the sequential
    /// semantics and requiring every completed transaction of `h` in it.
    pub(crate) fn assert_valid_witness<'a>(h: &History, verdict: &'a Verdict) -> &'a [TxId] {
        let Verdict::Serializable(order) = verdict else {
            panic!("expected a witness, got {verdict:?}");
        };
        let mut ot = SequentialOt::new();
        for tx in order {
            ot.apply(h.get(*tx).expect("witness transaction")).expect("witness replays");
        }
        for rec in h.completed() {
            assert!(order.contains(&rec.tx_id), "{} missing from witness", rec.tx_id);
        }
        order
    }

    /// `StreamChecker::check` certifies `records` with a witness that
    /// places all of them and replays.
    fn assert_certified(records: Vec<TxRecord>) {
        let mut h = History::new();
        let n = records.len();
        records.into_iter().for_each(|r| h.push(r));
        let verdict = StreamChecker::check(&h);
        assert_eq!(assert_valid_witness(&h, &verdict).len(), n);
    }

    /// A WRITE that never responded, invoked at 48 and observed by a READ:
    /// a serialization places it before `w3`, which completed at 53.  It
    /// is fed after every commit, so a hindsight watermark over the
    /// commits alone (75 once `w3` is in) retired `w3` first and then
    /// convicted a serializable history.  The watermark now stays at the
    /// incomplete write's invocation.
    #[test]
    fn feed_history_keeps_the_watermark_below_an_observed_incomplete_write() {
        let mut pending = write(1, &[0, 1], (1, 100), 48, 0);
        pending.responded_at = None;
        assert_certified(vec![
            pending,
            write(2, &[0], (2, 100), 75, 83),
            write(3, &[1], (3, 100), 34, 53),
            read(4, &[(0, k(1, 100)), (1, k(3, 100))], 80, 83),
        ]);
    }

    /// A WRITE that never responded and that no READ observed, invoked
    /// before everything else: it is dropped at the end, so it must not
    /// hold the watermark back, and the window retires as the commits go.
    #[test]
    fn an_unobserved_incomplete_write_does_not_hold_the_window_back() {
        let mut pending = write(1, &[0], (1, 7), 0, 0);
        pending.responded_at = None;
        let mut h = History::new();
        h.push(pending);
        for i in 0..8u64 {
            h.push(write(2 + 2 * i, &[1], (i + 1, 1), 10 + 10 * i, 15 + 10 * i));
            h.push(read(3 + 2 * i, &[(1, k(i + 1, 1))], 16 + 10 * i, 19 + 10 * i));
        }
        let mut checker = StreamChecker::new();
        checker.feed_history(&h);
        assert_eq!(checker.certified(), 16, "every commit retires before finish");
        let verdict = checker.finish();
        assert_eq!(assert_valid_witness(&h, &verdict).len(), 16);
    }

    /// Two histories shrunk from random 200-transaction ones: one retire
    /// pass routes two multi-write components of object 3 (first) and of
    /// object 1 (second, with a single write between them) into the same
    /// seal.  Expiring the earlier component used to drop the object from
    /// the seal's revisable objects while the later component was still
    /// revisable, so the seal was replayed before the last READ pinned
    /// the later component's order, and its witness failed replay (a
    /// conviction in release builds).
    #[test]
    fn a_later_component_in_the_same_seal_keeps_its_object_revisable() {
        assert_certified(vec![
            write(85, &[3], (11, 0), 499, 540),
            write(88, &[2, 3], (12, 2), 519, 555),
            write(92, &[0, 2], (12, 0), 542, 577),
            write(105, &[1, 3], (14, 2), 580, 611),
            write(113, &[0, 2], (15, 0), 695, 737),
            write(120, &[0, 3], (15, 1), 569, 611),
            read(138, &[(0, k(15, 0)), (3, k(15, 1))], 741, 749),
        ]);
        assert_certified(vec![
            write(43, &[0, 1], (8, 3), 254, 265),
            write(44, &[0], (6, 0), 265, 290),
            write(60, &[1], (7, 0), 298, 301),
            write(64, &[0, 1], (6, 2), 270, 278),
            write(66, &[0, 1], (7, 2), 281, 293),
            read(69, &[(0, k(8, 4)), (1, k(9, 1))], 322, 325),
            write(82, &[0], (8, 4), 315, 316),
            write(88, &[0, 1], (8, 1), 221, 260),
            write(90, &[1], (9, 1), 293, 307),
        ]);
    }

    /// Shrunk from a random 200-transaction history: nine untagged writes
    /// and a READ whose window re-solve exhausts the default splitting
    /// budget before the last commit, and again at `finish`.  The stream
    /// keeps a copy of every record, the last one included, so `finish`
    /// settles the history with the complete search.
    #[test]
    fn finish_searches_a_small_history_that_went_undecided_mid_stream() {
        let records = vec![
            write(12, &[0, 1], (3, 3), 141, 167),
            write(14, &[2], (4, 3), 169, 215),
            write(15, &[0, 2], (5, 0), 128, 158),
            write(29, &[0, 1], (4, 4), 110, 145),
            write(30, &[0, 2], (4, 1), 128, 145),
            write(31, &[1, 2], (5, 4), 161, 197),
            write(32, &[1, 2], (5, 1), 164, 177),
            read(40, &[(0, k(4, 2)), (1, k(4, 4))], 125, 162),
            write(72, &[0], (4, 2), 99, 141),
            write(184, &[1], (22, 3), 972, 992),
        ];
        let mut h = History::new();
        records.iter().cloned().for_each(|r| h.push(r));
        let mut checker = StreamChecker::new();
        checker.feed_history(&h);
        assert!(matches!(checker.violation(), Some(Verdict::Unknown(_))));
        assert_eq!(assert_valid_witness(&h, &checker.finish()).len(), records.len());
        // The re-solve at `finish` ran out too: the search decided.
        assert!(matches!(checker.violation(), Some(Verdict::Unknown(_))));
    }

    /// With no splitting budget the window re-solve gives up before the
    /// observed incomplete write `c` is fed.  The search fallback must
    /// still see `c`, or the READ of its version reads as a read of a
    /// version nobody wrote, and a serializable history is convicted.
    #[test]
    fn the_search_fallback_sees_incomplete_writes_fed_after_the_verdict() {
        let mut c = write(5, &[1], (1, 3), 50, 0);
        c.responded_at = None;
        let mut h = History::new();
        h.push(write(1, &[0], (1, 1), 0, 100));
        h.push(write(2, &[0], (1, 2), 5, 100));
        h.push(read(3, &[(0, k(1, 2))], 10, 20));
        h.push(read(4, &[(0, k(1, 1))], 30, 40));
        h.push(c);
        h.push(read(6, &[(1, k(1, 3))], 60, 70));
        let mut checker = StreamChecker::with_split_budget(0);
        checker.feed_history(&h);
        assert!(matches!(checker.violation(), Some(Verdict::Unknown(_))));
        let verdict = checker.finish();
        assert!(verdict.is_serializable(), "{verdict:?}");
    }

    /// Pearce–Kelly and the gap placement against a from-scratch
    /// reachability check: 256 random edge sequences over at most 40 nodes,
    /// cycle-closing edges included.
    #[test]
    fn add_edge_agrees_with_reachability_and_keeps_a_topological_order() {
        let (mut rng, mut reorders, mut refused, mut placed) = (SplitMix::new(1), 0, 0, 0);
        for case in 0..256u32 {
            let n = 2 + rng.below(39) as u32;
            let mut checker = nodes(n);
            // Every case crosses the visit-stamp wrap-around within its
            // first few reorders.
            checker.pk.epoch = u32::MAX - 2 - 2 * (case % 3);
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for _ in 0..3 * n {
                let a = rng.below(n as u64) as u32;
                let b = rng.below(n as u64) as u32;
                // `a` reachable from `b` over the accepted edges?
                let mut seen = vec![false; n as usize];
                let mut stack = vec![b];
                while let Some(v) = stack.pop() {
                    if !std::mem::replace(&mut seen[v as usize], true) {
                        stack.extend(edges.iter().filter(|e| e.0 == v).map(|e| e.1));
                    }
                }
                let violates = a != b && checker.tx(a).ord > checker.tx(b).ord;
                let before = checker.pk_reorders;
                let accepted = checker.add_edge(a, b);
                assert_eq!(accepted, !seen[a as usize], "case {case}: edge {a} -> {b}");
                if accepted {
                    edges.push((a, b));
                    // An order-violating edge taken without a reorder was
                    // placed in a gap.
                    placed += u32::from(violates && checker.pk_reorders == before);
                } else {
                    refused += 1;
                }
                for &(u, v) in &edges {
                    assert!(checker.tx(u).ord < checker.tx(v).ord, "case {case}: {u} -> {v}");
                }
                let mut ords: Vec<Label> = (0..n).map(|s| checker.tx(s).ord).collect();
                ords.sort_unstable();
                assert!(ords.windows(2).all(|w| w[0] != w[1]), "case {case}: duplicate ord");
            }
            assert_eq!(checker.edges_added, edges.len() as u64);
            assert!(checker.pk.epoch < u32::MAX / 2 || checker.pk_reorders < 3);
            reorders += checker.pk_reorders;
        }
        assert!(
            reorders > 1_000 && refused > 1_000 && placed > 1_000,
            "{reorders} reorders, {refused} refused, {placed} placed in a gap"
        );

        // A fresh sink whose predecessor is reachable from `b`: the edge
        // closes a cycle, finds no gap (the predecessor sits above `b`),
        // and goes to the reorder, which refuses it.
        let (b, p, a) = (0, 1, 2);
        let mut checker = nodes(3);
        assert!(checker.add_edge(b, p) && checker.add_edge(p, a));
        assert!(checker.tx(a).out.is_empty());
        let epoch = checker.pk.epoch;
        assert!(!checker.add_edge(a, b), "a -> b closes b -> p -> a");
        assert_ne!(checker.pk.epoch, epoch, "the cycle went through the reorder");
        assert_eq!((checker.edges_added, checker.pk_reorders), (2, 0));
        assert!(checker.tx(a).out.is_empty() && checker.tx(b).preds.is_empty());
    }
}
