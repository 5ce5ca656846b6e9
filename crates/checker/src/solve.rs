//! The precedence-graph solver behind [`crate::stream::StreamChecker`]'s
//! window re-solves and sealed-segment re-linearisations.
//!
//! [`solve_ctx`] decides strict serializability of the transactions of one
//! [`Ctx`] — the stream's live window, or a sealed segment plus the reads
//! that observed it — in three stages:
//!
//! 1. **Version orders.**  For every object, the order in which its WRITE
//!    transactions installed versions is extracted — from tags when every
//!    write on the object carries one (Algorithms A/B/C expose their `List`
//!    position), and otherwise from real time plus two *forced* inferences
//!    over read observations: if a read `r` returns write `w`'s version and
//!    another write `w'` on the same object completed before `r` was
//!    invoked, then `w' ≺ w` in any valid version order; symmetrically, if
//!    `r` completed before `w'` was invoked, then `w ≺ w'`.  (Both are
//!    necessary conditions: the opposite orientation always closes a
//!    write→read→write precedence cycle.)
//! 2. **Precedence DAG.**  One node per transaction plus an `O(n)` chain of
//!    time nodes encoding the real-time order `RESP(a) < INV(b)` without
//!    materialising the quadratic edge set; write→read edges for each
//!    observation, write→write edges between *consecutive* versions, and
//!    anti-dependency (read→write) edges from each read to the observed
//!    version's immediate successor.  Cycle detection is an iterative
//!    Kahn pass (`O(V + E)` plus a deterministic priority queue); on the
//!    acyclic path the topological order restricted to transactions is the
//!    serialization witness.
//! 3. **Constraint splitting.**  When concurrent writes leave a version
//!    order genuinely ambiguous and the first candidate is cyclic, the
//!    solver branches on the orientation of one ambiguous pair touching a
//!    strongly connected component (found with an iterative Tarjan pass)
//!    and recurses, polygraph-style, under the caller's budget.  Only when
//!    the budget is exhausted does it return [`Verdict::Unknown`].

use crate::strict::Verdict;
use snow_core::{ObjectId, Tag, TxId, TxRecord};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

/// The most writes on one object whose version order is analysed pairwise:
/// a larger overlap group, or a larger cyclic candidate, is
/// [`Verdict::Unknown`] instead of quadratic work.  At most 64: the pairwise
/// analysis is bitmask-based.
const MAX_AMBIGUOUS_GROUP: usize = 24;

/// One read observation: completed read `reader` returned `write`'s version
/// (`None` = the initial version `κ₀`, or a version installed outside the
/// context) for `object`.
pub(crate) struct Obs {
    pub(crate) reader: usize,
    pub(crate) object: ObjectId,
    pub(crate) write: Option<usize>,
}

/// The per-object version-order state.
pub(crate) struct ObjectOrder {
    /// Candidate total order (node ids of the object's included writes).
    pub(crate) candidate: Vec<usize>,
    /// Pairwise analysis, computed eagerly for ambiguous untagged objects
    /// and on demand (only for objects whose writes are caught in a cycle)
    /// for tagged ones.
    analysis: Option<Analysis>,
}

/// Pairwise constraint analysis of one object's writes.
struct Analysis {
    /// Necessary orientation constraints `(a, b)` = `a ≺ b` (node ids):
    /// real-time precedence plus the forced read-observation inferences.
    forced: Vec<(usize, usize)>,
    /// Pairs whose orientation is genuinely free.
    free: Vec<(usize, usize)>,
}

/// Everything the graph construction needs about the transactions being
/// solved, their records borrowed from the stream.
pub(crate) struct Ctx<'a> {
    /// Included transactions; index = node id.
    pub(crate) txs: Vec<&'a TxRecord>,
    /// Included writes per object, unordered.
    pub(crate) writes_of: BTreeMap<ObjectId, Vec<usize>>,
    /// All read observations of completed reads.
    pub(crate) obs: Vec<Obs>,
    /// Indices into `obs` per object.
    pub(crate) obs_of: BTreeMap<ObjectId, Vec<usize>>,
}

impl<'a> Ctx<'a> {
    fn inv(&self, node: usize) -> u64 {
        self.txs[node].invoked_at
    }

    /// RESP instant, with incomplete (included optional) writes never
    /// preceding anything.
    fn resp(&self, node: usize) -> u64 {
        self.txs[node].responded_at.unwrap_or(u64::MAX)
    }

    fn tag_of(&self, node: usize) -> Option<Tag> {
        self.txs[node].outcome.as_ref().and_then(|o| o.tag())
    }

    /// Deterministic tie-break key for version-order extension.
    fn tie(&self, node: usize) -> (u64, u64, u64) {
        let tag = self.tag_of(node).map(|t| t.0).unwrap_or(0);
        (tag, self.inv(node), self.txs[node].tx_id.0)
    }
}

/// Outcome of one Kahn pass over the full precedence graph.
enum Pass {
    /// Topological witness (transaction node ids, in order).
    Acyclic(Vec<usize>),
    /// Transaction node ids involved in non-trivial SCCs.
    Cyclic(Vec<usize>),
}

/// Outcome of one constraint-splitting branch.  A witness carries the
/// version orders of the successful branch so the stream can adopt them.
enum Split {
    Witness(Vec<usize>, BTreeMap<ObjectId, ObjectOrder>),
    Fail,
    /// The search had to give up (budget, or an object too large to
    /// analyse pairwise); the string explains why.
    Undecided(String),
}

/// Resolves version orders, runs the Kahn pass and falls back to
/// constraint splitting, exploring at most `split_budget` branch states.
/// On success returns the topological witness (node ids) **and** the
/// per-object version orders of the successful branch.
pub(crate) fn solve_ctx(
    ctx: &Ctx,
    split_budget: usize,
) -> Result<(Vec<usize>, BTreeMap<ObjectId, ObjectOrder>), Verdict> {
    let mut orders = resolve_orders(ctx)?;
    match kahn_pass(ctx, &orders) {
        Pass::Acyclic(witness) => Ok((witness, orders)),
        Pass::Cyclic(scc_nodes) => {
            // The candidate orders are cyclic; only free orientation
            // choices among writes *touching the cycle* can rescue the
            // history, so analysis stays restricted to those objects
            // (split() analyses further objects if later branches drag
            // them into a cycle).  Analysing an object also re-extends
            // its candidate under the necessary constraints — a
            // tag-sorted candidate may contradict real time outright,
            // in which case the corrected extension alone can already
            // break the cycle.
            let mut scc_nodes = scc_nodes;
            loop {
                match ensure_analyzed(ctx, &mut orders, &scc_nodes) {
                    Err(verdict) => return Err(verdict),
                    Ok(false) => break,
                    Ok(true) => match kahn_pass(ctx, &orders) {
                        Pass::Acyclic(witness) => return Ok((witness, orders)),
                        Pass::Cyclic(scc) => scc_nodes = scc,
                    },
                }
            }
            let mut budget = split_budget;
            match split(ctx, &mut orders, &mut Vec::new(), scc_nodes, &mut budget, split_budget) {
                Split::Witness(witness, winning) => Ok((witness, winning)),
                Split::Fail => Err(Verdict::NotSerializable(format!(
                    "precedence cycle cannot be broken by any version order \
                     (explored {} of {} split states); cycle sample: [{}]",
                    split_budget - budget,
                    split_budget,
                    cycle_sample(ctx, &orders)
                ))),
                Split::Undecided(why) => Err(Verdict::Unknown(why)),
            }
        }
    }
}

/// Pairwise-analyses every object whose candidate order contains one of
/// `nodes` (transactions caught in a cycle) and that is not yet
/// analysed, re-extending its candidate under the necessary
/// constraints (a tag-sorted candidate may contradict them).  Objects
/// away from the cycle are skipped: their orientation freedom cannot
/// break it.  Returns whether anything new was analysed.
fn ensure_analyzed(
    ctx: &Ctx,
    orders: &mut BTreeMap<ObjectId, ObjectOrder>,
    nodes: &[usize],
) -> Result<bool, Verdict> {
    let in_cycle: HashSet<usize> = nodes.iter().copied().collect();
    let mut changed = false;
    for (&object, order) in orders.iter_mut() {
        if order.analysis.is_some() || !order.candidate.iter().any(|w| in_cycle.contains(w)) {
            continue;
        }
        if order.candidate.len() > MAX_AMBIGUOUS_GROUP {
            return Err(Verdict::Unknown(format!(
                "cyclic candidate with {} writes on {object} is too large for \
                 pairwise version-order analysis",
                order.candidate.len()
            )));
        }
        let analysis = analyze_slice(ctx, object, &order.candidate)?;
        order.candidate = extend(ctx, &order.candidate, &analysis.forced, &[]).ok_or_else(|| {
            Verdict::NotSerializable(format!(
                "the observations of object {object} force a cyclic version \
                 order among writes [{}]",
                sample_txids(ctx, &order.candidate)
            ))
        })?;
        order.analysis = Some(analysis);
        changed = true;
    }
    Ok(changed)
}

/// Extracts the candidate version order (and, for ambiguous untagged
/// objects, the pairwise analysis) for every object.
fn resolve_orders(ctx: &Ctx) -> Result<BTreeMap<ObjectId, ObjectOrder>, Verdict> {
    let mut orders = BTreeMap::new();
    for (&object, writes) in &ctx.writes_of {
        let mut candidate = writes.clone();
        if candidate.len() <= 1 {
            orders.insert(
                object,
                ObjectOrder {
                    candidate,
                    analysis: Some(Analysis { forced: Vec::new(), free: Vec::new() }),
                },
            );
            continue;
        }
        // Tagged fast path: every write on the object carries a tag and
        // the tags are distinct — the protocol's own serialization
        // order is the candidate, with the pairwise analysis deferred
        // until (if ever) the graph turns out cyclic.
        let mut tags: Vec<Option<Tag>> = candidate.iter().map(|&w| ctx.tag_of(w)).collect();
        tags.sort();
        let all_tagged = tags.iter().all(|t| t.is_some());
        let distinct = tags.windows(2).all(|w| w[0] != w[1]);
        if all_tagged && distinct {
            candidate.sort_by_key(|&w| ctx.tie(w));
            orders.insert(object, ObjectOrder { candidate, analysis: None });
            continue;
        }
        // General path: real-time overlap groups, analysed pairwise.
        candidate.sort_by_key(|&w| (ctx.inv(w), ctx.txs[w].tx_id.0));
        let mut resolved = Vec::with_capacity(candidate.len());
        let mut forced = Vec::new();
        let mut free = Vec::new();
        let mut group_start = 0usize;
        let mut max_resp = 0u64;
        let mut prev_group: Vec<usize> = Vec::new();
        for i in 0..=candidate.len() {
            let boundary =
                i == candidate.len() || (i > group_start && ctx.inv(candidate[i]) > max_resp);
            if boundary {
                let group = &candidate[group_start..i];
                if group.len() > MAX_AMBIGUOUS_GROUP {
                    return Err(Verdict::Unknown(format!(
                        "{} concurrent untagged writes on {object} exceed the \
                         ambiguity cap of {MAX_AMBIGUOUS_GROUP}",
                        group.len()
                    )));
                }
                let analysis = analyze_slice(ctx, object, group)?;
                let extension = extend(ctx, group, &analysis.forced, &[]).ok_or_else(|| {
                    Verdict::NotSerializable(format!(
                        "the observations of object {object} force a cyclic \
                         version order among writes [{}]",
                        sample_txids(ctx, group)
                    ))
                })?;
                // Cross-group real-time precedence must be explicit in
                // `forced`: the splitting fallback re-extends the whole
                // candidate from these edges, and its (tag, inv, tx)
                // tie-break alone would let an untagged later write sort
                // before an earlier tagged one.
                for &prev in &prev_group {
                    for &next in group {
                        forced.push((prev, next));
                    }
                }
                prev_group = extension.clone();
                resolved.extend(extension);
                forced.extend(analysis.forced);
                free.extend(analysis.free);
                group_start = i;
            }
            if i < candidate.len() {
                max_resp = max_resp.max(ctx.resp(candidate[i]));
            }
        }
        orders.insert(
            object,
            ObjectOrder { candidate: resolved, analysis: Some(Analysis { forced, free }) },
        );
    }
    Ok(orders)
}

/// Computes the necessary constraints and the free pairs among `writes`
/// (all on `object`).  `writes.len()` must be ≤ 64 (bitmask closure).
fn analyze_slice(ctx: &Ctx, object: ObjectId, writes: &[usize]) -> Result<Analysis, Verdict> {
    let g = writes.len();
    debug_assert!(g <= 64);
    let pos: HashMap<usize, usize> = writes.iter().enumerate().map(|(i, &w)| (w, i)).collect();
    let mut adj = vec![0u64; g];
    // Real-time precedence.
    for i in 0..g {
        for j in 0..g {
            if i != j && ctx.resp(writes[i]) < ctx.inv(writes[j]) {
                adj[i] |= 1 << j;
            }
        }
    }
    // Forced read-observation inferences.
    if let Some(obs_idxs) = ctx.obs_of.get(&object) {
        for &oi in obs_idxs {
            let obs = &ctx.obs[oi];
            let Some(w) = obs.write else { continue };
            let Some(&wi) = pos.get(&w) else { continue };
            let reader = obs.reader;
            for j in 0..g {
                if j == wi {
                    continue;
                }
                // w' completed before the read was invoked: w' ≺ w.
                if ctx.resp(writes[j]) < ctx.inv(reader) {
                    adj[j] |= 1 << wi;
                }
                // The read completed before w' was invoked: w ≺ w'.
                if ctx.resp(reader) < ctx.inv(writes[j]) {
                    adj[wi] |= 1 << j;
                }
            }
        }
    }
    // Transitive closure (fixpoint over ≤64-bit masks) to classify
    // pairs; `adj` itself stays the edge set used for extensions.
    let mut reach = adj.clone();
    loop {
        let mut changed = false;
        for i in 0..g {
            let mut acc = reach[i];
            let mut m = reach[i];
            while m != 0 {
                let j = m.trailing_zeros() as usize;
                m &= m - 1;
                acc |= reach[j];
            }
            if acc != reach[i] {
                reach[i] = acc;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Real-time precedence and the observation inferences are necessary
    // conditions on any valid version order; if they are cyclic, no
    // serialization exists at all.
    if (0..g).any(|i| reach[i] & (1 << i) != 0) {
        return Err(Verdict::NotSerializable(format!(
            "the observations of object {object} force a cyclic version \
             order among writes [{}]",
            sample_txids(ctx, writes)
        )));
    }
    let mut forced = Vec::new();
    let mut free = Vec::new();
    for i in 0..g {
        for j in (i + 1)..g {
            let ij = reach[i] & (1 << j) != 0;
            let ji = reach[j] & (1 << i) != 0;
            match (ij, ji) {
                (true, _) => forced.push((writes[i], writes[j])),
                (_, true) => forced.push((writes[j], writes[i])),
                (false, false) => free.push((writes[i], writes[j])),
            }
        }
    }
    Ok(Analysis { forced, free })
}

/// The polygraph-style splitting search: branch on the orientation of a
/// free pair touching a strongly connected component until the graph
/// turns acyclic (witness), every branch is refuted (conviction) or the
/// `split_budget` states are spent (`budget` is what is left).
fn split(
    ctx: &Ctx,
    orders: &mut BTreeMap<ObjectId, ObjectOrder>,
    constraints: &mut Vec<(ObjectId, usize, usize)>,
    scc_nodes: Vec<usize>,
    budget: &mut usize,
    split_budget: usize,
) -> Split {
    // A deeper branch's cycle may involve objects the initial analysis
    // skipped; analyse them on demand.  A necessary-constraint cycle
    // found here refutes every branch, so Fail is sound.  If analysis
    // re-extended a candidate, the cycle that brought us here may be
    // gone — re-check before picking a pair to branch on.
    let mut scc_nodes = scc_nodes;
    loop {
        match ensure_analyzed(ctx, orders, &scc_nodes) {
            Ok(false) => break,
            Ok(true) => match reorder(ctx, orders, constraints) {
                None => return Split::Fail,
                Some(reordered) => match kahn_pass(ctx, &reordered) {
                    Pass::Acyclic(witness) => return Split::Witness(witness, reordered),
                    Pass::Cyclic(scc) => scc_nodes = scc,
                },
            },
            Err(Verdict::Unknown(why)) => return Split::Undecided(why),
            Err(_) => return Split::Fail,
        }
    }
    // Pick an unconstrained free pair with an endpoint in the cycle.
    let in_cycle: HashSet<usize> = scc_nodes.iter().copied().collect();
    let mut pick = None;
    'outer: for (&object, order) in orders.iter() {
        let Some(analysis) = order.analysis.as_ref() else { continue };
        for &(a, b) in &analysis.free {
            if in_cycle.contains(&a) || in_cycle.contains(&b) {
                let constrained = constraints
                    .iter()
                    .any(|&(o, x, y)| o == object && ((x == a && y == b) || (x == b && y == a)));
                if !constrained {
                    pick = Some((object, a, b));
                    break 'outer;
                }
            }
        }
    }
    let Some((object, a, b)) = pick else {
        // Every edge of the cycle is forced: no version order avoids it.
        return Split::Fail;
    };
    for &(x, y) in &[(a, b), (b, a)] {
        if *budget == 0 {
            return Split::Undecided(format!(
                "constraint-splitting budget of {split_budget} states exhausted before a \
                 verdict was reached"
            ));
        }
        *budget -= 1;
        constraints.push((object, x, y));
        let outcome = match reorder(ctx, orders, constraints) {
            // The chosen orientation contradicts necessary constraints.
            None => Split::Fail,
            Some(reordered) => match kahn_pass(ctx, &reordered) {
                Pass::Acyclic(witness) => Split::Witness(witness, reordered),
                Pass::Cyclic(scc) => split(ctx, orders, constraints, scc, budget, split_budget),
            },
        };
        constraints.pop();
        match outcome {
            Split::Fail => continue,
            done => return done,
        }
    }
    Split::Fail
}

/// Recomputes every candidate order under the branch's orientation
/// constraints.  `None` if some object's constraints became cyclic.
fn reorder(
    ctx: &Ctx,
    orders: &BTreeMap<ObjectId, ObjectOrder>,
    constraints: &[(ObjectId, usize, usize)],
) -> Option<BTreeMap<ObjectId, ObjectOrder>> {
    let mut out = BTreeMap::new();
    for (&object, order) in orders {
        let chosen: Vec<(usize, usize)> = constraints
            .iter()
            .filter(|&&(o, _, _)| o == object)
            .map(|&(_, x, y)| (x, y))
            .collect();
        if chosen.is_empty() {
            out.insert(object, ObjectOrder { candidate: order.candidate.clone(), analysis: None });
            continue;
        }
        let analysis = order.analysis.as_ref().expect("analysed before splitting");
        let candidate = extend(ctx, &order.candidate, &analysis.forced, &chosen)?;
        out.insert(object, ObjectOrder { candidate, analysis: None });
    }
    Some(out)
}

/// Linear extension of `members` under `forced ∪ chosen` edges, tie-broken
/// by [`Ctx::tie`].  `None` if the constraints are cyclic.
fn extend(
    ctx: &Ctx,
    members: &[usize],
    forced: &[(usize, usize)],
    chosen: &[(usize, usize)],
) -> Option<Vec<usize>> {
    let pos: HashMap<usize, usize> = members.iter().enumerate().map(|(i, &m)| (m, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
    let mut indeg = vec![0usize; members.len()];
    for &(a, b) in forced.iter().chain(chosen.iter()) {
        if let (Some(&i), Some(&j)) = (pos.get(&a), pos.get(&b)) {
            adj[i].push(j);
            indeg[j] += 1;
        }
    }
    type TieKeyed = Reverse<((u64, u64, u64), usize)>;
    let mut heap: BinaryHeap<TieKeyed> = members
        .iter()
        .enumerate()
        .filter(|&(i, _)| indeg[i] == 0)
        .map(|(i, &m)| Reverse((ctx.tie(m), i)))
        .collect();
    let mut out = Vec::with_capacity(members.len());
    while let Some(Reverse((_, i))) = heap.pop() {
        out.push(members[i]);
        for &j in &adj[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                heap.push(Reverse((ctx.tie(members[j]), j)));
            }
        }
    }
    (out.len() == members.len()).then_some(out)
}

/// Builds the precedence graph for the given version orders and runs one
/// deterministic Kahn pass; on a cycle, runs an iterative Tarjan pass and
/// reports the transactions caught in non-trivial SCCs.
fn kahn_pass(ctx: &Ctx, orders: &BTreeMap<ObjectId, ObjectOrder>) -> Pass {
    let n = ctx.txs.len();
    // Time chain: one node per distinct INV/RESP instant.
    let mut instants: Vec<u64> = Vec::with_capacity(2 * n);
    for rec in &ctx.txs {
        instants.push(rec.invoked_at);
        if let Some(resp) = rec.responded_at {
            instants.push(resp);
        }
    }
    instants.sort_unstable();
    instants.dedup();
    let time_node = |instant_idx: usize| n + instant_idx;
    let total = n + instants.len();

    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); total];
    let mut indeg = vec![0u32; total];
    let push = |adj: &mut Vec<Vec<u32>>, indeg: &mut Vec<u32>, a: usize, b: usize| {
        adj[a].push(b as u32);
        indeg[b] += 1;
    };
    // Chain between consecutive instants.
    for i in 1..instants.len() {
        push(&mut adj, &mut indeg, time_node(i - 1), time_node(i));
    }
    // INV anchors and RESP anchors (real-time edges via the chain).
    for (node, rec) in ctx.txs.iter().enumerate() {
        let inv_idx = instants.binary_search(&rec.invoked_at).expect("inv instant present");
        push(&mut adj, &mut indeg, time_node(inv_idx), node);
        if let Some(resp) = rec.responded_at {
            // First instant strictly after RESP.
            let after = instants.partition_point(|&t| t <= resp);
            if after < instants.len() {
                push(&mut adj, &mut indeg, node, time_node(after));
            }
        }
    }
    // Version-order edges, plus an O(1) successor lookup per (object,
    // write) so the anti-dependency edges below cost O(observations).
    let mut succ: HashMap<(ObjectId, usize), Option<usize>> = HashMap::new();
    for (&object, order) in orders {
        for (p, &w) in order.candidate.iter().enumerate() {
            succ.insert((object, w), order.candidate.get(p + 1).copied());
        }
        for w in order.candidate.windows(2) {
            push(&mut adj, &mut indeg, w[0], w[1]);
        }
    }
    // Observation edges (write→read and read→successor-write).
    for obs in &ctx.obs {
        match obs.write {
            Some(w) => {
                push(&mut adj, &mut indeg, w, obs.reader);
                let next = succ.get(&(obs.object, w)).expect("observed write is in the version order");
                if let Some(next) = *next {
                    push(&mut adj, &mut indeg, obs.reader, next);
                }
            }
            None => {
                // Objects only ever read at κ₀ have no version order entry.
                if let Some(&first) = orders.get(&obs.object).and_then(|o| o.candidate.first()) {
                    push(&mut adj, &mut indeg, obs.reader, first);
                }
            }
        }
    }

    // Deterministic Kahn: ready nodes keyed by (time, kind, tx id) so the
    // witness order is stable across runs.
    let key = |node: usize| -> (u64, u8, u64) {
        if node < n {
            (ctx.txs[node].invoked_at, 1, ctx.txs[node].tx_id.0)
        } else {
            (instants[node - n], 0, 0)
        }
    };
    type TimeKeyed = Reverse<((u64, u8, u64), usize)>;
    let mut heap: BinaryHeap<TimeKeyed> =
        (0..total).filter(|&v| indeg[v] == 0).map(|v| Reverse((key(v), v))).collect();
    let mut witness = Vec::with_capacity(n);
    let mut processed = 0usize;
    while let Some(Reverse((_, v))) = heap.pop() {
        processed += 1;
        if v < n {
            witness.push(v);
        }
        for &w in &adj[v] {
            let w = w as usize;
            indeg[w] -= 1;
            if indeg[w] == 0 {
                heap.push(Reverse((key(w), w)));
            }
        }
    }
    if processed == total {
        return Pass::Acyclic(witness);
    }
    Pass::Cyclic(
        tarjan_scc(&adj, total)
            .into_iter()
            .filter(|scc| scc.len() > 1)
            .flatten()
            .filter(|&v| v < n)
            .collect(),
    )
}

/// Iterative Tarjan strongly-connected components (no recursion).
fn tarjan_scc(adj: &[Vec<u32>], n: usize) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct Frame {
        node: usize,
        edge: usize,
    }
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs = Vec::new();
    let mut counter = 0usize;
    let mut call: Vec<Frame> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        call.push(Frame { node: root, edge: 0 });
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(frame) = call.last_mut() {
            let v = frame.node;
            if frame.edge < adj[v].len() {
                let w = adj[v][frame.edge] as usize;
                frame.edge += 1;
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push(Frame { node: w, edge: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(parent) = call.last() {
                    let p = parent.node;
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// Renders up to eight transaction ids of a cyclic candidate for messages.
fn cycle_sample(ctx: &Ctx, orders: &BTreeMap<ObjectId, ObjectOrder>) -> String {
    match kahn_pass(ctx, orders) {
        Pass::Cyclic(nodes) => sample_txids(ctx, &nodes),
        Pass::Acyclic(_) => String::from("<none>"),
    }
}

fn sample_txids(ctx: &Ctx, nodes: &[usize]) -> String {
    let mut ids: Vec<TxId> = nodes.iter().map(|&n| ctx.txs[n].tx_id).collect();
    ids.sort();
    ids.dedup();
    ids.truncate(8);
    ids.iter().map(|id| id.to_string()).collect::<Vec<_>>().join(", ")
}
