//! Differential validation of the streaming strict-serializability engine,
//! the crate's one semantic engine: against the complete backtracking
//! search (`SearchChecker`) on every generated history small enough for it
//! to decide, and against `check_auto` (the tag order where it accepts, the
//! stream otherwise) on random histories (mixed tagged/untagged writes,
//! overlapping invocations, incomplete writes) and every golden protocol ×
//! scheduler combo.  The paper's counterexample histories must be convicted
//! *at the offending transaction index*, not at shutdown.  Then the
//! tag-order stream (`TagOrderStream`, the drivers' streaming check and
//! `check_auto`'s front) against the batch Lemma 20 reference
//! (`support::lemma20::TagOrderChecker`) where the tag order decides, and
//! against the semantic stream engine everywhere else.  One generator feeds
//! every random differential.

use proptest::proptest;
use proptest::ProptestConfig;
mod support;

use snow::checker::{
    check_auto, SearchChecker, SequentialOt, StreamChecker, StreamLane, TagOrderStream, Verdict,
};
use snow::core::hash::SplitMix;
use snow::core::{
    ClientId, History, Key, ObjectId, ObjectRead, ReadOutcome, Tag, TxId, TxOutcome, TxRecord,
    TxSpec, Value, WriteOutcome,
};
use snow_bench::golden::{combos, COMBO_TXNS, FIXTURE};
use support::lemma20::TagOrderChecker;

/// Generates a random history of at most 10 transactions with moderate
/// real-time overlap: reads observe either `κ₀` or the key of any
/// generated write on the object (including keys of writes that never
/// respond), so both serializable and violating histories occur.  Half the
/// writes carry random (possibly colliding, possibly real-time-
/// contradicting) tags, exercising the tagged fast path of the version
/// orders and their forced-constraint re-extension alongside the untagged
/// overlap-group machinery.
fn random_history(seed: u64) -> History {
    let mut rng = SplitMix::new(seed);
    let n = 2 + rng.below(9);
    let n_objects = 1 + rng.below(3) as u32;
    let n_writers = 1 + rng.below(3) as u32;
    let mut write_seq = vec![0u64; n_writers as usize];
    let mut written: Vec<Vec<Key>> = vec![Vec::new(); n_objects as usize];
    let mut h = History::new();
    for id in 1..=n {
        let inv = rng.below(120);
        let resp = inv + 1 + rng.below(20);
        let object_count = 1 + rng.below(2u64.min(n_objects as u64)) as usize;
        let mut objects: Vec<ObjectId> = Vec::new();
        while objects.len() < object_count {
            let o = ObjectId(rng.below(n_objects as u64) as u32);
            if !objects.contains(&o) {
                objects.push(o);
            }
        }
        objects.sort();
        let is_write = rng.below(2) == 0;
        if is_write {
            let writer = rng.below(n_writers as u64) as usize;
            write_seq[writer] += 1;
            let key = Key::new(write_seq[writer], ClientId(100 + writer as u32));
            let spec = TxSpec::write(
                objects.iter().map(|&o| (o, Value(rng.below(1_000)))).collect(),
            );
            let tag = (rng.below(2) == 0).then(|| Tag(1 + rng.below(6)));
            let mut rec = TxRecord::invoked(TxId(id), ClientId(100 + writer as u32), spec, inv);
            rec.outcome = Some(TxOutcome::Write(WriteOutcome { key, tag }));
            // One write in twenty never responds (incomplete, effects
            // possibly visible — Definition 7.1's optional transactions).
            if rng.below(20) != 0 {
                rec.responded_at = Some(resp);
            }
            for &o in &objects {
                written[o.0 as usize].push(key);
            }
            h.push(rec);
        } else {
            let spec = TxSpec::read(objects.clone());
            let mut rec = TxRecord::invoked(TxId(id), ClientId(rng.below(2) as u32), spec, inv);
            rec.responded_at = Some(resp);
            let reads = objects
                .iter()
                .map(|&o| {
                    let pool = &written[o.0 as usize];
                    let key = if pool.is_empty() || rng.below(4) == 0 {
                        Key::initial()
                    } else {
                        pool[rng.below(pool.len() as u64) as usize]
                    };
                    ObjectRead { object: o, key, value: Value(0) }
                })
                .collect();
            rec.outcome = Some(TxOutcome::Read(ReadOutcome { reads, tag: None }));
            h.push(rec);
        }
    }
    h
}

fn assert_witness_replays(history: &History, order: &[TxId]) {
    let mut ot = SequentialOt::new();
    for tx in order {
        ot.apply(history.get(*tx).expect("witness transaction exists"))
            .unwrap_or_else(|o| panic!("stream witness fails replay at {tx} on {o}"));
    }
    for rec in history.completed() {
        if rec.outcome.as_ref().is_some_and(|o| o.is_aborted()) {
            continue; // constraint-free: placed anywhere, or nowhere
        }
        assert!(
            order.contains(&rec.tx_id),
            "completed {} missing from stream witness",
            rec.tx_id
        );
    }
}

/// The commit position (RESP order, ties by id — the stream's feed order)
/// of `tx` in `history`.
fn commit_index(history: &History, tx: TxId) -> usize {
    let mut committed: Vec<&TxRecord> = history.completed().collect();
    committed.sort_by_key(|r| (r.responded_at.unwrap_or(u64::MAX), r.tx_id.0));
    committed.iter().position(|r| r.tx_id == tx).expect("committed transaction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn stream_and_search_agree_on_small_histories(seed in 0u64..1_000_000_000) {
        let history = random_history(seed);
        let search = SearchChecker::with_max_transactions(16).check(&history);
        let mut checker = StreamChecker::with_split_budget(1_000_000);
        checker.feed_history(&history);
        let stream = checker.finish();
        match (&search, &stream) {
            (Verdict::Serializable(_), Verdict::Serializable(order)) => {
                assert_witness_replays(&history, order);
            }
            (Verdict::NotSerializable(_), Verdict::NotSerializable(_)) => {}
            (s, t) => panic!(
                "engines disagree on seed {seed}:\n search: {s:?}\n stream: {t:?}\n history: {history:#?}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]
    #[test]
    fn stream_and_check_auto_agree_on_small_histories(seed in 0u64..1_000_000_000) {
        let history = random_history(seed);
        let posthoc = check_auto(&history);
        let stream = StreamChecker::check(&history);
        match (&posthoc, &stream) {
            (Verdict::Serializable(_), Verdict::Serializable(order)) => {
                assert_witness_replays(&history, order);
            }
            (Verdict::NotSerializable(_), Verdict::NotSerializable(_)) => {}
            (Verdict::Unknown(_), Verdict::Unknown(_)) => {}
            (p, s) => panic!(
                "engines disagree on seed {seed}:\n post-hoc: {p:?}\n stream:   {s:?}\n history: {history:#?}"
            ),
        }
    }
}

#[test]
fn stream_agrees_with_check_auto_on_every_golden_combo() {
    for combo in combos() {
        let history = combo.run(FIXTURE).history;
        let posthoc = check_auto(&history);
        // On an untagged combo `check_auto` runs this same engine; the
        // complete search, which decides 20 transactions, is the
        // independent side there.
        let search = SearchChecker::with_max_transactions(COMBO_TXNS).check(&history);
        assert_eq!(
            (search.is_serializable(), search.is_violation()),
            (posthoc.is_serializable(), posthoc.is_violation()),
            "{}: search {search:?} vs post-hoc {posthoc:?}",
            combo.label
        );
        let mut checker = StreamChecker::new();
        checker.feed_history(&history);
        let stream = checker.finish();
        match (&posthoc, &stream) {
            (Verdict::Serializable(_), Verdict::Serializable(order)) => {
                assert_witness_replays(&history, order);
                // An accepted stream certifies fully: the frontier must
                // have retired everything by the time finish() returns.
                assert_eq!(checker.live_window(), 0, "{}: window not drained", combo.label);
            }
            (Verdict::NotSerializable(_), Verdict::NotSerializable(_)) => {
                // Convictions carry the offending commit position.
                assert!(checker.offending_index().is_some(), "{}", combo.label);
            }
            (Verdict::Unknown(_), Verdict::Unknown(_)) => {}
            (p, s) => panic!(
                "{}: post-hoc {p:?} vs stream {s:?}",
                combo.label
            ),
        }
    }
}

#[test]
fn stream_convicts_fig5_at_the_offending_transaction() {
    let (history, _) = snow::impossibility::fig5_history();
    assert!(check_auto(&history).is_violation());
    let mut checker = StreamChecker::new();
    checker.feed_history(&history);
    let verdict = checker.finish();
    assert!(verdict.is_violation(), "{verdict:?}");
    // The violation is established by the stale multi-object READ — the
    // last commit of the fragment — and must be attributed to its commit
    // index, not discovered at finish.
    let read = history
        .reads()
        .map(|r| r.tx_id)
        .next()
        .expect("fig5 has one read");
    assert_eq!(checker.offending_index(), Some(commit_index(&history, read)));
}

#[test]
fn stream_convicts_the_impossibility_fragments_at_their_offending_commits() {
    // φ: the READ completes before the WRITE is invoked yet returns the
    // written values — the conviction lands when the WRITE commits and the
    // observation closes the real-time cycle.
    let phi = snow::impossibility::phi_history();
    let mut checker = StreamChecker::new();
    checker.feed_history(&phi);
    assert!(checker.finish().is_violation());
    let write = phi.writes().map(|r| r.tx_id).next().expect("phi has a write");
    assert_eq!(checker.offending_index(), Some(commit_index(&phi, write)));

    // α₁₀: R₂ (new values) wholly precedes R₁ (initial values) after W
    // completed — convicted when R₁ commits.
    let alpha10 = snow::impossibility::alpha10_history((0, 0), (1, 1));
    let mut checker = StreamChecker::new();
    checker.feed_history(&alpha10);
    assert!(checker.finish().is_violation());
    let last_commit = {
        let mut committed: Vec<&TxRecord> = alpha10.completed().collect();
        committed.sort_by_key(|r| (r.responded_at.unwrap_or(u64::MAX), r.tx_id.0));
        committed.len() - 1
    };
    assert_eq!(checker.offending_index(), Some(last_commit));

    // The benign outcome assignment stays serializable.
    let benign = snow::impossibility::alpha10_history((1, 1), (1, 1));
    assert!(StreamChecker::check(&benign).is_serializable());
}

#[test]
fn frontier_keeps_memory_bounded_on_a_long_run() {
    // A long, fully-sequential commit stream: the frontier must retire
    // continuously, keeping the live window O(in-flight) — here O(1) —
    // regardless of history length.
    let n = 20_000u64;
    let mut checker = StreamChecker::new();
    for i in 0..n {
        let object = ObjectId((i % 8) as u32);
        let inv = i * 10;
        let resp = inv + 5;
        let id = TxId(i + 1);
        let client = ClientId((i % 4) as u32);
        let mut rec = if i % 3 == 0 {
            let mut r = TxRecord::invoked(id, client, TxSpec::read(vec![object]), inv);
            let key = last_key(i, 8).unwrap_or_else(Key::initial);
            r.outcome = Some(TxOutcome::Read(ReadOutcome {
                reads: vec![ObjectRead { object, key, value: Value(0) }],
                tag: None,
            }));
            r
        } else {
            let key = Key::new(i + 1, client);
            let mut w =
                TxRecord::invoked(id, client, TxSpec::write(vec![(object, Value(i))]), inv);
            w.outcome = Some(TxOutcome::Write(WriteOutcome { key, tag: None }));
            w
        };
        rec.responded_at = Some(resp);
        checker.ingest(rec);
        checker.advance_watermark(inv + 10); // next invocation instant
    }
    let verdict = checker.finish();
    assert!(verdict.is_serializable(), "{verdict:?}");
    assert_eq!(checker.report().ingested, n as usize);
    // The entire point of the frontier: peak memory is a small constant,
    // not O(n).
    assert!(
        checker.peak_live_window() <= 64,
        "peak live window {} should be O(in-flight), not O({n})",
        checker.peak_live_window()
    );
}

/// The key installed by the most recent write on `object(i % width)`
/// before commit `i`, mirroring the generator in
/// `frontier_keeps_memory_bounded_on_a_long_run`.
fn last_key(i: u64, width: u64) -> Option<Key> {
    let object = i % width;
    (0..i)
        .rev()
        .find(|&j| j % width == object && j % 3 != 0)
        .map(|j| Key::new(j + 1, ClientId((j % 4) as u32)))
}

/// Histories where every transaction carries a tag that is *mostly*
/// consistent with real time and reads, so the tag order decides a good
/// share of them, with every way of breaking it mixed in: untagged writes
/// (one in ten), aborted commits (one in fifteen), incomplete writes,
/// colliding write tags, tags off real time, and reads that return a
/// version other than the latest one by tag (one in six).
fn tagged_history(seed: u64) -> History {
    let mut rng = SplitMix::new(seed ^ 0x7A65_D0C5);
    let n = 2 + rng.below(11);
    let n_objects = 1 + rng.below(3) as u32;
    // (id, objects, key, tag) of every WRITE that responded.
    let mut writes: Vec<(u64, Vec<ObjectId>, Key, Option<Tag>)> = Vec::new();
    let mut reads: Vec<(TxRecord, Tag)> = Vec::new();
    let mut h = History::new();
    for id in 1..=n {
        let inv = rng.below(120);
        let resp = inv + 1 + rng.below(20);
        let object_count = 1 + rng.below(2u64.min(n_objects as u64)) as usize;
        let mut objects: Vec<ObjectId> = Vec::new();
        while objects.len() < object_count {
            let o = ObjectId(rng.below(n_objects as u64) as u32);
            if !objects.contains(&o) {
                objects.push(o);
            }
        }
        objects.sort();
        // A tag near the one real time suggests: 1 + INV / 12, give or take.
        let tag = Tag(1 + inv / 12 + rng.below(3));
        let client = ClientId(rng.below(3) as u32);
        if rng.below(2) == 0 {
            let key = Key::new(id, client);
            let spec = TxSpec::write(objects.iter().map(|&o| (o, Value(id))).collect());
            let mut rec = TxRecord::invoked(TxId(id), client, spec, inv);
            let tag = (rng.below(10) != 0).then_some(tag);
            rec.outcome = Some(TxOutcome::Write(WriteOutcome { key, tag }));
            match rng.below(15) {
                0 => {
                    rec.responded_at = Some(resp);
                    rec.outcome = Some(TxOutcome::Aborted);
                }
                1 => {} // never responded
                _ => {
                    rec.responded_at = Some(resp);
                    writes.push((id, objects, key, tag));
                }
            }
            h.push(rec);
        } else {
            let mut rec = TxRecord::invoked(TxId(id), client, TxSpec::read(objects), inv);
            rec.responded_at = Some(resp);
            reads.push((rec, tag));
        }
    }
    // Each READ returns, per object, the latest WRITE by tag at or below
    // its own — or, one time in six, any version.
    for (mut rec, tag) in reads {
        let reads = rec
            .spec
            .objects_iter()
            .map(|o| {
                let on_o = writes.iter().filter(|w| w.1.contains(&o));
                let key = if rng.below(6) == 0 {
                    let keys: Vec<Key> = on_o.map(|w| w.2).collect();
                    let pick = rng.below(keys.len() as u64 + 1) as usize;
                    keys.get(pick).copied().unwrap_or_else(Key::initial)
                } else {
                    on_o.filter(|w| w.3.is_some_and(|t| t <= tag))
                        .max_by_key(|w| (w.3, w.0))
                        .map_or_else(Key::initial, |w| w.2)
                };
                ObjectRead { object: o, key, value: Value(0) }
            })
            .collect();
        rec.outcome = Some(TxOutcome::Read(ReadOutcome { reads, tag: Some(tag) }));
        h.push(rec);
    }
    let mut records = Vec::from(h);
    records.sort_by_key(|r| r.tx_id);
    History::from(records)
}

/// `history` through a `TagOrderStream`, fed as `check_auto` feeds it
/// (`TagOrderStream::feed_history`: commits in RESP order, each followed by
/// the hindsight watermark `StreamChecker::feed_history` uses).  Returns
/// the lane it finished on with the verdict, which must be `check_auto`'s.
fn tag_stream_verdict(history: &History) -> (StreamLane, Verdict) {
    let mut stream = TagOrderStream::new();
    stream.feed_history(history);
    let lane = stream.lane();
    let verdict = stream.finish(history);
    assert_eq!(verdict, check_auto(history));
    (lane, verdict)
}

/// The soundness differential of the drivers' streaming check.  Where
/// `TagOrderChecker` accepts, the stream's verdict equals it, witness
/// included; everywhere else its category is the semantic stream
/// engine's.  Both generators, so the stream sees histories the tags
/// decide, histories they break before anything is certified and
/// histories they break after.
#[test]
fn tag_stream_agrees_with_tag_order_and_with_the_stream_engine() {
    let mut lanes = [0usize; 2];
    let mut accepted = 0usize;
    for seed in 0..3_000u64 {
        for history in [random_history(seed), tagged_history(seed)] {
            let (lane, verdict) = tag_stream_verdict(&history);
            lanes[lane as usize] += 1;
            let tags = TagOrderChecker::new().check(&history);
            assert_eq!(lane == StreamLane::TagOrder, tags.is_serializable(), "seed {seed}");
            if tags.is_serializable() {
                accepted += 1;
                assert_eq!(verdict, tags, "seed {seed}: {history:#?}");
                continue;
            }
            // The semantic engine's verdict on the whole history, witness
            // included.
            let stream = StreamChecker::check(&history);
            assert_eq!(verdict, stream, "seed {seed}: tag stream vs stream\n{history:#?}");
            if let Verdict::Serializable(order) = &verdict {
                assert_witness_replays(&history, order);
            }
        }
    }
    // Both lanes are taken, many times; the split is seed-pure, so it is
    // pinned (tag order, deferred).  It moved once, from 983 / 2 994 /
    // 2 023 (tag order, semantic, deferred), when the stream took
    // `StreamChecker::feed_history`'s watermark, which stays below the
    // invocation of an incomplete WRITE a READ observed: on four histories
    // the tags then broke before anything was certified.  Every verdict
    // category held.  Then the semantic lane (a `StreamChecker` replayed
    // the calls made before the give-up) was folded into the deferred one,
    // which gives the same verdict: 983 / 2 998 / 2 019 → 983 / 5 017.
    assert!(accepted > 600, "{accepted} accepted by tag order");
    assert_eq!(lanes, [983, 5_017], "lanes (tag order, deferred)");
}
