//! `History::get` against an ordered map.  A history finds a record by its
//! `TxId` through one dense id table, which `push` and `History::from`
//! keep and a simulator hands over with the records it takes; `records` is
//! read-only, so an edit takes the records out (`Vec::from`) and indexes
//! the result anew.  Every lookup below — each id the history holds, every
//! absent id in its table and past it, and ids far beyond, up to
//! `u64::MAX` — is checked against a `BTreeMap<TxId, TxRecord>` of the same
//! records.

use snow::core::hash::SplitMix;
use snow::core::{ClientId, History, ObjectId, SystemConfig, TxId, TxRecord, TxSpec};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::workload::{
    drive_open_loop, OpenLoopSpec, WorkloadDriver, WorkloadGenerator, WorkloadSpec,
};
use std::collections::{BTreeMap, BTreeSet};

/// A Fisher–Yates shuffle of `items`, drawn from `rng`.
fn shuffle<T>(rng: &mut SplitMix, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

fn record(id: u64, invoked_at: u64) -> TxRecord {
    TxRecord::invoked(TxId(id), ClientId(0), TxSpec::read(vec![ObjectId(0)]), invoked_at)
}

/// The records by id; ids are unique.
fn reference(records: &[TxRecord]) -> BTreeMap<TxId, TxRecord> {
    let map: BTreeMap<TxId, TxRecord> = records.iter().map(|r| (r.tx_id, r.clone())).collect();
    assert_eq!(map.len(), records.len(), "a repeated id");
    map
}

/// Every id in the table and a few past it, and ids far beyond, looked up
/// in `history` and in the map of its records.
fn assert_lookups_agree(history: &History, label: &str) {
    let map = reference(&history.records);
    let table_end = map.keys().last().map_or(0, |tx| tx.0 + 1);
    let limit = History::ID_LIMIT;
    let far = [limit - 1, limit, 1 << 40, u64::MAX - 1, u64::MAX];
    for id in (0..table_end + 3).chain(far) {
        let tx = TxId(id);
        assert_eq!(history.get(tx), map.get(&tx), "{label}: {tx}");
    }
}

/// The records taken out, reordered, cut and appended to — two pops and
/// two appends, the edits that once left a record the table missed when
/// they went through the field — and indexed anew, checking after each.
fn assert_edits_keep_lookups_right(history: History, rng: &mut SplitMix, label: &str) {
    let mut records = Vec::from(history);
    records.reverse();
    let reversed = History::from(records);
    assert_lookups_agree(&reversed, &format!("{label}, reversed"));
    let mut records = Vec::from(reversed);
    shuffle(rng, &mut records);
    records.pop();
    records.pop();
    let cut = History::from(records);
    assert_lookups_agree(&cut, &format!("{label}, shuffled and cut"));
    let next = cut.records.iter().map(|r| r.tx_id.0 + 1).max().unwrap_or(0);
    let mut records = Vec::from(cut);
    records.extend([record(next, 7), record(next + 1, 0)]);
    assert_lookups_agree(&History::from(records), &format!("{label}, appended to"));
}

/// A taken history equals, and prints as, the same records indexed anew.
fn assert_equal_to_rebuilt(history: &History, label: &str) {
    let rebuilt = History::from(history.records.to_vec());
    assert_eq!(&rebuilt, history, "{label}");
    assert_eq!(format!("{rebuilt:?}"), format!("{history:?}"), "{label}");
    assert!(format!("{history:?}").starts_with("History { records: ["), "{label}");
}

#[test]
fn history_lookups_agree_with_an_ordered_map() {
    for seed in 0..24u64 {
        let mut rng = SplitMix::new(seed);
        let n = 1 + rng.below(300);

        // Random pushes: dense ids in a shuffled order, one in ten swapped
        // for an unused id in a gap past them, below the limit.
        let mut pushed = History::new();
        let mut ids: Vec<u64> = (0..n).collect();
        shuffle(&mut rng, &mut ids);
        let mut gapped = BTreeSet::new();
        for (at, &id) in ids.iter().enumerate() {
            let id = match rng.below(10) {
                0 => std::iter::repeat_with(|| n + rng.below(1 << 12))
                    .find(|&id| gapped.insert(id))
                    .expect("an unused id"),
                _ => id,
            };
            pushed.push(record(id, at as u64));
            if rng.below(40) == 0 {
                assert_lookups_agree(&pushed, &format!("seed {seed}, pushing"));
            }
        }
        assert_lookups_agree(&pushed, &format!("seed {seed}, pushed"));
        assert_eq!(History::from(pushed.records.to_vec()), pushed, "seed {seed}");

        // Constructed from records under shuffled, distinct ids.
        let mut records: Vec<TxRecord> =
            ids.iter().enumerate().map(|(at, &id)| record(id, at as u64)).collect();
        shuffle(&mut rng, &mut records);
        let constructed = History::from(records);
        assert_lookups_agree(&constructed, &format!("seed {seed}, constructed"));
        assert_edits_keep_lookups_right(constructed, &mut rng, &format!("seed {seed}"));
    }
}

#[test]
fn taken_histories_hand_their_id_table_over_and_answer_like_an_ordered_map() {
    let config = SystemConfig::mwmr(8, 4, 4);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
        .build()
        .expect("MWMR configuration");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let (closed, _) = WorkloadDriver::new(8).run(cluster.as_mut(), &mut generator, 600);

    let config = SystemConfig::mwmr(8, 2, 6);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
        .scheduler(SchedulerKind::Latency { seed: 32, min: 1, max: 16 })
        .build()
        .expect("AlgC runs on MWMR configurations");
    let workload = WorkloadSpec {
        read_fraction: 0.96,
        objects_per_read: 4,
        objects_per_write: 2,
        zipf_exponent: 0.99,
        seed: 224,
    };
    let spec = OpenLoopSpec { workload, rate: 50, arrivals: 600, arrival_seed: 416 };
    let (open, _) = drive_open_loop(cluster.as_mut(), &config, &spec);

    let mut rng = SplitMix::new(7);
    for (history, label) in [(closed, "AlgB closed loop"), (open, "AlgC open loop")] {
        assert_eq!(history.len(), 600, "{label}");
        assert_lookups_agree(&history, label);
        assert_equal_to_rebuilt(&history, label);
        assert_edits_keep_lookups_right(history, &mut rng, label);
    }
}
