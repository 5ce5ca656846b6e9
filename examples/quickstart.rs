//! Quickstart: deploy Algorithm B (strictly serializable, non-blocking,
//! two-round READ transactions, no client-to-client communication), write a
//! couple of multi-shard values, read them back transactionally, and verify
//! the SNOW properties of the run.
//!
//! Run with: `cargo run --example quickstart`

use snow::checker::SnowReport;
use snow::core::{ObjectId, SystemConfig, TxSpec, Value};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};

fn main() {
    // 4 shards, 2 writer front-ends, 2 reader front-ends.
    let config = SystemConfig::mwmr(4, 2, 2);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .scheduler(SchedulerKind::Random(1))
        .build()
        .unwrap();

    let writer = config.writers().next().unwrap();
    let reader = config.readers().next().unwrap();

    // A WRITE transaction spanning two shards.
    let w = cluster.invoke_at(
        0,
        writer,
        TxSpec::write(vec![(ObjectId(0), Value(41)), (ObjectId(2), Value(42))]),
    );
    cluster.run_until_complete(w);

    // A READ transaction spanning the same shards: it must see both writes
    // or neither (here: both, since the WRITE completed first).
    let r = cluster.invoke_at(
        cluster.now(),
        reader,
        TxSpec::read(vec![ObjectId(0), ObjectId(2)]),
    );
    cluster.run_until_complete(r);

    let history = cluster.history();
    let outcome = history.get(r).unwrap().outcome.as_ref().unwrap().as_read().unwrap().clone();
    println!(
        "READ returned o0 = {}, o2 = {}",
        outcome.value_for(ObjectId(0)).unwrap(),
        outcome.value_for(ObjectId(2)).unwrap()
    );

    // Check the run: strictly serializable, non-blocking, writes complete.
    let report = SnowReport::evaluate("quickstart / Algorithm B", &history);
    println!("{report}");
    assert!(report.is_snw(), "Algorithm B guarantees S, N and W");
}
