//! Criterion bench: Algorithm C read cost as the stored version count grows
//! (E9 companion): the one-round read ships the whole Vals set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snow_core::{ObjectId, SystemConfig, TxSpec, Value};
use snow_protocols::{ClusterSpec, ProtocolKind};

fn bench_versions(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg_c_read_vs_history_depth");
    group.sample_size(15);
    for writes in [1u64, 8, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(writes), &writes, |b, &writes| {
            b.iter(|| {
                let config = SystemConfig::mwmr(2, 1, 1);
                let mut cluster =
                    ClusterSpec::new(ProtocolKind::AlgC, &config).build().unwrap();
                let writer = config.writers().next().unwrap();
                let reader = config.readers().next().unwrap();
                for i in 0..writes {
                    let w = cluster.invoke_at(
                        cluster.now(),
                        writer,
                        TxSpec::write(vec![(ObjectId(0), Value(i)), (ObjectId(1), Value(i))]),
                    );
                    cluster.run_until_complete(w);
                }
                let r = cluster.invoke_at(
                    cluster.now(),
                    reader,
                    TxSpec::read(vec![ObjectId(0), ObjectId(1)]),
                );
                cluster.run_until_complete(r);
                cluster.history().get(r).unwrap().max_versions_per_read()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_versions);
criterion_main!(benches);
