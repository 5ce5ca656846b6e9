//! Criterion bench: checker engines — Lemma 20 tag-order vs. backtracking
//! search — on histories produced by Algorithm B.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snow_checker::{SearchChecker, TagOrderChecker};
use snow_core::SystemConfig;
use snow_protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow_workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};

fn bench_checkers(c: &mut Criterion) {
    let config = SystemConfig::mwmr(3, 2, 2);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .scheduler(SchedulerKind::Latency { seed: 2, min: 1, max: 15 })
        .build()
        .unwrap();
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let (small_history, _) = WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, 16);

    let mut cluster2 = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .scheduler(SchedulerKind::Latency { seed: 2, min: 1, max: 15 })
        .build()
        .unwrap();
    let mut generator2 = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let (large_history, _) = WorkloadDriver::new(4).run(cluster2.as_mut(), &mut generator2, 400);

    let mut group = c.benchmark_group("strict_serializability_checkers");
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("tag_order", large_history.len()),
        &large_history,
        |b, h| b.iter(|| TagOrderChecker::new().check(h).is_serializable()),
    );
    group.bench_with_input(
        BenchmarkId::new("search", small_history.len()),
        &small_history,
        |b, h| b.iter(|| SearchChecker::with_max_transactions(32).check(h).is_serializable()),
    );
    group.finish();
}

criterion_group!(benches, bench_checkers);
criterion_main!(benches);
