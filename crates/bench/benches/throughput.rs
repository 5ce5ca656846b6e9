//! Criterion bench: mixed-workload throughput per protocol (E10 ablation:
//! the coordinator in B/C versus the reader-resident list in A).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use snow_bench::comparison_config;
use snow_protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow_workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixed_workload_100tx");
    group.sample_size(10);
    group.throughput(Throughput::Elements(100));
    for protocol in [
        ProtocolKind::AlgA,
        ProtocolKind::AlgB,
        ProtocolKind::AlgC,
        ProtocolKind::Eiger,
        ProtocolKind::Blocking,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{protocol:?}")),
            &protocol,
            |b, &protocol| {
                b.iter(|| {
                    let config = comparison_config(protocol, 4, 2, 2);
                    let mut cluster = ClusterSpec::new(protocol, &config)
                        .scheduler(SchedulerKind::Latency { seed: 7, min: 1, max: 10 })
                        .build()
                        .unwrap();
                    let mut generator =
                        WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
                    let (history, _) =
                        WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, 100);
                    history.len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
