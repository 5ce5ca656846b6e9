#!/usr/bin/env bash
# Tier-1 CI for the snow-rs workspace.  Everything guarded here is exact: a
# `cargo test` assertion, a byte-for-byte diff or a grep that must come back
# empty.  Wall-clock numbers have one home, the repo benchmark
# (BENCHMARK.json, benchmark/README.md), which runs per PR against the
# parent commit; this script only smoke-runs it.
#
#   1. release build + the full workspace test suite, doc-examples
#      included.  Every seed-pure figure is an equality here: the golden
#      fixtures line for line (tests/determinism.rs,
#      tests/fault_determinism.rs), the open-loop curves, knees and Zipf
#      points (tests/open_loop.rs), the 18-cell scenario SLO table
#      (tests/topology_scenarios.rs), the observed run's event counters
#      (tests/observability.rs), the 1 %-drop run's abort count
#      (tests/fault_checker.rs);
#   2. lints + documentation: `cargo clippy --workspace --all-targets` and
#      `cargo doc --no-deps`, both with warnings denied (a broken intra-doc
#      link fails the build);
#   3. the same suite in release, one command: the checker differentials
#      and pinned verdicts, the fault suites, and the exact pins of the hot
#      paths (allocation counts and peaks, work counters, the
#      instrumentation sweep's digest) hold under release codegen too, and
#      the large-history tests run at release speed;
#   4. repo-benchmark smoke and digests: `examples/e2e_bench -- --smoke`
#      runs every BENCHMARK.json workload through both passes (plain +
#      traced) in about a second and exits non-zero if any fails its
#      correctness gate (verdict, protocol claims, history digest stable
#      across reps); the per-message helpers the generic dispatch loop
#      calls (latency draw, link lookup, fault delay, causal stamp, record
#      log and the `History::get` / `get_mut` it forwards to, `Vals` store,
#      tag-order ingest) must not
#      survive as symbols of the benchmark binary it built (`nm`): each is
#      inlined across the crate boundary by its `#[inline]`; then each
#      workload runs once at `--seed 1 --seconds 0.01 --trace 0` (about
#      2.5 s for the three) and its printed history `digest` must equal
#      the pinned one.  Neither writes a file;
#   5. end-to-end runs through the `snow` binary: `run observe` (observed
#      open loop → metrics fold → Perfetto export → checker frontier) and
#      `run partition-drill` (isolate a topology site mid-workload under the
#      Queue policy, heal, per-phase p99, SNOW verdict over the scarred
#      history), each to its closing "… ok" line;
#   6. virtual-time purity guard: crates/sim must never read the wall clock
#      (`std::time` / `Instant`) — simulator event streams are a pure
#      function of (config, seeds), which is what makes every pin above
#      meaningful — nor start or synchronize threads (`std::thread`,
#      `Barrier`, `Mutex`): the simulator is single-threaded;
#   7. one mixer: the `splitmix64` behind every seeded draw (latencies,
#      fault gates, and through `SplitMix` the workload bodies, arrival
#      gaps, the random scheduler and the tests' random plans) has one
#      definition, `snow_core::hash`; a second one lets its users drift
#      apart.  The grep looks for the mixer's multiplier over crates/,
#      src/ and tests/, so a hand-rolled copy under any name is caught.
#      Two copies lie outside those paths on purpose: the benchmark's
#      adapter (examples/e2e_bench/sut.rs derives its seeds with one; the
#      benchmark's files are frozen so that parent and change run the same
#      harness) and the vendored proptest shim (vendor/proptest is
#      std-only and cannot depend on snow-core).
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

forbid() { # <grep hits> <what they are> <why not>: fail unless <hits> is empty
    if [ -n "$1" ]; then
        printf '%s:\n%s\n%s\n' "$2" "$1" "$3" >&2
        exit 1
    fi
}

snow() { # <command...>: the snow binary (crates/bench/src/bin/snow.rs)
    cargo run -q -p snow-bench --release -- "$@"
}

bench() { # <e2e_bench args...>: run the repo benchmark (its own package and target dir)
    cargo run --release --offline --quiet --manifest-path examples/e2e_bench/Cargo.toml -- "$@"
}

run_ok() { # <run> <closing line>: `snow run <run>` must print <closing line>
    if ! snow run "$1" | grep -qx "$2"; then
        echo "snow run $1 did not complete" >&2
        exit 1
    fi
    echo "$2"
}

echo "== 1. build (release) + test (workspace) =="
cargo build --release
cargo test --workspace -q

echo "== 2. clippy + doc build (workspace, warnings denied) =="
cargo clippy --workspace --all-targets -q -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q
echo "clippy clean, docs ok"

echo "== 3. test (workspace, release) =="
cargo test -q --release --workspace

echo "== 4. repo benchmark smoke + seed-1 digests (BENCHMARK.json workloads) =="
bench --smoke > /dev/null
echo "e2e_bench smoke ok"
# The generic simulator is instantiated downstream of the crates that define
# its per-message helpers, and the benchmark's release profile has no LTO:
# each helper below is compiled into its callers only because it carries
# #[inline].  One left out of line in the binary the smoke run just built
# lost its attribute, or grew past what the inliner takes.
inlined=(
    snow_sim::topology::LinkDist::draw snow_sim::topology::Topology::link
    snow_sim::fault::SendVerdict::delay snow_sim::sim::stamp snow_sim::sim::CommitLog::since
    snow_sim::tables::RecordLog::get snow_sim::tables::RecordLog::get_mut
    snow_sim::tables::RecordLog::is_complete snow_sim::tables::RecordLog::inv_floor
    snow_core::store::ObjectVersions::position snow_core::store::ObjectVersions::install
    snow_core::store::ObjectVersions::snapshot snow_core::store::ShardStore::get
    snow_core::store::ShardStore::object snow_core::store::ShardStore::object_mut
    snow_core::store::ShardStore::install snow_core::history::History::get
    snow_core::history::History::get_mut
    snow_checker::tag_stream::TagOrderStream::ingest
)
outlined="$(nm -C examples/e2e_bench/target/release/e2e_bench |
    grep -E " ($(IFS='|'; echo "${inlined[*]}"))\$" || true)"
forbid "$outlined" \
    "per-message helpers compiled out of line in the benchmark binary" \
    "Mark each #[inline] (ARCHITECTURE.md, hot-path design notes): a call the generic dispatch loop cannot inline costs on every message."
echo "per-message helpers inlined"
# closed-b-wan3 and wide-b-dc were re-pinned (from 0xa2263afafa1b7071 and
# 0x0bcfe60a4357a19d) when a topology link's draw became the delivery time.
for pin in closed-b-wan3:0x022468f037466180 wide-b-dc:0xc7222c2fa2305951 open-c-read:0x677e494036bdc32b; do
    workload="${pin%%:*}" want="${pin#*:}"
    got="$(bench --workload "$workload" --seed 1 --seconds 0.01 --trace 0 | grep -o 'digest 0x[0-9a-f]*' || true)"
    if [ "${got#digest }" != "$want" ]; then
        echo "e2e_bench $workload --seed 1: ${got:-no digest printed}, pinned $want" >&2
        echo "The benchmark's histories moved; a change that keeps schedules must keep them." >&2
        exit 1
    fi
    echo "$workload digest $want"
done

echo "== 5. end-to-end runs (snow run observe, snow run partition-drill) =="
run_ok observe "observe_run ok"
run_ok partition-drill "partition_drill ok"

echo "== 6. virtual-time purity (no wall clock, no threads in crates/sim) =="
forbid "$(grep -rn --include='*.rs' -E 'std::time|\bInstant\b|std::thread|\bBarrier\b|\bMutex\b' crates/sim/src || true)" \
    "the simulator read the wall clock or used threads" \
    "Simulator events are stamped with virtual ticks only; wall-clock timing belongs to the repo benchmark.  The simulator is single-threaded and deterministic; every pin in this script relies on it."
echo "sim is wall-clock and thread free"

echo "== 7. one mixer (a single splitmix64 definition) =="
forbid "$(grep -rniE --include='*.rs' '0xbf58_?476d_?1ce4_?e5b9' crates src tests | grep -v '^crates/core/src/hash.rs:' || true)" \
    "a second SplitMix64 mixer" \
    "The mixer has one definition, snow_core::hash::splitmix64, and one stream over it, snow_core::hash::SplitMix; a private copy lets seeded draws drift apart."
echo "one splitmix64"

echo "CI green"
