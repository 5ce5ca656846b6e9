#!/usr/bin/env bash
# Tier-1 CI for the snow-rs workspace.  Everything guarded here is exact: a
# `cargo test` assertion, a byte-for-byte diff or a grep that must come back
# empty.  Wall-clock numbers have one home, the repo benchmark
# (BENCHMARK.json, benchmark/README.md), which runs per PR against the
# parent commit; this script only smoke-runs it.
#
#   1. release build + the full workspace test suite, doc-examples
#      included.  Every seed-pure figure is an equality here: the open-loop
#      curves, knees and Zipf points (tests/open_loop.rs),
#      the 18-cell scenario SLO table (tests/topology_scenarios.rs), the
#      observed run's event counters (tests/observability.rs), the 1 %-drop
#      run's abort count (tests/fault_checker.rs);
#   2. lints + documentation: `cargo clippy --workspace --all-targets` and
#      `cargo doc --no-deps`, both with warnings denied (a broken intra-doc
#      link fails the build);
#   3. golden-fingerprint freshness: the committed seeded-history fixtures
#      (tests/golden_histories.txt, and tests/golden_fault_histories.txt for
#      the crash / partition / dup-storm matrix) must match what
#      `snow golden [--faults]` prints from the current engine — catching accidental schedule changes *and* fixture
#      files regenerated without justification;
#   4. the release-build suites, one command: the differential suite
#      (stream vs complete search, stream vs `check_auto`, conviction at
#      the right commit, bounded live window, one generator), the
#      `GraphChecker` forward's convictions (tests/checker_differential.rs)
#      and `check_auto`'s pinned verdicts on 2 000- and 5 000-transaction
#      untagged histories (tests/check_auto_verdicts.rs),
#      the fault suites (determinism, an empty schedule is inert,
#      checker agreement on scarred histories, orphan retirement, the
#      N verdict surviving the dup storm — no READ of AlgB / AlgC / Simple
#      is flagged blocking because a duplicate answered it late — and the
#      expected verdicts under duplication: Algorithms A / B / C certified
#      `Serializable`, never `Unknown`, on the tiny-history sweep, under the
#      dup storm and at 1 % duplication on the WAN, plus the benchmark's
#      drop + duplication fault phase pinned as a conviction) and the
#      stream checker's hot path (tests/stream_hot_path.rs: an exact
#      allocation budget inside `ingest` + `advance_watermark`, pinned
#      witness digests and work counters, the live window on a 1 000- and a
#      10 000-transaction driver history, and
#      `stream_agrees_with_check_auto_on_an_open_loop_algc_history`: a
#      5 000-arrival AlgC open loop on which the stream checker once
#      panicked with "live slot", and at 10 000 arrivals, `open-c-read`'s
#      shape, `check_auto` against the batch Lemma 20 reference, witness
#      included) and the instrumentation sweep
#      (tests/instrumentation_sweep.rs: one digest over rounds, C2C counts
#      and read results under faults × schedules × contention) and the
#      dispatch path's cost counters (tests/dispatch_hot_path.rs: the exact
#      allocations per committed transaction and the exact peak-live-heap
#      pins — requested bytes, peak and the gap to the live bytes at
#      return — of a 1 000-transaction AlgB closed loop on the WAN, of one
#      in a single DC with 128-client rounds
#      — `wide_closed_loop_algb_in_one_dc_allocates_exactly_this_much` —
#      and of a 1 000-arrival AlgC open loop, and the streaming WAN run's
#      gap again at 10 000 transactions).  Then the
#      open-loop driver's linear cost as a pure count (crates/workload,
#      `the_driver_waits_once_per_transaction_and_probes_nothing`: one
#      completion wait per transaction, zero `is_complete` probes) and
#      "final at RESP" (`drained_records_equal_the_final_history`: every
#      record `drain_commits` streamed equals the one in the history the
#      driver takes at the end of the run, dup storm included), the
#      hand-over of that history (crates/sim,
#      `take_history_moves_out_what_history_copies`: the take returns what
#      `history()` copies and leaves no record and no commit behind) and
#      Algorithm C's `Vals` bookkeeping (crates/protocols,
#      `c_waits_for_every_vals_set_when_one_arrives_twice`: a duplicated
#      `read-vals` response is not counted twice), `List` as keys plus a
#      per-object index (crates/protocols,
#      `write_log_agrees_with_the_reverse_scan_reference`: tags,
#      `latest_for`, `tag_array` and `len` against the reverse scan it
#      replaced), `Vals` as a log in install order (crates/core,
#      `object_versions_agree_with_an_ordered_map`: lookups — through the
#      writer's mark or newest-first — counts, the marks, the latest version
#      and snapshots against an ordered map; `a_mark_cannot_silently_widen`),
#      the message path's clone guard (crates/sim,
#      `the_message_path_clones_only_what_the_fault_engine_duplicates`: a
#      fault-free run clones no payload, a duplicating one exactly one per
#      `MessageDuplicated` event), the message pool against an ordered
#      map under random inserts, pops, picks and re-queues, and its
#      16-byte heap entry (crates/sim `pool::tests`), wide transaction
#      specs (crates/core,
#      `wide_specs_build_and_still_reject_a_duplicate_anywhere`: a 10⁵-object
#      READ and WRITE build, a duplicate anywhere still panics) and the record log sized from the plan (crates/sim
#      `a_reserved_log_is_allocated_once`, crates/workload
#      `every_driver_reserves_what_it_issues_once_before_invoking`).  The drivers'
#      streaming check (`TagOrderStream`, Lemma 20 over the commit stream):
#      its soundness differential against the batch Lemma 20 reference
#      (tests/support/lemma20.rs) and the stream engine
#      (tests/stream_differential.rs), its unit tests (crates/checker
#      `tag_stream`, and `strict` for `check_auto`, which is the same stream
#      fed a finished history — in any record order), the
#      streaming-checked AlgB allocation pins (tests/dispatch_hot_path.rs)
#      and the driver tests (crates/workload: a checked run equals
#      `check_auto` on the finished history, witness included, on A/B/C; an
#      untagged run is checked exactly as by the stream engine fed the same
#      drains; AlgB under duplication stays certified by tag order; under
#      drops the verdict takes the stream engine's category).  Every
#      by-name run fails on a listed name that matches no test;
#   5. repo-benchmark smoke and digests: `examples/e2e_bench -- --smoke`
#      runs every BENCHMARK.json workload through both passes (plain +
#      traced) in about a second and exits non-zero if any fails its
#      correctness gate (verdict, protocol claims, history digest stable
#      across reps); the per-message helpers the generic dispatch loop
#      calls (latency draw, link lookup, fault delay, causal stamp, record
#      log, `Vals` store, history lookup, tag-order ingest) must not
#      survive as symbols of the benchmark binary it built (`nm`): each is
#      inlined across the crate boundary by its `#[inline]`; then each
#      workload runs once at `--seed 1 --seconds 0.01 --trace 0` (about
#      2.5 s for the three) and its printed history `digest` must equal
#      the pinned one.  Neither writes a file;
#   6. end-to-end runs through the `snow` binary: `run observe` (observed
#      open loop → metrics fold → Perfetto export → checker frontier) and
#      `run partition-drill` (isolate a topology site mid-workload under the
#      Queue policy, heal, per-phase p99, SNOW verdict over the scarred
#      history), each to its closing "… ok" line;
#   7. virtual-time purity guard: crates/sim must never read the wall clock
#      (`std::time` / `Instant`) — simulator event streams are a pure
#      function of (config, seeds), which is what makes every pin above
#      meaningful — nor start or synchronize threads (`std::thread`,
#      `Barrier`, `Mutex`): the simulator is single-threaded;
#   8. one mixer: the `splitmix64` behind every per-message draw (latencies,
#      fault gates, the random scheduler's stream) has one definition,
#      `snow_core::hash::splitmix64`; a second one lets its users drift
#      apart.  (Stateful RNG draws need no grep: crates/sim does not depend
#      on `rand`.)
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

fresh() { # <fixture> <golden flags...>: regenerate and diff
    local fixture="$1"
    shift
    if ! diff <(snow golden "$@") "$fixture"; then
        echo "$fixture is stale or the engine's schedules changed.  If (and only if)" >&2
        echo "the semantics changed intentionally, regenerate with:" >&2
        echo "  cargo run -p snow-bench --release -- golden $* --write" >&2
        exit 1
    fi
}

bench() { # <e2e_bench args...>: run the repo benchmark (its own package and target dir)
    cargo run --release --offline --quiet --manifest-path examples/e2e_bench/Cargo.toml -- "$@"
}

by_name() { # <cargo test args...> -- <names...>: run, in release, the tests
    # whose names contain one of <names> (libtest's filter), after failing
    # on a name that matches no test — a stale name runs nothing and passes
    local args=() listed name
    while [ "$1" != "--" ]; do
        args+=("$1")
        shift
    done
    shift
    listed="$(cargo test -q --release "${args[@]}" -- --list | sed -n 's/: test$//p')"
    for name in "$@"; do
        if ! grep -qF -- "$name" <<< "$listed"; then
            echo "cargo test ${args[*]}: no test matches '$name'; update the list" >&2
            exit 1
        fi
    done
    cargo test -q --release "${args[@]}" -- "$@"
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

echo "== 3. golden fingerprint freshness (clean + fault matrix) =="
fresh tests/golden_histories.txt
fresh tests/golden_fault_histories.txt --faults
echo "fixtures fresh"

echo "== 4. release suites: differentials, faults, hot paths, probe count =="
# The drivers' streaming check reads each committed record in place: the
# drain hands over ids, the tag-order stream holds a rank and reads the
# record back from the cluster (or, at finish, from the taken history).
# drained_records_equal_the_final_history is what licenses that: a record
# is final at its RESP, so the record read mid-run is the one the history
# ends with.  The in-place lane's tests run by name below.
# check_auto is the tag-order stream fed the finished history; where tags
# cannot decide, its verdict is the stream engine's (StreamChecker::check).
cargo test -q --release --test stream_differential --test checker_differential \
    --test fault_determinism --test fault_checker --test stream_hot_path \
    --test instrumentation_sweep --test dispatch_hot_path
by_name --test check_auto_verdicts -- \
    check_auto_certifies_algb_with_its_tags_stripped_at_2000 \
    check_auto_certifies_algb_with_its_tags_stripped_at_5000 check_auto_convicts_eiger_at_2000 \
    check_auto_certifies_blocking_at_2000 check_auto_convicts_simple_at_2000 \
    check_auto_certifies_the_algc_open_loop_with_its_tags_stripped
by_name -p snow-workload -- \
    the_driver_waits_once_per_transaction_and_probes_nothing drained_records_equal_the_final_history \
    streaming_check_mode_agrees_with_post_hoc streaming_open_loop_agrees_with_post_hoc \
    untagged_runs_are_checked_by_the_semantic_stream_engine_alone \
    duplication_leaves_algb_certified_by_tag_order \
    under_drops_streaming_defers_to_the_semantic_engines_category \
    every_driver_reserves_what_it_issues_once_before_invoking
by_name -p snow-core -p snow-sim -p snow-protocols -p snow-checker -- \
    take_history_moves_out_what_history_copies c_waits_for_every_vals_set_when_one_arrives_twice \
    drain_commits_streams_the_history_in_resp_order find_looks_records_up_by_invocation_time_and_id \
    write_log_agrees_with_the_reverse_scan_reference a_reserved_log_is_allocated_once \
    tag_stream:: strict::tests::
# Transaction bodies keep their object lists in place (snow_core::InlineList):
# the list against Vec, and the sizes the lists buy (a pool slot <= 104 B,
# a record <= 152 B).
by_name -p snow-core -p snow-protocols -- \
    inline_list:: a_record_cannot_silently_widen the_pools_working_set_cannot_silently_widen
# Each object's `Vals` is a log in install order, looked up through the
# writer's mark, else newest-first: the log against the ordered map it
# replaced, the mark's size, and the streaming WAN run's peak over what it
# keeps, the same at 10 000 transactions as at 1 000.
by_name -p snow-core -- store::tests::object_versions_agree_with_an_ordered_map \
    store::tests::a_mark_cannot_silently_widen \
    txn::tests::wide_specs_build_and_still_reject_a_duplicate_anywhere
# Each message is written once into its pool slot and moved once out of it:
# a fault-free run clones no payload, a duplicating one one per duplicate.
# The pool against the ordered map of its live messages (pops in
# (deliver_at, id) order, no stale entry resurfacing), its 16-byte heap
# entry and the packed word's limits.
by_name -p snow-sim -- \
    sim::tests::the_message_path_clones_only_what_the_fault_engine_duplicates \
    pool::tests::the_pool_agrees_with_an_ordered_map pool::tests::a_heap_entry_cannot_silently_widen \
    pool::tests::a_packed_entry_round_trips_at_both_limits \
    pool::tests::an_id_one_past_the_limit_is_refused pool::tests::a_slot_one_past_the_limit_is_refused
by_name --test dispatch_hot_path -- \
    streaming_checked_algb_on_the_wan_keeps_its_gap_at_ten_thousand

echo "== 5. repo benchmark smoke + seed-1 digests (BENCHMARK.json workloads) =="
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
    snow_core::store::ShardStore::install snow_core::history::History::find
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

echo "== 6. end-to-end runs (snow run observe, snow run partition-drill) =="
run_ok observe "observe_run ok"
run_ok partition-drill "partition_drill ok"

echo "== 7. virtual-time purity (no wall clock, no threads in crates/sim) =="
forbid "$(grep -rn --include='*.rs' -E 'std::time|\bInstant\b|std::thread|\bBarrier\b|\bMutex\b' crates/sim/src || true)" \
    "the simulator read the wall clock or used threads" \
    "Simulator events are stamped with virtual ticks only; wall-clock timing belongs to the repo benchmark.  The simulator is single-threaded and deterministic; every pin in this script relies on it."
echo "sim is wall-clock and thread free"

echo "== 8. one mixer (a single splitmix64 definition) =="
forbid "$(grep -rn --include='*.rs' 'fn splitmix64' crates/sim || true)" \
    "splitmix64 defined under crates/sim" \
    "The mixer has one definition, snow_core::hash::splitmix64; a private copy lets latency draws and fault gates drift apart."
echo "one splitmix64"

echo "CI green"
