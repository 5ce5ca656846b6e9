//! The dispatch path's deterministic cost counter (ROADMAP aim 1): heap
//! allocations per committed transaction of one driver call, counted by a
//! `#[global_allocator]` local to this test binary and pinned **exactly** —
//! the count is a pure function of the seeds, the same in debug and release
//! builds.  Three runs shaped like the repo benchmark's workloads:
//!
//! * 1 000 AlgB transactions on the three-site WAN, closed loop in rounds
//!   of 8 (`closed-b-wan3`'s shape): the round driver, the topology
//!   scheduler, two-round reads;
//! * 1 000 AlgB transactions in one DC, 64 writers and 64 readers, closed
//!   loop in rounds of 128 (`wide-b-dc`'s shape): deep delivery queues and
//!   wide rounds;
//! * 1 000 AlgC arrivals, open loop under the latency scheduler
//!   (`open-c-read`'s shape): the commit-gated wait, one-round reads with
//!   multi-version responses;
//! * the two AlgB runs again through `run_checked_mode(.., Streaming)`,
//!   the call the benchmark times for them: the commit drain's copies and
//!   the in-run check on top.
//!
//! The counted region is the driver call: generator, engine, protocol
//! handlers, the driver's take of the record log (and the check, for the
//! streaming runs).  A change that adds a clone of a `TxSpec`, an
//! effects buffer built per handler call, or a record container that
//! regrows moves a pin here, whatever the host's speed that day.
//!
//! History of the pins.  The slab message pool moved both by a per-run
//! constant — 13 638 → 13 635 and 16 971 → 16 969, the same −3 / −2 at
//! 2 000 and 4 000 transactions: the windowed index's reallocations it
//! deleted, net of the free list's.  One reused effects buffer per dispatch
//! core then moved them to 13 637 and 15 054.  An AlgC READ sends
//! `get-tag-arr` plus one `read-vals` per object, and 959 handler calls of
//! the run sent 5 messages, past the old inline buffers' capacity of 4:
//! each spilled both the protocol's buffer and the protocol-erased one,
//! 2 × 959 allocations, now gone.  What is left is the reused buffer's
//! one-time growth: sends 4 → 8 plus responses for AlgC, and the first
//! allocation of each for AlgB, whose handler calls send at most 2
//! messages and respond at most once.
//!
//! Then the transaction path stopped building throw-away collections, and
//! the pins moved once more: 13 637 → 8 217 (AlgB, WAN), 15 054 → 11 013
//! (AlgC), and the wide AlgB run, pinned from then on, would have read
//! 12 588 before it and reads 7 780.  Gone per generated transaction: the
//! generator's `BTreeSet` draw and the spec constructor's `BTreeSet`
//! distinctness check (the round driver draws more transactions than it
//! issues, discarding a draw whose client already has one this round); per
//! WRITE, the writer's set of outstanding acks; per READ, the outcome's
//! second `Vec`; per round, the round driver's set of seen clients.
//!
//! When a link's draw became the delivery time (no slot round-up, no
//! per-destination sub-tick band), the wide AlgB run in one DC became a
//! new schedule and its pin moved 7 780 → 7 786: six allocations in 1 000
//! transactions, the growth of buffers sized by what is in flight at once,
//! not a per-transaction cost.  The other two pins held.
//!
//! Then the drivers stopped copying the run's records, and the pins moved
//! 8 217 → 6 215 (AlgB, WAN), 7 786 → 5 778 (AlgB, one DC) and 11 013 →
//! 6 182 (AlgC).  A driver ends by moving the record log out instead of
//! copying it: the copy's vector, one allocation per WRITE record (its
//! spec) and three per READ record (its spec, its instrumented reads, its
//! outcome's reads) — about two per transaction at the AlgB runs' even mix,
//! 2.9 at AlgC's 96 % READs.  The round driver also dropped its list of
//! issued ids.  An AlgC READ keeps its `Vals` snapshots by position in a
//! buffer the reader reuses, instead of a map per READ, and clones its
//! object list once (for `get-tag-arr`) instead of twice: two fewer per
//! READ.
//!
//! The streaming-checked runs were pinned when the streaming check began
//! certifying by tag order (`TagOrderStream`) instead of through the
//! precedence graph: they would have read 8 887 (WAN) and 8 758 (one DC)
//! with the graph engine in the run, and read 8 475 and 7 860.  Left on top
//! of the unchecked runs: the commit drain's copy of each record (its
//! spec, and a READ's instrumented reads and outcome), the witness, and the
//! held-commit heap's and running maximum's growth.

use snow::checker::check_auto;
use snow::core::{SystemConfig, TxRecord};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::sim::Topology;
use snow::workload::{
    drive_open_loop, CheckMode, OpenLoopSpec, WorkloadDriver, WorkloadGenerator, WorkloadSpec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

// ---- counting allocator (the pattern of tests/stream_hot_path.rs) ----------

thread_local! {
    /// `Some(n)` while the current thread is counting.  Per thread, so the
    /// tests of this binary can run in parallel without seeing each other.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.  The cell has no destructor and its access never allocates.
    let _ = ALLOCS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches one thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and how many heap allocations
/// (reallocations included) this thread made inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|c| c.set(Some(0)));
    let result = f();
    (result, ALLOCS.with(|c| c.replace(None)).expect("counting was on"))
}

const TRANSACTIONS: usize = 1_000;

#[test]
fn closed_loop_algb_on_the_wan_allocates_exactly_this_much() {
    let config = SystemConfig::mwmr(8, 4, 4);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .topology(Arc::new(Topology::wan3(&config)), 7)
        .max_steps(u64::MAX)
        .build()
        .expect("AlgB runs on MWMR configurations");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let ((history, report), allocs) =
        counted(|| WorkloadDriver::new(8).run(cluster.as_mut(), &mut generator, TRANSACTIONS));
    assert_eq!((report.issued, report.completed), (TRANSACTIONS, TRANSACTIONS));
    assert!(history.records.iter().all(TxRecord::is_complete));
    assert_eq!(allocs, 6_215, "{:.3} per committed transaction", allocs as f64 / 1e3);
}

#[test]
fn wide_closed_loop_algb_in_one_dc_allocates_exactly_this_much() {
    let config = SystemConfig::mwmr(16, 64, 64);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .topology(Arc::new(Topology::single_dc(&config)), 7)
        .max_steps(u64::MAX)
        .build()
        .expect("AlgB runs on MWMR configurations");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let ((history, report), allocs) =
        counted(|| WorkloadDriver::new(128).run(cluster.as_mut(), &mut generator, TRANSACTIONS));
    assert_eq!((report.issued, report.completed), (TRANSACTIONS, TRANSACTIONS));
    assert!(history.records.iter().all(TxRecord::is_complete));
    assert_eq!(allocs, 5_778, "{:.3} per committed transaction", allocs as f64 / 1e3);
}

/// The two AlgB shapes again, through `run_checked_mode(.., Streaming)`:
/// the driver call the benchmark times, the in-run check included.
fn streaming_checked_algb(config: SystemConfig, topology: Topology, per_round: usize) -> u64 {
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .topology(Arc::new(topology), 7)
        .max_steps(u64::MAX)
        .build()
        .expect("AlgB runs on MWMR configurations");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let ((history, report, verdict), allocs) = counted(|| {
        WorkloadDriver::new(per_round).run_checked_mode(
            cluster.as_mut(),
            &mut generator,
            TRANSACTIONS,
            CheckMode::Streaming,
        )
    });
    assert_eq!((report.issued, report.completed), (TRANSACTIONS, TRANSACTIONS));
    assert_eq!(verdict, check_auto(&history), "certified by tag order");
    allocs
}

#[test]
fn streaming_checked_algb_on_the_wan_allocates_exactly_this_much() {
    let config = SystemConfig::mwmr(8, 4, 4);
    let allocs = streaming_checked_algb(config.clone(), Topology::wan3(&config), 8);
    assert_eq!(allocs, 8_475, "{:.3} per committed transaction", allocs as f64 / 1e3);
}

#[test]
fn streaming_checked_wide_algb_in_one_dc_allocates_exactly_this_much() {
    let config = SystemConfig::mwmr(16, 64, 64);
    let allocs = streaming_checked_algb(config.clone(), Topology::single_dc(&config), 128);
    assert_eq!(allocs, 7_860, "{:.3} per committed transaction", allocs as f64 / 1e3);
}

#[test]
fn open_loop_algc_allocates_exactly_this_much() {
    let config = SystemConfig::mwmr(8, 2, 6);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
        .scheduler(SchedulerKind::Latency { seed: 7, min: 1, max: 16 })
        .max_steps(u64::MAX)
        .build()
        .expect("AlgC runs on MWMR configurations");
    let spec = OpenLoopSpec {
        workload: WorkloadSpec { read_fraction: 0.96, ..WorkloadSpec::tao_like() },
        rate: 50,
        arrivals: TRANSACTIONS,
        arrival_seed: 7,
    };
    let ((history, report), allocs) =
        counted(|| drive_open_loop(cluster.as_mut(), &config, &spec));
    assert_eq!((report.issued, report.completed), (TRANSACTIONS, TRANSACTIONS));
    assert!(history.records.iter().all(TxRecord::is_complete));
    assert_eq!(allocs, 6_182, "{:.3} per committed transaction", allocs as f64 / 1e3);
}
