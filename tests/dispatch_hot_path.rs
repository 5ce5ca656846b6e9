//! The dispatch path's deterministic cost counters (ROADMAP aim 1): heap
//! allocations per committed transaction of one driver call, and the peak
//! of its live heap bytes, counted by a `#[global_allocator]` local to this
//! test binary and pinned **exactly** — both are pure functions of the
//! seeds, the same in debug and release builds (requested bytes, not what
//! the system allocator rounds them to).  Three runs shaped like the repo
//! benchmark's workloads:
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
//!   the call the benchmark times for them: the in-run check on top;
//! * the streaming WAN run at 10 000 transactions, which pins only its gap
//!   between peak and live bytes at return: the same as at 1 000.
//!
//! The counted region is the driver call: generator, engine, protocol
//! handlers, the driver's take of the record log (and the check, for the
//! streaming runs).  A change that adds a clone of a `TxSpec`, an
//! effects buffer built per handler call, or a record container that
//! regrows moves a pin here, whatever the host's speed that day; one that
//! keeps more bytes per transaction, or frees a larger block later, moves
//! a peak.
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
//!
//! Then the streaming check began reading each committed record where the
//! simulator wrote it, and the streaming pins moved 8 475 → 6 227 (WAN)
//! and 7 860 → 5 807 (one DC), about 2.2 and 2.1 per transaction.  The
//! drain hands over RESP-ordered ids in a reused buffer instead of cloned
//! records, and the tag-order lane holds a commit's rank and RESP, reading
//! the record back from the cluster when the watermark certifies it: gone
//! are the drained batch's vector and each record's copy.  The sequential
//! replay keeps one dense key vector instead of a map's nodes.  Left on top
//! of the unchecked runs (6 215 and 5 778): the witness, the id buffer and
//! the replay's keys, and the held-commit heap's and running maximum's
//! growth.  The other three pins held.
//!
//! Then every driver began sizing the record log from its plan
//! (`Cluster::reserve`, once per driver call, with the count it will
//! issue), and the pins moved 6 215 → 6 200 (AlgB, WAN), 5 778 → 5 767
//! (AlgB, one DC), 6 182 → 6 167 (AlgC), 6 227 → 6 212 and 5 807 → 5 796
//! (the streaming runs): the record log and its `TxId → slot` table are one
//! allocation each, where they used to double their way up.  From then on
//! the counter also tracks live bytes, and each run pins its peak.  Before
//! that change the five peaks would have read 333 480, 370 088, 544 680,
//! 334 248 and 380 648 bytes; they read 289 712, 326 704, 496 072,
//! 290 480 and 337 264.  Gone per transaction: the log's unused capacity,
//! half of a two-object READ's instrumentation (allocated at its object
//! count, 48 bytes, instead of growing to a capacity of 4, 96 bytes), and
//! at the coordinator a WRITE's `List` entry shrank from its key plus its
//! object list to its key (the per-object index holds the rest); the open
//! loop also dropped its per-arrival map.  At 1 000 transactions the old
//! log's last doubling (at the 513th) was covered by the growth after it,
//! so the old peaks were only 56, 560, 760 and 10 096 bytes above the
//! closed-loop runs' live bytes at return; the gap is pinned too.
//!
//! Then transaction bodies began keeping their object lists in place
//! (`snow_core::InlineList`: up to four objects of a READ, two
//! `(object, value)` pairs of a WRITE, three objects of a WRITE's ack
//! list and of its `update-coor`), and the round drivers began reusing
//! one batch buffer across rounds, invoking per entry.  The pins moved
//! 6 200 → 1 691 (AlgB, WAN), 5 767 → 1 703 (AlgB, one DC), 6 167 → 3 086
//! (AlgC), 6 212 → 1 703 and 5 796 → 1 732 (the streaming runs).  Gone
//! per transaction: the generator's object list and a WRITE's pair list,
//! the record's copy of the spec at INV, the client's pending list, and
//! the `get-tag-arr` / `update-coor` payloads' copies — about four per
//! transaction, all copies of a two- to four-object list.  Gone per
//! round: the batch's vector and the ids `invoke_batch` returned, 2 × 125
//! on the WAN.  The peaks moved 289 712 → 278 088, 326 704 → 321 344,
//! 290 480 → 278 856 and 337 264 → 331 904, and on the AlgC run
//! 496 072 → 500 280: a spec's heap block is gone, but a `TxSpec` is 8
//! bytes wider (40 B: a WRITE's two pairs in place), and so is a record
//! (152 B), and the open loop holds every planned spec and a reserved
//! record for each arrival.  With one pair in place (a 32 B spec) that
//! peak reads 481 712, at 164 more allocations for the spilled WRITEs.
//! The closed-loop gaps between peak and live bytes at return moved
//! 104 → 416, 1 112 → 6 656, 808 → 1 120 and 10 648 → 16 192: the round's
//! reused buffers (its clients, 4 B each, and its transactions, 48 B
//! each: 8 × 52 = 416, 128 × 52 = 6 656) are freed at return instead of
//! mid-round, so the gap is still a round's width.
//!
//! Then each object's `Vals` became a log in install order (blocks of
//! 4·2ᵏ versions that never move, a per-writer high-water mark, a block
//! table sized for 8 blocks when the object is created) instead of an
//! ordered map, and the pins moved 1 691 → 1 577 (AlgB, WAN), 1 703 →
//! 1 688 (AlgB, one DC), 3 086 → 3 096 (AlgC), 1 703 → 1 589 and
//! 1 732 → 1 717 (the streaming runs).  An object allocates a block when
//! its versions double, not a node every few versions, plus its mark
//! table's growth; the AlgC run's objects hold a few versions each, which
//! fit in the map's first node but not in the log's first block, so it
//! allocates 10 more at 1 000 arrivals (at the benchmark's 10 000 it
//! allocates fewer).  Its snapshot is still one allocation.  The peaks
//! moved 278 088 → 264 688 and 278 856 → 265 456 on the WAN, 321 344 →
//! 324 640 and 331 904 → 335 200 in one DC, where each of the 16 objects
//! holds a mark for each of 64 writers (16 B each), more at 1 000
//! transactions than the map's nodes took (at 10 000 the streaming DC
//! run's peak per transaction falls 290.5 → 280.1 bytes), and 500 280 →
//! 500 760 on the AlgC run.  The four gaps held, and hold at 10 000
//! transactions: no structure that grows with the run holds two copies
//! of itself at the peak.
//!
//! Then the delivery heap's entries shrank from 24 to 16 bytes (the
//! message id and its pool slot packed into one word), and only the peaks
//! moved, each by 8 bytes per entry of the heap's capacity at the peak:
//! 264 688 → 264 560 and 265 456 → 265 328 on the WAN (16 entries),
//! 324 640 → 322 592 and 335 200 → 333 152 in one DC (256), 500 760 →
//! 500 504 on the AlgC run (32).  The allocations and the gaps held.
//!
//! Then each object's marks table became indexed by writer id and sized
//! once, when the deployment is built (an entry per client id), instead of
//! a sorted vector that grew inside the run by doubling from 4 entries;
//! and the invocation plan became a sorted `VecDeque` in place of a
//! `BinaryHeap`, which grows as the heap's vector did and moved nothing.
//! The tables now lie outside the counted region, so the pins fell by the
//! old tables' allocations and, the peaks, by their capacity at the peak,
//! 16 B per entry.  On the WAN and on the AlgC run every one of the 8
//! objects held one allocation of 4 entries (4 and 2 writers): 1 577 →
//! 1 569 and 1 589 → 1 581 (WAN), 3 096 → 3 088 (AlgC), and each peak
//! −8 × 4 × 16 = −512 B: 264 560 → 264 048, 265 328 → 264 816 and
//! 500 504 → 499 992.  In one DC, 12 of the 16 objects saw 36 to 60 of the
//! 64 writers (capacities 4, 8, 16, 32, 64: 5 allocations) and 4 saw 23
//! to 32 (4 allocations), −76 allocations: 1 688 → 1 612 and 1 717 → 1 641;
//! each peak −(12 × 64 + 4 × 32) × 16 = −14 336 B: 322 592 → 308 256 and
//! 333 152 → 318 816.  The deployment now holds its tables from the build
//! on, 16 B per client id per object: 8 × 8 × 16 = 1 KiB on the WAN and
//! AlgC runs, 16 × 128 × 16 = 32 KiB in one DC.  The gaps held.
//!
//! Then the paced and open-loop drivers became one completion loop, which
//! frees its per-client arrival queues when it returns, and only the AlgC
//! open loop moved: 3 088 → 3 087 allocations and a peak of 499 992 →
//! 475 992 bytes.  The peak was the report pass: 475 800 live bytes at the
//! take, plus the latency samples (8 000 + 8 192) and the sorted copy
//! `LatencyStats` takes (8 000), with the arrival queues (77 208 B), the
//! client list and the watch list (96 B) still held.  Without them that
//! pass peaks at 422 688, and the peak is the run's own, 475 992 before the
//! take, which it was already reaching.  The watch list is now allocated at
//! its width (8 clients) instead of collected from a filter (4, then
//! grown to 8): one allocation fewer.  The five other pins and the four
//! gaps held: a round's buffers are still 52 B per client.

#[path = "support/alloc.rs"]
mod alloc;

use alloc::{counted, Counts};
use snow::checker::check_auto;
use snow::core::{SystemConfig, TxRecord};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::sim::Topology;
use snow::workload::{
    drive_open_loop, CheckMode, OpenLoopSpec, WorkloadDriver, WorkloadGenerator, WorkloadSpec,
};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const TRANSACTIONS: usize = 1_000;

/// Pins a run's allocations and its peak live bytes, both exactly.
fn assert_counts(counts: Counts, allocs: u64, peak: i64) {
    let per_tx = TRANSACTIONS as f64;
    assert_eq!(
        (counts.allocs, counts.peak),
        (allocs, peak),
        "{:.3} allocations and a peak of {:.1} live bytes per committed transaction",
        counts.allocs as f64 / per_tx,
        counts.peak as f64 / per_tx,
    );
}

/// A closed-loop run's peak is what it returns holding, plus exactly
/// `freed` bytes: what the call frees before it returns — the last round's
/// messages and transaction state, the round buffers and, for a streaming
/// run, the checker.  That is bounded by a round's width, not by the
/// run's length.
fn assert_peak_is_what_it_keeps(counts: Counts, freed: i64) {
    let (peak, live) = (counts.peak, counts.live);
    assert_eq!(peak - live, freed, "peak {peak} over {live} live bytes at return");
}

fn closed_loop_algb(config: SystemConfig, topology: Topology, per_round: usize) -> Counts {
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .topology(Arc::new(topology), 7)
        .max_steps(u64::MAX)
        .build()
        .expect("AlgB runs on MWMR configurations");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let ((history, report), counts) = counted(|| {
        WorkloadDriver::new(per_round).run(cluster.as_mut(), &mut generator, TRANSACTIONS)
    });
    assert_eq!((report.issued, report.completed), (TRANSACTIONS, TRANSACTIONS));
    assert!(history.records.iter().all(TxRecord::is_complete));
    counts
}

#[test]
fn closed_loop_algb_on_the_wan_allocates_exactly_this_much() {
    let config = SystemConfig::mwmr(8, 4, 4);
    let counts = closed_loop_algb(config.clone(), Topology::wan3(&config), 8);
    assert_counts(counts, 1_569, 264_048);
    assert_peak_is_what_it_keeps(counts, 416);
}

#[test]
fn wide_closed_loop_algb_in_one_dc_allocates_exactly_this_much() {
    let config = SystemConfig::mwmr(16, 64, 64);
    let counts = closed_loop_algb(config.clone(), Topology::single_dc(&config), 128);
    assert_counts(counts, 1_612, 308_256);
    assert_peak_is_what_it_keeps(counts, 6_656);
}

/// The two AlgB shapes again, through `run_checked_mode(.., Streaming)`:
/// the driver call the benchmark times, the in-run check included, for
/// `transactions` transactions.
fn streaming_checked_algb(
    config: SystemConfig,
    topology: Topology,
    per_round: usize,
    transactions: usize,
) -> Counts {
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .topology(Arc::new(topology), 7)
        .max_steps(u64::MAX)
        .build()
        .expect("AlgB runs on MWMR configurations");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let ((history, report, verdict), counts) = counted(|| {
        WorkloadDriver::new(per_round).run_checked_mode(
            cluster.as_mut(),
            &mut generator,
            transactions,
            CheckMode::Streaming,
        )
    });
    assert_eq!((report.issued, report.completed), (transactions, transactions));
    assert_eq!(verdict, check_auto(&history), "certified by tag order");
    counts
}

#[test]
fn streaming_checked_algb_on_the_wan_allocates_exactly_this_much() {
    let config = SystemConfig::mwmr(8, 4, 4);
    let counts = streaming_checked_algb(config.clone(), Topology::wan3(&config), 8, TRANSACTIONS);
    assert_counts(counts, 1_581, 264_816);
    assert_peak_is_what_it_keeps(counts, 1_120);
}

/// The streaming WAN run ten times longer: its peak over what it keeps is
/// the same 1 120 bytes, so nothing the run frees before it returns grows
/// with its length — no buffer that doubles holds two copies of a
/// run-length structure at the peak.
#[test]
fn streaming_checked_algb_on_the_wan_keeps_its_gap_at_ten_thousand() {
    let config = SystemConfig::mwmr(8, 4, 4);
    let counts = streaming_checked_algb(config.clone(), Topology::wan3(&config), 8, 10_000);
    assert_peak_is_what_it_keeps(counts, 1_120);
}

#[test]
fn streaming_checked_wide_algb_in_one_dc_allocates_exactly_this_much() {
    let config = SystemConfig::mwmr(16, 64, 64);
    let counts =
        streaming_checked_algb(config.clone(), Topology::single_dc(&config), 128, TRANSACTIONS);
    assert_counts(counts, 1_641, 318_816);
    assert_peak_is_what_it_keeps(counts, 16_192);
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
    let ((history, report), counts) =
        counted(|| drive_open_loop(cluster.as_mut(), &config, &spec));
    assert_eq!((report.issued, report.completed), (TRANSACTIONS, TRANSACTIONS));
    assert!(history.records.iter().all(TxRecord::is_complete));
    assert_counts(counts, 3_087, 475_992);
}
