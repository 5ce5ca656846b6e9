//! The `snow` binary's front door: the impossibility figures print their
//! verdicts, the partition drill prints its pinned lines, and a command it
//! does not know is refused with status 2, the usage on stderr and nothing
//! on stdout.

use std::process::{Command, Output};

fn snow(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snow")).args(args).output().expect("run snow")
}

fn stdout_of(args: &[&str]) -> String {
    let out = snow(args);
    assert!(out.status.success(), "snow {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn fig_3_and_fig_4_convict_the_chains() {
    for fig in ["3", "4"] {
        let out = stdout_of(&["fig", fig]);
        assert!(out.contains("VIOLATED (as the theorem requires)"), "fig {fig}:\n{out}");
    }
}

#[test]
fn fig_5_convicts_eiger_and_clears_the_sequential_control() {
    let out = stdout_of(&["fig", "5"]);
    assert!(out.contains("strict serializability: VIOLATED"), "{out}");
    assert!(out.contains("strictly serializable: true"), "{out}");
}

#[test]
fn misuse_exits_2_with_usage_on_stderr_only() {
    for args in [&["figure", "3"][..], &["fig", "3", "--write"], &["golden", "--trace"], &[]] {
        let out = snow(args);
        assert_eq!(out.status.code(), Some(2), "snow {args:?}");
        assert!(out.stdout.is_empty(), "snow {args:?} wrote to stdout");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: snow"), "snow {args:?}");
    }
}

/// The partition drill — the one run through a `Queue` partition — pinned
/// line for line: the cut's size, the retired count and the virtual
/// duration, each phase's committed count and p99, and the SNOW line.
#[test]
fn the_partition_drill_is_pinned() {
    let out = stdout_of(&["run", "partition-drill"]);
    let pinned = [
        "partition drill: AlgB on wan3, isolating us-east = 5 processes over site-ticks 2000..9000 (Queue policy)",
        "400 transactions retired in 24382 virtual site-ticks",
        "phase before: 62 committed, 0 aborted, p99 latency 7313 site-ticks",
        "phase during: 2 committed, 0 aborted, p99 latency 7017 site-ticks",
        "phase  after: 336 committed, 0 aborted, p99 latency 413 site-ticks",
        "partition_drill / Algorithm B                 SN-W  rounds(mean=2.00,max=2)  versions(mean=1.00,max=1)  nonblocking=100%",
        "partition_drill ok",
    ];
    assert_eq!(out.lines().collect::<Vec<_>>(), pinned);
}
