//! The `snow` binary's front door: the impossibility figures print their
//! verdicts, and a command it does not know is refused with status 2, the
//! usage on stderr and nothing on stdout.

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
