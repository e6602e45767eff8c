//! The `faults` binary refuses a bad flag before any point runs: a
//! message naming the flag, and exit status 2.

use std::process::Command;

/// Runs `faults` with `args` (after `--smoke`, so a binary that accepts
/// them runs only the short campaign) and returns its stderr, asserting
/// exit status 2.
fn refused(args: &[&str]) -> String {
    let tag = args.join("_");
    let results =
        std::env::temp_dir().join(format!("secsim-faults-cli{tag}-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_faults"))
        .arg("--smoke")
        .args(args)
        .env("SECSIM_RESULTS", &results)
        .output()
        .expect("faults starts");
    let _ = std::fs::remove_dir_all(&results);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    stderr
}

#[test]
fn timeout_secs_needs_a_positive_number() {
    for args in [&["--timeout-secs"][..], &["--timeout-secs", "banana"], &["--timeout-secs", "0"]] {
        let stderr = refused(args);
        assert!(
            stderr.contains("error: --timeout-secs needs a positive number of seconds"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn unknown_flags_are_refused() {
    let stderr = refused(&["--timeout-sec", "5"]);
    assert!(stderr.contains("error: unknown flag --timeout-sec"), "{stderr}");
}
