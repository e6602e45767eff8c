//! The `secsim` binary's argument handling, run as a user would.

use std::process::Command;

/// An RUU size past `u32::MAX` is refused by the value typed, never
/// wrapped: 2^32 + 64 once ran as a 64-entry RUU, and 2^32 reached
/// validation as 0.
#[test]
fn run_refuses_an_ruu_size_that_does_not_fit() {
    for ruu in ["4294967360", "4294967296"] {
        let out = Command::new(env!("CARGO_BIN_EXE_secsim"))
            .args(["run", "--bench", "gzip", "--insts", "1000", "--ruu", ruu])
            .output()
            .expect("secsim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--ruu {ruu} must fail, got: {stderr}");
        assert!(stderr.contains(ruu), "--ruu {ruu}: the error must name the value, got: {stderr}");
    }
}

/// `secsim asm FILE` and `secsim run --program FILE` run a source file
/// the same way: they print the same instruction count, cycles, IPC,
/// status and output-port lines.
#[test]
fn asm_and_run_program_print_the_same_report() {
    let sasm = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/countdown.sasm");
    let report = |args: &[&str]| {
        let out =
            Command::new(env!("CARGO_BIN_EXE_secsim")).args(args).output().expect("secsim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} failed: {stderr}");
        let keys = ["insts ", "cycles ", "IPC ", "status ", "out port "];
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| keys.iter().any(|k| l.starts_with(k)))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    let asm = report(&["asm", sasm, "--policy", "commit"]);
    let run = report(&["run", "--program", sasm, "--policy", "commit"]);
    assert_eq!(asm.len(), 5, "asm printed {asm:?}");
    assert_eq!(asm, run);
    // The countdown's own result: 2003 instructions, then 0 on port 1.
    assert!(asm[0].ends_with(" 2003"), "{asm:?}");
    assert!(asm[4].starts_with("out port 1 = 0x0 @ cycle "), "{asm:?}");
}
