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
