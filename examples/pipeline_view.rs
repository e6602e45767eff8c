//! Watch the pipeline: an ASCII Gantt chart of the same code under
//! authen-then-issue vs authen-then-commit, making the control point
//! visible instruction by instruction.
//!
//! ```text
//! cargo run --release --example pipeline_view
//! ```

use secsim::core::Policy;
use secsim::cpu::{render_timeline, SimConfig, SimSession};
use secsim::isa::{FlatMem, MemIo};
use secsim::workloads::assemble;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A miss, a use of the missed data, and some independent filler.
    let words = assemble(
        "
        li   r5, 0x100000   # cold line -> L2 miss
        lw   r1, 0(r5)      # the miss
        add  r2, r1, r1     # uses the loaded (decrypted) value
        addi r3, r3, 1      # independent work
        addi r3, r3, 2
        addi r3, r3, 3
        lw   r4, 0(r2)      # dependent second miss
        halt
        ",
    )?
    .code;
    let mut mem = FlatMem::new(0x1000, 4 << 20);
    mem.load_words(0x1000, &words);
    mem.write_u32(0x10_0000, 0x20_0000);

    for policy in [
        Policy::baseline(),
        Policy::authen_then_commit(),
        Policy::authen_then_issue(),
    ] {
        let cfg = SimConfig::paper_256k(policy);
        let r = SimSession::new(&cfg).trace_bus(true).run(&mut mem.clone(), 0x1000).into_report();
        println!("=== {policy} ({} cycles) ===", r.cycles);
        println!("{}", render_timeline(&r.inst_timings, 100));
    }
    println!("Under authen-then-issue the consumer of the loaded value (and everything");
    println!("after it) slides right by the verification latency; under authen-then-commit");
    println!("only the C markers move — execution races ahead speculatively.");
    Ok(())
}
