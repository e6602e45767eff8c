//! Seeded properties of the pipeline over random straight-line programs:
//! under every policy it computes what the functional interpreter
//! computes, with causal timing, and gating only ever slows a run down.
//!
//! Each property runs on `secsim_stats::for_each_case` and names the case
//! seed in every assert message, so a failure replays from that seed
//! alone. Each also runs `SHRUNK` first.

use secsim_core::Policy;
use secsim_cpu::{SimConfig, SimSession};
use secsim_isa::{encode, step, ArchState, FlatMem, Inst, MemIo, Reg};
use secsim_stats::{for_each_case, SplitMix64};

const CASES: u64 = 256;
const DATA_BASE: u32 = 0x8000;
const CODE_BASE: u32 = 0x1000;

/// A one-instruction body that once failed these properties (kept from
/// an earlier property-test run's shrunk counterexample).
const SHRUNK: [Inst; 1] = [Inst::Add { rd: Reg::R1, rs1: Reg::R1, rs2: Reg::R1 }];

/// A terminating body of 1..60 integer ALU ops and loads/stores at
/// bounded offsets from r9 (the data base, always mapped).
fn straightline_program(rng: &mut SplitMix64) -> Vec<Inst> {
    let reg = |rng: &mut SplitMix64| Reg::from_index(1 + rng.index(7) as u32);
    let len = 1 + rng.index(59);
    (0..len)
        .map(|_| {
            let (rd, rs1, rs2) = (reg(rng), reg(rng), reg(rng));
            let off = 4 * rng.index(128) as i16;
            match rng.index(9) {
                0 => Inst::Add { rd, rs1, rs2 },
                1 => Inst::Sub { rd, rs1, rs2 },
                2 => Inst::Xor { rd, rs1, rs2 },
                3 => Inst::Mul { rd, rs1, rs2 },
                4 => Inst::Divu { rd, rs1, rs2 },
                5 => Inst::Addi { rd, rs1, imm: rng.index(200) as i16 - 100 },
                6 => Inst::Slli { rd, rs1, sh: rng.index(32) as u8 },
                7 => Inst::Lw { rd, rs1: Reg::R9, off },
                _ => Inst::Sw { rs1: Reg::R9, rs2, off },
            }
        })
        .collect()
}

/// `body` between a prologue that points r9 at the data and seeds r1..r3,
/// and an epilogue that folds r1..r7 into r1, reports it on port 0 and
/// halts.
fn build_image(body: &[Inst]) -> (FlatMem, u32) {
    let mut mem = FlatMem::new(CODE_BASE, 256 * 1024);
    let mut words = vec![
        encode(Inst::Lui { rd: Reg::R9, imm: 0 }),
        encode(Inst::Ori { rd: Reg::R9, rs1: Reg::R9, imm: DATA_BASE as u16 }),
    ];
    for (i, r) in [Reg::R1, Reg::R2, Reg::R3].into_iter().enumerate() {
        words.push(encode(Inst::Addi { rd: r, rs1: Reg::R0, imm: (i as i16 + 1) * 17 }));
    }
    words.extend(body.iter().map(|i| encode(*i)));
    for r in [Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7] {
        words.push(encode(Inst::Xor { rd: Reg::R1, rs1: Reg::R1, rs2: r }));
    }
    words.push(encode(Inst::Out { rs1: Reg::R1, port: 0 }));
    words.push(encode(Inst::Halt));
    mem.load_words(CODE_BASE, &words);
    for i in 0..256u32 {
        mem.write_u32(DATA_BASE + 4 * i, i.wrapping_mul(2654435761));
    }
    (mem, CODE_BASE)
}

/// The value the functional interpreter reports.
fn reference_output(mem: &FlatMem, entry: u32) -> u32 {
    let mut m = mem.clone();
    let mut st = ArchState::new(entry);
    let mut out = None;
    while !st.halted && st.icount < 10_000 {
        let info = step(&mut st, &mut m).expect("valid program");
        out = info.out.map(|(_, v)| v).or(out);
    }
    assert!(st.halted, "reference did not halt");
    out.expect("the epilogue reports")
}

/// The pipeline's architectural result equals the interpreter's under
/// every policy, and its timing is causal.
fn matches_interpreter(body: &[Inst], case: &str) {
    let (mem, entry) = build_image(body);
    let expect = reference_output(&mem, entry);
    for policy in [
        Policy::baseline(),
        Policy::authen_then_issue(),
        Policy::authen_then_write(),
        Policy::commit_plus_fetch(),
    ] {
        let cfg = SimConfig::paper_256k(policy);
        let r = SimSession::new(&cfg).run(&mut mem.clone(), entry).into_report();
        assert!(r.halted, "{case}: {policy} did not halt");
        assert!(r.exception.is_none(), "{case}: {policy} raised {:?}", r.exception);
        assert_eq!(r.io_events.len(), 1, "{case}: {policy} out events");
        assert_eq!(r.io_events[0].value, expect, "{case}: {policy} output");
        assert!(r.cycles >= r.insts / 8, "{case}: {policy} beat the 8-wide commit limit");
        assert!(r.io_events[0].cycle <= r.cycles, "{case}: {policy} reported after the run");
    }
}

/// Gated runs are never faster than the baseline, and cycle counts
/// reproduce.
fn gating_slows_only(body: &[Inst], case: &str) {
    let (mem, entry) = build_image(body);
    let run = |p: Policy| {
        let cfg = SimConfig::paper_256k(p);
        SimSession::new(&cfg).run(&mut mem.clone(), entry).into_report().cycles
    };
    let base = run(Policy::baseline());
    assert_eq!(run(Policy::baseline()), base, "{case}: nondeterministic baseline");
    for policy in [Policy::authen_then_issue(), Policy::authen_then_commit()] {
        let cycles = run(policy);
        assert!(cycles >= base, "{case}: {policy} took {cycles} cycles, baseline {base}");
    }
}

#[test]
fn pipeline_matches_interpreter_under_all_policies() {
    matches_interpreter(&SHRUNK, "shrunk case");
    for_each_case(CASES, |seed, rng| {
        matches_interpreter(&straightline_program(rng), &format!("case seed {seed}"));
    });
}

#[test]
fn gating_never_speeds_up() {
    gating_slows_only(&SHRUNK, "shrunk case");
    for_each_case(CASES, |seed, rng| {
        gating_slows_only(&straightline_program(rng), &format!("case seed {seed}"));
    });
}
