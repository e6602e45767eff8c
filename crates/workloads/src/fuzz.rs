//! Deterministic random-program generation for the differential
//! co-simulation harness (`secsim-check`).
//!
//! Programs are generated from a [`SplitMix64`] stream, so a seed fully
//! determines the program bytes and data image — a divergence repro is
//! just a seed. The shape follows the paper's attack workloads: loads
//! biased toward pointer chains over a small footprint (aliasing is
//! frequent by construction), stores into the same window,
//! data-dependent forward branches, and an ALU/FP mix.
//!
//! Every program provably terminates: the only backward branch is the
//! outer countdown loop on a register the body never writes, and all
//! generated branches are forward skips bound inside the body. Every
//! memory access is confined to the footprint by masking pointers
//! (`and p, p, mask; add p, p, base`) immediately before use, so the
//! image's out-of-bounds counter stays zero.

use crate::builder::{Workload, CODE_BASE, DATA_BASE};
use crate::SplitMix64;
use secsim_isa::{Asm, FReg, FlatMem, MemIo, Reg};

/// Data footprint of every fuzz program (power of two, small enough
/// that pointer aliasing is frequent).
pub const FUZZ_FOOTPRINT: u32 = 1 << 14;

/// Pointer mask: keeps masked pointers 8-byte aligned inside the first
/// half of the footprint, leaving headroom for load/store offsets.
const PTR_MASK: u16 = 0x1FF8;

/// Offset of the secret word inside the data image — outside the
/// masked-pointer window (`< 0x2040`), so generated pointer traffic can
/// neither read nor clobber it.
pub const SECRET_OFF: u32 = 0x2100;

/// Offset of the first secret-probe window. Each window is 8 contiguous
/// 64-byte lines; windows are 16-line (1 KiB) aligned so all 8 candidate
/// remap-table entries of one window share a single 64-byte metadata
/// line, and every window maps to L1 sets disjoint from the
/// masked-pointer region.
const PROBE_WINDOW_OFF: u32 = 0x2800;

/// Byte stride between consecutive probe windows.
const PROBE_WINDOW_STRIDE: u32 = 0x400;

/// Number of probe windows (one 3-bit secret field each).
const PROBE_WINDOWS: u32 = 6;

/// Probe scratch registers, reserved: never in [`SCRATCH`] or
/// [`POINTERS`], so the generated body cannot disturb them.
const PROBE_ADDR: Reg = Reg::R24;
const SECRET: Reg = Reg::R25;

/// A secret-tagged region of the data image: the bytes the two-run
/// obliviousness oracle varies between runs. Everything *else* about
/// the program and image is identical across the pair, so any
/// observable difference is caused by these bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecretSpec {
    /// Absolute address of the first secret byte.
    pub addr: u32,
    /// Region length in bytes.
    pub bytes: u32,
}

impl SecretSpec {
    /// Overwrites the secret region with `fill` repeated.
    pub fn apply(&self, mem: &mut impl MemIo, fill: u8) {
        let buf = vec![fill; self.bytes as usize];
        mem.write(self.addr, &buf);
    }
}

/// Registers with fixed roles; the generated body never writes them.
const BASE: Reg = Reg::R28; // data base address
const MASK: Reg = Reg::R27; // pointer mask
const CTR: Reg = Reg::R26; // outer-loop countdown

const SCRATCH: [Reg; 12] = [
    Reg::R1,
    Reg::R2,
    Reg::R3,
    Reg::R4,
    Reg::R5,
    Reg::R6,
    Reg::R7,
    Reg::R8,
    Reg::R9,
    Reg::R10,
    Reg::R11,
    Reg::R12,
];
const POINTERS: [Reg; 4] = [Reg::R20, Reg::R21, Reg::R22, Reg::R23];
const FP: [FReg; 6] = [FReg::R1, FReg::R2, FReg::R3, FReg::R4, FReg::R5, FReg::R6];

/// A generated program plus everything a repro dump needs.
#[derive(Debug, Clone)]
pub struct FuzzProgram {
    /// The runnable workload (entry + initialized image).
    pub workload: Workload,
    /// The assembled instruction words (for divergence dumps).
    pub words: Vec<u32>,
    /// Instruction slots generated per loop body.
    pub body_len: u32,
    /// Outer-loop iterations.
    pub iters: u32,
    /// Upper bound on the dynamic instruction count (loose but safe:
    /// every static instruction executes at most once per iteration,
    /// plus prologue/epilogue).
    pub max_icount: u64,
    /// The secret-tagged region, present iff the program was generated
    /// by [`generate_secret`]. The program reads the secret word and
    /// probes addresses derived from its 3-bit fields.
    pub secret: Option<SecretSpec>,
}

/// Generates the fuzz program for `seed`.
pub fn generate(seed: u64) -> FuzzProgram {
    generate_impl(seed, false)
}

/// Generates the secret-carrying variant of the fuzz program for
/// `seed`: same generator stream, plus a secret word at
/// [`SECRET_OFF`] and up to `PROBE_WINDOWS` (6) probe sequences whose
/// load addresses depend on the secret's 3-bit fields. The returned
/// [`FuzzProgram::secret`] tells the oracle which bytes to vary.
pub fn generate_secret(seed: u64) -> FuzzProgram {
    generate_impl(seed, true)
}

fn generate_impl(seed: u64, with_secret: bool) -> FuzzProgram {
    let mut rng = SplitMix64::new(seed ^ 0xF022_CA5E);
    let iters = 8 + rng.index(40) as u32;
    let body_len = 24 + rng.index(56) as u32;

    // ---- data image: random words, half of them in-window pointers,
    // overlaid with a Sattolo single cycle for off-zero chases ----
    let mut mem = FlatMem::new(0, (DATA_BASE + FUZZ_FOOTPRINT) as usize);
    for addr in (DATA_BASE..DATA_BASE + FUZZ_FOOTPRINT).step_by(4) {
        let w = if rng.next_u32() & 1 == 0 {
            DATA_BASE + (rng.next_u32() & u32::from(PTR_MASK))
        } else {
            rng.next_u32()
        };
        mem.write_u32(addr, w);
    }
    let n = ((u32::from(PTR_MASK) + 8) / 64) as usize;
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.index(i);
        order.swap(i, j);
    }
    for k in 0..n {
        let from = DATA_BASE + order[k] * 64;
        let to = DATA_BASE + order[(k + 1) % n] * 64;
        mem.write_u32(from, to);
    }
    // Deterministic default secret so a run without the oracle's
    // `SecretSpec::apply` is still well-defined.
    if with_secret {
        mem.write_u32(DATA_BASE + SECRET_OFF, 0);
    }

    // ---- program ----
    let mut a = Asm::new(CODE_BASE);
    a.li(BASE, DATA_BASE);
    a.ori(MASK, Reg::R0, PTR_MASK);
    for s in SCRATCH {
        a.li(s, rng.next_u32());
    }
    for p in POINTERS {
        a.li(p, DATA_BASE + (rng.next_u32() & u32::from(PTR_MASK)));
    }
    for (i, f) in FP.into_iter().enumerate() {
        a.fcvtif(f, SCRATCH[i]);
    }
    if with_secret {
        // Load the secret word once, then probe window 0
        // unconditionally so every secret program has at least one
        // secret-dependent address.
        a.li(PROBE_ADDR, DATA_BASE + SECRET_OFF);
        a.lw(SECRET, PROBE_ADDR, 0);
        emit_probe(&mut a, 0);
    }
    a.li(CTR, iters);
    let top = a.new_label();
    a.bind(top).expect("fresh label");
    let mut used = 0;
    let mut next_probe = 1;
    while used < body_len {
        used += emit_op(&mut a, &mut rng, body_len - used, with_secret, &mut next_probe);
    }
    a.addi(CTR, CTR, -1);
    a.bne(CTR, Reg::R0, top);
    // Epilogue: externally visible digest of the scratch/FP state.
    a.xor(Reg::R1, Reg::R1, Reg::R2);
    a.xor(Reg::R1, Reg::R1, Reg::R3);
    a.xor(Reg::R1, Reg::R1, Reg::R4);
    a.fcmplt(Reg::R11, FReg::R1, FReg::R2);
    a.out(Reg::R1, 0);
    a.out(Reg::R11, 1);
    a.halt();

    let words = a.assemble().expect("fuzz programs always assemble");
    assert!(
        CODE_BASE as usize + words.len() * 4 <= DATA_BASE as usize,
        "fuzz program too large for the code region"
    );
    mem.load_words(CODE_BASE, &words);
    let max_icount = (words.len() as u64 + 4) * (u64::from(iters) + 2);

    FuzzProgram {
        workload: Workload {
            name: "fuzz",
            entry: CODE_BASE,
            mem,
            data_base: DATA_BASE,
            data_bytes: FUZZ_FOOTPRINT,
        },
        words,
        body_len,
        iters,
        max_icount,
        secret: with_secret.then_some(SecretSpec { addr: DATA_BASE + SECRET_OFF, bytes: 4 }),
    }
}

/// Emits the 5-instruction probe for window `k`: extract the 3-bit
/// field at bit `3k` of the secret word, select one of the window's 8
/// lines with it, and load from that line. The probed address is the
/// program's only secret-dependent observable.
fn emit_probe(a: &mut Asm, k: u32) {
    a.srli(PROBE_ADDR, SECRET, (3 * k) as u8);
    a.andi(PROBE_ADDR, PROBE_ADDR, 7);
    a.slli(PROBE_ADDR, PROBE_ADDR, 6);
    a.add(PROBE_ADDR, PROBE_ADDR, BASE);
    a.lw(PROBE_ADDR, PROBE_ADDR, (PROBE_WINDOW_OFF + k * PROBE_WINDOW_STRIDE) as i16);
}

fn pick<T: Copy>(rng: &mut SplitMix64, xs: &[T]) -> T {
    xs[rng.index(xs.len())]
}

/// Masks a pointer register into the data window (2 instructions).
fn normalize(a: &mut Asm, p: Reg) {
    a.and(p, p, MASK);
    a.add(p, p, BASE);
}

/// Emits one randomly chosen body operation; returns the number of
/// instruction slots consumed (always `<= remaining`, `>= 1`).
///
/// When `with_secret` is set, rolls 65–67 (carved from the ALU
/// fall-through range, so secret-free generation is byte-identical to
/// [`generate`]) emit the next secret probe while windows remain.
fn emit_op(
    a: &mut Asm,
    rng: &mut SplitMix64,
    remaining: u32,
    with_secret: bool,
    next_probe: &mut u32,
) -> u32 {
    let roll = rng.index(100);
    if roll < 26 && remaining >= 3 {
        emit_load(a, rng)
    } else if roll < 38 && remaining >= 3 {
        emit_store(a, rng)
    } else if roll < 44 && remaining >= 3 {
        let p = pick(rng, &POINTERS);
        normalize(a, p);
        let off = (rng.index(8) as i16) * 8;
        a.fld(pick(rng, &FP), p, off);
        3
    } else if roll < 52 && remaining >= 2 {
        emit_skip_branch(a, rng, remaining)
    } else if roll < 60 {
        emit_fp(a, rng);
        1
    } else if roll < 63 {
        a.out(pick(rng, &SCRATCH), rng.index(8) as u8);
        1
    } else if roll < 65 {
        a.nop();
        1
    } else if with_secret && roll < 68 && *next_probe < PROBE_WINDOWS && remaining >= 5 {
        let k = *next_probe;
        *next_probe += 1;
        emit_probe(a, k);
        5
    } else {
        emit_alu(a, rng);
        1
    }
}

/// A masked load: mostly word loads, two thirds of which chase (the
/// loaded value becomes the next pointer).
fn emit_load(a: &mut Asm, rng: &mut SplitMix64) -> u32 {
    let p = pick(rng, &POINTERS);
    normalize(a, p);
    let off8 = (rng.index(8) as i16) * 8;
    match rng.index(10) {
        0..=5 => {
            if rng.index(3) < 2 {
                a.lw(p, p, off8); // pointer chase
            } else {
                a.lw(pick(rng, &SCRATCH), p, off8 + 4 * (rng.index(2) as i16));
            }
        }
        6 => {
            a.lbu(pick(rng, &SCRATCH), p, off8 + rng.index(8) as i16);
        }
        7 => {
            a.lb(pick(rng, &SCRATCH), p, off8 + rng.index(8) as i16);
        }
        8 => {
            a.lh(pick(rng, &SCRATCH), p, off8 + 2 * (rng.index(4) as i16));
        }
        _ => {
            a.lhu(pick(rng, &SCRATCH), p, off8 + 2 * (rng.index(4) as i16));
        }
    }
    3
}

/// A masked store into the same window loads read from (aliasing by
/// construction).
fn emit_store(a: &mut Asm, rng: &mut SplitMix64) -> u32 {
    let p = pick(rng, &POINTERS);
    normalize(a, p);
    let off8 = (rng.index(8) as i16) * 8;
    match rng.index(8) {
        0..=4 => {
            a.sw(pick(rng, &SCRATCH), p, off8 + 4 * (rng.index(2) as i16));
        }
        5 => {
            a.sb(pick(rng, &SCRATCH), p, off8 + rng.index(8) as i16);
        }
        6 => {
            a.sh(pick(rng, &SCRATCH), p, off8 + 2 * (rng.index(4) as i16));
        }
        _ => {
            a.fsd(pick(rng, &FP), p, off8);
        }
    }
    3
}

/// A data-dependent forward branch skipping 1–3 ALU instructions, bound
/// entirely inside the body (never skips the loop countdown).
fn emit_skip_branch(a: &mut Asm, rng: &mut SplitMix64, remaining: u32) -> u32 {
    let k = (1 + rng.index(3) as u32).min(remaining - 1);
    let r1 = cond_reg(rng);
    let r2 = cond_reg(rng);
    let skip = a.new_label();
    match rng.index(6) {
        0 => a.beq(r1, r2, skip),
        1 => a.bne(r1, r2, skip),
        2 => a.blt(r1, r2, skip),
        3 => a.bge(r1, r2, skip),
        4 => a.bltu(r1, r2, skip),
        _ => a.bgeu(r1, r2, skip),
    };
    for _ in 0..k {
        emit_alu(a, rng);
    }
    a.bind(skip).expect("fresh label");
    1 + k
}

fn cond_reg(rng: &mut SplitMix64) -> Reg {
    if rng.index(4) == 0 {
        pick(rng, &POINTERS)
    } else {
        pick(rng, &SCRATCH)
    }
}

fn emit_alu(a: &mut Asm, rng: &mut SplitMix64) {
    let rd = pick(rng, &SCRATCH);
    let rs1 = if rng.index(4) == 0 { pick(rng, &POINTERS) } else { pick(rng, &SCRATCH) };
    let rs2 = pick(rng, &SCRATCH);
    match rng.index(16) {
        0 => a.add(rd, rs1, rs2),
        1 => a.sub(rd, rs1, rs2),
        2 => a.and(rd, rs1, rs2),
        3 => a.or(rd, rs1, rs2),
        4 => a.xor(rd, rs1, rs2),
        5 => a.sll(rd, rs1, rs2),
        6 => a.srl(rd, rs1, rs2),
        7 => a.sra(rd, rs1, rs2),
        8 => a.slt(rd, rs1, rs2),
        9 => a.sltu(rd, rs1, rs2),
        10 => a.mul(rd, rs1, rs2),
        11 => a.addi(rd, rs1, rng.next_u32() as i16),
        12 => match rng.index(3) {
            0 => a.andi(rd, rs1, rng.next_u32() as u16),
            1 => a.ori(rd, rs1, rng.next_u32() as u16),
            _ => a.xori(rd, rs1, rng.next_u32() as u16),
        },
        13 => match rng.index(3) {
            0 => a.slli(rd, rs1, rng.index(32) as u8),
            1 => a.srli(rd, rs1, rng.index(32) as u8),
            _ => a.srai(rd, rs1, rng.index(32) as u8),
        },
        14 => a.lui(rd, rng.next_u32() as u16),
        _ => match rng.index(2) {
            0 => a.divu(rd, rs1, rs2),
            _ => a.remu(rd, rs1, rs2),
        },
    };
}

fn emit_fp(a: &mut Asm, rng: &mut SplitMix64) {
    let fd = pick(rng, &FP);
    let fs1 = pick(rng, &FP);
    let fs2 = pick(rng, &FP);
    match rng.index(8) {
        0 => a.fadd(fd, fs1, fs2),
        1 => a.fsub(fd, fs1, fs2),
        2 => a.fmul(fd, fs1, fs2),
        3 => a.fdiv(fd, fs1, fs2),
        4 => a.fmov(fd, fs1),
        5 => a.fcmplt(pick(rng, &SCRATCH), fs1, fs2),
        6 => a.fcvtif(fd, pick(rng, &SCRATCH)),
        _ => a.fcvtfi(pick(rng, &SCRATCH), fs1),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use secsim_isa::{step, ArchState};

    #[test]
    fn deterministic_per_seed() {
        let a = generate(7);
        let b = generate(7);
        assert_eq!(a.words, b.words);
        assert_eq!(a.workload.mem.as_bytes(), b.workload.mem.as_bytes());
        let c = generate(8);
        assert_ne!(c.words, a.words);
    }

    #[test]
    fn programs_halt_within_bound_without_faults() {
        for seed in 0..30u64 {
            let mut fz = generate(seed);
            let mut st = ArchState::new(fz.workload.entry);
            while !st.halted {
                assert!(
                    st.icount <= fz.max_icount,
                    "seed {seed}: exceeded dynamic bound {}",
                    fz.max_icount
                );
                step(&mut st, &mut fz.workload.mem)
                    .unwrap_or_else(|f| panic!("seed {seed}: fault {f:?}"));
            }
            assert_eq!(fz.workload.mem.oob_count(), 0, "seed {seed}: out-of-bounds access");
            assert!(st.icount > 50, "seed {seed}: trivially short program");
        }
    }

    #[test]
    fn accesses_stay_inside_footprint() {
        // The masked-pointer discipline means even byte accesses land in
        // [DATA_BASE, DATA_BASE + FUZZ_FOOTPRINT).
        let mut fz = generate(3);
        let mut st = ArchState::new(fz.workload.entry);
        while !st.halted {
            let info = step(&mut st, &mut fz.workload.mem).expect("no faults");
            if let Some(ma) = info.mem {
                assert!(ma.addr >= DATA_BASE);
                assert!(ma.addr < DATA_BASE + FUZZ_FOOTPRINT);
            }
        }
    }

    /// Runs `fz` functionally with the secret region set to `fill` and
    /// returns every accessed data address.
    fn secret_run_addrs(seed: u64, fill: u8) -> Vec<u32> {
        let mut fz = generate_secret(seed);
        fz.secret.expect("secret program carries a SecretSpec").apply(&mut fz.workload.mem, fill);
        let mut st = ArchState::new(fz.workload.entry);
        let mut addrs = Vec::new();
        while !st.halted {
            assert!(st.icount <= fz.max_icount, "seed {seed}: exceeded bound");
            let info = step(&mut st, &mut fz.workload.mem).expect("no faults");
            if let Some(ma) = info.mem {
                addrs.push(ma.addr);
            }
        }
        assert_eq!(fz.workload.mem.oob_count(), 0, "seed {seed}: out-of-bounds access");
        addrs
    }

    #[test]
    fn secret_variant_is_deterministic_and_plain_variant_is_unchanged() {
        let plain = generate(7);
        let secret = generate_secret(7);
        assert_eq!(secret.words, generate_secret(7).words);
        assert_ne!(plain.words, secret.words, "secret programs carry probe code");
        assert!(plain.secret.is_none());
        assert_eq!(secret.secret, Some(SecretSpec { addr: DATA_BASE + SECRET_OFF, bytes: 4 }));
        // Carving the probe roll out of the ALU fall-through must not
        // perturb the secret-free stream: regenerate and compare.
        assert_eq!(plain.words, generate(7).words);
    }

    #[test]
    fn secret_probes_leak_architecturally_and_stay_in_bounds() {
        let mut any_diff = false;
        for seed in 0..12u64 {
            let lo = secret_run_addrs(seed, 0x00);
            let hi = secret_run_addrs(seed, 0xFF);
            for &a in lo.iter().chain(hi.iter()) {
                assert!((DATA_BASE..DATA_BASE + FUZZ_FOOTPRINT).contains(&a), "seed {seed}");
            }
            assert_eq!(lo.len(), hi.len(), "seed {seed}: control flow is secret-independent");
            // All-zero vs all-one secrets make every 3-bit field differ
            // (0 vs 7), so the prologue probe alone guarantees at least
            // one differing address.
            if lo != hi {
                any_diff = true;
            }
        }
        assert!(any_diff, "secret probes never produced a differing address");
    }

    #[test]
    fn probe_addresses_confined_to_probe_windows() {
        for seed in 0..6u64 {
            let lo = secret_run_addrs(seed, 0x00);
            let hi = secret_run_addrs(seed, 0xFF);
            for (a, b) in lo.iter().zip(hi.iter()) {
                if a != b {
                    for &x in [a, b] {
                        let off = x - DATA_BASE;
                        assert!(off >= PROBE_WINDOW_OFF, "seed {seed}: diff addr {x:#x}");
                        let w = (off - PROBE_WINDOW_OFF) / PROBE_WINDOW_STRIDE;
                        assert!(w < PROBE_WINDOWS, "seed {seed}: diff addr {x:#x}");
                        assert_eq!(
                            (off - PROBE_WINDOW_OFF) % PROBE_WINDOW_STRIDE % 64,
                            0,
                            "probe loads are line-aligned"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mix_contains_memory_and_control_ops() {
        // Any single seed can roll a body without, say, stores; the mix
        // only needs to hold in aggregate.
        let (mut loads, mut stores, mut branches) = (0u32, 0u32, 0u32);
        for seed in 0..8u64 {
            let mut fz = generate(seed);
            let mut st = ArchState::new(fz.workload.entry);
            while !st.halted {
                let info = step(&mut st, &mut fz.workload.mem).expect("no faults");
                match info.mem {
                    Some(ma) if ma.is_store => stores += 1,
                    Some(_) => loads += 1,
                    None => {}
                }
                if info.control.is_some() {
                    branches += 1;
                }
            }
        }
        assert!(loads > 100, "loads {loads}");
        assert!(stores > 20, "stores {stores}");
        assert!(branches > 100, "branches {branches}");
    }
}
