//! Exhaustive encode/decode round-trip properties.
//!
//! Three layers:
//!
//! 1. **Canonical round trip** — every instruction form, enumerated over
//!    boundary register/immediate values, satisfies
//!    `decode(encode(i)) == i` (and therefore re-encodes
//!    byte-identically).
//! 2. **Total, idempotent decode** — every 32-bit word decodes without
//!    panicking, and one encode/decode canonicalization step is a fixed
//!    point: `decode(encode(decode(w))) == decode(w)` and
//!    `encode(decode(c)) == c` for the canonical word `c`. (Plain
//!    `encode(decode(w)) == w` does NOT hold for arbitrary words — the
//!    decode is hardware-style lenient and ignores unused fields, which
//!    is exactly the malleability the paper's exploits rely on.)
//! 3. **Deterministic fault** — invalid encodings decode to
//!    `Inst::Illegal` and *executing* them yields `Fault`, never a
//!    panic; `Illegal` words re-encode verbatim.

use secsim_isa::{decode, encode, step, ArchState, Fault, FlatMem, FReg, Inst, MemIo, Reg};
use secsim_stats::SplitMix64;

const REGS: [Reg; 4] = [Reg::R0, Reg::R1, Reg::R15, Reg::R31];
const FREGS: [FReg; 4] = [FReg::R0, FReg::R1, FReg::R15, FReg::R31];
const I16S: [i16; 5] = [i16::MIN, -1, 0, 1, i16::MAX];
const U16S: [u16; 5] = [0, 1, 0x00FF, 0xABCD, 0xFFFF];
const SHIFTS: [u8; 4] = [0, 1, 15, 31];

/// Every canonical instruction over boundary operand values.
fn all_canonical() -> Vec<Inst> {
    let mut v = vec![Inst::Nop, Inst::Halt];
    for rd in REGS {
        for rs1 in REGS {
            for rs2 in REGS {
                v.extend([
                    Inst::Add { rd, rs1, rs2 },
                    Inst::Sub { rd, rs1, rs2 },
                    Inst::And { rd, rs1, rs2 },
                    Inst::Or { rd, rs1, rs2 },
                    Inst::Xor { rd, rs1, rs2 },
                    Inst::Sll { rd, rs1, rs2 },
                    Inst::Srl { rd, rs1, rs2 },
                    Inst::Sra { rd, rs1, rs2 },
                    Inst::Slt { rd, rs1, rs2 },
                    Inst::Sltu { rd, rs1, rs2 },
                    Inst::Mul { rd, rs1, rs2 },
                    Inst::Divu { rd, rs1, rs2 },
                    Inst::Remu { rd, rs1, rs2 },
                ]);
            }
            for imm in I16S {
                v.extend([
                    Inst::Addi { rd, rs1, imm },
                    Inst::Slti { rd, rs1, imm },
                    Inst::Lb { rd, rs1, off: imm },
                    Inst::Lbu { rd, rs1, off: imm },
                    Inst::Lh { rd, rs1, off: imm },
                    Inst::Lhu { rd, rs1, off: imm },
                    Inst::Lw { rd, rs1, off: imm },
                    Inst::Sb { rs1, rs2: rd, off: imm },
                    Inst::Sh { rs1, rs2: rd, off: imm },
                    Inst::Sw { rs1, rs2: rd, off: imm },
                    Inst::Beq { rs1, rs2: rd, off: imm },
                    Inst::Bne { rs1, rs2: rd, off: imm },
                    Inst::Blt { rs1, rs2: rd, off: imm },
                    Inst::Bge { rs1, rs2: rd, off: imm },
                    Inst::Bltu { rs1, rs2: rd, off: imm },
                    Inst::Bgeu { rs1, rs2: rd, off: imm },
                ]);
            }
            for imm in U16S {
                v.extend([
                    Inst::Andi { rd, rs1, imm },
                    Inst::Ori { rd, rs1, imm },
                    Inst::Xori { rd, rs1, imm },
                ]);
            }
            for sh in SHIFTS {
                v.extend([
                    Inst::Slli { rd, rs1, sh },
                    Inst::Srli { rd, rs1, sh },
                    Inst::Srai { rd, rs1, sh },
                ]);
            }
            v.push(Inst::Jalr { rd, rs1 });
        }
        for imm in U16S {
            v.push(Inst::Lui { rd, imm });
        }
    }
    for fd in FREGS {
        for fs1 in FREGS {
            for fs2 in FREGS {
                v.extend([
                    Inst::Fadd { fd, fs1, fs2 },
                    Inst::Fsub { fd, fs1, fs2 },
                    Inst::Fmul { fd, fs1, fs2 },
                    Inst::Fdiv { fd, fs1, fs2 },
                ]);
            }
            v.push(Inst::Fmov { fd, fs1 });
        }
        for r in REGS {
            v.push(Inst::Fcvtif { fd, rs1: r });
            for off in I16S {
                v.push(Inst::Fld { fd, rs1: r, off });
                v.push(Inst::Fsd { rs1: r, fs2: fd, off });
            }
        }
    }
    for rd in REGS {
        for fs1 in FREGS {
            v.push(Inst::Fcvtfi { rd, fs1 });
            for fs2 in FREGS {
                v.push(Inst::Fcmplt { rd, fs1, fs2 });
            }
        }
    }
    for off in [-(1 << 25), -1, 0, 1, (1 << 25) - 1] {
        v.push(Inst::J { off });
        v.push(Inst::Jal { off });
    }
    for rs1 in REGS {
        for port in [0u8, 1, 127, 255] {
            v.push(Inst::Out { rs1, port });
        }
    }
    v
}

#[test]
fn every_canonical_form_round_trips_byte_identically() {
    let all = all_canonical();
    assert!(all.len() > 2000, "enumeration too small: {}", all.len());
    for i in all {
        let w = encode(i);
        let d = decode(w);
        assert_eq!(d, i, "decode(encode({i:?})) = {d:?}");
        assert_eq!(encode(d), w, "re-encode of {i:?} changed bytes");
    }
}

#[test]
fn canonical_words_are_distinct_per_form() {
    // Sanity against silent aliasing: no two distinct canonical
    // instructions may share an encoding.
    let all = all_canonical();
    let mut seen = std::collections::HashMap::new();
    for i in all {
        if let Some(prev) = seen.insert(encode(i), i) {
            // R0-hardwired forms can legitimately collide only if the
            // *instructions* are equal; anything else is an encoder bug.
            assert_eq!(prev, i, "{prev:?} and {i:?} share word {:#010x}", encode(i));
        }
    }
}

#[test]
fn decode_is_total_and_canonicalization_is_idempotent() {
    let mut rng = SplitMix64::new(0x0DDC_0FFE);
    let mut words: Vec<u32> = (0..200_000).map(|_| rng.next_u64() as u32).collect();
    // All opcodes × interesting field patterns, including every funct
    // value of the two R-type opcodes.
    for opc in 0..64u32 {
        for low in [0, 1, 0x7FF, 0xFFFF, 0x03FF_FFFF, 0x021F_83FF] {
            words.push((opc << 26) | low);
        }
        for fct in 0..32u32 {
            words.push((opc << 26) | (3 << 21) | (5 << 16) | (7 << 11) | fct);
        }
    }
    for w in words {
        let i = decode(w); // must not panic
        let c = encode(i);
        assert_eq!(decode(c), i, "canonicalization of {w:#010x} not idempotent");
        assert_eq!(encode(decode(c)), c, "{c:#010x} is canonical but re-encodes differently");
    }
}

#[test]
fn unassigned_opcodes_decode_to_illegal_and_fault_deterministically() {
    let unassigned: Vec<u32> =
        (0..64).filter(|o| matches!(o, 0x07 | 0x0C..=0x0F | 0x1B..=0x1F | 0x29..=0x2F | 0x31..=0x3E)).collect();
    assert_eq!(unassigned.len(), 64 - 33, "opcode map changed — update this test");
    for opc in unassigned {
        let w = (opc << 26) | 0x0012_3456;
        let i = decode(w);
        assert_eq!(i, Inst::Illegal(w), "opcode {opc:#x}");
        assert_eq!(encode(i), w, "Illegal must re-encode verbatim");

        // Executing the invalid encoding is a deterministic fault, not
        // a panic, and leaves the architectural state unmoved.
        let mut mem = FlatMem::new(0x1000, 4096);
        mem.write_u32(0x1000, w);
        let mut st = ArchState::new(0x1000);
        let before = st.clone();
        let r1 = step(&mut st, &mut mem);
        match r1 {
            Err(Fault::IllegalInstruction { pc, word }) => {
                assert_eq!((pc, word), (0x1000, w));
            }
            other => panic!("opcode {opc:#x}: expected IllegalInstruction, got {other:?}"),
        }
        assert_eq!(st, before, "fault must not advance state");
        // …and faulting again gives the identical fault (deterministic).
        let r2 = step(&mut st, &mut mem);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    }
}

#[test]
fn bad_funct_fields_are_illegal_not_aliased() {
    for fct in 13..32u32 {
        let w = (0x01 << 26) | fct; // INT_R with out-of-range funct
        assert_eq!(decode(w), Inst::Illegal(w));
    }
    for fct in 8..32u32 {
        let w = (0x1A << 26) | fct; // FP_R with out-of-range funct
        assert_eq!(decode(w), Inst::Illegal(w));
    }
}
