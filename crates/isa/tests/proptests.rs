//! Property-based tests for the ISA: encode/decode round trips and
//! interpreter invariants.

// Gated behind the `proptest` cargo feature: the external `proptest`
// crate is not available in offline builds. See this crate's Cargo.toml
// for how to enable it.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use secsim_isa::{decode, encode, step, ArchState, FReg, FlatMem, Inst, MemIo, Reg};

fn any_reg() -> impl Strategy<Value = Reg> {
    (0u32..32).prop_map(Reg::from_index)
}

fn any_freg() -> impl Strategy<Value = FReg> {
    (0u32..32).prop_map(FReg::from_index)
}

/// All valid (non-`Illegal`) instructions.
fn any_inst() -> impl Strategy<Value = Inst> {
    let r = any_reg;
    let f = any_freg;
    prop_oneof![
        (r(), r(), r(), 0u8..13).prop_map(|(rd, rs1, rs2, k)| match k {
            0 => Inst::Add { rd, rs1, rs2 },
            1 => Inst::Sub { rd, rs1, rs2 },
            2 => Inst::And { rd, rs1, rs2 },
            3 => Inst::Or { rd, rs1, rs2 },
            4 => Inst::Xor { rd, rs1, rs2 },
            5 => Inst::Sll { rd, rs1, rs2 },
            6 => Inst::Srl { rd, rs1, rs2 },
            7 => Inst::Sra { rd, rs1, rs2 },
            8 => Inst::Slt { rd, rs1, rs2 },
            9 => Inst::Sltu { rd, rs1, rs2 },
            10 => Inst::Mul { rd, rs1, rs2 },
            11 => Inst::Divu { rd, rs1, rs2 },
            _ => Inst::Remu { rd, rs1, rs2 },
        }),
        (r(), r(), any::<i16>(), 0u8..2).prop_map(|(rd, rs1, imm, k)| match k {
            0 => Inst::Addi { rd, rs1, imm },
            _ => Inst::Slti { rd, rs1, imm },
        }),
        (r(), r(), any::<u16>(), 0u8..3).prop_map(|(rd, rs1, imm, k)| match k {
            0 => Inst::Andi { rd, rs1, imm },
            1 => Inst::Ori { rd, rs1, imm },
            _ => Inst::Xori { rd, rs1, imm },
        }),
        (r(), r(), 0u8..32, 0u8..3).prop_map(|(rd, rs1, sh, k)| match k {
            0 => Inst::Slli { rd, rs1, sh },
            1 => Inst::Srli { rd, rs1, sh },
            _ => Inst::Srai { rd, rs1, sh },
        }),
        (r(), any::<u16>()).prop_map(|(rd, imm)| Inst::Lui { rd, imm }),
        (r(), r(), any::<i16>(), 0u8..5).prop_map(|(rd, rs1, off, k)| match k {
            0 => Inst::Lb { rd, rs1, off },
            1 => Inst::Lbu { rd, rs1, off },
            2 => Inst::Lh { rd, rs1, off },
            3 => Inst::Lhu { rd, rs1, off },
            _ => Inst::Lw { rd, rs1, off },
        }),
        (f(), r(), any::<i16>()).prop_map(|(fd, rs1, off)| Inst::Fld { fd, rs1, off }),
        (r(), r(), any::<i16>(), 0u8..3).prop_map(|(rs1, rs2, off, k)| match k {
            0 => Inst::Sb { rs1, rs2, off },
            1 => Inst::Sh { rs1, rs2, off },
            _ => Inst::Sw { rs1, rs2, off },
        }),
        (r(), f(), any::<i16>()).prop_map(|(rs1, fs2, off)| Inst::Fsd { rs1, fs2, off }),
        (f(), f(), f(), 0u8..4).prop_map(|(fd, fs1, fs2, k)| match k {
            0 => Inst::Fadd { fd, fs1, fs2 },
            1 => Inst::Fsub { fd, fs1, fs2 },
            2 => Inst::Fmul { fd, fs1, fs2 },
            _ => Inst::Fdiv { fd, fs1, fs2 },
        }),
        (f(), f()).prop_map(|(fd, fs1)| Inst::Fmov { fd, fs1 }),
        (r(), f(), f()).prop_map(|(rd, fs1, fs2)| Inst::Fcmplt { rd, fs1, fs2 }),
        (f(), r()).prop_map(|(fd, rs1)| Inst::Fcvtif { fd, rs1 }),
        (r(), f()).prop_map(|(rd, fs1)| Inst::Fcvtfi { rd, fs1 }),
        (r(), r(), any::<i16>(), 0u8..6).prop_map(|(rs1, rs2, off, k)| match k {
            0 => Inst::Beq { rs1, rs2, off },
            1 => Inst::Bne { rs1, rs2, off },
            2 => Inst::Blt { rs1, rs2, off },
            3 => Inst::Bge { rs1, rs2, off },
            4 => Inst::Bltu { rs1, rs2, off },
            _ => Inst::Bgeu { rs1, rs2, off },
        }),
        ((-(1i32 << 25))..(1i32 << 25)).prop_map(|off| Inst::J { off }),
        ((-(1i32 << 25))..(1i32 << 25)).prop_map(|off| Inst::Jal { off }),
        (r(), r()).prop_map(|(rd, rs1)| Inst::Jalr { rd, rs1 }),
        (r(), any::<u8>()).prop_map(|(rs1, port)| Inst::Out { rs1, port }),
        Just(Inst::Halt),
        Just(Inst::Nop),
    ]
}

proptest! {
    /// decode(encode(i)) == i for every valid instruction.
    #[test]
    fn encode_decode_round_trip(inst in any_inst()) {
        prop_assert_eq!(decode(encode(inst)), inst);
    }

    /// Decoding any 32-bit word never panics, and re-encoding a decoded
    /// valid instruction reproduces a word that decodes identically
    /// (decode is a retraction of encode).
    #[test]
    fn decode_total_and_stable(word in any::<u32>()) {
        let inst = decode(word);
        let re = decode(encode(inst));
        prop_assert_eq!(re, inst);
    }

    /// Executing any decodable word on a random register state never
    /// panics and always either advances or halts/faults precisely.
    #[test]
    fn step_never_panics(word in any::<u32>(), seed in any::<u64>()) {
        let mut mem = FlatMem::new(0, 4096);
        mem.write_u32(0, word);
        let mut st = ArchState::new(0);
        // scatter some register values
        let mut x = seed | 1;
        for r in Reg::ALL.iter().skip(1) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            st.set_reg(*r, (x >> 16) as u32);
        }
        match step(&mut st, &mut mem) {
            Ok(info) => {
                prop_assert_eq!(info.pc, 0);
                if !st.halted {
                    prop_assert_eq!(st.pc, info.next_pc);
                    prop_assert_eq!(st.icount, 1);
                }
            }
            Err(fault) => {
                // precise fault: nothing retired, pc unchanged
                prop_assert_eq!(st.pc, 0);
                prop_assert_eq!(st.icount, 0);
                let _ = fault;
            }
        }
    }

    /// r0 stays zero under arbitrary single-instruction execution.
    #[test]
    fn r0_is_immutable(word in any::<u32>()) {
        let mut mem = FlatMem::new(0, 4096);
        mem.write_u32(0, word);
        let mut st = ArchState::new(0);
        let _ = step(&mut st, &mut mem);
        prop_assert_eq!(st.reg(Reg::R0), 0);
    }
}
