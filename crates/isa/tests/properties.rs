//! Seeded properties of the functional interpreter: one step of any
//! 32-bit word, from any register state, is precise and leaves r0 zero.
//!
//! Each property runs on `secsim_stats::for_each_case` and names the case
//! seed in every assert message, so a failure replays from that seed
//! alone. Encode/decode round trips and decode totality are checked form
//! by form in tests/roundtrip.rs.

use secsim_isa::{step, ArchState, FlatMem, MemIo, Reg};
use secsim_stats::{for_each_case, SplitMix64};

const CASES: u64 = 4096;

/// A word to execute. Half the cases keep only funct values 0..16 in the
/// low 11 bits, so the register-register forms, which a uniform word
/// almost never hits, are drawn too.
fn any_word(rng: &mut SplitMix64) -> u32 {
    let word = rng.next_u32();
    if rng.next_u64() & 1 == 0 {
        word
    } else {
        word & !0x7F0
    }
}

/// `word` at address 0 of a 4 KiB memory, and a state at pc 0 whose
/// r1..r31 hold random words.
fn setup(word: u32, rng: &mut SplitMix64) -> (ArchState, FlatMem) {
    let mut mem = FlatMem::new(0, 4096);
    mem.write_u32(0, word);
    let mut st = ArchState::new(0);
    for r in &Reg::ALL[1..] {
        st.set_reg(*r, rng.next_u32());
    }
    (st, mem)
}

/// Executing any word never panics: it either retires exactly once
/// (pc moves to `next_pc`, unless it halted) or faults precisely, with
/// nothing retired and pc unchanged.
#[test]
fn step_never_panics() {
    for_each_case(CASES, |seed, rng| {
        let word = any_word(rng);
        let (mut st, mut mem) = setup(word, rng);
        match step(&mut st, &mut mem) {
            Ok(info) => {
                assert_eq!(info.pc, 0, "case seed {seed}: word {word:#010x}");
                if !st.halted {
                    assert_eq!(st.pc, info.next_pc, "case seed {seed}: word {word:#010x}");
                    assert_eq!(st.icount, 1, "case seed {seed}: word {word:#010x}");
                }
            }
            Err(_) => {
                assert_eq!(st.pc, 0, "case seed {seed}: fault moved pc, word {word:#010x}");
                assert_eq!(st.icount, 0, "case seed {seed}: fault retired, word {word:#010x}");
            }
        }
    });
}

/// r0 reads zero after any single instruction.
#[test]
fn r0_is_immutable() {
    for_each_case(CASES, |seed, rng| {
        let word = any_word(rng);
        let (mut st, mut mem) = setup(word, rng);
        let _ = step(&mut st, &mut mem);
        assert_eq!(st.reg(Reg::R0), 0, "case seed {seed}: word {word:#010x}");
    });
}
