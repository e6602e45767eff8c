//! Assembler round-trip property over the fuzz corpus and over random
//! instruction words.
//!
//! Every program's instruction words must survive `disassemble` →
//! `assemble` unchanged, and the disassembly itself must be a fixpoint
//! (disassembling the reassembled words reproduces the same text). This
//! pins the text assembler, the instruction printer, and the encoder
//! against each other: any one of them drifting breaks the cycle.

use secsim_isa::{decode, disassemble, encode};
use secsim_workloads::{assemble, generate_fuzz, generate_secret_fuzz, SplitMix64};

const CODE_BASE: u32 = 0x1000;

fn roundtrip(words: &[u32], what: &str) {
    let text = disassemble(words);
    let img = assemble(&text).unwrap_or_else(|e| panic!("{what}: disassembly rejected: {e}"));
    assert_eq!(img.code_base, CODE_BASE, "{what}: default base drifted");
    assert_eq!(img.entry, CODE_BASE, "{what}: default entry drifted");
    assert_eq!(img.code.len(), words.len(), "{what}: reassembled length diverged");
    if let Some(i) = words.iter().zip(&img.code).position(|(w, back)| w != back) {
        panic!(
            "{what}: word {i} `{}` ({:#010x}) reassembled as {:#010x}",
            decode(words[i]),
            words[i],
            img.code[i]
        );
    }
    assert!(img.relocs.is_empty(), "{what}: numeric source must not relocate");
    assert_eq!(disassemble(&img.code), text, "{what}: disassembly is not a fixpoint");
}

#[test]
fn fuzz_corpus_words_survive_disassemble_assemble() {
    for seed in 0..32u64 {
        roundtrip(&generate_fuzz(seed).words, &format!("fuzz seed {seed}"));
    }
}

#[test]
fn secret_fuzz_corpus_words_survive_disassemble_assemble() {
    // The secret variant adds probe sequences (secret-dependent loads),
    // widening the opcode mix the printer has to cover.
    for seed in 0..8u64 {
        roundtrip(&generate_secret_fuzz(seed).words, &format!("secret fuzz seed {seed}"));
    }
}

#[test]
fn random_words_survive_disassemble_assemble() {
    // Every opcode and operand field, not just what the generators
    // emit. `decode` ignores unused fields, so each word is first
    // canonicalised to the one the printed instruction stands for;
    // unassigned opcodes stay raw and print as `illegal 0x…`.
    let mut rng = SplitMix64::new(2006);
    let words: Vec<u32> = (0..65_536).map(|_| encode(decode(rng.next_u64() as u32))).collect();
    roundtrip(&words, "SplitMix64 words");
}
