//! Seeded property tests for the cryptographic substrate.
//!
//! Each property runs a fixed number of cases. Case `seed` draws its
//! inputs from `SplitMix64::new(seed)` and names the seed in every
//! assert message, so a failure replays from that seed alone.

use secsim_crypto::{Aes, CtrKeystream, HmacSha256, Sha256};
use secsim_stats::SplitMix64;

const CASES: u64 = 256;

/// Runs `property` once per case seed in `0..CASES`.
fn for_each_case(mut property: impl FnMut(u64, &mut SplitMix64)) {
    for seed in 0..CASES {
        property(seed, &mut SplitMix64::new(seed));
    }
}

fn bytes<const N: usize>(rng: &mut SplitMix64) -> [u8; N] {
    std::array::from_fn(|_| rng.next_u64() as u8)
}

/// A byte vector whose length is drawn from `lens`.
fn byte_vec(rng: &mut SplitMix64, lens: std::ops::Range<usize>) -> Vec<u8> {
    let len = lens.start + rng.index(lens.len());
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// The CTR keystream is an involution for data of any length.
#[test]
fn ctr_involution() {
    for_each_case(|seed, rng| {
        let ks = CtrKeystream::new(Aes::new_128(&bytes(rng)));
        let (addr, ctr) = (rng.next_u32(), rng.next_u64());
        let data = byte_vec(rng, 0..200);
        let mut d = data.clone();
        ks.apply(addr, ctr, &mut d);
        ks.apply(addr, ctr, &mut d);
        assert_eq!(d, data, "case seed {seed}");
    });
}

/// CTR malleability: flipping ciphertext bit k flips exactly plaintext
/// bit k — the foundation of every exploit in the paper.
#[test]
fn ctr_bit_flip_is_local() {
    for_each_case(|seed, rng| {
        let ks = CtrKeystream::new(Aes::new_128(&bytes(rng)));
        let (addr, ctr) = (rng.next_u32(), rng.next_u64());
        let data = byte_vec(rng, 1..128);
        let (idx, bit) = (rng.index(data.len()), rng.index(8));
        let mut ct = data.clone();
        ks.apply(addr, ctr, &mut ct);
        ct[idx] ^= 1 << bit;
        ks.apply(addr, ctr, &mut ct);
        let mut want = data;
        want[idx] ^= 1 << bit;
        assert_eq!(ct, want, "case seed {seed}: bit {bit} of byte {idx}");
    });
}

/// HMAC detects any single-bit tamper of the message.
#[test]
fn hmac_detects_single_bit_tamper() {
    for_each_case(|seed, rng| {
        let mac = HmacSha256::new(&byte_vec(rng, 1..64));
        let data = byte_vec(rng, 1..128);
        let tag = mac.compute_truncated(&data);
        let (idx, bit) = (rng.index(data.len()), rng.index(8));
        let mut tampered = data.clone();
        tampered[idx] ^= 1 << bit;
        assert!(!mac.verify_truncated(&tampered, tag), "case seed {seed}: bit {bit} of byte {idx}");
        assert!(mac.verify_truncated(&data, tag), "case seed {seed}");
    });
}

/// Incremental SHA-256 equals one-shot for any split.
#[test]
fn sha256_incremental_equals_oneshot() {
    for_each_case(|seed, rng| {
        let data = byte_vec(rng, 0..300);
        let split = rng.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), Sha256::digest(&data), "case seed {seed}: split at {split}");
    });
}

/// SHA-256 of every message length 0..=200, across the padding
/// boundaries at 55/56, 63/64 and 119/120 bytes: the digest of the 201
/// digests in order, for message bytes `(7i + 3) & 0xff`, as Python's
/// `hashlib` computes it.
#[test]
fn sha256_pads_every_length() {
    let data: Vec<u8> = (0..200u32).map(|i| ((7 * i + 3) & 0xff) as u8).collect();
    let mut all = Sha256::new();
    for len in 0..=data.len() {
        all.update(&Sha256::digest(&data[..len]));
    }
    let hex: String = all.finalize().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, "3275febb4612d86d586eb9f11cd21e648a9fc7d95e0f6b8d362786e28c9c5b79");
}
