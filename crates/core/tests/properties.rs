//! Seeded properties of the authentication architecture: in-order MAC
//! completion behind the LastRequest register (§4.1), the obfuscator's
//! chunk-local permutation (§4.3), Merkle-tree soundness, and
//! encrypted-memory semantics.
//!
//! Each property runs on `secsim_stats::for_each_case` and names the case
//! seed in every assert message, so a failure replays from that seed
//! alone.

use secsim_core::{AuthQueue, AuthQueueConfig, EncryptedMemory, MerkleTree, ObfConfig, Obfuscator};
use secsim_isa::MemIo;
use secsim_mem::{Channel, DramConfig};
use secsim_stats::for_each_case;
use std::collections::HashMap;

const CASES: u64 = 256;

/// Completion times are monotone in request id for any arrival pattern
/// and queue shape, and no request verifies before its data plus one MAC
/// latency: the in-order broadcast the LastRequest watermark relies on.
#[test]
fn queue_done_times_monotone() {
    for_each_case(CASES, |seed, rng| {
        let mac = 1 + rng.index(199) as u64;
        let mut q = AuthQueue::new(AuthQueueConfig {
            capacity: 1 + rng.index(31),
            mac_latency: mac,
            initiation_interval: rng.index(100) as u64,
        });
        let mut last = 0;
        for _ in 0..1 + rng.index(199) {
            let (ready, extra) = (rng.index(100_000) as u64, rng.index(500) as u64);
            let id = q.request(ready, extra);
            let done = q.done_time(id);
            assert!(done >= last, "case seed {seed}: done {done} before its predecessor's {last}");
            assert!(done >= ready + mac, "case seed {seed}: verified before data + MAC");
            last = done;
        }
        assert_eq!(q.drain_time(), last, "case seed {seed}");
    });
}

/// The fetch-gate watermark is monotone in the sample time, never passes
/// the drain time, and is the done time of the newest request that had
/// arrived by then together with every request before it (arrivals are
/// in-order).
#[test]
fn queue_watermark_monotone() {
    for_each_case(CASES, |seed, rng| {
        let mut q = AuthQueue::new(AuthQueueConfig::default());
        let mut arrived_by = Vec::new(); // (latest arrival up to request i, its done time)
        for _ in 0..1 + rng.index(99) {
            let at = rng.index(50_000) as u64;
            let id = q.request(at, 0);
            let prev = arrived_by.last().map_or(0, |&(a, _)| a);
            arrived_by.push((at.max(prev), q.done_time(id)));
        }
        let mut probes: Vec<u64> =
            (0..1 + rng.index(49)).map(|_| rng.index(60_000) as u64).collect();
        probes.sort_unstable();
        let mut last = 0;
        for t in probes {
            let w = q.watermark_before(t);
            assert!(w >= last, "case seed {seed}: watermark fell to {w} from {last} at {t}");
            assert!(w <= q.drain_time(), "case seed {seed}: watermark past the drain time");
            let want =
                arrived_by.iter().take_while(|&&(a, _)| a <= t).last().map_or(0, |&(_, d)| d);
            assert_eq!(w, want, "case seed {seed}: watermark at {t}");
            last = w;
        }
    });
}

/// The obfuscator's mapping stays a permutation, and keeps each line
/// inside its chunk, under any interleaving of reshuffles and lookups.
#[test]
fn obfuscator_stays_chunk_local_permutation() {
    for_each_case(CASES, |seed, rng| {
        let lines = 1 + rng.index(599) as u32;
        let cfg = ObfConfig::with_cache_bytes(0x1_0000, lines, 4096);
        let mut obf = Obfuscator::new(cfg);
        let mut chan = Channel::new(DramConfig::paper_reference());
        let chunk_bytes = cfg.line_bytes * cfg.chunk_lines;
        for _ in 0..1 + rng.index(149) {
            let addr = 0x1_0000 + rng.index(lines as usize) as u32 * cfg.line_bytes;
            let t = rng.index(10_000) as u64;
            if rng.next_u64() & 1 == 1 {
                obf.reshuffle(addr, t, &mut chan);
            } else {
                let (ext, ready) = obf.lookup(addr, t, &mut chan);
                assert!(ready >= t, "case seed {seed}: mapping known before the lookup");
                assert_eq!(ext, obf.map(addr), "case seed {seed}: lookup disagrees with map");
            }
            assert!(obf.is_permutation(), "case seed {seed}: mapping stopped being a permutation");
            let ext = obf.map(addr);
            assert_eq!(
                (addr - 0x1_0000) / chunk_bytes,
                (ext - 0x1_0000) / chunk_bytes,
                "case seed {seed}: line {addr:#x} escaped its chunk to {ext:#x}"
            );
        }
    });
}

/// The Merkle tree flags any single-bit corruption of any leaf, for any
/// leaf count and arity.
#[test]
fn merkle_detects_any_corruption() {
    for_each_case(CASES, |seed, rng| {
        let (n_leaves, arity) = (1 + rng.index(39), 2 + rng.index(7));
        let data: Vec<u8> = (0..n_leaves * 64).map(|i| (i * 31 % 251) as u8).collect();
        let tree = MerkleTree::build(&data, 64, arity, b"pt-key");
        let leaf = rng.index(n_leaves);
        let mut chunk = data[leaf * 64..(leaf + 1) * 64].to_vec();
        assert!(tree.verify_leaf(&chunk, leaf), "case seed {seed}: intact leaf {leaf} refused");
        let (byte, bit) = (rng.index(64), rng.index(8));
        chunk[byte] ^= 1 << bit;
        assert!(
            !tree.verify_leaf(&chunk, leaf),
            "case seed {seed}: bit {bit} of byte {byte} of leaf {leaf} passed \
             ({n_leaves} leaves, arity {arity})"
        );
    });
}

/// Updating one leaf keeps every leaf verifying: the new contents at the
/// updated index, the old contents everywhere else.
#[test]
fn merkle_update_preserves_siblings() {
    for_each_case(CASES, |seed, rng| {
        let n_leaves = 2 + rng.index(22);
        let data: Vec<u8> = (0..n_leaves * 64).map(|i| i as u8).collect();
        let mut tree = MerkleTree::build(&data, 64, 4, b"k");
        let upd = rng.index(n_leaves);
        let new_leaf = [rng.next_u64() as u8; 64];
        tree.update_leaf(upd, &new_leaf);
        for i in 0..n_leaves {
            let leaf = if i == upd { &new_leaf[..] } else { &data[i * 64..(i + 1) * 64] };
            assert!(tree.verify_leaf(leaf, i), "case seed {seed}: leaf {i} after updating {upd}");
        }
    });
}

/// Reads return what was written and legitimate writes keep every line
/// valid; any nonzero ciphertext tamper is caught by the MAC, and a
/// word-aligned one flips exactly the masked plaintext bits (CTR
/// malleability).
#[test]
fn encmem_write_read_and_tamper() {
    for_each_case(CASES, |seed, rng| {
        let mut m = EncryptedMemory::from_plain(0x4000, &[0u8; 1024], &[3; 16], b"pk");
        let mut shadow = HashMap::new();
        for _ in 0..1 + rng.index(39) {
            let (addr, v) = (0x4000 + (rng.index(960) as u32 & !3), rng.next_u32());
            m.write_u32(addr, v);
            shadow.insert(addr, v);
        }
        for (&addr, &v) in &shadow {
            assert_eq!(m.read_u32(addr), v, "case seed {seed}: read back {addr:#x}");
            assert!(m.line_valid(addr), "case seed {seed}: write invalidated {addr:#x}");
        }
        assert!(m.invalid_lines().is_empty(), "case seed {seed}");

        let addr = 0x4000 + rng.index(1020) as u32;
        let mask = rng.next_u32().to_le_bytes();
        let before = m.read_u32(addr & !3);
        m.tamper_xor(addr, &mask).expect("offset stays in-image");
        if mask != [0; 4] {
            assert!(
                !m.invalid_lines().is_empty(),
                "case seed {seed}: tamper {mask:?} at {addr:#x}"
            );
        }
        if addr.is_multiple_of(4) {
            let want = before ^ u32::from_le_bytes(mask);
            assert_eq!(m.read_u32(addr), want, "case seed {seed}: tamper {mask:?} at {addr:#x}");
        }
    });
}
