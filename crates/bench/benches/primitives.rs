//! Microbenchmarks for the cryptographic substrate — the functional
//! engines the secure processor's latency model stands in for.

use secsim_bench::timing::{fmt_rate, measure};
use secsim_core::MerkleTree;
use secsim_crypto::{Aes, CbcMac, CtrKeystream, HmacSha256, Sha256};

fn report_bytes(label: &str, bytes: u64, f: impl FnMut()) {
    let m = measure(label, 0.5, f);
    println!(
        "{:28} {:>12}  ({:.1} ns/op)",
        m.label,
        fmt_rate(m.rate(bytes as f64)),
        m.per_iter_secs() * 1e9
    );
}

fn main() {
    let aes128 = Aes::new_128(&[7; 16]);
    let mut block = [0u8; 16];
    report_bytes("aes/encrypt_block_128", 16, || aes128.encrypt_block(&mut block));
    let aes256 = Aes::new_256(&[7; 32]);
    report_bytes("aes/encrypt_block_256", 16, || aes256.encrypt_block(&mut block));

    let line = [0xA5u8; 64];
    report_bytes("mac/sha256_line", 64, || {
        Sha256::digest(std::hint::black_box(&line));
    });
    let hmac = HmacSha256::new(b"bench-key");
    report_bytes("mac/hmac_line_truncated", 64, || {
        std::hint::black_box(hmac.compute_truncated(&line));
    });
    let cbc = CbcMac::new(Aes::new_128(&[3; 16]));
    report_bytes("mac/cbcmac_line", 64, || {
        std::hint::black_box(cbc.compute_truncated(&line));
    });

    let ks = CtrKeystream::new(Aes::new_128(&[1; 16]));
    let mut ctline = [0u8; 64];
    report_bytes("ctr/encrypt_line", 64, || ks.apply(0x8000, 5, &mut ctline));

    let data = vec![0x5Au8; 256 * 64]; // 256 lines
    let tree = MerkleTree::build(&data, 64, 8, b"tree");
    report_bytes("merkle/verify_leaf_256", 64, || {
        std::hint::black_box(tree.verify_leaf(&data[0..64], 0));
    });
    let mut tree2 = tree.clone();
    report_bytes("merkle/update_leaf_256", 64, || tree2.update_leaf(3, &data[0..64]));
}
