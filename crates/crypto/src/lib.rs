//! Cryptographic substrate for the `secsim` secure-processor simulator.
//!
//! The paper's secure processor relies on two cryptographic services:
//! memory **encryption** (counter-mode AES, so decryption pads can be
//! precomputed while the memory fetch is in flight) and **authentication**
//! (per-line truncated HMAC-SHA256). This crate implements both
//! *functionally* — AES-128 in counter mode and HMAC-SHA256, from
//! scratch, validated against FIPS/RFC test vectors — and provides the
//! paper's **latency models** (80 ns AES, 74 ns SHA-256 per 512-bit
//! block) used by the timing simulator. The alternatives that Table 1
//! and the ablations compare against (CBC decryption, CBC-MAC, GMAC)
//! exist only as latency models: no exploit needs their function.
//!
//! Functional correctness matters beyond realism: the exploit harness in
//! `secsim-attack` performs genuine ciphertext bit-flipping against
//! AES-CTR-encrypted program images and genuine MAC verification, so the
//! "attack succeeded / authentication caught it" outcomes are
//! cryptographically real, not scripted.
//!
//! # Examples
//!
//! Counter-mode malleability — the property every exploit in the paper
//! builds on:
//!
//! ```
//! use secsim_crypto::{Aes, CtrKeystream};
//!
//! let aes = Aes::new_128(&[7u8; 16]);
//! let ks = CtrKeystream::new(aes);
//! let mut block = *b"secret pointer!!";
//! let orig = block;
//! ks.apply(0x1000, 1, &mut block); // encrypt
//! block[0] ^= 0x01;                // adversary flips one ciphertext bit
//! ks.apply(0x1000, 1, &mut block); // decrypt
//! assert_eq!(block[0], orig[0] ^ 0x01); // same bit flipped in plaintext
//! assert_eq!(&block[1..], &orig[1..]);
//! ```

#![forbid(unsafe_code)]

mod aes;
mod ctr;
mod hmac;
mod latency;
mod sha256;

pub use aes::Aes;
pub use ctr::CtrKeystream;
pub use hmac::{hmac_sha256, truncated_mac, HmacSha256};
pub use latency::{CryptoLatency, EncryptionMode, LatencyGap, MacScheme};
pub use sha256::Sha256;
