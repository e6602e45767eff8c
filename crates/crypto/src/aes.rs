//! AES (Rijndael) block cipher, from scratch.
//!
//! Supports AES-128 and AES-256 (the paper's reference hardware is a
//! pipelined 256-bit Rijndael). Only what the simulator needs is
//! implemented: key schedule, single-block encrypt/decrypt. Validated
//! against the FIPS-197 test vectors.
//!
//! Encrypt, the CTR keystream's hot path, is word-oriented: each round
//! computes a state column as four lookups in one 256-entry table
//! (`TE`) XORed with the round key, which does SubBytes, ShiftRows and
//! MixColumns at once. The byte-oriented rounds it replaced stay in the
//! tests as the reference it is checked against. Decrypt, which only
//! tests and a doc example call, keeps its byte-oriented form. Table
//! lookups leak their index through the host's caches, which does not
//! matter here: the simulator's AES makes the ciphertext of modelled
//! attacks and guards no host secret.

/// Rijndael S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16,
];

/// Inverse S-box, derived at first use.
fn inv_sbox() -> [u8; 256] {
    let mut inv = [0u8; 256];
    for (i, &s) in SBOX.iter().enumerate() {
        inv[s as usize] = i as u8;
    }
    inv
}

const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// The encrypt round table: `TE[x]` is the MixColumns image of a
/// column holding `S(x)` in row 0 and zeros elsewhere, packed
/// big-endian (`2·S(x)`, `S(x)`, `S(x)`, `3·S(x)`). A byte in row r
/// contributes `TE[x]` rotated right by 8r bits.
const TE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        t[i] = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        i += 1;
    }
    t
};

/// One full encrypt round's output column before its round key:
/// SubBytes, ShiftRows and MixColumns of the state columns `a`..`d`,
/// where row r of the output column comes from the r-th argument.
#[inline(always)]
fn te_column(a: u32, b: u32, c: u32, d: u32) -> u32 {
    TE[(a >> 24) as usize]
        ^ TE[(b >> 16) as u8 as usize].rotate_right(8)
        ^ TE[(c >> 8) as u8 as usize].rotate_right(16)
        ^ TE[d as u8 as usize].rotate_right(24)
}

/// The last round's output column before its round key: SubBytes and
/// ShiftRows only.
#[inline(always)]
fn last_column(a: u32, b: u32, c: u32, d: u32) -> u32 {
    u32::from_be_bytes([
        SBOX[(a >> 24) as usize],
        SBOX[(b >> 16) as u8 as usize],
        SBOX[(c >> 8) as u8 as usize],
        SBOX[d as u8 as usize],
    ])
}

fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// An AES cipher instance with an expanded key.
///
/// # Examples
///
/// ```
/// use secsim_crypto::Aes;
///
/// let aes = Aes::new_128(&[0u8; 16]);
/// let mut block = [0u8; 16];
/// aes.encrypt_block(&mut block);
/// let ct = block;
/// aes.decrypt_block(&mut block);
/// assert_eq!(block, [0u8; 16]);
/// assert_ne!(ct, [0u8; 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Aes {
    /// Round keys as big-endian column words: `round_keys[r][c]` is
    /// column c of round key r, row 0 in its top byte.
    round_keys: Vec<[u32; 4]>,
    rounds: usize,
}

impl Aes {
    /// Creates an AES-128 instance.
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, 4, 10)
    }

    /// Creates an AES-256 instance.
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, 8, 14)
    }

    /// Number of rounds (10 for AES-128, 14 for AES-256).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    fn expand(key: &[u8], nk: usize, rounds: usize) -> Self {
        let nb = 4usize;
        let total_words = nb * (rounds + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        for i in 0..nk {
            w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut rcon: u8 = 1;
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
            }
            let prev = w[i - nk];
            w.push([temp[0] ^ prev[0], temp[1] ^ prev[1], temp[2] ^ prev[2], temp[3] ^ prev[3]]);
        }
        let round_keys =
            w.chunks_exact(4).map(|r| [0, 1, 2, 3].map(|c| u32::from_be_bytes(r[c]))).collect();
        Self { round_keys, rounds }
    }

    /// State layout: column-major, `state[4c + r]` = row r, column c;
    /// so column c's word holds `state[4c..4c + 4]` big-endian.
    fn add_round_key(state: &mut [u8; 16], rk: &[u32; 4]) {
        for (col, k) in state.chunks_exact_mut(4).zip(rk) {
            for (s, kb) in col.iter_mut().zip(k.to_be_bytes()) {
                *s ^= kb;
            }
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16], inv: &[u8; 256]) {
        for b in state.iter_mut() {
            *b = inv[*b as usize];
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[(c + r) % 4] = state[4 * c + r];
            }
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            state[4 * c] =
                gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let (first, rest) = self.round_keys.split_first().expect("at least one round key");
        let (last, middle) = rest.split_last().expect("at least two round keys");
        let mut s = [0, 1, 2, 3].map(|c| {
            u32::from_be_bytes([block[4 * c], block[4 * c + 1], block[4 * c + 2], block[4 * c + 3]])
                ^ first[c]
        });
        // Row r of output column c comes from input column c + r
        // (ShiftRows), so each column reads all four inputs.
        for k in middle {
            s = [
                te_column(s[0], s[1], s[2], s[3]) ^ k[0],
                te_column(s[1], s[2], s[3], s[0]) ^ k[1],
                te_column(s[2], s[3], s[0], s[1]) ^ k[2],
                te_column(s[3], s[0], s[1], s[2]) ^ k[3],
            ];
        }
        let out = [
            last_column(s[0], s[1], s[2], s[3]) ^ last[0],
            last_column(s[1], s[2], s[3], s[0]) ^ last[1],
            last_column(s[2], s[3], s[0], s[1]) ^ last[2],
            last_column(s[3], s[0], s[1], s[2]) ^ last[3],
        ];
        for (col, w) in block.chunks_exact_mut(4).zip(out) {
            col.copy_from_slice(&w.to_be_bytes());
        }
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let inv = inv_sbox();
        Self::add_round_key(block, &self.round_keys[self.rounds]);
        for r in (1..self.rounds).rev() {
            Self::inv_shift_rows(block);
            Self::inv_sub_bytes(block, &inv);
            Self::add_round_key(block, &self.round_keys[r]);
            Self::inv_mix_columns(block);
        }
        Self::inv_shift_rows(block);
        Self::inv_sub_bytes(block, &inv);
        Self::add_round_key(block, &self.round_keys[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secsim_workloads::SplitMix64;

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[c] = state[4 * ((c + r) % 4) + r];
            }
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        // 2·x = xtime(x) and 3·x = xtime(x) ^ x.
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            state[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
            state[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
            state[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
            state[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
        }
    }

    /// The byte-oriented encrypt rounds the word-oriented ones replaced:
    /// the reference `encrypt_block` is checked against.
    fn encrypt_block_bytewise(aes: &Aes, block: &mut [u8; 16]) {
        Aes::add_round_key(block, &aes.round_keys[0]);
        for r in 1..aes.rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            Aes::add_round_key(block, &aes.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        Aes::add_round_key(block, &aes.round_keys[aes.rounds]);
    }

    fn random_bytes<const N: usize>(rng: &mut SplitMix64) -> [u8; N] {
        std::array::from_fn(|_| rng.next_u64() as u8)
    }

    /// The word-oriented encrypt equals the byte-oriented rounds, for
    /// seeded AES-128 and AES-256 keys and blocks.
    #[test]
    fn encrypt_matches_bytewise_rounds() {
        for seed in 0..256u64 {
            let mut rng = SplitMix64::new(seed);
            let aes128 = Aes::new_128(&random_bytes(&mut rng));
            let aes256 = Aes::new_256(&random_bytes(&mut rng));
            for aes in [aes128, aes256] {
                for _ in 0..4 {
                    let block: [u8; 16] = random_bytes(&mut rng);
                    let (mut got, mut want) = (block, block);
                    aes.encrypt_block(&mut got);
                    encrypt_block_bytewise(&aes, &mut want);
                    assert_eq!(got, want, "case seed {seed}, {} rounds, {block:02x?}", aes.rounds);
                }
            }
        }
    }

    /// FIPS-197 Appendix C.1: AES-128.
    #[test]
    fn fips197_aes128_vector() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let mut block: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes::new_128(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expected);
        aes.decrypt_block(&mut block);
        assert_eq!(block[0], 0x00);
        assert_eq!(block[15], 0xff);
    }

    /// FIPS-197 Appendix C.3: AES-256.
    #[test]
    fn fips197_aes256_vector() {
        let key: [u8; 32] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b,
            0x1c, 0x1d, 0x1e, 0x1f,
        ];
        let mut block: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
            0x60, 0x89,
        ];
        let aes = Aes::new_256(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expected);
    }

    #[test]
    fn encrypt_decrypt_round_trip_many() {
        let aes = Aes::new_128(&[0x42; 16]);
        for i in 0..64u8 {
            let mut block = [i; 16];
            let orig = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, orig);
            aes.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }

    #[test]
    fn rounds_counts() {
        assert_eq!(Aes::new_128(&[0; 16]).rounds(), 10);
        assert_eq!(Aes::new_256(&[0; 32]).rounds(), 14);
    }

    #[test]
    fn gmul_identities() {
        assert_eq!(gmul(0x57, 0x13), 0xfe); // FIPS-197 §4.2.1 example
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
    }

    #[test]
    fn inv_sbox_inverts() {
        let inv = inv_sbox();
        for i in 0..=255u8 {
            assert_eq!(inv[SBOX[i as usize] as usize], i);
        }
    }
}
