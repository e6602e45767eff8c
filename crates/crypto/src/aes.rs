//! AES-128 block cipher, from scratch.
//!
//! Only what the simulator needs is implemented: the AES-128 key
//! schedule and single-block encryption, which is all counter mode
//! calls (it encrypts and decrypts with the forward cipher). Validated
//! against the FIPS-197 test vector. The paper's reference engine is a
//! pipelined 256-bit Rijndael; its latency is modelled in
//! `CryptoLatency`, independently of this cipher.
//!
//! Encrypt, the CTR keystream's hot path, is word-oriented: each round
//! computes a state column as four lookups in one 256-entry table
//! (`TE`) XORed with the round key, which does SubBytes, ShiftRows and
//! MixColumns at once. The byte-oriented rounds it replaced stay in the
//! tests as the reference it is checked against. Table lookups leak
//! their index through the host's caches, which does not matter here:
//! the simulator's AES makes the ciphertext of modelled attacks and
//! guards no host secret.

/// Number of rounds of AES-128.
const ROUNDS: usize = 10;

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

/// An AES-128 cipher instance with an expanded key.
///
/// # Examples
///
/// ```
/// use secsim_crypto::Aes;
///
/// // FIPS-197 Appendix C.1: key 00 01 .. 0f, plaintext 00 11 .. ff.
/// let aes = Aes::new_128(&std::array::from_fn(|i| i as u8));
/// let mut block: [u8; 16] = std::array::from_fn(|i| 0x11 * i as u8);
/// aes.encrypt_block(&mut block);
/// assert_eq!(block[..4], [0x69, 0xc4, 0xe0, 0xd8]);
/// assert_eq!(block[12..], [0x70, 0xb4, 0xc5, 0x5a]);
/// ```
#[derive(Debug, Clone)]
pub struct Aes {
    /// Round keys as big-endian column words: `round_keys[r][c]` is
    /// column c of round key r, row 0 in its top byte.
    round_keys: [[u32; 4]; ROUNDS + 1],
}

impl Aes {
    /// Creates an AES-128 instance.
    pub fn new_128(key: &[u8; 16]) -> Self {
        let mut round_keys = [[0u32; 4]; ROUNDS + 1];
        for (w, k) in round_keys[0].iter_mut().zip(key.chunks_exact(4)) {
            *w = u32::from_be_bytes([k[0], k[1], k[2], k[3]]);
        }
        let mut rcon: u8 = 1;
        for r in 1..=ROUNDS {
            let prev = round_keys[r - 1];
            // RotWord, SubWord and Rcon on the previous key's last
            // column, then each column XORs in the one before it.
            let rot = prev[3].rotate_left(8).to_be_bytes().map(|b| SBOX[b as usize]);
            let mut t = u32::from_be_bytes(rot) ^ (u32::from(rcon) << 24);
            rcon = xtime(rcon);
            for (w, p) in round_keys[r].iter_mut().zip(prev) {
                t ^= p;
                *w = t;
            }
        }
        Self { round_keys }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let [first, middle @ .., last] = &self.round_keys;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use secsim_stats::SplitMix64;

    /// State layout: column-major, `state[4c + r]` = row r, column c;
    /// so column c's word holds `state[4c..4c + 4]` big-endian.
    fn add_round_key(state: &mut [u8; 16], rk: &[u32; 4]) {
        for (col, k) in state.chunks_exact_mut(4).zip(rk) {
            for (s, kb) in col.iter_mut().zip(k.to_be_bytes()) {
                *s ^= kb;
            }
        }
    }

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
        add_round_key(block, &aes.round_keys[0]);
        for rk in &aes.round_keys[1..ROUNDS] {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, rk);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &aes.round_keys[ROUNDS]);
    }

    fn random_bytes<const N: usize>(rng: &mut SplitMix64) -> [u8; N] {
        std::array::from_fn(|_| rng.next_u64() as u8)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The word-oriented encrypt equals the byte-oriented rounds, for
    /// seeded keys and blocks.
    #[test]
    fn encrypt_matches_bytewise_rounds() {
        for seed in 0..256u64 {
            let mut rng = SplitMix64::new(seed);
            let aes = Aes::new_128(&random_bytes(&mut rng));
            for _ in 0..4 {
                let block: [u8; 16] = random_bytes(&mut rng);
                let (mut got, mut want) = (block, block);
                aes.encrypt_block(&mut got);
                encrypt_block_bytewise(&aes, &mut want);
                assert_eq!(got, want, "case seed {seed}, {block:02x?}");
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
        Aes::new_128(&key).encrypt_block(&mut block);
        assert_eq!(block, expected);
    }

    /// The AES-128 known answers of NIST's GCM test cases 1 and 3: the
    /// hash subkey `H = E_K(0^128)` for the zero key and for key
    /// `feffe992…67308308`.
    #[test]
    fn nist_gcm_hash_subkeys() {
        let key3: [u8; 16] = [
            0xfe, 0xff, 0xe9, 0x92, 0x86, 0x65, 0x73, 0x1c, 0x6d, 0x6a, 0x8f, 0x94, 0x67, 0x30,
            0x83, 0x08,
        ];
        for (key, h) in [
            ([0u8; 16], "66e94bd4ef8a2c3b884cfa59ca342b2e"),
            (key3, "b83b533708bf535d0aa6e52980d53b78"),
        ] {
            let mut block = [0u8; 16];
            Aes::new_128(&key).encrypt_block(&mut block);
            assert_eq!(hex(&block), h, "key {}", hex(&key));
        }
    }
}
