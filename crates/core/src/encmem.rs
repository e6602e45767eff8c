//! A *functional* encrypted + authenticated memory image.
//!
//! This is the off-chip DRAM as the adversary sees it: AES-CTR
//! ciphertext with one 64-bit truncated HMAC per line, plus per-line
//! write counters. The simulator executes programs against the
//! *decryption* of this image (the plaintext the processor would see),
//! while the attack harness tampers with the *ciphertext* — and because
//! the cryptography is real, tampering genuinely produces
//! attacker-predicted plaintext (CTR malleability) and genuinely fails
//! MAC verification.

use crate::faults::{FaultEvent, FaultKind, TamperError};
use crate::merkle::MerkleTree;
use secsim_crypto::{Aes, CtrKeystream, HmacSha256};
use secsim_isa::MemIo;

/// An encrypted, MAC-protected memory region that programs execute from.
///
/// Implements [`MemIo`]: reads return the *decrypted* bytes (which are
/// attacker-controlled garbage on tampered lines — exactly the paper's
/// threat model), and writes re-encrypt with a bumped counter and a fresh
/// MAC, as a secure processor's writeback path would.
///
/// # Examples
///
/// ```
/// use secsim_core::EncryptedMemory;
/// use secsim_isa::MemIo;
///
/// let mut m = EncryptedMemory::from_plain(0x1000, &[0u8; 256], &[1; 16], b"mac-key");
/// m.write_u32(0x1000, 0xdeadbeef);
/// assert_eq!(m.read_u32(0x1000), 0xdeadbeef);
/// assert!(m.line_valid(0x1000));
///
/// // Adversary flips one ciphertext bit:
/// m.tamper_xor(0x1000, &[0x01]).unwrap();
/// assert_eq!(m.read_u32(0x1000), 0xdeadbeef ^ 1); // CTR malleability
/// assert!(!m.line_valid(0x1000));                 // MAC catches it
/// ```
#[derive(Debug, Clone)]
pub struct EncryptedMemory {
    base: u32,
    line_bytes: u32,
    /// Current plaintext, as decryption of `cipher` (kept in sync).
    shadow: Vec<u8>,
    cipher: Vec<u8>,
    counters: Vec<u64>,
    macs: Vec<u64>,
    mac_valid: Vec<bool>,
    ever_tampered: Vec<bool>,
    ks: CtrKeystream,
    hmac: HmacSha256,
    /// Optional replay-protection tree over the plaintext lines.
    tree: Option<MerkleTree>,
    oob: u64,
}

impl EncryptedMemory {
    /// Encrypts `plain` (padded to a whole number of 64-byte lines) at
    /// `base` under `enc_key` / `mac_key`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 64-byte aligned or `plain` is empty.
    pub fn from_plain(base: u32, plain: &[u8], enc_key: &[u8; 16], mac_key: &[u8]) -> Self {
        const LINE: u32 = 64;
        assert_eq!(base % LINE, 0, "base must be line aligned");
        assert!(!plain.is_empty(), "image must be non-empty");
        let len = plain.len().div_ceil(LINE as usize) * LINE as usize;
        let mut shadow = plain.to_vec();
        shadow.resize(len, 0);
        let n_lines = len / LINE as usize;
        let ks = CtrKeystream::new(Aes::new_128(enc_key));
        let hmac = HmacSha256::new(mac_key);
        let mut mem = Self {
            base,
            line_bytes: LINE,
            // seal_line overwrites every line below; no need to copy the
            // plaintext in just to clobber it.
            cipher: vec![0u8; len],
            shadow,
            counters: vec![1; n_lines],
            macs: vec![0; n_lines],
            mac_valid: vec![true; n_lines],
            ever_tampered: vec![false; n_lines],
            ks,
            hmac,
            tree: None,
            oob: 0,
        };
        for i in 0..n_lines {
            mem.seal_line(i);
        }
        mem
    }

    fn line_count(&self) -> usize {
        self.counters.len()
    }

    fn line_of(&self, addr: u32) -> Option<usize> {
        let off = addr.checked_sub(self.base)?;
        let idx = (off / self.line_bytes) as usize;
        (idx < self.line_count()).then_some(idx)
    }

    /// Line-aligned address of line `idx`.
    fn line_addr(&self, idx: usize) -> u32 {
        self.base + idx as u32 * self.line_bytes
    }

    fn line_range(&self, idx: usize) -> std::ops::Range<usize> {
        let lb = self.line_bytes as usize;
        idx * lb..(idx + 1) * lb
    }

    /// Enables hash-tree (Merkle) replay protection: an 8-ary MAC tree
    /// is built over the current plaintext, its root held "on chip".
    /// From here on, [`EncryptedMemory::line_valid`] also requires the
    /// line to match the tree — which a consistent-triple replay
    /// (stale ciphertext + matching stale MAC + stale counter) cannot.
    pub fn enable_tree(&mut self, key: &[u8]) {
        self.tree = Some(MerkleTree::build(&self.shadow, self.line_bytes as usize, 8, key));
    }

    /// Whether replay protection is active.
    pub fn has_tree(&self) -> bool {
        self.tree.is_some()
    }

    /// Re-encrypts line `idx` from `shadow` and recomputes its MAC
    /// (valid state).
    fn seal_line(&mut self, idx: usize) {
        let range = self.line_range(idx);
        let addr = self.line_addr(idx);
        let ctr = self.counters[idx];
        // Encrypt in place inside `cipher` (CTR is an XOR, so copying the
        // plaintext in and applying the keystream needs no scratch line —
        // this runs on every store the simulated program makes).
        self.cipher[range.clone()].copy_from_slice(&self.shadow[range.clone()]);
        self.ks.apply(addr, ctr, &mut self.cipher[range.clone()]);
        self.macs[idx] = self.compute_mac(idx);
        self.mac_valid[idx] = true;
        // Legitimate writeback: the processor refreshes the tree path.
        if let Some(tree) = &mut self.tree {
            tree.update_leaf(idx, &self.shadow[range]);
        }
    }

    /// MAC binds (address, counter, plaintext): relocation and replay of
    /// a single line are both detectable.
    fn compute_mac(&self, idx: usize) -> u64 {
        let range = self.line_range(idx);
        self.hmac.compute_truncated_parts(&[
            &self.line_addr(idx).to_le_bytes(),
            &self.counters[idx].to_le_bytes(),
            &self.shadow[range],
        ])
    }

    fn refresh_line_validity(&mut self, idx: usize) {
        // Decrypt current ciphertext into the shadow (in place — CTR is
        // an XOR), then verify.
        let range = self.line_range(idx);
        let addr = self.line_addr(idx);
        let ctr = self.counters[idx];
        self.shadow[range.clone()].copy_from_slice(&self.cipher[range.clone()]);
        self.ks.apply(addr, ctr, &mut self.shadow[range.clone()]);
        let mut valid = self.compute_mac(idx) == self.macs[idx];
        if let Some(tree) = &self.tree {
            valid &= tree.verify_leaf(&self.shadow[range], idx);
        }
        self.mac_valid[idx] = valid;
    }

    /// XORs `mask` over the *ciphertext* starting at `addr` — the
    /// adversary's basic operation under a malleable encryption mode.
    /// Affected lines are re-decrypted and re-verified.
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] (and leaves the image untouched) when any
    /// byte of the range falls outside the image.
    pub fn tamper_xor(&mut self, addr: u32, mask: &[u8]) -> Result<(), TamperError> {
        if mask.is_empty() {
            return Ok(());
        }
        let oob = TamperError { addr, len: mask.len() };
        let start = self.line_of(addr).ok_or(oob)?;
        let end_addr = addr.checked_add(mask.len() as u32 - 1).ok_or(oob)?;
        let end = self.line_of(end_addr).ok_or(oob)?;
        let off = (addr - self.base) as usize;
        for (i, m) in mask.iter().enumerate() {
            self.cipher[off + i] ^= m;
        }
        for idx in start..=end {
            self.ever_tampered[idx] = true;
            self.refresh_line_validity(idx);
        }
        Ok(())
    }

    /// XORs `mask` over the stored MAC tag of the line containing
    /// `addr` — tag corruption in DRAM. The line's data is untouched but
    /// verification now fails.
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] when `addr` falls outside the image.
    pub fn corrupt_tag(&mut self, addr: u32, mask: u64) -> Result<(), TamperError> {
        let idx = self.line_of(addr).ok_or(TamperError { addr, len: 8 })?;
        self.macs[idx] ^= mask;
        self.ever_tampered[idx] = true;
        self.refresh_line_validity(idx);
        Ok(())
    }

    /// Replays the line containing `addr` under a stale counter: the
    /// stored ciphertext stays, but the counter the processor decrypts
    /// with advances, so decryption yields garbage and the
    /// (address, counter, plaintext) MAC fails. This is the
    /// counter-desynchronization form of replay the per-line MAC *can*
    /// catch (a fully consistent stale triple needs the tree — see
    /// [`EncryptedMemory::replay_line`]).
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] when `addr` falls outside the image.
    pub fn desync_counter(&mut self, addr: u32) -> Result<(), TamperError> {
        let idx = self.line_of(addr).ok_or(TamperError { addr, len: 1 })?;
        self.counters[idx] += 1;
        self.ever_tampered[idx] = true;
        self.refresh_line_validity(idx);
        Ok(())
    }

    /// Applies one scheduled fault to the image. Returns `Ok(true)` when
    /// the event mutated stored data or metadata, `Ok(false)` for the
    /// MAC-queue kinds the image does not model (the memory controller
    /// handles those).
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] when the event addresses bytes outside
    /// the image.
    pub fn apply_fault(&mut self, ev: &FaultEvent) -> Result<bool, TamperError> {
        match ev.kind {
            FaultKind::CiphertextFlip { mask } | FaultKind::BusCorrupt { mask } => {
                self.tamper_xor(ev.addr, &[mask])?;
                Ok(true)
            }
            FaultKind::DramFlip { bit } => {
                self.tamper_xor(ev.addr, &[1u8 << (bit & 7)])?;
                Ok(true)
            }
            FaultKind::TagCorrupt { mask } => {
                self.corrupt_tag(ev.addr, mask)?;
                Ok(true)
            }
            FaultKind::CounterReplay => {
                self.desync_counter(ev.addr)?;
                Ok(true)
            }
            FaultKind::MacDelay { .. } | FaultKind::MacDrop => Ok(false),
        }
    }

    /// Replaces the ciphertext of the line containing `addr` with a
    /// previously captured line (a *replay*). The per-line MAC is
    /// replayed too, so only counter mismatch / a tree catches it.
    ///
    /// # Panics
    ///
    /// Panics if out of range or `cipher` is not one line long.
    pub fn replay_line(&mut self, addr: u32, cipher: &[u8], mac: u64, counter: u64) {
        assert_eq!(cipher.len(), self.line_bytes as usize, "replay must be one line");
        let idx = self.line_of(addr).expect("replay outside image");
        let range = self.line_range(idx);
        self.cipher[range].copy_from_slice(cipher);
        self.macs[idx] = mac;
        self.counters[idx] = counter;
        self.ever_tampered[idx] = true;
        self.refresh_line_validity(idx);
    }

    /// Captures the line containing `addr` as `(ciphertext, mac,
    /// counter)` for a later replay.
    pub fn capture_line(&self, addr: u32) -> (Vec<u8>, u64, u64) {
        let (ct, mac, ctr) = self.capture_line_ref(addr);
        (ct.to_vec(), mac, ctr)
    }

    /// Borrowing form of [`EncryptedMemory::capture_line`]: the same
    /// `(ciphertext, mac, counter)` triple without copying the line —
    /// what capture loops over many lines should use.
    pub fn capture_line_ref(&self, addr: u32) -> (&[u8], u64, u64) {
        let idx = self.line_of(addr).expect("capture outside image");
        (&self.cipher[self.line_range(idx)], self.macs[idx], self.counters[idx])
    }

    /// Whether the line containing `addr` currently passes MAC
    /// verification. Addresses outside the image report `true` (nothing
    /// to verify).
    pub fn line_valid(&self, addr: u32) -> bool {
        self.line_of(addr).is_none_or(|i| self.mac_valid[i])
    }

    /// Whether the line containing `addr` was ever tampered with.
    pub fn line_ever_tampered(&self, addr: u32) -> bool {
        self.line_of(addr).is_some_and(|i| self.ever_tampered[i])
    }

    /// Line-aligned addresses of all currently invalid lines.
    pub fn invalid_lines(&self) -> Vec<u32> {
        (0..self.line_count())
            .filter(|&i| !self.mac_valid[i])
            .map(|i| self.line_addr(i))
            .collect()
    }

    /// The image's base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The image's size in bytes.
    pub fn len(&self) -> usize {
        self.shadow.len()
    }

    /// Whether the image is empty (never true — construction requires
    /// data).
    pub fn is_empty(&self) -> bool {
        self.shadow.is_empty()
    }

    /// Line size (64).
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Out-of-range access count (tampered programs dereference wild
    /// addresses; the simulator keeps running).
    pub fn oob_count(&self) -> u64 {
        self.oob
    }

    fn contains(&self, addr: u32, len: usize) -> bool {
        let Some(off) = addr.checked_sub(self.base) else {
            return false;
        };
        (off as usize).checked_add(len).is_some_and(|e| e <= self.shadow.len())
    }
}

impl MemIo for EncryptedMemory {
    fn read(&mut self, addr: u32, buf: &mut [u8]) {
        if self.contains(addr, buf.len()) {
            let off = (addr - self.base) as usize;
            buf.copy_from_slice(&self.shadow[off..off + buf.len()]);
        } else {
            buf.fill(0);
            self.oob += 1;
        }
    }

    fn write(&mut self, addr: u32, data: &[u8]) {
        if !self.contains(addr, data.len()) {
            self.oob += 1;
            return;
        }
        let off = (addr - self.base) as usize;
        self.shadow[off..off + data.len()].copy_from_slice(data);
        let first = self.line_of(addr).expect("checked");
        let last = self.line_of(addr + data.len() as u32 - 1).expect("checked");
        for idx in first..=last {
            // Writeback path: bump the counter (CTR pad freshness) and
            // reseal.
            self.counters[idx] += 1;
            self.seal_line(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> EncryptedMemory {
        let plain: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        EncryptedMemory::from_plain(0x4000, &plain, &[7; 16], b"k")
    }

    #[test]
    fn decrypts_to_original_plaintext() {
        let mut m = image();
        let mut buf = [0u8; 16];
        m.read(0x4010, &mut buf);
        let expect: Vec<u8> = (0x10..0x20u8).collect();
        assert_eq!(&buf[..], &expect[..]);
        assert!(m.invalid_lines().is_empty());
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let m = image();
        let (ct, _, _) = m.capture_line_ref(0x4000);
        let pt: Vec<u8> = (0..64u8).collect();
        assert_ne!(ct, &pt[..]);
    }

    #[test]
    fn write_reseals_and_stays_valid() {
        let mut m = image();
        m.write_u32(0x4004, 0xCAFEBABE);
        assert_eq!(m.read_u32(0x4004), 0xCAFEBABE);
        assert!(m.line_valid(0x4004));
        assert!(!m.line_ever_tampered(0x4004));
    }

    #[test]
    fn tamper_produces_predicted_plaintext_and_fails_mac() {
        let mut m = image();
        let before = m.read_u32(0x4020);
        m.tamper_xor(0x4020, &0x0000_00FFu32.to_le_bytes()).unwrap();
        assert_eq!(m.read_u32(0x4020), before ^ 0xFF);
        assert!(!m.line_valid(0x4020));
        assert!(m.line_ever_tampered(0x4020));
        assert_eq!(m.invalid_lines(), vec![0x4000]);
    }

    #[test]
    fn tamper_spanning_lines_invalidates_both() {
        let mut m = image();
        m.tamper_xor(0x403E, &[1, 1, 1, 1]).unwrap(); // crosses 0x4040
        assert!(!m.line_valid(0x4000));
        assert!(!m.line_valid(0x4040));
        assert_eq!(m.invalid_lines().len(), 2);
    }

    #[test]
    fn known_plaintext_rewrite() {
        // The disclosing-kernel injection primitive: new_ct = ct ^ known_pt ^ chosen_pt
        // makes the line decrypt to exactly `chosen_pt`.
        let mut m = image();
        let known: Vec<u8> = (0..64u8).collect(); // we know line 0's plaintext
        let chosen = [0xABu8; 64];
        let mask: Vec<u8> =
            known.iter().zip(chosen.iter()).map(|(k, c)| k ^ c).collect();
        m.tamper_xor(0x4000, &mask).unwrap();
        let mut buf = [0u8; 64];
        m.read(0x4000, &mut buf);
        assert_eq!(buf, chosen);
        assert!(!m.line_valid(0x4000));
    }

    #[test]
    fn replay_detected_by_counter_bound_mac() {
        let mut m = image();
        let (old_ct, old_mac, old_ctr) = m.capture_line(0x4080);
        m.write_u32(0x4080, 0x1234_5678); // counter bumps, new MAC
        assert!(m.line_valid(0x4080));
        m.replay_line(0x4080, &old_ct, old_mac, old_ctr);
        // Full replay (ct, mac, counter) *would* pass a per-line MAC if
        // the processor had no fresh counter — here the replayed counter
        // matches the captured one, so the line verifies:
        assert!(m.line_valid(0x4080));
        // ...which is precisely why a hash tree (MerkleTree) is needed
        // for replay protection; see merkle.rs tests.
        // A replay with the *current* counter (what a tree-less
        // processor that keeps counters on-chip would see) fails:
        let (ct2, mac2, _) = (old_ct, old_mac, old_ctr);
        m.replay_line(0x4080, &ct2, mac2, old_ctr + 1);
        assert!(!m.line_valid(0x4080));
    }

    #[test]
    fn consistent_triple_replay_beats_flat_mac_but_not_tree() {
        // Without a tree, replaying a *consistent* (ciphertext, MAC,
        // counter) triple captured earlier passes per-line checks.
        let mut flat = image();
        flat.write_u32(0x4080, 0xAAAA);
        let captured = flat.capture_line(0x4080);
        flat.write_u32(0x4080, 0xBBBB); // victim updates the value
        flat.replay_line(0x4080, &captured.0, captured.1, captured.2);
        assert!(flat.line_valid(0x4080), "flat MAC accepts the stale triple");
        assert_eq!(flat.read_u32(0x4080), 0xAAAA, "stale value restored");

        // With the tree, the same replay is caught: the on-chip root
        // moved when the victim wrote.
        let mut prot = image();
        prot.enable_tree(b"root-key");
        assert!(prot.has_tree());
        prot.write_u32(0x4080, 0xAAAA);
        let captured = prot.capture_line(0x4080);
        prot.write_u32(0x4080, 0xBBBB);
        prot.replay_line(0x4080, &captured.0, captured.1, captured.2);
        assert!(!prot.line_valid(0x4080), "tree must reject the replay");
    }

    #[test]
    fn tree_transparent_to_legitimate_execution() {
        let mut m = image();
        m.enable_tree(b"root-key");
        m.write_u32(0x4010, 123);
        m.write_u32(0x4050, 456);
        assert_eq!(m.read_u32(0x4010), 123);
        assert!(m.invalid_lines().is_empty());
        // Ordinary bit-flip tampering is still caught, of course.
        m.tamper_xor(0x4010, &[1]).unwrap();
        assert!(!m.line_valid(0x4010));
    }

    #[test]
    fn oob_reads_zero() {
        let mut m = image();
        assert_eq!(m.read_u32(0x9999_0000), 0);
        m.write_u32(0x9999_0000, 5);
        assert_eq!(m.oob_count(), 2);
    }

    #[test]
    fn tamper_oob_is_an_error_not_a_panic() {
        let mut m = image();
        assert_eq!(m.tamper_xor(0x0, &[1]), Err(TamperError { addr: 0x0, len: 1 }));
        // A range that starts inside but runs off the end is rejected
        // whole — the image is untouched.
        let end = 0x4000 + 256 - 2;
        assert_eq!(m.tamper_xor(end, &[1; 4]), Err(TamperError { addr: end, len: 4 }));
        assert!(m.invalid_lines().is_empty(), "failed tampers must not mutate");
        // Empty masks are a no-op.
        assert_eq!(m.tamper_xor(0x4000, &[]), Ok(()));
        assert!(m.line_valid(0x4000));
        // Addresses that would overflow u32 are rejected, not wrapped.
        assert!(m.tamper_xor(u32::MAX, &[1, 1]).is_err());
    }

    #[test]
    fn corrupt_tag_fails_mac_without_touching_data() {
        let mut m = image();
        let before = m.read_u32(0x4040);
        m.corrupt_tag(0x4040, 0x8000_0000_0000_0001).unwrap();
        assert_eq!(m.read_u32(0x4040), before, "data untouched");
        assert!(!m.line_valid(0x4040));
        assert!(m.line_ever_tampered(0x4040));
        assert!(m.corrupt_tag(0x0, 1).is_err());
        // XOR-ing the same mask back restores validity (pure metadata).
        m.corrupt_tag(0x4040, 0x8000_0000_0000_0001).unwrap();
        assert!(m.line_valid(0x4040));
    }

    #[test]
    fn desync_counter_garbles_and_fails_mac() {
        let mut m = image();
        let before = m.read_u32(0x4080);
        m.desync_counter(0x4080).unwrap();
        assert!(!m.line_valid(0x4080));
        assert_ne!(m.read_u32(0x4080), before, "stale ciphertext under new counter");
        assert!(m.desync_counter(0x0).is_err());
    }

    #[test]
    fn apply_fault_maps_kinds_onto_primitives() {
        use crate::faults::{FaultEvent, FaultKind};
        let mk = |addr, kind| FaultEvent { cycle: 0, addr, kind };

        let mut m = image();
        assert_eq!(m.apply_fault(&mk(0x4000, FaultKind::CiphertextFlip { mask: 2 })), Ok(true));
        assert!(!m.line_valid(0x4000));
        assert_eq!(m.apply_fault(&mk(0x4040, FaultKind::DramFlip { bit: 5 })), Ok(true));
        assert!(!m.line_valid(0x4040));
        assert_eq!(m.apply_fault(&mk(0x4080, FaultKind::TagCorrupt { mask: 3 })), Ok(true));
        assert!(!m.line_valid(0x4080));
        assert_eq!(m.apply_fault(&mk(0x40C0, FaultKind::CounterReplay)), Ok(true));
        assert!(!m.line_valid(0x40C0));
        // MAC-queue faults do not touch the image.
        assert_eq!(m.apply_fault(&mk(0x4000, FaultKind::MacDrop)), Ok(false));
        assert_eq!(m.apply_fault(&mk(0x4000, FaultKind::MacDelay { extra: 9 })), Ok(false));
        // Out-of-image faults surface the address error.
        assert!(m.apply_fault(&mk(0x0, FaultKind::CounterReplay)).is_err());
    }

    #[test]
    fn capture_line_ref_matches_owned_capture() {
        let mut m = image();
        m.write_u32(0x4040, 0xfeed_f00d);
        let owned = m.capture_line(0x4040);
        let (ct, mac, ctr) = m.capture_line_ref(0x4040);
        assert_eq!(owned, (ct.to_vec(), mac, ctr));
    }

    #[test]
    fn write_after_tamper_reseals_the_line_as_valid() {
        // A store to a tampered line legitimises whatever plaintext the
        // tamper decoded to: the counter bumps and the line is resealed.
        let mut m = image();
        m.tamper_xor(0x4000, &[0xFF]).unwrap();
        assert!(!m.line_valid(0x4000));
        let v = m.read_u32(0x4000);
        assert_eq!(v, 0x0302_01FF, "bytes 0..4 with the first flipped");
        m.write_u32(0x4000, v);
        assert!(m.line_valid(0x4000));
        assert!(m.invalid_lines().is_empty());
        assert_eq!(m.read_u32(0x4000), v);
        assert_eq!(m.capture_line_ref(0x4000).2, 2, "one counter bump");
        assert!(m.line_ever_tampered(0x4000), "the tamper stays on record");
    }
}
