//! A tiny deterministic PRNG, the workspace's one seeded stream.
//!
//! Workload images, fuzz programs, fault plans, client backoff jitter
//! and the seeded tests only need reproducible pseudo-random words and
//! index shuffles, not cryptographic quality, so a self-contained
//! SplitMix64 keeps this crate dependency-free (the external registry
//! is unavailable in offline builds). Streams are stable across
//! platforms and versions: changing this generator invalidates every
//! cached experiment result, which the result cache's version key
//! accounts for.
//!
//! # Examples
//!
//! ```
//! use secsim_stats::SplitMix64;
//!
//! let mut a = SplitMix64::new(7);
//! let mut b = SplitMix64::new(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(SplitMix64::new(8).next_u64() != SplitMix64::new(7).next_u64());
//! ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 pseudo-random bits (Steele, Lea & Flood's SplitMix64
    /// finalizer).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32 pseudo-random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform index in `0..bound` (`bound` must be nonzero).
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is below
    /// 2⁻³² for any bound a workload uses, and determinism — not
    /// statistical perfection — is what matters here.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index bound must be positive");
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let seq = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43));
    }

    #[test]
    fn known_answer_is_stable() {
        // Pinned so an accidental algorithm change (which would silently
        // alter every workload image) fails loudly.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn index_stays_in_bounds() {
        let mut r = SplitMix64::new(9);
        for bound in [1usize, 2, 3, 7, 100, 1 << 20] {
            for _ in 0..100 {
                assert!(r.index(bound) < bound);
            }
        }
    }

    #[test]
    fn index_hits_every_small_bucket() {
        let mut r = SplitMix64::new(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
