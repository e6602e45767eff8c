//! A stable, platform-independent 64-bit hash for configuration
//! fingerprinting.
//!
//! The experiment result cache keys cached [`SimReport`]s by a hash of
//! the *complete* run configuration. `std::hash::Hash` is explicitly
//! unstable across Rust releases and platforms, so cache keys built on
//! it would silently invalidate (or worse, collide) between toolchains.
//! This module instead defines:
//!
//! * [`StableHasher`] — FNV-1a over a canonical little-endian byte
//!   encoding, identical on every platform and release;
//! * [`StableHash`] — a trait each config type implements by feeding
//!   every semantically meaningful field to the hasher in a fixed order.
//!
//! Implementations must hash **all** fields that influence simulation
//! results; adding a field to a config struct without extending its
//! `stable_hash` impl silently aliases distinct configurations, so each
//! impl carries a field-count guard comment and, where possible, a
//! destructuring `let` that fails to compile when fields change.
//!
//! # Examples
//!
//! ```
//! use secsim_stats::{StableHash, StableHasher};
//!
//! let mut h = StableHasher::new();
//! 42u64.stable_hash(&mut h);
//! "mcf".stable_hash(&mut h);
//! let a = h.finish();
//!
//! let mut h2 = StableHasher::new();
//! 42u64.stable_hash(&mut h2);
//! "mcf".stable_hash(&mut h2);
//! assert_eq!(a, h2.finish());
//! ```

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A 64-bit FNV-1a hasher over a canonical byte stream.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` as 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The accumulated 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Canonical hashing of a value's semantic content.
///
/// Unlike `std::hash::Hash`, the digest is guaranteed stable across
/// platforms, Rust releases, and process runs — suitable for on-disk
/// cache keys.
pub trait StableHash {
    /// Feeds this value's content to `h` in a fixed canonical order.
    fn stable_hash(&self, h: &mut StableHasher);

    /// Convenience: hash `self` alone into a 64-bit digest.
    fn stable_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        self.stable_hash(&mut h);
        h.finish()
    }
}

macro_rules! impl_stable_hash_uint {
    ($($t:ty),*) => {$(
        impl StableHash for $t {
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write_u64(*self as u64);
            }
        }
    )*};
}
impl_stable_hash_uint!(u8, u16, u32, u64, usize);

impl StableHash for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(*self));
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        // Length prefix keeps ("ab","c") distinct from ("a","bc").
        h.write_u64(self.len() as u64);
        h.write(self.as_bytes());
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_str().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write_u64(0),
            Some(x) => {
                h.write_u64(1);
                x.stable_hash(h);
            }
        }
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.len() as u64);
        for x in self {
            x.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<T: StableHash + ?Sized> StableHash for &T {
    fn stable_hash(&self, h: &mut StableHasher) {
        (**self).stable_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_answer() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is pinned from the
        // reference vectors, guarding against accidental constant edits.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(1u64.stable_digest(), 2u64.stable_digest());
        assert_ne!("ab".stable_digest(), "ba".stable_digest());
        assert_ne!(Some(0u64).stable_digest(), None::<u64>.stable_digest());
    }

    #[test]
    fn length_prefix_disambiguates_strings() {
        let pair = |a: &str, b: &str| {
            let mut h = StableHasher::new();
            a.stable_hash(&mut h);
            b.stable_hash(&mut h);
            h.finish()
        };
        assert_ne!(pair("ab", "c"), pair("a", "bc"));
    }

    #[test]
    fn digests_stable_across_calls() {
        let v = vec![1u32, 2, 3];
        assert_eq!(v.stable_digest(), v.stable_digest());
    }
}
