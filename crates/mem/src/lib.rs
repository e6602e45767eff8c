//! Memory-system substrate: caches, TLBs, the front-side bus channel
//! (with the attacker-visible address observer) and a banked SDRAM timing
//! model.
//!
//! This crate is a pure *timing* substrate — data contents live in the
//! functional memory of `secsim-isa`; here we compute *when* bytes move
//! and *which addresses appear on the bus*. The latter is the paper's
//! side channel: a secure processor encrypts memory contents, but fetch
//! addresses cross the front-side interface in plaintext (§3).
//!
//! Components:
//!
//! * [`Cache`] — set-associative, write-back, write-allocate, LRU.
//! * [`Dram`] — banked SDRAM with open-row policy and the paper's
//!   `X-5-5-5` core-clock burst timing (Table 3).
//! * [`Channel`] — serializing front-side bus + DRAM channel; every
//!   granted transaction is recorded as a [`BusEvent`] that the attack
//!   harness can inspect.
//! * [`Tlb`] — simple set-associative TLB with a fixed miss penalty.
//! * [`MemSystem`] — L1I/L1D/L2 hierarchy parameterized by a
//!   [`FillEngine`], the hook through which `secsim-core` injects
//!   decryption/authentication timing on every external line fill.
//!
//! # Examples
//!
//! ```
//! use secsim_mem::{Cache, CacheConfig};
//!
//! let mut c = Cache::new(CacheConfig::paper_l1());
//! assert!(!c.access(0x1000, false).hit);
//! assert!(c.access(0x1000, false).hit); // now resident
//! ```

mod cache;
mod channel;
mod dram;
mod hierarchy;
mod tlb;

pub use cache::{Cache, CacheAccess, CacheConfig, Victim};
pub use channel::{BusDigest, BusEvent, BusKind, BusTrace, BusXfer, Channel, Transfer};
pub use dram::{Dram, DramConfig, DramResult};
pub use hierarchy::{
    AccessKind, FillEngine, FillRequest, FillResponse, MemAccessResult, MemSystem,
    MemSystemConfig, PlainFill,
};
pub use tlb::{Tlb, TlbConfig};
