//! # secsim-core — the authentication control-point architecture
//!
//! This crate implements the primary contribution of *"Authentication
//! Control Point and Its Implications For Secure Processor Design"*
//! (MICRO 2006): the machinery that ties memory **integrity
//! verification** results into an out-of-order pipeline, and the design
//! spectrum of *where* those results must gate execution.
//!
//! ## The five control points
//!
//! A [`Policy`] selects which pipeline events wait for authentication:
//!
//! | policy | gate |
//! |---|---|
//! | [`Policy::authen_then_issue`]  | instructions/operands from unverified lines may not issue |
//! | [`Policy::authen_then_commit`] | instructions may not commit until their lines verify |
//! | [`Policy::authen_then_write`]  | stores may not update memory until their auth tag verifies |
//! | [`Policy::authen_then_fetch`]  | new bus fetches wait for the authentication queue |
//! | [`Policy::commit_plus_obfuscation`] | commit gating plus bus-address remapping |
//!
//! ## Components
//!
//! * [`AuthQueue`] — the in-order authentication request queue with its
//!   *LastRequest register* (paper §4.1).
//! * [`SecureMemCtrl`] — a [`secsim_mem::FillEngine`] that schedules
//!   counter fetches, line fetches, MAC traffic and (optionally) hash
//!   tree walks and address obfuscation, producing per-line
//!   `decrypt_ready` / `auth_ready` timestamps.
//! * [`EncryptedMemory`] — a *functional* AES-CTR + HMAC protected
//!   memory image (real cryptography) that tampered programs execute
//!   from; the attack crate flips its ciphertext bits.
//! * [`MerkleTree`] — functional m-ary MAC tree (replay protection),
//!   plus [`TreeTiming`], the CHTree-style latency model with its
//!   dedicated node cache.
//! * [`Obfuscator`] — HIDE-style address remapping with an on-chip remap
//!   cache.
//! * [`SecurityProperties`] — the paper's Table 2, derivable per policy
//!   and cross-checked empirically by `secsim-attack`.
//! * [`FaultPlan`] — a deterministic schedule of mid-run faults
//!   (ciphertext flips, tag corruption, counter replay, DRAM upsets,
//!   bus corruption, MAC-queue delay/drop) the pipeline injects as its
//!   clock advances.
//!
//! # Examples
//!
//! ```
//! use secsim_core::{AuthQueue, AuthQueueConfig};
//!
//! let mut q = AuthQueue::new(AuthQueueConfig::default());
//! let a = q.request(100, 0); // line data ready at cycle 100: done cycle
//! let b = q.request(120, 0);
//! assert!(b >= a);                        // in-order verification
//! assert_eq!(q.drain_time(), b);          // LastRequest register's tag
//! assert_eq!(q.watermark_before(119), a); // authen-then-fetch watermark
//! ```

mod config;
mod ctrl;
mod encmem;
mod faults;
mod merkle;
mod obfuscate;
mod policy;
mod queue;
mod security;
mod tree;

pub use config::SecureConfig;
pub use ctrl::{CtrlConfig, SecureMemCtrl};
pub use encmem::EncryptedMemory;
pub use faults::{
    Exposure, FaultEvent, FaultInjector, FaultKind, FaultPlan, TamperCause, TamperError,
    MAC_DROP_DELAY,
};
pub use merkle::MerkleTree;
pub use obfuscate::{ObfConfig, Obfuscator, REMAP_BASE};
pub use policy::{FetchGateVariant, Policy};
pub use queue::{AuthQueue, AuthQueueConfig};
pub use security::{properties, SecurityProperties};
pub use tree::{TreeConfig, TreeTiming};
