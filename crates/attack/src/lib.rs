//! Memory-fetch side-channel exploits against the secure processor
//! (paper §3).
//!
//! Everything here is *real*: victims are assembled ISA programs,
//! encrypted with AES-CTR and MAC-protected with truncated HMAC-SHA256
//! ([`secsim_core::EncryptedMemory`]); the adversary flips ciphertext
//! bits (counter-mode malleability) or rewrites known-plaintext code
//! regions; the victim then runs on the cycle-level pipeline under a
//! chosen [`Policy`](secsim_core::Policy), and the adversary reads the front-side-bus address
//! trace. An exploit *succeeds* if the secret is recoverable from bus
//! (or I/O) events that became visible **before** the authentication
//! exception could have stopped the machine.
//!
//! Each [`run_exploit`] call builds and seals its victim once. Every
//! trial (up to 32 for the binary search, 16 for the page brute force
//! and 4 for the shift window) tampers and runs a fresh copy of that
//! one sealed image, so a trial costs a simulation, not a seal.
//!
//! Implemented exploits:
//!
//! * [`Exploit::PointerConversion`] — the linked-list attack (§3.2.1):
//!   rewrite a terminating NULL into a pointer at the secret, so the
//!   secret itself is dereferenced and appears as a fetch address.
//! * [`Exploit::BinarySearch`] — tamper a comparison constant and watch
//!   the resolved branch direction (§3.2.2); recovers the secret in ≤ 32
//!   adaptive trials.
//! * [`Exploit::DisclosingKernel`] — inject a two-load disclosing kernel
//!   over a predictable code sequence (§3.2.3).
//! * [`Exploit::DisclosingKernelIo`] — variant that writes the secret to
//!   an I/O port instead of using it as an address.
//! * [`Exploit::ShiftWindow`] — the page-mask/shift-window kernel of
//!   Figure 4, leaking the secret 8 bits per load.
//! * [`Exploit::BruteForcePage`] — rewrite the NULL pointer to each
//!   candidate page in turn until one dereferences the secret (§3.3.2).
//!
//! [`empirical_matrix`] runs every exploit under every policy and
//! reproduces the first column of the paper's Table 2 — empirically, not
//! by assertion.
//!
//! # Examples
//!
//! ```
//! use secsim_attack::{run_exploit, Exploit};
//! use secsim_core::Policy;
//!
//! // Authen-then-commit speculatively executes unverified loads:
//! let out = run_exploit(Exploit::PointerConversion, Policy::authen_then_commit());
//! assert!(out.leaked);
//!
//! // Authen-then-issue never lets the tampered pointer reach the bus:
//! let out = run_exploit(Exploit::PointerConversion, Policy::authen_then_issue());
//! assert!(!out.leaked);
//! ```

pub mod analysis;
mod exploits;
mod matrix;
mod victims;

pub use exploits::{run_exploit, Exploit, ExploitOutcome, SECRET};
pub use matrix::{empirical_matrix, matrix_table, MatrixRow};
pub use victims::{Victim, VictimKind, ARM_BASE, ARM_STRIDE, CODE_BASE, CONST_ADDR, FUNC_BASE,
    IMAGE_BYTES, LIST_BASE, NULL_ADDR, PROBE_BASE, SECRET_ADDR, WINDOW_BASE};
