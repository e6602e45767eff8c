//! The out-of-order secure-processor pipeline.
//!
//! An execution-driven, cycle-level timing model of an 8-wide
//! out-of-order processor in the style of SimpleScalar's `sim-outorder`
//! (Register Update Unit + load/store queue), with the paper's
//! authentication control points wired into four places:
//!
//! * **issue** — instructions from unverified I-lines, and values loaded
//!   from unverified D-lines, are not usable until verification
//!   completes (*authen-then-issue*);
//! * **commit** — the RUU head retires only once its lines verify
//!   (*authen-then-commit*);
//! * **store release** — a committed store leaves the store buffer only
//!   after its *LastRequest* authentication tag verifies
//!   (*authen-then-write*);
//! * **bus grant** — external fetches carry an authentication watermark
//!   below which the bus is not granted (*authen-then-fetch*, tag or
//!   drain variant).
//!
//! The model executes the program *functionally* (via `secsim-isa`) to
//! obtain values, addresses and branch outcomes — including tampered
//! programs whose decrypted-but-unverified instructions the paper's
//! exploits rely on — and layers resource-constrained timing on top:
//! fetch/decode/issue/commit bandwidth, RUU/LSQ occupancy, functional
//! units, branch prediction, cache hierarchy, bus and DRAM contention,
//! and the cryptographic latencies from `secsim-core`.
//!
//! Runs go through the [`SimSession`] builder, which optionally attaches
//! observers (retire callback, structured event trace, bus trace) without
//! perturbing timing. Every lost commit slot is charged to exactly one
//! [`StallCause`]; the resulting [`StallBreakdown`] rides on
//! [`SimReport::stall`].
//!
//! # Examples
//!
//! ```
//! use secsim_cpu::{SimConfig, SimSession};
//! use secsim_core::Policy;
//! use secsim_isa::{Asm, FlatMem, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new(0x1000);
//! let top = a.new_label();
//! a.addi(Reg::R1, Reg::R0, 5000);
//! a.bind(top)?;
//! a.addi(Reg::R1, Reg::R1, -1);
//! a.bne(Reg::R1, Reg::R0, top);
//! a.halt();
//! let mut mem = FlatMem::new(0x1000, 1 << 16);
//! mem.load_words(0x1000, &a.assemble()?);
//!
//! let cfg = SimConfig::paper_256k(Policy::authen_then_commit());
//! let out = SimSession::new(&cfg).run(&mut mem, 0x1000);
//! let report = out.report();
//! assert!(report.halted);
//! assert!(report.ipc() > 0.5);
//! // Every commit slot is accounted for: retired or attributed.
//! let width = u64::from(cfg.cpu.commit_width);
//! assert_eq!(report.stall.total() + report.insts, width * report.cycles);
//! # Ok(())
//! # }
//! ```

mod bpred;
mod config;
mod observe;
mod pipeline;
mod report;
mod sched;
mod schema;
mod session;
mod trace;
mod viz;

pub use bpred::{BPredConfig, BranchPredictor};
pub use config::{CpuConfig, SimConfig};
pub use observe::RetireRecord;
pub use pipeline::SecureImage;
pub use report::{AuthException, ControlEvent, IoEvent, SimReport};
pub use schema::ConfigError;
pub use secsim_core::{Exposure, FaultEvent, FaultKind, FaultPlan, TamperCause};
pub use session::{SimOutcome, SimRun, SimSession};
pub use trace::{SimTrace, StallBreakdown, StallCause, TraceConfig, TraceEvent};
pub use viz::{render_timeline, InstTiming, TIMING_CAP};
