//! Synthetic SPEC2000-like workloads for the `secsim` evaluation.
//!
//! The paper evaluates on 18 SPEC2000 INT/FP benchmarks "with high L2
//! misses and memory throughput requirements", compiled for Alpha and
//! fast-forwarded with SimPoint. We cannot ship SPEC binaries, so this
//! crate builds, for each of those 18 names, a *real ISA program* whose
//! memory behaviour reproduces the benchmark's character:
//!
//! * **mcf**-like: dependent pointer chasing over a multi-megabyte list —
//!   serialized L2 misses, the worst case for *authen-then-issue*;
//! * **swim/mgrid/applu**-like: strided FP streams over large arrays —
//!   high bandwidth, plentiful memory-level parallelism;
//! * **gzip**-like: small working set — barely touches memory;
//! * **gcc/parser**-like: data-dependent branches plus irregular
//!   accesses; …and so on.
//!
//! Each workload is assembled from parameterized kernels
//! ([`KernelKind`]): streaming reads, pointer chases (Sattolo-cycle
//! linked lists), LCG-driven random loads, store streams, DAXPY-style FP
//! loops and branchy reductions. Profiles are deterministic per seed.
//!
//! External programs enter through the same front door: the [`asm`]
//! module assembles `.sasm` text into a relocatable [`ProgramImage`]
//! (serialized as versioned `.sprog` files), [`register_program`] turns
//! an image into a [`BenchId::External`] handle, and [`ProgramSource`]
//! unifies all three origins (builtin | fuzz | external) for session
//! and sweep builders.
//!
//! # Examples
//!
//! ```
//! use secsim_workloads::BenchId;
//!
//! assert_eq!(BenchId::all().count(), 18);
//! let w = BenchId::Mcf.build(42);
//! assert_eq!(w.name, "mcf");
//! assert!(w.data_bytes >= 1 << 20);
//! ```

pub mod asm;
mod builder;
mod fuzz;
mod kernels;
mod micro;
mod prog;
mod source;
mod spec;

pub use asm::{assemble, assemble_named, AsmDiag};
pub use builder::{Workload, DATA_BASE};
pub use fuzz::{
    generate as generate_fuzz, generate_secret as generate_secret_fuzz, FuzzProgram, SecretSpec,
    FUZZ_FOOTPRINT, SECRET_OFF,
};
pub use prog::{ProgError, ProgramImage, Reloc, RelocKind, Segment, PROG_MAGIC, PROG_VERSION};
pub use secsim_stats::SplitMix64;
pub use kernels::KernelKind;
pub use micro::Micro;
pub use source::{register_program, ExternalId, ProgramSource, SourceError};
pub use spec::{BenchClass, BenchId, ParseBenchError, Phase, Profile};
