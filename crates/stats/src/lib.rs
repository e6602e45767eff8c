//! Statistics and reporting utilities for the `secsim` workspace.
//!
//! This crate is deliberately dependency-free. It provides:
//!
//! * [`CounterSet`] — a named event-counter registry used by every
//!   simulator component (caches, pipeline, authentication engine).
//! * [`Summary`] — streaming summary statistics (mean, geometric mean,
//!   min/max) for per-benchmark metrics such as normalized IPC.
//! * [`Histogram`] — fixed-bucket latency histograms.
//! * [`Table`] — a tiny table builder that renders Markdown and CSV; every
//!   experiment binary in `secsim-bench` reports through it.
//! * [`Json`] — a minimal JSON value with parser and deterministic
//!   renderer, backing the on-disk experiment result cache.
//! * [`StableHash`] / [`StableHasher`] — platform-stable FNV-1a config
//!   fingerprinting for cache keys.
//! * [`FastMap`] / [`FastSet`] / [`FxHasher`] — deterministic, fast
//!   hashing for simulator-internal maps on the hot path.
//! * [`SplitMix64`] — the seeded pseudo-random stream behind workload
//!   images, fuzz programs, fault plans and the seeded tests.
//! * [`Timeline`] / [`OccupancySeries`] — Chrome `trace_event` JSON
//!   export (spans, counters, lane allocation) for `--trace` output.
//!
//! # Examples
//!
//! ```
//! use secsim_stats::{CounterSet, Table};
//!
//! let mut c = CounterSet::new();
//! c.inc("l2.miss");
//! c.add("l2.miss", 2);
//! assert_eq!(c.get("l2.miss"), 3);
//!
//! let mut t = Table::new(["bench", "ipc"]);
//! t.push_row(["mcf", "0.41"]);
//! assert!(t.to_markdown().contains("mcf"));
//! ```

mod counters;
mod fxhash;
mod histogram;
mod json;
mod rng;
mod stable_hash;
mod summary;
mod table;
mod timeline;

pub use counters::CounterSet;
pub use fxhash::{FastMap, FastSet, FxBuildHasher, FxHasher};
pub use histogram::Histogram;
pub use json::{Json, JsonError};
pub use rng::SplitMix64;
pub use stable_hash::{StableHash, StableHasher};
pub use summary::{geomean, Summary};
pub use table::{fmt3, Table};
pub use timeline::{OccupancySeries, Timeline};
