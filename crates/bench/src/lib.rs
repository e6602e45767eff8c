//! The experiment harness: shared machinery for the binaries that
//! regenerate every table and figure of the paper.
//!
//! Each `src/bin/*.rs` binary corresponds to one table or figure (see
//! DESIGN.md's experiment index); this library provides the common
//! plumbing: running a benchmark under a policy, normalizing IPC against
//! the decrypt-only baseline, and emitting Markdown/CSV into `results/`.
//!
//! # Examples
//!
//! ```no_run
//! use secsim_bench::{run_bench, L2Size, RunOpts};
//! use secsim_core::Policy;
//! use secsim_workloads::BenchId;
//!
//! let opts = RunOpts::default();
//! let r = run_bench(BenchId::Mcf, Policy::authen_then_issue(), &opts);
//! println!("mcf IPC = {:.3}", r.ipc());
//! ```

pub mod chaos;
pub mod checkpoint;
pub mod client;
pub mod faultpoint;
pub mod protocol;
pub mod store;
pub mod sweep;

pub use store::{ResultStore, StoreCounters};
pub use sweep::{Sweep, SweepError, SweepPoint, SweepStats, CACHE_VERSION};

use secsim_core::{Policy, SecureConfig};
use secsim_cpu::{CpuConfig, SimConfig, SimOutcome, SimReport, SimSession};
use secsim_isa::FlatMem;
use secsim_mem::MemSystemConfig;
use secsim_stats::{FastMap, Table};
use secsim_workloads::{BenchId, Workload};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// L2 capacity point (paper Table 3 evaluates both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Size {
    /// 256 KB, 4 cycles.
    K256,
    /// 1 MB, 8 cycles.
    M1,
}

impl L2Size {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            L2Size::K256 => "256KB",
            L2Size::M1 => "1MB",
        }
    }

    fn mem_config(self) -> MemSystemConfig {
        match self {
            L2Size::K256 => MemSystemConfig::paper_256k(),
            L2Size::M1 => MemSystemConfig::paper_1m(),
        }
    }
}

/// Options shared by every experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// L2 capacity.
    pub l2: L2Size,
    /// Pipeline configuration (RUU sweep uses `paper_ruu64`).
    pub cpu: CpuConfig,
    /// Instructions simulated per run (scaled down ~100× from the
    /// paper's 400 M; see DESIGN.md).
    pub max_insts: u64,
    /// Cycle fence forwarded to `SimConfig::max_cycles` (0 = unlimited);
    /// the per-point watchdog of the fault campaign.
    pub max_cycles: u64,
    /// Workload seed.
    pub seed: u64,
    /// Hash-tree authentication (Figure 12/13).
    pub tree: bool,
    /// Remap-cache capacity override for obfuscating policies
    /// (Figure 9); `None` keeps the 256 KB default.
    pub remap_cache_bytes: Option<u32>,
    /// Instructions to fast-forward *functionally* before timed
    /// simulation begins (0 = start cold). Warmup is policy-independent,
    /// so the whole policy × latency grid shares one checkpointed
    /// snapshot (see [`checkpoint`]).
    pub warmup_insts: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            l2: L2Size::K256,
            cpu: CpuConfig::paper_reference(),
            max_insts: default_insts(),
            max_cycles: 0,
            seed: 2006,
            tree: false,
            remap_cache_bytes: None,
            warmup_insts: 0,
        }
    }
}

/// Default instruction budget per run. Override with the
/// `SECSIM_INSTS` environment variable.
pub fn default_insts() -> u64 {
    std::env::var("SECSIM_INSTS").ok().and_then(|s| s.parse().ok()).unwrap_or(1_000_000)
}

/// The full simulator configuration for `bench` under `policy` —
/// derived from the benchmark's declared geometry alone (no workload
/// image is built), so it is cheap enough to fingerprint for cache
/// keys. External programs contribute their own protected-region base
/// and footprint; built-ins keep the fixed [`secsim_workloads::DATA_BASE`] layout.
pub fn sim_config_id(bench: BenchId, policy: Policy, opts: &RunOpts) -> SimConfig {
    let (data_base, data_bytes) = (bench.data_base(), bench.footprint());
    let mut secure = if opts.tree {
        SecureConfig::paper_with_tree(policy, data_base, data_bytes)
    } else {
        SecureConfig::paper(policy)
    }
    .with_protected_region(data_base, data_bytes);
    if let Some(bytes) = opts.remap_cache_bytes {
        secure = secure.with_remap_cache_bytes(bytes);
    }
    SimConfig {
        cpu: opts.cpu,
        mem: opts.l2.mem_config(),
        secure,
        max_insts: opts.max_insts,
        max_cycles: opts.max_cycles,
    }
}

/// Builds the workload image for `(bench, seed)` through a process-wide
/// memo. Construction (program assembly plus data-image initialization)
/// costs a sizable fraction of a short run, and the experiment binaries
/// revisit the same point dozens of times across the policy × latency
/// grid — so each image is built once and cloned per run.
pub fn build_workload(bench: BenchId, seed: u64) -> Workload {
    let mut map = workload_memo().lock().expect("workload memo poisoned");
    map.entry((bench, seed)).or_insert_with(|| bench.build(seed)).clone()
}

/// The process-wide pristine-image memo backing [`build_workload`].
fn workload_memo() -> &'static Mutex<FastMap<(BenchId, u64), Workload>> {
    static CACHE: OnceLock<Mutex<FastMap<(BenchId, u64), Workload>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(FastMap::default()))
}

/// Runs `f` over a pristine workload image for `(bench, seed)` without
/// cloning a fresh image per run: each thread keeps a scratch copy that
/// is rewound in place from the pristine memo (one straight copy into
/// already-faulted pages) before `f` sees it.
///
/// Warm points of [`run_bench`] and [`Sweep`] skip that rewind: their
/// checkpoint restore overwrites every byte of the scratch copy, so it
/// is rewound only when the restore fails (see [`checkpoint`]).
pub fn with_workload<R>(bench: BenchId, seed: u64, f: impl FnOnce(&mut Workload) -> R) -> R {
    with_scratch(bench, seed, true, f)
}

/// [`with_workload`], rewinding a reused scratch copy only when
/// `rewind` is set; otherwise `f` sees whatever the thread's last run
/// of `(bench, seed)` left in it.
fn with_scratch<R>(
    bench: BenchId,
    seed: u64,
    rewind: bool,
    f: impl FnOnce(&mut Workload) -> R,
) -> R {
    use std::collections::hash_map::Entry;
    thread_local! {
        static SCRATCH: std::cell::RefCell<FastMap<(BenchId, u64), Workload>> =
            std::cell::RefCell::new(FastMap::default());
    }
    SCRATCH.with(|s| {
        let mut map = s.borrow_mut();
        match map.entry((bench, seed)) {
            Entry::Occupied(e) => {
                let w = e.into_mut();
                if rewind {
                    rewind_to_pristine(bench, seed, &mut w.mem);
                }
                f(w)
            }
            Entry::Vacant(v) => f(v.insert(build_workload(bench, seed))),
        }
    })
}

/// Copies the pristine image of `(bench, seed)` over `mem` in place,
/// building it into the memo first if no run has yet.
fn rewind_to_pristine(bench: BenchId, seed: u64, mem: &mut FlatMem) {
    let mut memo = workload_memo().lock().expect("workload memo poisoned");
    mem.restore_from(&memo.entry((bench, seed)).or_insert_with(|| bench.build(seed)).mem);
}

/// Runs `session` over the thread's scratch image of `(bench, seed)`,
/// resumed `warmup_insts` instructions in: the one point runner behind
/// [`run_bench`], [`Sweep`] and `--trace`. A cold point
/// (`warmup_insts == 0`) starts from the rewound pristine image; a warm
/// one skips the rewind and restores its checkpoint over the image.
fn run_point(bench: BenchId, seed: u64, warmup_insts: u64, session: SimSession<'_>) -> SimOutcome {
    let cold = warmup_insts == 0;
    with_scratch(bench, seed, cold, |w| {
        let start = checkpoint::warm_start_over(bench, seed, warmup_insts, w, cold);
        session.resume_from(start).run(&mut w.mem, w.entry)
    })
}

/// Runs `bench` under `policy` and returns the report. Always
/// simulates — use [`Sweep`] for the parallel, cached path.
pub fn run_bench(bench: BenchId, policy: Policy, opts: &RunOpts) -> SimReport {
    let cfg = sim_config_id(bench, policy, opts);
    run_point(bench, opts.seed, opts.warmup_insts, SimSession::new(&cfg)).into_report()
}

/// Computes `f(0)`, …, `f(n - 1)` on up to `jobs` scoped worker
/// threads (none when `n` is 0), each claiming the next unclaimed
/// index, and returns the results in index order: the batch loop
/// behind [`Sweep::run`] and the `secsim-check` batches.
pub fn par_map<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1).min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                *slot.lock().expect("slot poisoned") = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot poisoned").expect("every index ran"))
        .collect()
}

/// Runs `bench` under `policy` and the decrypt-only baseline, returning
/// `IPC(policy) / IPC(baseline)` — the normalization used throughout the
/// paper's figures. `None` when the baseline produced no cycles.
pub fn normalized_ipc(bench: BenchId, policy: Policy, opts: &RunOpts) -> Option<f64> {
    let base = run_bench(bench, Policy::baseline(), opts).ipc();
    let p = run_bench(bench, policy, opts).ipc();
    (base > 0.0).then(|| p / base)
}

/// Writes a table as Markdown + CSV under `results/` and prints the
/// Markdown to stdout.
pub fn emit(name: &str, title: &str, table: &Table) {
    println!("## {title}\n");
    println!("{}", table.to_markdown());
    let dir = results_dir();
    let _ = fs::create_dir_all(&dir);
    let _ = fs::write(dir.join(format!("{name}.md")), format!("## {title}\n\n{}", table.to_markdown()));
    let _ = fs::write(dir.join(format!("{name}.csv")), table.to_csv());
    eprintln!("[written to {}/{name}.md and .csv]", dir.display());
}

/// Where experiment outputs land (`SECSIM_RESULTS` or `./results`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("SECSIM_RESULTS").map(PathBuf::from).unwrap_or_else(|| PathBuf::from("results"))
}

/// Formats a ratio cell.
pub fn cell(x: f64) -> String {
    format!("{x:.3}")
}

/// The benchmark grid for a figure/table binary: `base` plus any
/// external programs the user supplied via `--program FILE` (collected
/// by [`Sweep::from_args`]), so an external workload rides every grid
/// the built-ins do.
pub fn grid_benches(sweep: &Sweep, base: &[BenchId]) -> Vec<BenchId> {
    base.iter().copied().chain(sweep.externals().iter().copied()).collect()
}

/// Runs the full `(benches × (reference + policies))` grid through
/// `sweep` and returns, per benchmark, the reference IPC plus each
/// policy's IPC — the shared shape of every ratio table. Failed points
/// are reported on stderr and surface as `None` cells.
fn ipc_grid(
    sweep: &Sweep,
    benches: &[BenchId],
    reference: Policy,
    policies: &[(&str, Policy)],
    opts: &RunOpts,
) -> Vec<(Option<f64>, Vec<Option<f64>>)> {
    let mut points = Vec::with_capacity(benches.len() * (policies.len() + 1));
    for &bench in benches {
        points.push(SweepPoint::of(bench, reference, opts));
        for (_, policy) in policies {
            points.push(SweepPoint::of(bench, *policy, opts));
        }
    }
    let reports = sweep.run(&points);
    let mut it = reports.into_iter().map(|r| match r {
        Ok(report) => Some(report.ipc()),
        Err(e) => {
            eprintln!("warning: skipping point: {e}");
            None
        }
    });
    let mut rows = Vec::with_capacity(benches.len());
    for _ in benches {
        let base = it.next().expect("grid shape");
        let row = policies.iter().map(|_| it.next().expect("grid shape")).collect();
        rows.push((base, row));
    }
    rows
}

/// Builds a normalized-IPC table: one row per benchmark in `benches`,
/// one column per `(label, policy)`, plus arithmetic-mean and
/// geometric-mean rows — the layout of the paper's Figure 7/10/12 data.
/// Skipped points render as `-` and are excluded from the means.
pub fn normalized_table(
    sweep: &Sweep,
    benches: &[BenchId],
    policies: &[(&str, Policy)],
    opts: &RunOpts,
) -> Table {
    let mut headers: Vec<String> = vec!["bench".into()];
    headers.extend(policies.iter().map(|(l, _)| (*l).to_string()));
    let mut table = Table::new(headers);
    let mut sums = vec![secsim_stats::Summary::new(); policies.len()];
    let grid = ipc_grid(sweep, benches, Policy::baseline(), policies, opts);
    for (&bench, (base, ipcs)) in benches.iter().zip(grid) {
        let mut row = vec![bench.to_string()];
        for (i, ipc) in ipcs.into_iter().enumerate() {
            match (base, ipc) {
                (Some(base), Some(ipc)) if base > 0.0 => {
                    let norm = ipc / base;
                    sums[i].push(norm.max(1e-9));
                    row.push(cell(norm));
                }
                _ => row.push("-".to_string()),
            }
        }
        table.push_row(row);
    }
    let mut mean_row = vec!["MEAN".to_string()];
    mean_row.extend(sums.iter().map(|s| cell(s.mean())));
    table.push_row(mean_row);
    let mut geo_row = vec!["GEOMEAN".to_string()];
    geo_row.extend(sums.iter().map(|s| cell(s.geomean())));
    table.push_row(geo_row);
    table
}

/// Builds a speedup-over-`authen-then-issue` table (Figures 8/11/13):
/// `IPC(policy) / IPC(issue) - 1`, reported as percentages. Skipped
/// points render as `-` and are excluded from the mean.
pub fn speedup_over_issue_table(
    sweep: &Sweep,
    benches: &[BenchId],
    policies: &[(&str, Policy)],
    opts: &RunOpts,
) -> Table {
    let mut headers: Vec<String> = vec!["bench".into()];
    headers.extend(policies.iter().map(|(l, _)| format!("{l} (%)")));
    let mut table = Table::new(headers);
    let mut sums = vec![secsim_stats::Summary::new(); policies.len()];
    let grid = ipc_grid(sweep, benches, Policy::authen_then_issue(), policies, opts);
    for (&bench, (issue, ipcs)) in benches.iter().zip(grid) {
        let mut row = vec![bench.to_string()];
        for (i, ipc) in ipcs.into_iter().enumerate() {
            match (issue, ipc) {
                (Some(issue), Some(ipc)) if issue > 0.0 => {
                    let pct = (ipc / issue - 1.0) * 100.0;
                    sums[i].push((pct + 1000.0).max(1e-9)); // offset keeps Summary positive
                    row.push(format!("{pct:+.1}"));
                }
                _ => row.push("-".to_string()),
            }
        }
        table.push_row(row);
    }
    let mut mean_row = vec!["MEAN".to_string()];
    mean_row.extend(sums.iter().map(|s| format!("{:+.1}", s.mean() - 1000.0)));
    table.push_row(mean_row);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_labels() {
        assert_eq!(L2Size::K256.label(), "256KB");
        assert_eq!(L2Size::M1.label(), "1MB");
    }

    #[test]
    fn unknown_bench_fails_to_parse() {
        assert!("nope".parse::<BenchId>().is_err());
    }

    #[test]
    fn tiny_run_produces_ipc() {
        let opts = RunOpts { max_insts: 20_000, ..RunOpts::default() };
        let r = run_bench(BenchId::Gzip, Policy::baseline(), &opts);
        assert!(r.ipc() > 0.1);
        assert_eq!(r.insts, 20_000);
    }

    #[test]
    fn normalized_ipc_below_one_for_issue_gating() {
        let opts = RunOpts { max_insts: 60_000, ..RunOpts::default() };
        let n = normalized_ipc(BenchId::Mcf, Policy::authen_then_issue(), &opts).expect("mcf");
        assert!(n < 1.0, "authen-then-issue must cost something on mcf, got {n}");
        assert!(n > 0.3, "sanity: {n}");
    }
}
