//! Parallel sweep execution over a grid of simulation points, backed by
//! the content-addressed [`ResultStore`].
//!
//! Every figure/table binary boils down to "run the pipeline over a
//! grid of `(benchmark, SimConfig)` points and aggregate". [`Sweep::run`]
//! executes such a grid across a worker pool (plain `std::thread` —
//! no external dependencies) and returns the reports **in grid order**,
//! so results are byte-identical to a serial run regardless of the
//! worker count.
//!
//! Completed points are persisted in the store under `results/cache/`
//! keyed by a stable fingerprint of the *full* run configuration (see
//! [`SweepPoint::key`]). A second invocation of any experiment binary
//! reloads its reports instead of re-simulating. Cache entries are
//! invalidated implicitly: any change to the benchmark name, seed, or
//! any `SimConfig` field changes the key, and model changes that alter
//! results without changing the config must bump [`CACHE_VERSION`].
//!
//! Concurrent executors — worker threads of one sweep, several sweeps
//! in one process, or separate processes sharing a store directory —
//! deduplicate in flight: an in-process gate plus the store's
//! cross-process claim files guarantee each missing point is simulated
//! exactly once, with everyone else fanning in on the published result
//! (see [`Sweep::stats`]).
//!
//! Knobs:
//!
//! * `SECSIM_JOBS` / `--jobs N` — worker count (default: all cores).
//! * `--no-cache` — skip both store lookup and store writes.
//! * `--server ADDR` — don't simulate locally at all: submit the grid
//!   to a running `secsim-serve` instance (see `docs/SERVICE.md`) and
//!   stream results back. Everything else (output, tables) is
//!   unchanged — the binary becomes a thin client.
//! * `--store-bytes N` (or `SECSIM_STORE_BYTES`) — LRU byte budget for
//!   the local store (0 = unlimited).
//! * `--trace FILE` — after the grid completes, re-run the first point
//!   with event tracing and write a Chrome `trace_event` JSON to FILE
//!   (load it in Perfetto / `chrome://tracing`).
//! * `--program FILE` — assemble (`.sasm`) or load (`.sprog`) an
//!   external program and append it to the binary's benchmark grid as a
//!   [`BenchId::External`] entry (repeatable). External points cache
//!   like built-ins, keyed by the program's content hash.
//! * `SECSIM_RESULTS` — relocates `results/`, and the store with it.
//!
//! # Examples
//!
//! ```no_run
//! use secsim_bench::{RunOpts, Sweep, SweepPoint};
//! use secsim_core::Policy;
//! use secsim_workloads::BenchId;
//!
//! let sweep = Sweep::new();
//! let points: Vec<SweepPoint> = [BenchId::Mcf, BenchId::Gzip]
//!     .map(|b| SweepPoint::of(b, Policy::authen_then_commit(), &RunOpts::default()))
//!     .to_vec();
//! for r in sweep.run(&points) {
//!     match r {
//!         Ok(report) => println!("IPC {:.3}", report.ipc()),
//!         Err(e) => eprintln!("skipped: {e}"),
//!     }
//! }
//! ```

use crate::store::{Claim, ResultStore};
use crate::{results_dir, sim_config_id, RunOpts};
use secsim_core::Policy;
use secsim_cpu::{SimConfig, SimReport, SimSession, TraceConfig};
use secsim_stats::{StableHash, StableHasher};
use secsim_workloads::{BenchId, ParseBenchError, ProgramSource};
use std::any::Any;
use std::collections::HashMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Why a sweep point produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// A stringly-typed entry point named a benchmark that does not
    /// exist (see [`BenchId`]).
    UnknownBench(String),
    /// Resolving the point panicked (a store load, the simulation, the
    /// store write) or a watchdog cut it off; the grid keeps running and
    /// the caller decides how to report the hole.
    Failed {
        /// Benchmark of the failing point.
        bench: String,
        /// Panic payload, when it was a string.
        detail: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownBench(name) => write!(f, "unknown benchmark {name:?}"),
            SweepError::Failed { bench, detail } => {
                write!(f, "simulation of {bench} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ParseBenchError> for SweepError {
    fn from(e: ParseBenchError) -> Self {
        SweepError::UnknownBench(e.name().to_string())
    }
}

/// The message of a caught panic: its payload, when that is a string.
pub(crate) fn panic_detail(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}

/// Salt for every cache key. Bump when the simulator's *behaviour*
/// changes in a way that is not visible in `SimConfig` (model fixes,
/// workload-generation changes), or when the key's encoding changes,
/// so stale entries can never be mistaken for fresh results. Version 3
/// hashes configs through the `SimConfig` schema walk.
pub const CACHE_VERSION: u64 = 3;

/// One cell of a sweep grid: a workload plus the exact configuration to
/// simulate it under.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Benchmark identity.
    pub bench: BenchId,
    /// Workload seed.
    pub seed: u64,
    /// Full simulator configuration.
    pub cfg: SimConfig,
    /// Functional warmup prefix restored from a shared checkpoint
    /// before timed simulation (0 = cold start). Part of the cache key:
    /// a warm report and a cold report of the same config are different
    /// results.
    pub warmup_insts: u64,
}

impl SweepPoint {
    /// The standard-experiment point, from a typed benchmark identity.
    pub fn of(bench: BenchId, policy: Policy, opts: &RunOpts) -> Self {
        Self {
            bench,
            seed: opts.seed,
            cfg: sim_config_id(bench, policy, opts),
            warmup_insts: opts.warmup_insts,
        }
    }

    /// A point with a hand-built configuration (ablations). Starts
    /// cold; set [`warmup_insts`](SweepPoint::warmup_insts) directly to
    /// warm it.
    pub fn from_config(bench: BenchId, seed: u64, cfg: SimConfig) -> Self {
        Self { bench, seed, cfg, warmup_insts: 0 }
    }

    /// Stable cache key: a fingerprint of `(CACHE_VERSION, bench, seed,
    /// cfg)`. Identical across processes, platforms and worker counts —
    /// a built-in benchmark hashes by its canonical *name*, so those
    /// keys are unchanged from the stringly-typed era, while an external
    /// program additionally hashes its content fingerprint so two
    /// programs sharing a file name can never collide in the cache.
    pub fn key(&self) -> u64 {
        let mut h = StableHasher::new();
        CACHE_VERSION.stable_hash(&mut h);
        self.bench.name().stable_hash(&mut h);
        if let Some(hash) = self.bench.external_hash() {
            "external".stable_hash(&mut h);
            hash.stable_hash(&mut h);
        }
        self.seed.stable_hash(&mut h);
        self.cfg.stable_hash(&mut h);
        self.warmup_insts.stable_hash(&mut h);
        h.finish()
    }
}

/// A memoized report, and its JSON rendered the first time someone asks
/// for it ([`Sweep::run_point_rendered`]).
#[derive(Debug)]
struct Memo {
    report: SimReport,
    json: OnceLock<Arc<str>>,
}

impl Memo {
    fn new(report: SimReport) -> Self {
        Self { report, json: OnceLock::new() }
    }

    fn json(&self) -> Arc<str> {
        let json = self.json.get_or_init(|| {
            // Sweeps never trace, so every report they hold serializes.
            let json = self.report.to_json().expect("sweep reports carry no instruction timings");
            json.render().into()
        });
        Arc::clone(json)
    }
}

/// In-process fan-in gate: the first worker to hit a missing key owns
/// it; everyone else blocks here until the owner publishes the outcome.
#[derive(Debug, Default)]
struct Gate {
    outcome: Mutex<Option<Result<Arc<Memo>, SweepError>>>,
    ready: Condvar,
}

impl Gate {
    fn publish(&self, out: &Result<Arc<Memo>, SweepError>) {
        *self.outcome.lock().expect("gate poisoned") = Some(out.clone());
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Arc<Memo>, SweepError> {
        let mut slot = self.outcome.lock().expect("gate poisoned");
        while slot.is_none() {
            slot = self.ready.wait(slot).expect("gate poisoned");
        }
        slot.clone().expect("loop exits on Some")
    }
}

/// Execution counters of one [`Sweep`] (exactly-once verification and
/// the server's `status` payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Points this sweep actually simulated (ran the pipeline for).
    pub simulated: u64,
    /// Points served by blocking on another in-process worker's
    /// simulation of the same key (in-flight fan-in).
    pub fanin: u64,
    /// Points served from the in-process memo.
    pub memo_hits: u64,
}

/// The parallel, deduplicating, store-backed sweep executor. See the
/// module docs.
#[derive(Debug)]
pub struct Sweep {
    jobs: usize,
    store: Option<ResultStore>,
    /// `--server ADDR`: route grids to a `secsim-serve` instance
    /// instead of simulating in-process.
    server: Option<String>,
    /// Retry/backoff/timeout policy for the server path
    /// (`--client-timeout`, `--client-retries`).
    retry: crate::client::RetryPolicy,
    /// Chrome-trace output requested via `--trace FILE`; consumed by the
    /// first grid that runs.
    trace_out: Mutex<Option<PathBuf>>,
    /// In-process memo so repeated grids (verify_repro's geomeans, the
    /// shared baselines of the figure tables) simulate at most once per
    /// process even with caching disabled. An entry also keeps its
    /// report's rendered JSON once asked for, so the server renders each
    /// report once however many jobs it is sent to.
    memo: Mutex<HashMap<u64, Arc<Memo>>>,
    /// Keys currently being simulated by some worker of this sweep;
    /// concurrent requests for the same key block on the gate instead of
    /// duplicating the run.
    inflight: Mutex<HashMap<u64, Arc<Gate>>>,
    simulated: AtomicU64,
    fanin: AtomicU64,
    memo_hits: AtomicU64,
    /// External programs collected from `--program FILE` arguments;
    /// figure/table binaries append these to their benchmark grids.
    externals: Vec<BenchId>,
}

impl Default for Sweep {
    fn default() -> Self {
        Self::new()
    }
}

impl Sweep {
    /// A sweep with the default worker count (`SECSIM_JOBS`, else all
    /// cores) and the default store directory (`results/cache`).
    pub fn new() -> Self {
        let jobs = std::env::var("SECSIM_JOBS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Self {
            jobs,
            store: Some(ResultStore::new(results_dir().join("cache"))),
            server: None,
            retry: crate::client::RetryPolicy::default(),
            trace_out: Mutex::new(None),
            memo: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            simulated: AtomicU64::new(0),
            fanin: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            externals: Vec::new(),
        }
    }

    /// A sweep configured from the process arguments: consumes
    /// `--jobs N`, `--no-cache`, `--server ADDR`, `--client-timeout S`,
    /// `--client-retries N`, `--store-bytes N`, `--trace FILE` and
    /// `--program FILE`, returning the remaining arguments (without the
    /// program name) for the binary's own parsing.
    pub fn from_args() -> (Self, Vec<String>) {
        let mut sweep = Self::new();
        let mut rest = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--jobs" => {
                    let n = args.next().and_then(|s| s.parse().ok()).filter(|&n| n >= 1);
                    let Some(n) = n else {
                        eprintln!("error: --jobs needs a positive integer");
                        std::process::exit(2);
                    };
                    sweep = sweep.with_jobs(n);
                }
                "--no-cache" => sweep = sweep.without_cache(),
                "--server" => {
                    let Some(addr) = args.next() else {
                        eprintln!("error: --server needs an ADDR (host:port)");
                        std::process::exit(2);
                    };
                    sweep = sweep.with_server(addr);
                }
                "--client-timeout" => {
                    let n = args.next().and_then(|s| s.parse::<u64>().ok()).filter(|&n| n >= 1);
                    let Some(n) = n else {
                        eprintln!("error: --client-timeout needs a positive number of seconds");
                        std::process::exit(2);
                    };
                    sweep.retry.read_timeout = std::time::Duration::from_secs(n);
                }
                "--client-retries" => {
                    let n = args.next().and_then(|s| s.parse::<u32>().ok()).filter(|&n| n >= 1);
                    let Some(n) = n else {
                        eprintln!("error: --client-retries needs a positive integer");
                        std::process::exit(2);
                    };
                    sweep.retry.attempts = n;
                }
                "--store-bytes" => {
                    let n = args.next().and_then(|s| s.parse::<u64>().ok());
                    let Some(n) = n else {
                        eprintln!("error: --store-bytes needs a byte count (0 = unlimited)");
                        std::process::exit(2);
                    };
                    sweep = sweep.with_store_bytes(n);
                }
                "--trace" => {
                    let Some(path) = args.next() else {
                        eprintln!("error: --trace needs an output file");
                        std::process::exit(2);
                    };
                    sweep = sweep.with_trace_out(PathBuf::from(path));
                }
                "--program" => {
                    let Some(path) = args.next() else {
                        eprintln!("error: --program needs a .sasm or .sprog file");
                        std::process::exit(2);
                    };
                    match ProgramSource::from_arg(&path) {
                        Ok(src) => sweep.externals.push(src.bench_id()),
                        Err(e) => {
                            eprintln!("error: --program {path}: {e}");
                            std::process::exit(2);
                        }
                    }
                }
                _ => rest.push(arg),
            }
        }
        (sweep, rest)
    }

    /// External programs collected from `--program FILE`, in argument
    /// order. Figure/table binaries append these to their grids so an
    /// external workload rides through the same policies as built-ins.
    pub fn externals(&self) -> &[BenchId] {
        &self.externals
    }

    /// Requests a Chrome-trace JSON of the first point of the next grid
    /// (what `--trace FILE` sets up).
    pub fn with_trace_out(self, path: PathBuf) -> Self {
        *self.trace_out.lock().expect("trace_out poisoned") = Some(path);
        self
    }

    /// Overrides the worker count (1 = serial).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        assert!(jobs >= 1);
        self.jobs = jobs;
        self
    }

    /// Disables the persistent store (the in-process memo remains).
    pub fn without_cache(mut self) -> Self {
        self.store = None;
        self
    }

    /// Redirects the persistent store.
    pub fn with_cache_dir(mut self, dir: PathBuf) -> Self {
        self.store = Some(ResultStore::new(dir));
        self
    }

    /// Replaces the persistent store wholesale (budget, claim deadline
    /// and all — the server configures its store this way).
    pub fn with_store(mut self, store: ResultStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Applies an LRU byte budget to the store (0 = unlimited).
    pub fn with_store_bytes(mut self, bytes: u64) -> Self {
        self.store = self.store.map(|s| s.with_budget((bytes > 0).then_some(bytes)));
        self
    }

    /// Routes [`Sweep::run`] grids to a `secsim-serve` instance at
    /// `addr` instead of simulating in-process.
    pub fn with_server(mut self, addr: String) -> Self {
        self.server = Some(addr);
        self
    }

    /// Overrides the retry/backoff/timeout policy of the server path.
    pub fn with_retry(mut self, retry: crate::client::RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The server address grids are routed to, if any.
    pub fn server(&self) -> Option<&str> {
        self.server.as_deref()
    }

    /// The persistent store, if caching is enabled.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Execution counters so far (exactly-once verification).
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            simulated: self.simulated.load(Ordering::Relaxed),
            fanin: self.fanin.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
        }
    }

    /// Runs every point, in parallel, returning one `Result` per point
    /// **in grid order** — an `Err` marks a point whose simulation
    /// panicked, and the rest of the grid still completes. Stored points
    /// are loaded, fresh points are simulated exactly once (concurrent
    /// requests fan in) and persisted.
    ///
    /// With [`with_server`](Sweep::with_server) configured, the grid is
    /// submitted to the remote `secsim-serve` instance instead; a
    /// transport failure aborts the process (a half-remote grid would
    /// silently skew every downstream table).
    pub fn run(&self, points: &[SweepPoint]) -> Vec<Result<SimReport, SweepError>> {
        if let Some(addr) = &self.server {
            match crate::client::run_sweep_with(addr, points, self.retry) {
                Ok((results, stats)) => {
                    if stats.reconnects > 0 {
                        eprintln!(
                            "note: --server {addr}: recovered from {} disconnect(s) \
                             ({} resume(s), {} resubmission(s), {} timeout(s))",
                            stats.reconnects, stats.resumes, stats.resubmits, stats.timeouts
                        );
                    }
                    return results;
                }
                Err(e) => {
                    eprintln!("error: --server {addr}: {e}");
                    std::process::exit(1);
                }
            }
        }
        let mut slots: Vec<Mutex<Option<Result<SimReport, SweepError>>>> =
            Vec::with_capacity(points.len());
        slots.resize_with(points.len(), || Mutex::new(None));
        let todo: Vec<usize> = {
            // Memo prepass keeps fully-warm grids (repeated tables in
            // one binary) from spawning workers at all.
            let memo = self.memo.lock().expect("memo poisoned");
            let mut todo = Vec::new();
            for (i, p) in points.iter().enumerate() {
                match memo.get(&p.key()) {
                    Some(m) => {
                        self.memo_hits.fetch_add(1, Ordering::Relaxed);
                        *slots[i].lock().expect("slot") = Some(Ok(m.report.clone()));
                    }
                    None => todo.push(i),
                }
            }
            todo
        };

        let next = AtomicUsize::new(0);
        let workers = self.jobs.min(todo.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = todo.get(n) else { break };
                    *slots[i].lock().expect("slot") = Some(self.run_point(&points[i]));
                });
            }
        });

        if let Some(path) = self.trace_out.lock().expect("trace_out poisoned").take() {
            if let Some(p) = points.first() {
                write_chrome_trace(p, &path);
            }
        }
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot poisoned").expect("every slot filled"))
            .collect()
    }

    /// Runs one point through the full dedup stack: in-process memo →
    /// in-flight gate → store lookup → cross-process claim → simulate.
    /// Safe to call from any number of threads concurrently (the server
    /// worker pool does); each distinct key simulates at most once per
    /// store, and everyone else fans in.
    pub fn run_point(&self, p: &SweepPoint) -> Result<SimReport, SweepError> {
        self.resolve(p).map(|m| m.report.clone())
    }

    /// [`run_point`](Sweep::run_point), answered with the report's JSON
    /// ([`SimReport::to_json`]) rendered instead of a copy of the report.
    /// The text is made on a key's first request and kept in the memo
    /// beside the report, so later requests neither copy the report nor
    /// render it again. The job server streams these bytes.
    pub fn run_point_rendered(&self, p: &SweepPoint) -> Result<Arc<str>, SweepError> {
        self.resolve(p).map(|m| m.json())
    }

    /// The dedup stack behind [`run_point`](Sweep::run_point), answering
    /// with the point's memo entry. The owner of a key resolves it under
    /// `catch_unwind`, so a panic anywhere in the store load, claim,
    /// simulation or store write is published to the key's gate as a
    /// typed [`SweepError::Failed`], like any other outcome: a waiter
    /// never blocks on a gate nobody will open.
    fn resolve(&self, p: &SweepPoint) -> Result<Arc<Memo>, SweepError> {
        let key = p.key();
        if let Some(m) = self.memo.lock().expect("memo poisoned").get(&key) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(m));
        }
        let gate = {
            use std::collections::hash_map::Entry;
            let mut inflight = self.inflight.lock().expect("inflight poisoned");
            match inflight.entry(key) {
                Entry::Occupied(e) => {
                    // Another worker owns this key: fan in on its gate.
                    let gate = Arc::clone(e.get());
                    drop(inflight);
                    self.fanin.fetch_add(1, Ordering::Relaxed);
                    return gate.wait();
                }
                Entry::Vacant(v) => Arc::clone(v.insert(Arc::new(Gate::default()))),
            }
        };
        let out = catch_unwind(AssertUnwindSafe(|| self.resolve_uncontended(p, key)))
            .map(|r| Arc::new(Memo::new(r)))
            .map_err(|payload| SweepError::Failed {
                bench: p.bench.name().to_string(),
                detail: panic_detail(&*payload),
            });
        if let Ok(m) = &out {
            self.memo.lock().expect("memo poisoned").insert(key, Arc::clone(m));
        }
        // Publish-before-remove: a worker arriving after the removal
        // finds the memo entry instead; one arriving before holds the
        // gate and gets the outcome directly. No window re-simulates.
        gate.publish(&out);
        self.inflight.lock().expect("inflight poisoned").remove(&key);
        out
    }

    /// The store-level half of [`run_point`](Sweep::run_point), entered
    /// by exactly one in-process worker per key.
    fn resolve_uncontended(&self, p: &SweepPoint, key: u64) -> SimReport {
        let Some(store) = &self.store else { return self.simulate(p) };
        let bench = p.bench.name();
        if let Some(r) = store.load(bench, key) {
            return r;
        }
        match store.claim(key) {
            Claim::Won(ticket) => {
                // Double-check after winning: a concurrent process may
                // have published the entry (and released its claim)
                // between our miss above and this claim. Owners always
                // write before releasing, so a recheck hit is final.
                // The miss above is already counted.
                if let Some(r) = store.recheck(bench, key) {
                    drop(ticket);
                    return r;
                }
                let r = self.simulate(p);
                store.put(bench, key, &r);
                drop(ticket);
                r
            }
            Claim::Lost => {
                // A concurrent process owns the point; wait for its
                // entry. If the owner vanished without publishing,
                // simulate after all — duplicated work beats a wrong or
                // missing result.
                store.await_entry(bench, key).unwrap_or_else(|| {
                    let r = self.simulate(p);
                    store.put(bench, key, &r);
                    r
                })
            }
        }
    }

    fn simulate(&self, p: &SweepPoint) -> SimReport {
        self.simulated.fetch_add(1, Ordering::Relaxed);
        crate::run_point(p.bench, p.seed, p.warmup_insts, SimSession::new(&p.cfg)).into_report()
    }

    /// Runs a single point (store- and memo-aware).
    pub fn get(
        &self,
        bench: BenchId,
        policy: Policy,
        opts: &RunOpts,
    ) -> Result<SimReport, SweepError> {
        let point = SweepPoint::of(bench, policy, opts);
        self.run(std::slice::from_ref(&point)).pop().expect("one point, one result")
    }
}

/// Re-runs `p` with event tracing on and writes the Chrome
/// `trace_event` JSON to `path` (the `--trace FILE` backend).
fn write_chrome_trace(p: &SweepPoint, path: &Path) {
    let session = SimSession::new(&p.cfg).trace(TraceConfig::default());
    let run = crate::run_point(p.bench, p.seed, p.warmup_insts, session).into_run();
    let Some(trace) = run.trace else { return };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = fs::create_dir_all(dir);
        }
    }
    match fs::write(path, trace.to_chrome().render()) {
        Ok(()) => eprintln!(
            "[chrome trace of {} ({} cycles) written to {}]",
            p.bench,
            run.report.cycles,
            path.display()
        ),
        Err(e) => eprintln!("error: failed to write trace {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> RunOpts {
        RunOpts { max_insts: 5_000, ..RunOpts::default() }
    }

    #[test]
    fn key_is_stable_and_config_sensitive() {
        let a = SweepPoint::of(BenchId::Mcf, Policy::authen_then_commit(), &opts());
        let b = SweepPoint::of(BenchId::Mcf, Policy::authen_then_commit(), &opts());
        assert_eq!(a.key(), b.key());
        let c = SweepPoint::of(BenchId::Mcf, Policy::authen_then_issue(), &opts());
        assert_ne!(a.key(), c.key());
        let d = SweepPoint::of(BenchId::Gzip, Policy::authen_then_commit(), &opts());
        assert_ne!(a.key(), d.key());
        let e =
            SweepPoint::of(BenchId::Mcf, Policy::authen_then_commit(), &RunOpts { seed: 7, ..opts() });
        assert_ne!(a.key(), e.key());
    }

    #[test]
    fn unknown_bench_is_typed_error() {
        let err: SweepError = "nope".parse::<BenchId>().unwrap_err().into();
        assert_eq!(err, SweepError::UnknownBench("nope".to_string()));
    }

    #[test]
    fn external_points_key_by_content_hash() {
        use secsim_workloads::{assemble_named, register_program};
        let mk = |name: &str, iters: i64| {
            let src = format!("addi r1, r0, {iters}\nloop:\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n");
            register_program(assemble_named(&src, name).unwrap())
        };
        // Same name, different content: distinct cache keys.
        let a = BenchId::External(mk("dup", 10));
        let b = BenchId::External(mk("dup", 11));
        assert_eq!(a.name(), b.name());
        let pa = SweepPoint::of(a, Policy::baseline(), &opts());
        let pb = SweepPoint::of(b, Policy::baseline(), &opts());
        assert_ne!(pa.key(), pb.key());
        // Same content re-registered: identical key (cache hit across
        // processes loading the same file).
        let a2 = BenchId::External(mk("dup", 10));
        assert_eq!(pa.key(), SweepPoint::of(a2, Policy::baseline(), &opts()).key());
    }

    /// Per-point isolation: a point that panics (here in
    /// `SimSession::new`, which refuses a zero commit width by name)
    /// becomes a typed hole and its neighbours still run.
    #[test]
    fn invalid_config_degrades_to_a_typed_hole() {
        let good = SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts());
        let mut bad = good.clone();
        bad.cfg.cpu.commit_width = 0;
        let out = Sweep::new().without_cache().with_jobs(2).run(&[good.clone(), bad, good]);
        assert!(out[0].is_ok() && out[2].is_ok(), "neighbours of the hole complete");
        match &out[1] {
            Err(SweepError::Failed { bench, detail }) => {
                assert_eq!(bench, "gzip");
                assert!(detail.starts_with("invalid SimConfig: cpu.commit_width "), "{detail}");
            }
            other => panic!("the invalid point must be a typed hole, got {other:?}"),
        }
    }

    #[test]
    fn memo_hits_do_not_resimulate() {
        let sweep = Sweep::new().without_cache().with_jobs(2);
        let p = SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts());
        let first = sweep.run(std::slice::from_ref(&p));
        let again = sweep.run(&[p]);
        assert_eq!(
            first[0].as_ref().unwrap().to_json().unwrap().render(),
            again[0].as_ref().unwrap().to_json().unwrap().render()
        );
        let stats = sweep.stats();
        assert_eq!(stats.simulated, 1);
        assert_eq!(stats.memo_hits, 1);
    }

    /// The rendered report is made once per memo entry: every later
    /// request shares the same text, which is the report's `to_json`.
    #[test]
    fn rendered_report_is_made_once_per_memo_entry() {
        let sweep = Sweep::new().without_cache();
        let p = SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts());
        let first = sweep.run_point_rendered(&p).unwrap();
        let again = sweep.run_point_rendered(&p).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "a memo hit reuses the rendered text");
        assert_eq!(*first, sweep.run_point(&p).unwrap().to_json().unwrap().render());
        assert_eq!((sweep.stats().simulated, sweep.stats().memo_hits), (1, 2));
    }

    #[test]
    fn duplicate_points_in_one_grid_fan_in() {
        let sweep = Sweep::new().without_cache().with_jobs(4);
        let p = SweepPoint::of(BenchId::Mcf, Policy::baseline(), &opts());
        let grid = vec![p.clone(), p.clone(), p.clone(), p];
        let results = sweep.run(&grid);
        let first = results[0].as_ref().unwrap().to_json().unwrap().render();
        for r in &results {
            assert_eq!(r.as_ref().unwrap().to_json().unwrap().render(), first);
        }
        let stats = sweep.stats();
        assert_eq!(stats.simulated, 1, "one simulation for four identical points");
        assert_eq!(stats.fanin + stats.memo_hits, 3, "the other three fan in: {stats:?}");
    }
}
