//! The 7th oracle: two-run secret-independence (data-obliviousness)
//! checking over bus traces.
//!
//! A program carries a *secret-tagged* memory region
//! ([`SecretSpec`](secsim_workloads::SecretSpec)); the oracle runs it
//! twice under [`SimSession`] with the secret bytes set to `0x00` and
//! `0xFF` and compares what a bus eavesdropper observes. Everything
//! else — program words, the rest of the image, the configuration — is
//! identical across the pair, so any observable difference is *caused*
//! by the secret.
//!
//! **What "observable" means.** A [`BusEvent`] is `(kind, addr,
//! cycle)`. The comparison splits it into two channels:
//!
//! * the **address channel** — the sequence of `(kind, address)` pairs.
//!   Under a non-obfuscating policy addresses compare verbatim. Under
//!   `commit_plus_obfuscation` the eavesdropper sees *remapped*
//!   addresses drawn from a secret permutation, so two runs are
//!   indistinguishable iff their traces are equal up to a renaming of
//!   protected (and remap-metadata) lines — the comparison
//!   canonicalizes each line to its first-occurrence index, keeping the
//!   within-line column offset (which the permutation does not hide)
//!   verbatim. This is equality in distribution: with a fresh random
//!   remap per run, renamed-equal traces induce identical observable
//!   distributions.
//! * the **timing channel** — the sequence of `(kind, cycle)` pairs,
//!   always compared bit-exactly. The paper's obfuscation targets the
//!   address side channel only, so the headline *oblivious* verdict is
//!   the address channel; timing divergences are reported separately.
//!
//! A divergence minimizes (binary search on `max_insts`) to a JSON
//! repro in `results/divergence/`, like the differential harness.

use crate::diff::config_fingerprint;
use crate::grid::{check_config, GridPoint, SEED_STRIDE};
use secsim_attack::{Victim, VictimKind, IMAGE_BYTES};
use secsim_bench::par_map;
use secsim_core::{Policy, REMAP_BASE};
use secsim_cpu::{SecureImage, SimConfig, SimSession};
use secsim_mem::{BusDigest, BusEvent};
use secsim_stats::Json;
use secsim_workloads::{generate_secret_fuzz, DATA_BASE, FUZZ_FOOTPRINT};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The two secret fills of a run pair: all-zeros vs all-ones, so every
/// bit (and so every probed field) of the secret differs.
pub const SECRET_FILLS: (u8, u8) = (0x00, 0xFF);

/// What the bus eavesdropper can resolve for one run pair — which
/// address ranges the active policy remaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservableCfg {
    /// Base of the obfuscation-protected region.
    pub protected_base: u32,
    /// Size of the protected region in bytes.
    pub protected_bytes: u32,
    /// Whether the policy remaps protected addresses
    /// ([`Policy::obfuscate`]); when false every address compares
    /// verbatim.
    pub obfuscated: bool,
}

impl ObservableCfg {
    /// The observable semantics for `policy` over the protected region
    /// `[base, base + bytes)`.
    pub fn for_policy(policy: &Policy, base: u32, bytes: u32) -> Self {
        Self { protected_base: base, protected_bytes: bytes, obfuscated: policy.obfuscate }
    }
}

/// Renamed regions of the canonicalized address space.
const REGION_PROTECTED: u8 = 1;
const REGION_REMAP_META: u8 = 2;

/// One bus event after canonicalization: what an eavesdropper can
/// actually distinguish under the active policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observable {
    /// The address is visible verbatim.
    Verbatim {
        /// `BusKind` index.
        kind: u8,
        /// The raw bus address.
        addr: u32,
    },
    /// The line is remapped: the eavesdropper can tell *which* line of
    /// a region it is relative to the other lines seen (first-occurrence
    /// token) and the within-line column, but not its identity.
    Renamed {
        /// `BusKind` index.
        kind: u8,
        /// `REGION_PROTECTED` (1) or `REGION_REMAP_META` (2).
        region: u8,
        /// First-occurrence index of the line within this run's trace.
        token: u32,
        /// Within-line byte offset (column), preserved by remapping.
        offset: u32,
    },
}

impl std::fmt::Display for Observable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Observable::Verbatim { kind, addr } => write!(f, "kind{kind} addr={addr:#x}"),
            Observable::Renamed { kind, region, token, offset } => {
                write!(f, "kind{kind} region{region} line#{token}+{offset:#x}")
            }
        }
    }
}

fn kind_index(k: secsim_mem::BusKind) -> u8 {
    use secsim_mem::BusKind::*;
    match k {
        InstrFetch => 0,
        DataFetch => 1,
        Writeback => 2,
        MacFetch => 3,
        MacWrite => 4,
        CounterFetch => 5,
        RemapFetch => 6,
        RemapWrite => 7,
        TreeFetch => 8,
    }
}

/// Canonicalizes one run's events under `obs`. Without obfuscation
/// every event is [`Observable::Verbatim`]. With it, protected-region
/// and remap-metadata lines are renamed to first-occurrence tokens;
/// everything else (e.g. counter-metadata addresses, which derive from
/// the *logical* line and would be a real leak) stays verbatim.
pub fn canonicalize(obs: &ObservableCfg, events: &[BusEvent]) -> Vec<Observable> {
    let mut tokens: [HashMap<u32, u32>; 2] = [HashMap::new(), HashMap::new()];
    let mut rename = |slot: usize, line: u32| -> u32 {
        let next = tokens[slot].len() as u32;
        *tokens[slot].entry(line).or_insert(next)
    };
    events
        .iter()
        .map(|e| {
            let kind = kind_index(e.kind);
            if !obs.obfuscated {
                return Observable::Verbatim { kind, addr: e.addr };
            }
            let line = e.addr & !63;
            let offset = e.addr & 63;
            let protected = e.addr >= obs.protected_base
                && e.addr - obs.protected_base < obs.protected_bytes;
            // Remap-table entries cover region_lines * 4 bytes above
            // REMAP_BASE; a generous page-aligned bound is fine — no
            // other region lives within 2^28 of REMAP_BASE.
            let remap_meta = e.addr >= REMAP_BASE;
            if protected {
                Observable::Renamed {
                    kind,
                    region: REGION_PROTECTED,
                    token: rename(0, line),
                    offset,
                }
            } else if remap_meta {
                Observable::Renamed {
                    kind,
                    region: REGION_REMAP_META,
                    token: rename(1, line),
                    offset,
                }
            } else {
                Observable::Verbatim { kind, addr: e.addr }
            }
        })
        .collect()
}

/// The first point at which two observable traces differ on one
/// channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDivergence {
    /// `"addr"` or `"timing"`.
    pub channel: &'static str,
    /// Event index of the first disagreement (`min(len_a, len_b)` when
    /// one trace is a prefix of the other).
    pub index: u64,
    /// What the `0x00`-fill run observed.
    pub expected: String,
    /// What the `0xFF`-fill run observed.
    pub actual: String,
}

/// Compares two bus traces under `obs`; returns the first divergence on
/// the address channel and on the timing channel (independently).
pub fn compare_traces(
    obs: &ObservableCfg,
    a: &[BusEvent],
    b: &[BusEvent],
) -> (Option<TraceDivergence>, Option<TraceDivergence>) {
    let ca = canonicalize(obs, a);
    let cb = canonicalize(obs, b);
    let mut addr = None;
    for (i, (x, y)) in ca.iter().zip(cb.iter()).enumerate() {
        if x != y {
            addr = Some(TraceDivergence {
                channel: "addr",
                index: i as u64,
                expected: x.to_string(),
                actual: y.to_string(),
            });
            break;
        }
    }
    if addr.is_none() && ca.len() != cb.len() {
        addr = Some(TraceDivergence {
            channel: "addr",
            index: ca.len().min(cb.len()) as u64,
            expected: format!("{} events", ca.len()),
            actual: format!("{} events", cb.len()),
        });
    }
    let mut timing = None;
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if (x.kind, x.cycle) != (y.kind, y.cycle) {
            timing = Some(TraceDivergence {
                channel: "timing",
                index: i as u64,
                expected: format!("kind{} @{}", kind_index(x.kind), x.cycle),
                actual: format!("kind{} @{}", kind_index(y.kind), y.cycle),
            });
            break;
        }
    }
    if timing.is_none() && a.len() != b.len() {
        timing = Some(TraceDivergence {
            channel: "timing",
            index: a.len().min(b.len()) as u64,
            expected: format!("{} events", a.len()),
            actual: format!("{} events", b.len()),
        });
    }
    (addr, timing)
}

/// The verdict of one two-run comparison.
#[derive(Debug, Clone)]
pub struct OblivReport {
    /// First address-channel divergence (the headline verdict).
    pub addr: Option<TraceDivergence>,
    /// First timing-channel divergence (informational: obfuscation
    /// targets the address channel).
    pub timing: Option<TraceDivergence>,
    /// Bus events observed in the `0x00`-fill run.
    pub events: u64,
    /// Instructions retired in the `0x00`-fill run.
    pub insts: u64,
    /// Cycles simulated in the `0x00`-fill run.
    pub cycles: u64,
}

impl OblivReport {
    /// Whether the address channel is secret-independent.
    pub fn addr_oblivious(&self) -> bool {
        self.addr.is_none()
    }

    /// Whether the timing channel is secret-independent.
    pub fn timing_oblivious(&self) -> bool {
        self.timing.is_none()
    }
}

/// Runs the image pair produced by `images(0)` / `images(1)` under
/// `cfg` with full bus tracing and compares the observable traces
/// under `obs`. The closure owns the fill: `images(i)` must differ
/// *only* in the secret bytes.
pub fn check_obliviousness<M: SecureImage>(
    cfg: &SimConfig,
    obs: &ObservableCfg,
    mut images: impl FnMut(usize) -> (M, u32),
) -> OblivReport {
    let (mut img_a, entry_a) = images(0);
    let a = SimSession::new(cfg).trace_bus(true).run(&mut img_a, entry_a).into_report();
    let (mut img_b, entry_b) = images(1);
    let b = SimSession::new(cfg).trace_bus(true).run(&mut img_b, entry_b).into_report();
    let (addr, timing) = compare_traces(obs, &a.bus_events, &b.bus_events);
    OblivReport {
        addr,
        timing,
        events: a.bus_events.len() as u64,
        insts: a.insts,
        cycles: a.cycles,
    }
}

/// The streaming-scale variant: runs the pair with
/// [`SimSession::trace_bus_digest`] and returns both constant-memory
/// digests. Digest equality is *verbatim* trace equality (no
/// canonicalization), so it is the right tool for non-obfuscating
/// policies at 100M-instruction scale: `full` compares both channels,
/// `addrs`/`timing` localize which one diverged.
pub fn digest_pair<M: SecureImage>(
    cfg: &SimConfig,
    mut images: impl FnMut(usize) -> (M, u32),
) -> (BusDigest, BusDigest) {
    let (mut img_a, entry_a) = images(0);
    let a = SimSession::new(cfg).trace_bus_digest().run(&mut img_a, entry_a).into_report();
    let (mut img_b, entry_b) = images(1);
    let b = SimSession::new(cfg).trace_bus_digest().run(&mut img_b, entry_b).into_report();
    (a.bus_digest.expect("digest tracing was on"), b.bus_digest.expect("digest tracing was on"))
}

/// Checks the secret fuzz program for `seed` under one grid point.
pub fn fuzz_oblivious(policy: Policy, mac_latency: u64, seed: u64) -> OblivReport {
    let fz = generate_secret_fuzz(seed);
    let cfg = check_config(policy, mac_latency, fz.max_icount + 8);
    fuzz_oblivious_cfg(&cfg, seed)
}

fn fuzz_oblivious_cfg(cfg: &SimConfig, seed: u64) -> OblivReport {
    let fz = generate_secret_fuzz(seed);
    let spec = fz.secret.expect("secret fuzz programs carry a SecretSpec");
    let obs = ObservableCfg::for_policy(&cfg.secure.policy, DATA_BASE, FUZZ_FOOTPRINT);
    check_obliviousness(cfg, &obs, |i| {
        let mut mem = fz.workload.mem.clone();
        spec.apply(&mut mem, if i == 0 { SECRET_FILLS.0 } else { SECRET_FILLS.1 });
        (mem, fz.workload.entry)
    })
}

/// The victim configuration: the paper's 256 KB reference machine with
/// the whole 64 KB encrypted image protected.
pub fn victim_config(policy: Policy) -> SimConfig {
    let mut cfg = SimConfig::paper_256k(policy);
    cfg.secure = cfg.secure.with_protected_region(0, IMAGE_BYTES as u32);
    cfg.max_cycles = 10_000_000;
    cfg
}

/// Checks one hand-built victim under `policy`: two builds differing
/// only in the secret word (`0x0000_0000` vs `0xFFFF_FFFF`).
pub fn victim_oblivious(kind: VictimKind, policy: Policy) -> OblivReport {
    let cfg = victim_config(policy);
    let obs = ObservableCfg::for_policy(&policy, 0, IMAGE_BYTES as u32);
    check_obliviousness(&cfg, &obs, |i| {
        let secret = if i == 0 { 0x0000_0000 } else { 0xFFFF_FFFF };
        let v = Victim::build(kind, secret);
        (v.image, v.entry)
    })
}

/// Whether `policy` is address-oblivious on both hand-built
/// secret-dependent victims — the pinned `oblivious` column of the
/// attack snapshot matrix.
pub fn policy_oblivious(policy: Policy) -> bool {
    [VictimKind::SecretIndexedLoad, VictimKind::SecretBranch]
        .into_iter()
        .all(|k| victim_oblivious(k, policy).addr_oblivious())
}

/// A confirmed obliviousness violation, self-contained enough to
/// reproduce: the program regenerates from `(bench, seed)`, the two
/// fills are recorded, and the configuration is pinned by fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObliviousDivergence {
    /// `"fuzz"` for generated programs.
    pub bench: String,
    /// Program seed.
    pub seed: u64,
    /// Grid-point label.
    pub point: String,
    /// Stable fingerprint of the full [`SimConfig`].
    pub config_fingerprint: u64,
    /// `"addr"` or `"timing"`.
    pub channel: String,
    /// Event index of the first disagreement.
    pub index: u64,
    /// `0x00`-fill observation at that index.
    pub expected: String,
    /// `0xFF`-fill observation at that index.
    pub actual: String,
    /// Smallest `max_insts` that still reproduces an address-channel
    /// divergence (equal to the full run's `insts` for timing-only
    /// divergences).
    pub min_insts: u64,
}

/// Writes a self-contained JSON repro of `d` (with the program words)
/// into `dir`, returning the file path.
pub fn dump_oblivious_divergence(
    dir: &Path,
    d: &ObliviousDivergence,
    words: &[u32],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "oblivious-{}-seed{}-cfg{:016x}.json",
        d.bench, d.seed, d.config_fingerprint
    ));
    let json = Json::obj(vec![
        ("bench", Json::Str(d.bench.clone())),
        ("seed", Json::UInt(d.seed)),
        ("point", Json::Str(d.point.clone())),
        ("config_fingerprint", Json::Str(format!("{:016x}", d.config_fingerprint))),
        ("channel", Json::Str(d.channel.clone())),
        ("index", Json::UInt(d.index)),
        ("expected", Json::Str(d.expected.clone())),
        ("actual", Json::Str(d.actual.clone())),
        ("min_insts", Json::UInt(d.min_insts)),
        (
            "secret_fills",
            Json::Array(vec![
                Json::UInt(u64::from(SECRET_FILLS.0)),
                Json::UInt(u64::from(SECRET_FILLS.1)),
            ]),
        ),
        (
            "program",
            Json::Array(words.iter().map(|w| Json::Str(format!("{w:08x}"))).collect()),
        ),
    ]);
    std::fs::write(&path, json.render())?;
    Ok(path)
}

/// Minimizes an address-channel divergence by binary search on
/// `max_insts`: the smallest instruction budget that still diverges.
fn minimize_fuzz(cfg: &SimConfig, seed: u64, full_insts: u64) -> u64 {
    let (mut lo, mut hi) = (1u64, full_insts);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let mut short = *cfg;
        short.max_insts = mid;
        if fuzz_oblivious_cfg(&short, seed).addr.is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Per-grid-point statistics of one oblivious batch.
#[derive(Debug, Clone, Default)]
pub struct OblivPointStats {
    /// Grid-point label.
    pub label: String,
    /// Whether this point's policy obfuscates addresses.
    pub obfuscated: bool,
    /// Programs (run pairs) checked.
    pub programs: u64,
    /// Run pairs whose address channel diverged.
    pub addr_divergences: u64,
    /// Run pairs whose timing channel diverged.
    pub timing_divergences: u64,
    /// Instructions retired (per `0x00`-fill run, summed).
    pub insts: u64,
    /// Bus events observed (per `0x00`-fill run, summed).
    pub events: u64,
}

impl OblivPointStats {
    /// The point's verdict: address-oblivious over every checked pair.
    pub fn addr_oblivious(&self) -> bool {
        self.addr_divergences == 0
    }
}

/// The outcome of a whole oblivious batch.
#[derive(Debug, Default)]
pub struct OblivBatchSummary {
    /// Per-point statistics, grid order.
    pub points: Vec<OblivPointStats>,
    /// First address-channel divergence per grid point, minimized
    /// (leaking points only).
    pub divergences: Vec<ObliviousDivergence>,
    /// Total run pairs.
    pub programs: u64,
    /// Total instructions retired across `0x00`-fill runs.
    pub insts: u64,
}

struct OblivTask {
    insts: u64,
    events: u64,
    addr: Option<TraceDivergence>,
    timing: Option<TraceDivergence>,
}

/// Runs `per_point` secret fuzz pairs through every grid point,
/// `jobs`-way parallel, aggregating deterministically (pair `k` uses
/// the same seed at every point). The first address divergence of each
/// leaking point is minimized and reported.
pub fn run_oblivious_batch(
    points: &[GridPoint],
    per_point: usize,
    base_seed: u64,
    jobs: usize,
) -> OblivBatchSummary {
    let results = par_map(points.len() * per_point, jobs, |i| {
        let point = &points[i / per_point];
        let k = (i % per_point) as u64;
        let seed = base_seed ^ k.wrapping_mul(SEED_STRIDE);
        let rep = fuzz_oblivious(point.policy, point.mac_latency, seed);
        OblivTask { insts: rep.insts, events: rep.events, addr: rep.addr, timing: rep.timing }
    });
    let mut results = results.into_iter();

    let mut summary = OblivBatchSummary::default();
    for point in points {
        let mut stats = OblivPointStats {
            label: point.label.clone(),
            obfuscated: point.policy.obfuscate,
            ..OblivPointStats::default()
        };
        let mut first: Option<(u64, u64, TraceDivergence)> = None;
        for (k, r) in results.by_ref().take(per_point).enumerate() {
            let seed = base_seed ^ (k as u64).wrapping_mul(SEED_STRIDE);
            stats.programs += 1;
            stats.insts += r.insts;
            stats.events += r.events;
            if let Some(d) = r.addr {
                stats.addr_divergences += 1;
                if first.is_none() {
                    first = Some((seed, r.insts, d));
                }
            }
            if r.timing.is_some() {
                stats.timing_divergences += 1;
            }
        }
        if let Some((seed, insts, d)) = first {
            let fz = generate_secret_fuzz(seed);
            let cfg = check_config(point.policy, point.mac_latency, fz.max_icount + 8);
            summary.divergences.push(ObliviousDivergence {
                bench: "fuzz".into(),
                seed,
                point: point.label.clone(),
                config_fingerprint: config_fingerprint(&cfg),
                channel: d.channel.into(),
                index: d.index,
                expected: d.expected,
                actual: d.actual,
                min_insts: minimize_fuzz(&cfg, seed, insts),
            });
        }
        summary.programs += stats.programs;
        summary.insts += stats.insts;
        summary.points.push(stats);
    }
    summary
}
