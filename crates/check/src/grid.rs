//! The policy × MAC-latency check grid and the parallel batch runner.

use crate::diff::{diff_run, Divergence};
use crate::oracle::{check_records, check_stall_completeness, GateViolation};
use secsim_bench::par_map;
use secsim_core::{FetchGateVariant, Policy};
use secsim_cpu::SimConfig;
use secsim_workloads::{generate_fuzz, DATA_BASE, FUZZ_FOOTPRINT};

/// Seed-spreading constant (the SplitMix64 increment), so per-program
/// seeds are well distributed even from a small base seed.
pub const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// One point of the check grid.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Display label (`"authen-then-fetch-drain @160"`, …).
    pub label: String,
    /// The gating policy.
    pub policy: Policy,
    /// Authentication-engine MAC latency (cycles).
    pub mac_latency: u64,
}

/// Every policy variant (including the drain flavour of
/// authen-then-fetch) crossed with the paper's MAC latency (74 = SHA-1
/// reference) and a slow-engine point that stretches every verification
/// window.
pub fn policy_grid() -> Vec<GridPoint> {
    let policies = [
        Policy::baseline(),
        Policy::authen_then_issue(),
        Policy::authen_then_commit(),
        Policy::authen_then_write(),
        Policy::authen_then_fetch(),
        Policy::authen_then_fetch().with_fetch_variant(FetchGateVariant::Drain),
        Policy::commit_plus_fetch(),
        Policy::commit_plus_obfuscation(),
    ];
    let mut grid = Vec::new();
    for p in policies {
        let drain = p.gate_fetch && p.fetch_variant == FetchGateVariant::Drain;
        for mac in [74u64, 160] {
            let suffix = if drain { "-drain" } else { "" };
            grid.push(GridPoint {
                label: format!("{p}{suffix} @{mac}"),
                policy: p,
                mac_latency: mac,
            });
        }
    }
    grid
}

/// The simulator configuration for one grid point: the paper's 256 KB
/// reference machine with the protected region pointed at the fuzz
/// footprint and the authentication engine slowed to `mac_latency`.
pub fn check_config(policy: Policy, mac_latency: u64, max_insts: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_256k(policy);
    cfg.secure = cfg.secure.with_protected_region(DATA_BASE, FUZZ_FOOTPRINT);
    cfg.secure.ctrl.queue.mac_latency = mac_latency;
    cfg.max_insts = max_insts;
    // Default cycle fence: orders of magnitude above any legitimate
    // check run, so a wedged point ends as `CycleLimitExceeded` and one
    // bad configuration cannot hang a whole batch.
    cfg.max_cycles = 10_000_000;
    cfg
}

/// Aggregate statistics for one grid point.
#[derive(Debug, Clone, Default)]
pub struct PointStats {
    /// Grid-point label.
    pub label: String,
    /// Programs run.
    pub programs: u64,
    /// Instructions retired across them.
    pub insts: u64,
    /// Cycles simulated across them.
    pub cycles: u64,
    /// Divergences found.
    pub divergences: u64,
    /// Oracle violations found.
    pub violations: u64,
}

/// The outcome of a whole batch.
#[derive(Debug, Default)]
pub struct BatchSummary {
    /// Per-point statistics, grid order.
    pub points: Vec<PointStats>,
    /// Every divergence (already minimized).
    pub divergences: Vec<Divergence>,
    /// Oracle violations with their grid-point label (capped at 100).
    pub violations: Vec<(String, GateViolation)>,
    /// Total programs run.
    pub programs: u64,
    /// Total instructions retired.
    pub insts: u64,
}

struct TaskResult {
    insts: u64,
    cycles: u64,
    divergence: Option<Divergence>,
    violations: Vec<GateViolation>,
}

/// Runs `per_point` fuzz programs through every grid point, `jobs`-way
/// parallel, aggregating deterministically (program `k` uses the same
/// seed at every point, so all policies see identical programs).
pub fn run_batch(
    points: &[GridPoint],
    per_point: usize,
    base_seed: u64,
    jobs: usize,
) -> BatchSummary {
    let results = par_map(points.len() * per_point, jobs, |i| {
        let point = &points[i / per_point];
        let k = (i % per_point) as u64;
        let seed = base_seed ^ k.wrapping_mul(SEED_STRIDE);
        let fz = generate_fuzz(seed);
        let cfg = check_config(point.policy, point.mac_latency, fz.max_icount + 8);
        let out = diff_run("fuzz", seed, &fz.workload, &cfg);
        let mut violations = check_records(&point.policy, &out.records);
        violations.extend(check_stall_completeness(cfg.cpu.commit_width, &out.report));
        TaskResult {
            insts: out.report.insts,
            cycles: out.report.cycles,
            divergence: out.divergence,
            violations,
        }
    });

    let mut summary = BatchSummary::default();
    let mut results = results.into_iter();
    for point in points {
        let mut stats = PointStats { label: point.label.clone(), ..PointStats::default() };
        for r in results.by_ref().take(per_point) {
            stats.programs += 1;
            stats.insts += r.insts;
            stats.cycles += r.cycles;
            if let Some(d) = r.divergence {
                stats.divergences += 1;
                summary.divergences.push(d);
            }
            stats.violations += r.violations.len() as u64;
            for v in r.violations {
                if summary.violations.len() < 100 {
                    summary.violations.push((point.label.clone(), v));
                }
            }
        }
        summary.programs += stats.programs;
        summary.insts += stats.insts;
        summary.points.push(stats);
    }
    summary
}
