//! `secsim-check`: run the differential co-simulation batch.
//!
//! ```text
//! secsim-check [--programs N] [--seed S] [--smoke] [--jobs N] [--no-cache]
//! secsim-check oblivious [--programs N] [--seed S] [--smoke] [--jobs N]
//! ```
//!
//! The default mode runs `N` deterministic fuzz programs (default 500,
//! `--smoke` = 40) per policy against the golden model at every policy
//! × MAC-latency grid point, audits the four control-point oracles,
//! sweeps the same grid through the cached [`secsim_bench::Sweep`]
//! executor for an IPC table, and exits nonzero on any divergence or
//! violation. Divergence repros land in `results/divergence/`.
//!
//! `oblivious` runs the 7th oracle instead: `N` secret-carrying fuzz
//! pairs per policy (default 100, `--smoke` = 8), two runs each with
//! differing secret bytes, over the 8-policy grid — plus the two
//! hand-built secret victims. Obfuscation must be address-oblivious;
//! every other policy must demonstrably leak. Divergences minimize to
//! `results/divergence/oblivious-*.json`.

use secsim_attack::VictimKind;
use secsim_bench::checkpoint::{fast_forward, from_bytes, to_bytes};
use secsim_bench::faultpoint;
use secsim_bench::{emit, results_dir, sim_config_id, with_workload, RunOpts, Sweep, SweepPoint};
use secsim_check::{
    check_config, check_exposure, dump_divergence, dump_oblivious_divergence, policy_grid,
    run_batch, run_oblivious_batch, victim_oblivious, GridPoint,
};
use secsim_core::{FaultKind, FaultPlan};
use secsim_cpu::{SimOutcome, SimSession};
use secsim_stats::Table;
use secsim_workloads::{generate_fuzz, generate_secret_fuzz, BenchId};

/// Fault-recovery pass: one scheduled ciphertext flip against the
/// fault campaign's encrypted victim ([`faultpoint::victim`]) at every
/// grid policy. Every authenticating policy must convert it into a
/// precise `TamperDetected` whose exposure respects that policy's gates
/// ([`check_exposure`]); the baseline must sail through untouched by
/// the recovery machinery.
///
/// Returns `(label, violation-text)` pairs, empty when the pass holds.
fn fault_pass() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for g in policy_grid().iter().filter(|g| g.mac_latency == 74) {
        let cfg = check_config(g.policy, g.mac_latency, 0);
        let flip = FaultKind::CiphertextFlip { mask: 0x01 };
        let plan = FaultPlan::new().at(800, faultpoint::TARGET, flip);
        match SimSession::new(&cfg).faults(plan).run(&mut faultpoint::victim(), 0x0) {
            SimOutcome::TamperDetected { cycle, exposure, .. } => {
                if cycle < 800 {
                    out.push((g.label.clone(), format!("detected at {cycle}, before injection")));
                }
                for v in check_exposure(&g.policy, &exposure) {
                    out.push((g.label.clone(), v.to_string()));
                }
            }
            SimOutcome::Completed(_) if !g.policy.authenticate => {}
            other => out.push((
                g.label.clone(),
                format!("expected a detection verdict, got {}", other.verdict_name()),
            )),
        }
    }
    out
}

/// Checkpoint-determinism pass: at every grid policy, a timed run
/// resumed from a *serialized-and-restored* warmup snapshot must be
/// byte-identical to one resumed from a fresh functional fast-forward.
/// Warmup is policy-independent, so one snapshot seeds the whole grid —
/// exactly how the sweep executor shares checkpoints.
///
/// Returns `(label, violation-text)` pairs, empty when the pass holds.
fn checkpoint_pass() -> Vec<(String, String)> {
    const WARMUP: u64 = 2_000;
    let bench: BenchId = "mcf".parse().expect("mcf exists");
    let opts = RunOpts { max_insts: 10_000, warmup_insts: WARMUP, ..RunOpts::default() };

    let snapshot = with_workload(bench, opts.seed, |w| {
        let st = fast_forward(&mut w.mem, w.entry, WARMUP);
        to_bytes(&st, &w.mem)
    });

    let mut out = Vec::new();
    for g in policy_grid().iter().filter(|g| g.mac_latency == 74) {
        let cfg = sim_config_id(bench, g.policy, &opts);
        let cold = with_workload(bench, opts.seed, |w| {
            let st = fast_forward(&mut w.mem, w.entry, WARMUP);
            SimSession::new(&cfg).resume_from(st).run(&mut w.mem, w.entry).into_report()
        });
        let restored = with_workload(bench, opts.seed, |w| {
            let Some((st, mem)) = from_bytes(&snapshot) else {
                out.push((g.label.clone(), "snapshot failed to deserialize".into()));
                return cold.clone();
            };
            w.mem.restore_from(&mem);
            SimSession::new(&cfg).resume_from(st).run(&mut w.mem, w.entry).into_report()
        });
        let (c, r) = (cold.to_json(), restored.to_json());
        match (c, r) {
            (Some(c), Some(r)) if c.render() == r.render() => {}
            (Some(_), Some(_)) => out.push((
                g.label.clone(),
                "restored-checkpoint report diverged from cold fast-forward".into(),
            )),
            _ => out.push((g.label.clone(), "report failed to serialize".into())),
        }
    }
    out
}

/// The `oblivious` batch mode: the two-run secret-independence oracle
/// over the 8-policy grid (one MAC latency — obliviousness is a gating
/// property, not a latency one), on generated secret-carrying fuzz
/// programs plus the two hand-built secret victims.
///
/// The expectation is two-sided and enforced with a nonzero exit:
/// the obfuscating policy must show **zero** address divergences, and
/// every non-obfuscating policy must show **at least one** (otherwise
/// the oracle has lost its teeth — the secret probes stopped reaching
/// the bus). Each leaking point's first divergence is minimized and
/// dumped to `results/divergence/oblivious-*.json`.
fn oblivious_main(rest: Vec<String>, sweep: &Sweep) {
    let mut pairs_per_policy: usize = 100;
    let mut base_seed: u64 = 2006;
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--programs" => {
                let n = args.next().and_then(|s| s.parse().ok()).filter(|&n| n >= 1);
                let Some(n) = n else {
                    eprintln!("error: --programs needs a positive integer");
                    std::process::exit(2);
                };
                pairs_per_policy = n;
            }
            "--seed" => {
                let Some(s) = args.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("error: --seed needs an integer");
                    std::process::exit(2);
                };
                base_seed = s;
            }
            "--smoke" => pairs_per_policy = 8,
            other => {
                eprintln!("error: unknown argument {other:?}");
                eprintln!("usage: secsim-check oblivious [--programs N] [--seed S] [--smoke] [--jobs N]");
                std::process::exit(2);
            }
        }
    }

    let points: Vec<GridPoint> =
        policy_grid().into_iter().filter(|g| g.mac_latency == 74).collect();
    eprintln!(
        "secsim-check oblivious: {} run pairs/policy over {} policies, base seed {base_seed}, {} jobs",
        pairs_per_policy,
        points.len(),
        sweep.jobs(),
    );
    let summary = run_oblivious_batch(&points, pairs_per_policy, base_seed, sweep.jobs());

    let mut failures: Vec<String> = Vec::new();
    let mut table = Table::new([
        "point", "pairs", "insts", "events", "addr div", "timing div", "verdict",
    ]);
    for p in &summary.points {
        table.push_row([
            p.label.clone(),
            p.programs.to_string(),
            p.insts.to_string(),
            p.events.to_string(),
            p.addr_divergences.to_string(),
            p.timing_divergences.to_string(),
            if p.addr_oblivious() { "oblivious".into() } else { "LEAKS".to_string() },
        ]);
        if p.obfuscated && !p.addr_oblivious() {
            failures.push(format!(
                "[{}] obfuscating policy leaked: {} address divergence(s)",
                p.label, p.addr_divergences,
            ));
        }
        if !p.obfuscated && p.addr_oblivious() {
            failures.push(format!(
                "[{}] expected a demonstrable address leak, found none in {} pairs \
                 (the secret probes are no longer reaching the bus)",
                p.label, p.programs,
            ));
        }
    }
    emit("oblivious_check", "Two-run secret-independence oracle across the policy grid", &table);

    let dump_dir = results_dir().join("divergence");
    for d in &summary.divergences {
        let words = generate_secret_fuzz(d.seed).words;
        match dump_oblivious_divergence(&dump_dir, d, &words) {
            Ok(path) => eprintln!(
                "OBLIVIOUS-DIVERGENCE [{}] {} @{} ({} vs {}), min {} insts -> {}",
                d.point,
                d.channel,
                d.index,
                d.expected,
                d.actual,
                d.min_insts,
                path.display(),
            ),
            Err(e) => eprintln!("OBLIVIOUS-DIVERGENCE [{}] (dump failed: {e})", d.point),
        }
    }

    // The hand-built secret victims: one address-channel verdict per
    // policy per victim, same two-sided expectation as the fuzz pairs.
    let mut victims = Table::new(["policy", "secret-indexed-load", "secret-branch"]);
    for g in &points {
        let mut row = vec![g.label.clone()];
        for kind in [VictimKind::SecretIndexedLoad, VictimKind::SecretBranch] {
            let rep = victim_oblivious(kind, g.policy);
            row.push(if rep.addr_oblivious() { "oblivious".into() } else { "LEAKS".to_string() });
            if g.policy.obfuscate && !rep.addr_oblivious() {
                failures.push(format!("[{}] {kind:?} victim leaked under obfuscation", g.label));
            }
            if !g.policy.obfuscate && rep.addr_oblivious() {
                failures.push(format!(
                    "[{}] {kind:?} victim expected to leak but did not",
                    g.label,
                ));
            }
        }
        victims.push_row(row);
    }
    emit("oblivious_victims", "Secret-victim address-obliviousness per policy", &victims);

    for f in &failures {
        eprintln!("OBLIVIOUS-VIOLATION {f}");
    }
    eprintln!(
        "secsim-check oblivious: {} run pairs, {} insts, {} leaking points minimized -> {}",
        summary.programs,
        summary.insts,
        summary.divergences.len(),
        if failures.is_empty() { "ok" } else { "FAIL" },
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn main() {
    let (sweep, rest) = Sweep::from_args();
    if rest.first().map(String::as_str) == Some("oblivious") {
        return oblivious_main(rest[1..].to_vec(), &sweep);
    }
    let mut programs_per_policy: usize = 500;
    let mut base_seed: u64 = 2006;
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--programs" => {
                let n = args.next().and_then(|s| s.parse().ok()).filter(|&n| n >= 1);
                let Some(n) = n else {
                    eprintln!("error: --programs needs a positive integer");
                    std::process::exit(2);
                };
                programs_per_policy = n;
            }
            "--seed" => {
                let Some(s) = args.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("error: --seed needs an integer");
                    std::process::exit(2);
                };
                base_seed = s;
            }
            "--smoke" => programs_per_policy = 40,
            other => {
                eprintln!("error: unknown argument {other:?}");
                eprintln!(
                    "usage: secsim-check [--programs N] [--seed S] [--smoke] [--jobs N] [--no-cache]"
                );
                std::process::exit(2);
            }
        }
    }

    let grid = policy_grid();
    // Each policy appears at two MAC latencies; split its program
    // budget between them so `--programs` counts programs *per policy*.
    let per_point = programs_per_policy.div_ceil(2);
    eprintln!(
        "secsim-check: {} programs/policy ({} grid points x {per_point}), base seed {base_seed}, {} jobs",
        programs_per_policy,
        grid.len(),
        sweep.jobs(),
    );
    let summary = run_batch(&grid, per_point, base_seed, sweep.jobs());

    let mut table = Table::new(["point", "programs", "insts", "cycles", "divergences", "violations"]);
    for p in &summary.points {
        table.push_row([
            p.label.clone(),
            p.programs.to_string(),
            p.insts.to_string(),
            p.cycles.to_string(),
            p.divergences.to_string(),
            p.violations.to_string(),
        ]);
    }
    emit("check_summary", "Differential co-simulation batch", &table);

    for (label, v) in &summary.violations {
        eprintln!("VIOLATION [{label}] {v}");
    }
    let dump_dir = results_dir().join("divergence");
    for d in &summary.divergences {
        let words = generate_fuzz(d.seed).words;
        match dump_divergence(&dump_dir, d, &words) {
            Ok(path) => eprintln!("DIVERGENCE {} @{} -> {}", d.field, d.retire_index, path.display()),
            Err(e) => eprintln!("DIVERGENCE {} @{} (dump failed: {e})", d.field, d.retire_index),
        }
    }

    // Fault-recovery pass: injected tampering must end in a precise,
    // gate-respecting detection at every authenticating grid point.
    let fault_violations = fault_pass();
    for (label, v) in &fault_violations {
        eprintln!("FAULT-VIOLATION [{label}] {v}");
    }
    eprintln!(
        "secsim-check: fault pass over {} policies -> {}",
        policy_grid().iter().filter(|g| g.mac_latency == 74).count(),
        if fault_violations.is_empty() { "ok" } else { "FAIL" },
    );

    // Checkpoint-determinism pass: warmup restore must be invisible in
    // every report, under every policy.
    let checkpoint_violations = checkpoint_pass();
    for (label, v) in &checkpoint_violations {
        eprintln!("CHECKPOINT-VIOLATION [{label}] {v}");
    }
    eprintln!(
        "secsim-check: checkpoint pass over {} policies -> {}",
        policy_grid().iter().filter(|g| g.mac_latency == 74).count(),
        if checkpoint_violations.is_empty() { "ok" } else { "FAIL" },
    );

    // IPC sanity sweep over the same grid through the cached executor:
    // exercises the `"fuzz"` bench end-to-end in the standard harness.
    let seeds: Vec<u64> = (0..3).map(|k| base_seed ^ (k as u64).wrapping_mul(secsim_check::grid::SEED_STRIDE)).collect();
    let points: Vec<SweepPoint> = grid
        .iter()
        .flat_map(|g| {
            let cfg = check_config(g.policy, g.mac_latency, 200_000);
            seeds.iter().map(move |&s| SweepPoint::from_config(BenchId::Fuzz, s, cfg))
        })
        .collect();
    let reports = sweep.run(&points);
    let mut ipc = Table::new(["point", "mean IPC"]);
    for (gi, g) in grid.iter().enumerate() {
        let rs: Vec<f64> = (0..seeds.len())
            .filter_map(|si| match &reports[gi * seeds.len() + si] {
                Ok(r) => Some(r.ipc()),
                Err(e) => {
                    eprintln!("warning: skipping {} seed #{si}: {e}", g.label);
                    None
                }
            })
            .collect();
        let mean = rs.iter().sum::<f64>() / rs.len().max(1) as f64;
        ipc.push_row([g.label.clone(), format!("{mean:.3}")]);
    }
    emit("check_fuzz_ipc", "Fuzz-program IPC across the check grid", &ipc);

    let failed = !summary.divergences.is_empty()
        || !summary.violations.is_empty()
        || !fault_violations.is_empty()
        || !checkpoint_violations.is_empty();
    eprintln!(
        "secsim-check: {} programs, {} insts, {} divergences, {} violations -> {}",
        summary.programs,
        summary.insts,
        summary.divergences.len(),
        summary.points.iter().map(|p| p.violations).sum::<u64>(),
        if failed { "FAIL" } else { "ok" },
    );
    if failed {
        std::process::exit(1);
    }
}
