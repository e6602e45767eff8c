//! `sim-memory` and `sim-resident`: closed loops, one client thread,
//! each op one point simulated through `secsim_bench::run_bench`.

use crate::util::{self, ms, Outcome, Pins, IMAGE_SEED};
use crate::Args;
use secsim_bench::{checkpoint, run_bench, sim_config_id, with_workload, RunOpts};
use secsim_core::Policy;
use secsim_cpu::{SimReport, SimSession};
use secsim_workloads::{BenchId, SplitMix64};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The paper's control points in Table 2 order.
pub fn control_points() -> [Policy; 7] {
    [
        Policy::baseline(),
        Policy::authen_then_issue(),
        Policy::authen_then_write(),
        Policy::authen_then_commit(),
        Policy::authen_then_fetch(),
        Policy::commit_plus_fetch(),
        Policy::commit_plus_obfuscation(),
    ]
}

/// One simulated point with the label its pin is stored under.
#[derive(Clone)]
pub struct Point {
    pub label: String,
    pub bench: BenchId,
    pub policy: Policy,
    pub opts: RunOpts,
}

const MEMORY_BENCHES: [BenchId; 4] = [BenchId::Mcf, BenchId::Art, BenchId::Swim, BenchId::Mgrid];
const MEMORY_INSTS: u64 = 100_000;
const MEMORY_WARMUP: u64 = 1_000_000;
const RESIDENT_BENCHES: [BenchId; 3] = [BenchId::Gzip, BenchId::Ammp, BenchId::Wupwise];
const RESIDENT_INSTS: u64 = 300_000;
/// Tail percentile: at least 10 samples lie beyond it in every run (a
/// run holds several hundred ops).
const SIM_TAIL_PCT: f64 = 95.0;

fn point(bench: BenchId, policy: Policy, opts: RunOpts) -> Point {
    let label = format!(
        "{bench}/{policy}/tree={}/l2={}/insts={}/warm={}",
        u8::from(opts.tree),
        opts.l2.label(),
        opts.max_insts,
        opts.warmup_insts
    );
    Point { label, bench, policy, opts }
}

/// sim-memory: the high-L2-miss benchmarks under every control point,
/// plus hash-tree runs, warm-started from functional checkpoints.
pub fn memory_points() -> Vec<Point> {
    let base = RunOpts {
        max_insts: MEMORY_INSTS,
        warmup_insts: MEMORY_WARMUP,
        seed: IMAGE_SEED,
        ..RunOpts::default()
    };
    let tree = RunOpts { tree: true, ..base };
    let tree_policies =
        [Policy::authen_then_issue(), Policy::authen_then_commit(), Policy::commit_plus_fetch()];
    MEMORY_BENCHES
        .into_iter()
        .flat_map(|b| {
            control_points()
                .into_iter()
                .map(move |p| point(b, p, base))
                .chain(tree_policies.into_iter().map(move |p| point(b, p, tree)))
        })
        .collect()
}

/// sim-resident: low-miss benchmarks under every control point, cold.
pub fn resident_points() -> Vec<Point> {
    let opts = RunOpts { max_insts: RESIDENT_INSTS, seed: IMAGE_SEED, ..RunOpts::default() };
    RESIDENT_BENCHES
        .into_iter()
        .flat_map(|b| control_points().into_iter().map(move |p| point(b, p, opts)))
        .collect()
}

/// The untraced op: exactly what a harness caller runs.
fn op(p: &Point) -> SimReport {
    run_bench(p.bench, p.policy, &p.opts)
}

/// Per-call times of one traced op.
struct Spans {
    restore: Duration,
    run: Duration,
}

/// The traced op: `run_bench`'s body written out with timers around
/// the checkpoint restore and `SimSession::run`.
fn traced_op(p: &Point) -> (SimReport, Spans) {
    let cfg = sim_config_id(p.bench, p.policy, &p.opts);
    with_workload(p.bench, p.opts.seed, |w| {
        let t0 = Instant::now();
        let start = checkpoint::warm_start(p.bench, p.opts.seed, p.opts.warmup_insts, w);
        let t1 = Instant::now();
        let report =
            SimSession::new(&cfg).resume_from(start).run(&mut w.mem, w.entry).into_report();
        let t2 = Instant::now();
        (report, Spans { restore: t1 - t0, run: t2 - t1 })
    })
}

pub fn run(args: &Args, points: &[Point], pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let benches: Vec<BenchId> = {
        let mut b: Vec<BenchId> = points.iter().map(|p| p.bench).collect();
        b.dedup();
        b
    };
    let warmup = points[0].opts.warmup_insts;

    // One set-up repetition: build every image and fast-forward every
    // checkpoint into an emptied checkpoint directory. Returns its time
    // in seconds and the image-build and fast-forward shares in ms.
    let set_up = || {
        let _ = std::fs::remove_dir_all(checkpoint::checkpoints_dir());
        let t = Instant::now();
        let (mut b_ms, mut f_ms) = (0.0, 0.0);
        for &bench in &benches {
            let t0 = Instant::now();
            let mut w = black_box(bench.build(IMAGE_SEED));
            b_ms += ms(t0.elapsed());
            if warmup > 0 {
                let t1 = Instant::now();
                black_box(checkpoint::warm_start(bench, IMAGE_SEED, warmup, &mut w));
                f_ms += ms(t1.elapsed());
            }
        }
        [t.elapsed().as_secs_f64(), b_ms, f_ms]
    };
    let mut setup = vec![set_up()];

    // An untimed, checked warm-up pass over every point.
    for p in points {
        let r = op(p);
        out.check(pins.matches(&p.label, &util::report_digest(&r)), || {
            format!("warm-up report of {} differs from its pin", p.label)
        });
    }

    // Measured phase: whole passes over the points in seeded order until
    // the time is up, with the other set-up repetitions between passes;
    // a traced run alternates plain and traced ops.
    let mut rng = SplitMix64::new(args.seed);
    let mut reports: Vec<(usize, SimReport)> = Vec::new();
    let mut op_ms: Vec<(f64, bool)> = Vec::new();
    let (mut restore_ms, mut run_ms) = (vec![], vec![]);
    let (mut run_ns, mut traced_insts, mut traced_cycles) = (0.0, 0.0, 0.0);
    let window = Duration::from_secs(args.seconds);
    let mut measured = Duration::ZERO;
    let mut pass = 0;
    while pass == 0 || measured < window {
        let mut order: Vec<usize> = (0..points.len()).collect();
        util::shuffle(&mut order, &mut rng);
        let t0 = Instant::now();
        for i in order {
            let traced = args.trace && reports.len() % 2 == 1;
            let t = Instant::now();
            let r = if traced {
                let (r, s) = traced_op(&points[i]);
                op_ms.push((ms(t.elapsed()), true));
                restore_ms.push(ms(s.restore));
                run_ms.push(ms(s.run));
                run_ns += s.run.as_secs_f64() * 1e9;
                traced_insts += r.insts as f64;
                traced_cycles += r.cycles as f64;
                r
            } else {
                let r = op(&points[i]);
                op_ms.push((ms(t.elapsed()), false));
                r
            };
            reports.push((i, r));
        }
        measured += t0.elapsed();
        pass += 1;
        while util::setup_due(setup.len(), measured, window) {
            setup.push(set_up());
        }
    }
    let column = |k: usize| -> Vec<f64> { setup.iter().map(|rep| rep[k]).collect() };
    out.set("setup_s", util::median(&column(0)));
    out.set("workloads.build_ms", util::median(&column(1)));
    out.set("checkpoint.fast_forward_ms", util::median(&column(2)));

    let mut counts = BTreeMap::new();
    let mut insts = 0.0;
    for (k, (i, r)) in reports.iter().enumerate() {
        let p = &points[*i];
        out.check(pins.matches(&p.label, &util::report_digest(r)), || {
            format!("report of {} differs from its pin", p.label)
        });
        if k < points.len() {
            util::add_counts(&mut counts, r);
        }
        insts += r.insts as f64;
    }
    let all_ms: Vec<f64> = op_ms.iter().map(|&(t, _)| t).collect();
    out.set_op_metrics(&all_ms, 1, measured, SIM_TAIL_PCT);
    out.notes.push(format!("{pass} passes of {} points", points.len()));
    out.metrics.extend(counts);
    out.set("sim_minsts_per_s", insts / measured.as_secs_f64() / 1e6);
    if args.trace {
        out.set("checkpoint.restore_ms_p50", util::median(&restore_ms));
        out.set("session.run_ms_p50", util::median(&run_ms));
        out.set("session.host_ns_per_inst", run_ns / traced_insts);
        out.set("session.host_ns_per_cycle", run_ns / traced_cycles);
        out.set("trace.overhead_pct", util::overhead_pct(&op_ms));
    }
    out
}

/// Pin lines (`label<TAB>digest`) for every point of both workloads.
pub fn pin_lines() -> Vec<String> {
    memory_points()
        .iter()
        .chain(&resident_points())
        .map(|p| format!("{}\t{}", p.label, util::report_digest(&op(p))))
        .collect()
}
