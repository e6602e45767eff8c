//! `attack-rows`: a closed loop, one client thread, each op one Table 2
//! row (all six exploits under one control point).

use crate::sim::control_points;
use crate::util::{self, ms, Outcome, Pins, EXPLOITS};
use crate::Args;
use secsim_attack::{run_exploit, Exploit, ExploitOutcome, Victim, VictimKind, SECRET};
use secsim_core::Policy;
use secsim_workloads::SplitMix64;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The Table 2 verdicts pinned by `crates/attack/tests/snapshots.rs`
/// (`true` = leaked), rows in `control_points()` order, columns in
/// `Exploit::ALL` order.
const GOLDEN: [[bool; 6]; 7] = [
    [true, true, true, true, true, true],
    [false, false, false, false, false, false],
    [true, true, true, false, true, true],
    [true, true, true, false, true, true],
    [false, false, false, true, false, false],
    [false, false, false, false, false, false],
    [false, false, false, false, false, false],
];

/// Tail percentile: a run holds about 200 rows, so p90 keeps at least
/// 10 samples beyond it.
const ATTACK_TAIL_PCT: f64 = 90.0;

const VICTIMS: [VictimKind; 5] = [
    VictimKind::LinkedList,
    VictimKind::Compare,
    VictimKind::FunctionCall,
    VictimKind::SecretIndexedLoad,
    VictimKind::SecretBranch,
];

/// What the pins record for one cell: verdict, trials, recovered value
/// and detection cycle.
fn cell(o: &ExploitOutcome) -> String {
    format!(
        "leaked={} trials={} recovered={:?} exception={:?}",
        o.leaked, o.trials, o.recovered, o.exception_cycle
    )
}

fn label(policy: Policy, e: Exploit) -> String {
    format!("attack/{policy}/{}", e.name())
}

/// Runs one row; `times` receives each exploit's duration when traced.
fn row(policy: Policy, mut times: Option<&mut [Duration; 6]>) -> Vec<ExploitOutcome> {
    Exploit::ALL
        .into_iter()
        .enumerate()
        .map(|(k, e)| {
            let t = Instant::now();
            let o = run_exploit(e, policy);
            if let Some(times) = times.as_deref_mut() {
                times[k] = t.elapsed();
            }
            o
        })
        .collect()
}

fn check_row(out: &mut Outcome, pins: &Pins, r: usize, outcomes: &[ExploitOutcome]) {
    let policy = control_points()[r];
    for ((e, o), want) in Exploit::ALL.into_iter().zip(outcomes).zip(GOLDEN[r]) {
        let ok = o.leaked == want && pins.matches(&label(policy, e), &cell(o));
        out.check(ok, || format!("{} under {policy}: got {}", e.name(), cell(o)));
    }
}

pub fn run(args: &Args, pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let policies = control_points();

    // One set-up repetition: build and seal every victim image once.
    let set_up = || {
        let t = Instant::now();
        for kind in VICTIMS {
            black_box(Victim::build(kind, SECRET));
        }
        t.elapsed().as_secs_f64()
    };
    let mut setup = vec![set_up()];

    // An untimed, checked warm-up pass over every row, in Table 2 order.
    for (r, &policy) in policies.iter().enumerate() {
        let outcomes = row(policy, None);
        check_row(&mut out, pins, r, &outcomes);
    }

    // Measured phase: whole passes over the rows in seeded order until the
    // time is up, with the other set-up repetitions between passes.
    let mut rng = SplitMix64::new(args.seed);
    let mut results: Vec<(usize, Vec<ExploitOutcome>)> = Vec::new();
    let mut op_ms: Vec<(f64, bool)> = Vec::new();
    let mut exploit_ms: [Vec<f64>; 6] = Default::default();
    let mut victim_ms = vec![];
    let window = Duration::from_secs(args.seconds);
    // Op time only: set-up repetitions and the victim builds timed after
    // traced ops are not part of any op.
    let mut measured = Duration::ZERO;
    let mut pass = 0;
    while pass == 0 || measured < window {
        let mut order: Vec<usize> = (0..policies.len()).collect();
        util::shuffle(&mut order, &mut rng);
        for r in order {
            let traced = args.trace && results.len() % 2 == 1;
            let t = Instant::now();
            let outcomes = if traced {
                let mut times = [Duration::ZERO; 6];
                let o = row(policies[r], Some(&mut times));
                op_ms.push((ms(t.elapsed()), true));
                for (acc, d) in exploit_ms.iter_mut().zip(times) {
                    acc.push(ms(d));
                }
                o
            } else {
                let o = row(policies[r], None);
                op_ms.push((ms(t.elapsed()), false));
                o
            };
            measured += t.elapsed();
            results.push((r, outcomes));
            if traced {
                // The seal of one victim image, timed outside the op.
                let kind = VICTIMS[victim_ms.len() % VICTIMS.len()];
                let t = Instant::now();
                black_box(Victim::build(kind, SECRET));
                victim_ms.push(ms(t.elapsed()));
            }
        }
        pass += 1;
        while util::setup_due(setup.len(), measured, window) {
            setup.push(set_up());
        }
    }
    out.set("setup_s", util::median(&setup));

    let mut trials = [0u64; 6];
    for (k, (r, outcomes)) in results.iter().enumerate() {
        check_row(&mut out, pins, *r, outcomes);
        if k < policies.len() {
            for (acc, o) in trials.iter_mut().zip(outcomes) {
                *acc += u64::from(o.trials);
            }
        }
    }
    let all_ms: Vec<f64> = op_ms.iter().map(|&(t, _)| t).collect();
    out.set_op_metrics(&all_ms, policies.len(), measured, ATTACK_TAIL_PCT);
    out.notes.push(format!("{pass} passes of {} rows", policies.len()));
    if args.trace {
        for (k, name) in EXPLOITS.iter().enumerate() {
            out.set(&format!("attack.exploit_ms.{name}"), util::median(&exploit_ms[k]));
            out.set(&format!("attack.trials.{name}"), trials[k] as f64);
        }
        out.set("attack.victim_build_ms_p50", util::median(&victim_ms));
        out.set("trace.overhead_pct", util::overhead_pct(&op_ms));
    }
    out
}

/// Pin lines for every cell of the matrix.
pub fn pin_lines() -> Vec<String> {
    control_points()
        .into_iter()
        .flat_map(|policy| {
            row(policy, None)
                .iter()
                .zip(Exploit::ALL)
                .map(|(o, e)| format!("{}\t{}", label(policy, e), cell(o)))
                .collect::<Vec<_>>()
        })
        .collect()
}
