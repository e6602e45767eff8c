//! Shared pieces: metric tables, percentiles, pins, RNG helpers.

use secsim_cpu::SimReport;
use secsim_workloads::SplitMix64;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Workload image seed of every simulated point. The benchmark's own
/// `--seed` never reaches the program's inputs beyond choosing among a
/// fixed, pinned universe of points, so every report can be checked.
pub const IMAGE_SEED: u64 = 2006;

/// Set-up repetitions per run; `setup_s` is their median. The first
/// runs before the measured phase and the others spread evenly over it
/// (see [`setup_due`]), so the median samples the same host conditions
/// as the ops do instead of one short stretch of them.
pub const SETUP_REPS: usize = 7;

/// Whether set-up repetition number `done` (counting from 0) is due once
/// `measured` of the measured `window` has passed: repetition k runs at
/// the first op boundary after k/SETUP_REPS of the window, and every
/// repetition left is due once the window is over.
pub fn setup_due(done: usize, measured: Duration, window: Duration) -> bool {
    done < SETUP_REPS && measured >= window.mul_f64(done as f64 / SETUP_REPS as f64)
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The exploits in `Exploit::ALL` order, as named in metrics.
pub const EXPLOITS: [&str; 6] = [
    "pointer-conversion",
    "binary-search",
    "disclosing-kernel",
    "disclosing-kernel-io",
    "shift-window",
    "brute-force-page",
];

/// Per-layer metrics, printed with `--trace 1`. Every workload prints
/// all of them; a layer a workload never calls reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("workloads.build_ms", "ms"),
        ("checkpoint.fast_forward_ms", "ms"),
        ("checkpoint.restore_ms_p50", "ms"),
        ("session.run_ms_p50", "ms"),
        ("session.host_ns_per_inst", "ns"),
        ("session.host_ns_per_cycle", "ns"),
        ("sim_minsts_per_s", "Minst/s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for c in SIM_COUNTS {
        v.push((format!("sim.{c}"), "count"));
    }
    for c in secsim_cpu::StallCause::ALL {
        v.push((format!("sim.stall.{}", c.name()), "count"));
    }
    for (n, u) in [
        ("serve.first_event_ms_p50", "ms"),
        ("serve.stream_ms_p50", "ms"),
        ("protocol.encode_us_per_point", "us"),
        ("protocol.decode_us_per_point", "us"),
        ("gen.lag_ms_p99", "ms"),
        ("store.put_ms_p50", "ms"),
        ("store.load_ms_p50", "ms"),
    ] {
        v.push((n.to_string(), u));
    }
    for c in SERVER_COUNTS.iter().chain(&CLIENT_COUNTS) {
        v.push((c.to_string(), "count"));
    }
    for e in EXPLOITS {
        v.push((format!("attack.exploit_ms.{e}"), "ms"));
    }
    for e in EXPLOITS {
        v.push((format!("attack.trials.{e}"), "count"));
    }
    v.push(("attack.victim_build_ms_p50".to_string(), "ms"));
    v.push(("trace.overhead_pct".to_string(), "%"));
    v
}

/// `SimReport` work counts summed per pass, after `sim.`.
pub const SIM_COUNTS: [&str; 10] = [
    "insts",
    "cycles",
    "l2_miss",
    "auth_requests",
    "dram_accesses",
    "bus_busy_cycles",
    "tree_fetches",
    "remap_fetches",
    "counter_misses",
    "mispredicts",
];

/// Server `status` counters, as deltas over the measured phase.
pub const SERVER_COUNTS: [&str; 10] = [
    "server.jobs_done",
    "server.sweep.simulated",
    "server.sweep.memo_hits",
    "server.sweep.fanin",
    "server.store.hits",
    "server.store.misses",
    "server.store.stores",
    "server.store.claims_won",
    "server.store.claims_lost",
    "server.store.bad_entries",
];

/// `ClientStats` retry counters, summed over every job.
pub const CLIENT_COUNTS: [&str; 4] =
    ["client.reconnects", "client.resubmits", "client.queue_full", "client.timeouts"];

/// Adds one report's work counts into `acc` (keys without the `sim.`
/// prefix for the plain counts, `stall.<cause>` for stall slots).
pub fn add_counts(acc: &mut BTreeMap<String, f64>, r: &SimReport) {
    let c = &r.counters;
    let values = [
        r.insts,
        r.cycles,
        c.get("l2.miss"),
        c.get("auth.requests"),
        c.get("dram.accesses"),
        c.get("bus.busy_cycles"),
        c.get("bus.xact.tree_fetch"),
        c.get("bus.xact.remap_fetch"),
        c.get("ctrl.counter_miss"),
        c.get("pipe.mispredicts"),
    ];
    for (name, v) in SIM_COUNTS.iter().zip(values) {
        *acc.entry(format!("sim.{name}")).or_default() += v as f64;
    }
    for cause in secsim_cpu::StallCause::ALL {
        *acc.entry(format!("sim.stall.{}", cause.name())).or_default() += r.stall.get(cause) as f64;
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Checked operations, set-up passes included.
    pub attempted: u64,
    /// Operations whose check failed or that returned an error.
    pub failed: u64,
    /// Metric values by name; missing per-layer entries print as 0.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets `ops_per_s`, `op_ms_p50` and `op_ms_tail` (at `tail_pct`)
    /// from per-op latencies in the order they ran. `op_ms_p50` is the
    /// median over consecutive batches of `batch` ops of each batch's mean
    /// latency: `batch == 1` is the plain per-op median; attack-rows
    /// passes its pass length, so a batch is one pass. The tail is per op.
    pub fn set_op_metrics(
        &mut self,
        ops_ms: &[f64],
        batch: usize,
        elapsed: Duration,
        tail_pct: f64,
    ) {
        let means: Vec<f64> =
            ops_ms.chunks(batch).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect();
        let mut sorted = ops_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        self.set("ops_per_s", n as f64 / elapsed.as_secs_f64());
        self.set("op_ms_p50", median(&means));
        self.set("op_ms_tail", percentile(&sorted, tail_pct));
        let beyond = (n as f64 * (1.0 - tail_pct / 100.0)).floor();
        if batch > 1 {
            self.notes.push(format!(
                "op_ms_p50 is the median of {} batch means of {batch} ops (per-op median {:.3} ms)",
                means.len(),
                percentile(&sorted, 50.0)
            ));
        }
        self.notes.push(format!(
            "op_ms_tail is p{tail_pct} of n={n} ops ({beyond} beyond it); measured over {:.2} s",
            elapsed.as_secs_f64()
        ));
    }
}

/// Linear-interpolated percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// Traced against plain median op latency, in percent, from
/// `(latency, traced)` pairs.
pub fn overhead_pct(op_ms: &[(f64, bool)]) -> f64 {
    let pick = |traced: bool| -> Vec<f64> {
        op_ms.iter().filter(|&&(_, t)| t == traced).map(|&(ms, _)| ms).collect()
    };
    (median(&pick(true)) / median(&pick(false)) - 1.0) * 100.0
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Fisher-Yates shuffle driven by the workload seed.
pub fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.index(i + 1));
    }
}

/// A uniform sample in `[0, 1)`.
pub fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over the report's JSON: the digest the pins record.
pub fn report_digest(r: &SimReport) -> String {
    let json = r.to_json().expect("trace-off reports serialize").render();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Expected outputs recorded from the code the benchmark was written
/// against (`pins.txt`, regenerated with `--pin`).
pub struct Pins(HashMap<String, String>);

impl Pins {
    pub fn load() -> Self {
        let map = include_str!("../pins.txt")
            .lines()
            .filter_map(|l| l.split_once('\t'))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Pins(map)
    }

    /// Whether `value` is what `label` was pinned to.
    pub fn matches(&self, label: &str, value: &str) -> bool {
        self.0.get(label).is_some_and(|v| v == value)
    }
}
