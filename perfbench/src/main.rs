//! The secsim benchmark: four single-process workloads run against the
//! public APIs of `secsim-bench`, `secsim-server` and `secsim-attack`,
//! every op checked, every layer timed from outside the program.
//!
//! ```text
//! secsim-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! secsim-perfbench --pin --work-dir <dir>     # prints pins.txt for the current code
//! ```
//!
//! `perfbench/run.py` builds this package and runs it in a fresh work
//! directory; README.md in this directory says what each workload
//! measures and why. The last line on stdout is the JSON result.

mod attack;
mod serve;
mod sim;
mod util;

use std::path::PathBuf;
use util::{Outcome, Pins, END_TO_END};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        work_dir: PathBuf::new(),
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            args.pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.work_dir.as_os_str().is_empty() {
        return Err("--work-dir is required".to_string());
    }
    if !args.pin && args.seconds == 0 {
        return Err("--seconds must be a positive integer".to_string());
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.work_dir).map_err(|e| format!("work dir: {e}"))?;
    // Every result and checkpoint path of the program hangs off
    // SECSIM_RESULTS; point it at the scratch work directory so the
    // committed `results/` is never read or written, and drop any other
    // SECSIM_* override. Still single-threaded here.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("SECSIM_") {
            std::env::remove_var(k);
        }
    }
    std::env::set_var("SECSIM_RESULTS", &args.work_dir);

    if args.pin {
        for line in
            sim::pin_lines().into_iter().chain(serve::pin_lines()).chain(attack::pin_lines())
        {
            println!("{line}");
        }
        return Ok(());
    }

    let pins = Pins::load();
    let mut out: Outcome = match args.workload.as_str() {
        "sim-memory" => sim::run(&args, &sim::memory_points(), &pins),
        "sim-resident" => sim::run(&args, &sim::resident_points(), &pins),
        "serve-open" => serve::run(&args, &pins)?,
        "attack-rows" => attack::run(&args, &pins),
        w => return Err(format!("unknown workload {w:?}")),
    };
    out.set("peak_rss_mb", util::peak_rss_mb());

    let e2e: Vec<(String, &str)> = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    let layers = util::per_layer_names();
    println!("workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, unit) in e2e.iter().chain(&layers) {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name} = {v} {unit}");
    }
    println!("  attempted = {}, failed = {}", out.attempted, out.failed);

    let reported = if args.trace { &layers } else { &e2e };
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("secsim-perfbench: {e}");
        std::process::exit(1);
    }
}
