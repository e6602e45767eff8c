//! Fault-injection campaign: fault kinds × injection cycles × all eight
//! policies, measuring detection latency and pre-detection exposure.
//!
//! Every point runs one deterministic victim (a load → compute → store
//! loop over an encrypted image) with a single scheduled fault, under a
//! cycle fence (`SimConfig::max_cycles`) *and* a wall-clock watchdog:
//! a point that runs away ends as `CycleLimitExceeded`, a point that
//! wedges the host thread is abandoned and reported through the
//! existing [`SweepError`] shape — the campaign itself never hangs and
//! never dies mid-grid.
//!
//! Emits one `results/exposure_<kind>.md` table per fault kind. The
//! tables exhibit the paper's control-point ordering: exposure under
//! authen-then-issue ≤ authen-then-commit ≤ authen-then-write ≤
//! authen-then-fetch (the eager gates admit less tampered work), which
//! the binary also asserts, alongside zero undetected integrity faults
//! under any authenticating policy.
//!
//! ```text
//! faults [--smoke] [--timeout-secs N]
//! ```
//!
//! `--timeout-secs` (default 60) is each point's wall-clock budget; a
//! missing, non-numeric or zero value, or any other flag, is refused
//! with exit status 2 before a point runs.

use secsim_bench::faultpoint::{integrity_kinds, run_point, schemes};
use secsim_bench::SweepError;
use secsim_core::FaultKind;
use secsim_stats::Table;
use std::time::Duration;

fn main() {
    let mut smoke = false;
    let mut timeout_secs = 60;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--timeout-secs" => {
                let n = args.next().and_then(|s| s.parse::<u64>().ok()).filter(|&n| n >= 1);
                let Some(n) = n else {
                    eprintln!("error: --timeout-secs needs a positive number of seconds");
                    std::process::exit(2);
                };
                timeout_secs = n;
            }
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!("usage: faults [--smoke] [--timeout-secs N]");
                std::process::exit(2);
            }
        }
    }
    let timeout = Duration::from_secs(timeout_secs);
    let injects: &[u64] = if smoke { &[2_500] } else { &[600, 2_500, 7_000] };

    let mut failed_points: Vec<SweepError> = Vec::new();
    let mut undetected: Vec<String> = Vec::new();
    let mut ordering_errors: Vec<String> = Vec::new();

    for kind in integrity_kinds() {
        let mut t = Table::new([
            "policy", "inject@", "verdict", "detect@", "latency", "issued", "committed", "stores",
            "bus", "exposed", "cycles",
        ]);
        for &inject in injects {
            // Exposure totals in scheme order, for the ordering check.
            let mut totals: Vec<(String, Option<u64>)> = Vec::new();
            for (name, policy) in schemes() {
                let row = match run_point(policy, kind, inject, timeout) {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("warning: skipping point: {e}");
                        failed_points.push(e);
                        continue;
                    }
                };
                if policy.authenticate && row.detect_cycle.is_none() {
                    undetected.push(format!("{} {}@{inject}", name, kind.name()));
                }
                if let Some(cause) = row.cause {
                    assert_eq!(cause, kind.cause(), "cause attribution for {name}");
                }
                let x = row.exposure.unwrap_or_default();
                totals.push((name.to_string(), row.detect_cycle.map(|_| x.total())));
                t.push_row([
                    name.to_string(),
                    inject.to_string(),
                    row.verdict.to_string(),
                    row.detect_cycle.map_or("-".into(), |c| c.to_string()),
                    row.detect_cycle.map_or("-".into(), |c| (c - inject).to_string()),
                    x.issued.to_string(),
                    x.committed.to_string(),
                    x.stores_released.to_string(),
                    x.bus_grants.to_string(),
                    x.total().to_string(),
                    row.cycles.to_string(),
                ]);
            }
            // The paper's ordering: each later gate admits at least as
            // much tainted work as the previous, stricter one.
            let chain = ["authen-then-issue", "authen-then-commit", "authen-then-write",
                "authen-then-fetch"];
            let vals: Vec<Option<u64>> = chain
                .iter()
                .map(|n| totals.iter().find(|(name, _)| name == n).and_then(|(_, v)| *v))
                .collect();
            for w in vals.windows(2) {
                if let (Some(a), Some(b)) = (w[0], w[1]) {
                    if a > b {
                        ordering_errors.push(format!(
                            "{}@{inject}: exposure not monotone over the gate chain: {vals:?}",
                            kind.name()
                        ));
                        break;
                    }
                }
            }
        }
        secsim_bench::emit(
            &format!("exposure_{}", kind.name()),
            &format!(
                "Fault campaign — {} injected mid-run: detection latency and \
                 pre-detection exposure per authentication control point",
                kind.name()
            ),
            &t,
        );
    }

    // Verification faults: no data corruption, but the MAC pipeline is
    // delayed or never answers. The cycle fence must contain the
    // dropped-MAC case under every gating policy — no hung points.
    {
        let mut t = Table::new(["policy", "fault", "verdict", "cycles"]);
        // Injected at cycle 0 so the cold-start fills consume the armed
        // delay — later on the victim's working set is cached and no
        // fill would ever pick it up.
        for kind in [FaultKind::MacDelay { extra: 5_000 }, FaultKind::MacDrop] {
            for (name, policy) in schemes() {
                match run_point(policy, kind, 0, timeout) {
                    Ok(o) => t.push_row([
                        name.to_string(),
                        kind.name().to_string(),
                        o.verdict.to_string(),
                        o.cycles.to_string(),
                    ]),
                    Err(e) => {
                        eprintln!("warning: skipping point: {e}");
                        failed_points.push(e);
                    }
                }
            }
        }
        secsim_bench::emit(
            "exposure_mac-faults",
            "Fault campaign — delayed / dropped MAC verification: the cycle fence \
             converts would-be hangs into CycleLimitExceeded",
            &t,
        );
    }

    assert!(
        failed_points.is_empty(),
        "{} campaign point(s) timed out or panicked: {failed_points:?}",
        failed_points.len()
    );
    assert!(
        undetected.is_empty(),
        "integrity faults escaped authenticating policies: {undetected:?}"
    );
    assert!(ordering_errors.is_empty(), "{ordering_errors:?}");
    eprintln!("fault campaign OK: all points bounded, all integrity faults detected, \
               exposure ordering holds");
}
