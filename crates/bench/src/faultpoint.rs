//! The fault-campaign point runner of the `faults` binary, and the
//! campaign's eight [`schemes`].
//!
//! One campaign point = one deterministic victim (a load → compute →
//! store loop over an encrypted image) with a single scheduled fault,
//! under a policy. Each point is bounded twice: by the model's cycle
//! fence (`SimConfig::max_cycles`) and by a wall-clock watchdog thread
//! outside it — a point that runs away ends as `CycleLimitExceeded`, a
//! point that wedges its host thread is abandoned and surfaces as a
//! [`SweepError::Failed`] hole in the grid, never a hung campaign.

use crate::sweep::panic_detail;
use crate::SweepError;
use secsim_core::{EncryptedMemory, Exposure, FaultKind, FaultPlan, FetchGateVariant, Policy,
    TamperCause};
use secsim_cpu::{SimConfig, SimOutcome, SimSession};
use secsim_isa::{Asm, Reg};
use std::sync::mpsc;
use std::time::Duration;

/// Address of the data line the victim re-reads every iteration — the
/// campaign's tamper target.
pub const TARGET: u32 = 0x2000;
/// Warm scratch line the tainted results are stored to. Keeping the
/// dependent work on-chip makes the exposure ordering structural: no
/// tainted instruction needs a bus grant of its own.
pub const SCRATCH: u32 = 0x3000;
/// Per-point cycle fence: generous for a ~20k-cycle victim, tiny next
/// to the 2⁴⁰-cycle horizon of a dropped MAC verification.
pub const FENCE: u64 = 500_000;

/// The victim: `ITERS ×` (load target; two dependent adds; two
/// dependent stores to scratch; count down). Everything the tampered
/// line can taint stays off the bus, so exposure differences between
/// policies come only from the gates.
pub fn victim() -> EncryptedMemory {
    let mut a = Asm::new(0x0);
    let top = a.new_label();
    a.li(Reg::R1, TARGET);
    a.li(Reg::R4, SCRATCH);
    a.li(Reg::R2, 6000);
    a.bind(top).expect("fresh label");
    a.lw(Reg::R3, Reg::R1, 0);
    a.add(Reg::R5, Reg::R3, Reg::R3);
    a.add(Reg::R5, Reg::R5, Reg::R3);
    a.sw(Reg::R5, Reg::R4, 0);
    a.sw(Reg::R3, Reg::R4, 4);
    a.addi(Reg::R2, Reg::R2, -1);
    a.bne(Reg::R2, Reg::R0, top);
    a.halt();
    let words = a.assemble().expect("victim assembles");
    let mut plain = vec![0u8; 16 << 10];
    for (i, w) in words.iter().enumerate() {
        plain[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
    }
    plain[TARGET as usize] = 0x2A; // something nonzero to chew on
    EncryptedMemory::from_plain(0, &plain, &[0xFA; 16], b"fault-campaign")
}

/// The eight schemes of the campaign, in detection-latency order where
/// the paper defines one.
pub fn schemes() -> [(&'static str, Policy); 8] {
    [
        ("baseline", Policy::baseline()),
        ("authen-then-issue", Policy::authen_then_issue()),
        ("authen-then-commit", Policy::authen_then_commit()),
        ("authen-then-write", Policy::authen_then_write()),
        ("authen-then-fetch", Policy::authen_then_fetch()),
        (
            "authen-then-fetch-drain",
            Policy::authen_then_fetch().with_fetch_variant(FetchGateVariant::Drain),
        ),
        ("commit+fetch", Policy::commit_plus_fetch()),
        ("commit+obf", Policy::commit_plus_obfuscation()),
    ]
}

/// The integrity faults every authenticating policy must catch.
pub fn integrity_kinds() -> [FaultKind; 5] {
    [
        FaultKind::CiphertextFlip { mask: 0x40 },
        FaultKind::TagCorrupt { mask: 0xDEAD },
        FaultKind::CounterReplay,
        FaultKind::DramFlip { bit: 3 },
        FaultKind::BusCorrupt { mask: 0x08 },
    ]
}

/// What one campaign point produced.
#[derive(Debug, Clone, Copy)]
pub struct FaultOutcome {
    /// `"completed"`, `"detected"` or `"cycle-fence"`.
    pub verdict: &'static str,
    /// Cycle at which tamper detection fired, if it did.
    pub detect_cycle: Option<u64>,
    /// Attributed cause of a detection.
    pub cause: Option<TamperCause>,
    /// Pre-detection exposure ledger of a detection.
    pub exposure: Option<Exposure>,
    /// Total cycles simulated.
    pub cycles: u64,
}

/// Runs one point on a watchdog thread: the simulation is bounded by
/// the cycle fence inside the model and by `timeout` outside it. A
/// point that exceeds the wall clock is abandoned (the thread is
/// detached) and surfaces as a [`SweepError::Failed`] — one hole in the
/// grid, not a hung campaign.
pub fn run_point(
    policy: Policy,
    kind: FaultKind,
    inject: u64,
    timeout: Duration,
) -> Result<FaultOutcome, SweepError> {
    let label = format!("faults/{}@{inject}", kind.name());
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let run = std::panic::catch_unwind(|| {
            let mut image = victim();
            let cfg = SimConfig::paper_256k(policy).with_max_cycles(FENCE);
            let plan = FaultPlan::new().at(inject, TARGET, kind);
            let out = SimSession::new(&cfg).faults(plan).run(&mut image, 0x0);
            let cycles = out.report().cycles;
            match out {
                SimOutcome::Completed(_) => FaultOutcome {
                    verdict: "completed",
                    detect_cycle: None,
                    cause: None,
                    exposure: None,
                    cycles,
                },
                SimOutcome::TamperDetected { cycle, cause, exposure, .. } => FaultOutcome {
                    verdict: "detected",
                    detect_cycle: Some(cycle),
                    cause: Some(cause),
                    exposure: Some(exposure),
                    cycles,
                },
                SimOutcome::CycleLimitExceeded { .. } => FaultOutcome {
                    verdict: "cycle-fence",
                    detect_cycle: None,
                    cause: None,
                    exposure: None,
                    cycles,
                },
            }
        });
        let _ = tx.send(run.map_err(|payload| panic_detail(&*payload)));
    });
    match rx.recv_timeout(timeout) {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(detail)) => Err(SweepError::Failed { bench: label, detail }),
        Err(_) => Err(SweepError::Failed {
            bench: label,
            detail: format!("wall-clock timeout after {}s", timeout.as_secs()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_point_reports_cause_and_exposure() {
        let kind = FaultKind::CiphertextFlip { mask: 0x40 };
        let out = run_point(
            Policy::authen_then_commit(),
            kind,
            2_500,
            Duration::from_secs(60),
        )
        .expect("point completes");
        assert_eq!(out.verdict, "detected");
        assert_eq!(out.cause, Some(kind.cause()));
        assert!(out.exposure.is_some());
        assert!(out.detect_cycle.unwrap() >= 2_500);
    }
}
