//! The unified simulation entry point.
//!
//! [`SimSession`] is one builder for every way to run the pipeline:
//! configure bus tracing, event tracing, a retire observer, and an
//! optional [`FaultPlan`], then [`run`](SimSession::run) an image —
//! or [`run_program`](SimSession::run_program) a
//! [`ProgramSource`] (builtin kernel, fuzz spec, or external image),
//! which is the single front door programs enter simulations through.
//! All observers are optional and none affects the computed timing — a
//! bare session is cycle-for-cycle (and byte-for-byte in its
//! [`SimReport`]) identical to the bare pipeline.
//!
//! A run finishes with a structured [`SimOutcome`] rather than an
//! optional exception field callers can ignore: tampering detection and
//! cycle-fence trips are distinct variants carrying their evidence.
//!
//! # Examples
//!
//! ```
//! use secsim_core::Policy;
//! use secsim_cpu::{SimConfig, SimSession, TraceConfig};
//! use secsim_isa::{Asm, FlatMem, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new(0x1000);
//! a.addi(Reg::R1, Reg::R0, 7);
//! a.halt();
//! let mut mem = FlatMem::new(0x1000, 1 << 16);
//! mem.load_words(0x1000, &a.assemble()?);
//!
//! let cfg = SimConfig::paper_256k(Policy::authen_then_commit());
//! let mut retires = 0u64;
//! let out = SimSession::new(&cfg)
//!     .trace(TraceConfig::default())
//!     .observe(|_r| retires += 1)
//!     .run(&mut mem, 0x1000);
//! assert!(matches!(out, secsim_cpu::SimOutcome::Completed(_)));
//! assert!(out.report().halted);
//! assert_eq!(retires, out.report().insts);
//! let run = out.into_run();
//! let chrome = run.trace.expect("tracing was on").to_chrome();
//! assert!(chrome.get("traceEvents").is_some());
//! # Ok(())
//! # }
//! ```

use crate::config::SimConfig;
use crate::observe::RetireRecord;
use crate::pipeline::{run_pipeline, BusTraceMode, SecureImage};
use crate::report::SimReport;
use crate::trace::{SimTrace, TraceConfig};
use secsim_core::{Exposure, FaultPlan, TamperCause};
use secsim_isa::ArchState;
use secsim_workloads::ProgramSource;

/// Everything one simulation run produced, however it ended.
#[derive(Debug)]
pub struct SimRun {
    /// Timing report (cycles, counters, stall breakdown, events).
    pub report: SimReport,
    /// Final architectural state of the functional execution.
    pub state: ArchState,
    /// Structured event trace, present iff [`SimSession::trace`] was
    /// configured.
    pub trace: Option<SimTrace>,
}

/// How a simulation run ended.
///
/// Every variant carries the full [`SimRun`]; the variant itself is the
/// security verdict. Callers that only need the report can use
/// [`report`](SimOutcome::report) / [`into_report`](SimOutcome::into_report)
/// regardless of variant.
#[derive(Debug)]
pub enum SimOutcome {
    /// The program ran to completion (halt, decode fault, or
    /// `max_insts`) with no authentication failure.
    Completed(SimRun),
    /// MAC verification failed: a precise security exception was raised
    /// at `cycle` for the line at `line_addr`, the pipeline squashed
    /// everything younger than the detection point, and `exposure`
    /// records how much tainted work beat detection under the active
    /// policy.
    TamperDetected {
        /// The run up to (and draining past) the exception.
        run: SimRun,
        /// Cycle the failing verification completed.
        cycle: u64,
        /// Address of the line that failed verification.
        line_addr: u32,
        /// What corrupted the line, as attributed from the fault plan
        /// ([`TamperCause::StaticImage`] when the image was tampered
        /// before the run).
        cause: TamperCause,
        /// Architectural effects dependent on the tampered line that
        /// predate detection.
        exposure: Exposure,
    },
    /// The cycle fence ([`SimConfig::max_cycles`]) tripped before the
    /// program finished — the watchdog outcome for dropped MAC
    /// verifications and runaway programs.
    CycleLimitExceeded {
        /// The run up to the fence.
        run: SimRun,
        /// The fence that tripped (`cfg.max_cycles`).
        cycle: u64,
    },
}

impl SimOutcome {
    /// The run's artifacts, whichever way it ended.
    pub fn run(&self) -> &SimRun {
        match self {
            SimOutcome::Completed(run) => run,
            SimOutcome::TamperDetected { run, .. } => run,
            SimOutcome::CycleLimitExceeded { run, .. } => run,
        }
    }

    /// Consumes the outcome, keeping the run's artifacts.
    pub fn into_run(self) -> SimRun {
        match self {
            SimOutcome::Completed(run) => run,
            SimOutcome::TamperDetected { run, .. } => run,
            SimOutcome::CycleLimitExceeded { run, .. } => run,
        }
    }

    /// The timing report, whichever way the run ended.
    pub fn report(&self) -> &SimReport {
        &self.run().report
    }

    /// Consumes the outcome, keeping only the timing report.
    pub fn into_report(self) -> SimReport {
        self.into_run().report
    }

    /// The final architectural state.
    pub fn state(&self) -> &ArchState {
        &self.run().state
    }

    /// Whether the run ended in a detected authentication failure.
    pub fn detected(&self) -> bool {
        matches!(self, SimOutcome::TamperDetected { .. })
    }

    /// The exposure ledger, when tampering was detected.
    pub fn exposure(&self) -> Option<Exposure> {
        match self {
            SimOutcome::TamperDetected { exposure, .. } => Some(*exposure),
            _ => None,
        }
    }

    /// The variant's name, for logs and campaign tables.
    pub fn verdict_name(&self) -> &'static str {
        match self {
            SimOutcome::Completed(_) => "Completed",
            SimOutcome::TamperDetected { .. } => "TamperDetected",
            SimOutcome::CycleLimitExceeded { .. } => "CycleLimitExceeded",
        }
    }
}

/// A boxed per-retire observer, as registered by [`SimSession::observe`].
type Observer<'a> = Box<dyn FnMut(&RetireRecord) + 'a>;

/// Builder for one simulation run.
pub struct SimSession<'a> {
    cfg: SimConfig,
    bus_mode: BusTraceMode,
    trace: Option<TraceConfig>,
    observer: Option<Observer<'a>>,
    faults: Option<FaultPlan>,
    start: Option<ArchState>,
    program: Option<ProgramSource>,
    seed: u64,
}

impl<'a> SimSession<'a> {
    /// A session with no observers: a bare pipeline run.
    ///
    /// # Panics
    ///
    /// If `cfg` fails [`SimConfig::validate`]; the message names the
    /// field. Configs from untrusted input should be checked (or decoded
    /// with [`SimConfig::from_json`]) first.
    pub fn new(cfg: &SimConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        Self {
            cfg: *cfg,
            bus_mode: BusTraceMode::Off,
            trace: None,
            observer: None,
            faults: None,
            start: None,
            program: None,
            seed: 0,
        }
    }

    /// Sets the program to simulate: anything that converts into a
    /// [`ProgramSource`] — a [`BenchId`](secsim_workloads::BenchId)
    /// (builtin kernel or fuzz target), an
    /// [`ExternalId`](secsim_workloads::ExternalId), or an explicit
    /// source. This is the single front door for programs; run with
    /// [`run_program`](SimSession::run_program).
    pub fn program(mut self, source: impl Into<ProgramSource>) -> Self {
        self.program = Some(source.into());
        self
    }

    /// Seed for the program build (kernel data layouts, fuzz program
    /// selection; external images ignore it). Defaults to 0.
    pub fn program_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the configured [`program`](SimSession::program)
    /// deterministically in the configured seed and runs it.
    ///
    /// # Panics
    ///
    /// If no program was set — pass one with
    /// [`program`](SimSession::program) first.
    pub fn run_program(self) -> SimOutcome {
        let source = self.program.expect("SimSession::run_program needs .program(...) first");
        let seed = self.seed;
        let mut w = source.build(seed);
        let entry = w.entry;
        self.run(&mut w.mem, entry)
    }

    /// Starts the run from `state` instead of a cold
    /// `ArchState::new(entry)` — the warmup-checkpoint entry point.
    ///
    /// Only the *functional* state (PC, registers, instruction count) is
    /// warm; every timing structure (caches, predictor, MAC queue) still
    /// starts cold, so two sessions resumed from byte-identical states
    /// produce byte-identical reports. The `entry` argument of
    /// [`run`](SimSession::run) is ignored when a start state is set.
    pub fn resume_from(mut self, state: ArchState) -> Self {
        self.start = Some(state);
        self
    }

    /// Enables (or disables) the attacker-visible bus trace
    /// ([`SimReport::bus_events`]) plus resolved-control and
    /// first-instruction timing capture.
    pub fn trace_bus(mut self, on: bool) -> Self {
        self.bus_mode = BusTraceMode::full_if(on);
        self
    }

    /// Enables the *streaming* bus trace: every attacker-visible event
    /// is folded into the constant-size [`SimReport::bus_digest`]
    /// instead of being retained in [`SimReport::bus_events`]. Memory
    /// stays O(1) however long the run, so two-run obliviousness
    /// comparisons work at checkpointed-warmup (100M-instruction)
    /// scale. Mutually exclusive with [`trace_bus`](Self::trace_bus):
    /// the later call wins.
    pub fn trace_bus_digest(mut self) -> Self {
        self.bus_mode = BusTraceMode::Digest;
        self
    }

    /// Enables structured event tracing; the run's [`SimRun::trace`]
    /// will hold a [`SimTrace`].
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Registers a per-retire observer, called once per committed
    /// instruction in program order.
    pub fn observe(mut self, f: impl FnMut(&RetireRecord) + 'a) -> Self {
        self.observer = Some(Box::new(f));
        self
    }

    /// Schedules deterministic mid-run fault injection: each event in
    /// `plan` is applied once the modelled clock passes its cycle.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Runs `image` from `entry` until it halts, faults, trips the
    /// cycle fence, or detects tampering.
    pub fn run<M: SecureImage>(self, image: &mut M, entry: u32) -> SimOutcome {
        let SimSession { cfg, bus_mode, trace, mut observer, faults, start, .. } = self;
        let observer_dyn: Option<&mut dyn FnMut(&RetireRecord)> = match observer.as_mut() {
            Some(b) => Some(&mut **b),
            None => None,
        };
        let start = start.unwrap_or_else(|| ArchState::new(entry));
        let (report, state, trace, ending) =
            run_pipeline(image, start, &cfg, bus_mode, observer_dyn, trace, faults.as_ref());
        let run = SimRun { report, state, trace };
        if let Some(e) = run.report.exception {
            SimOutcome::TamperDetected {
                run,
                cycle: e.cycle,
                line_addr: e.line_addr,
                cause: ending.cause,
                exposure: ending.exposure,
            }
        } else if let Some(cycle) = ending.cycle_limit {
            SimOutcome::CycleLimitExceeded { run, cycle }
        } else {
            SimOutcome::Completed(run)
        }
    }
}

impl std::fmt::Debug for SimSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("cfg", &self.cfg)
            .field("bus_mode", &self.bus_mode)
            .field("trace", &self.trace)
            .field("observer", &self.observer.as_ref().map(|_| "FnMut"))
            .field("faults", &self.faults)
            .field("start", &self.start)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secsim_core::{EncryptedMemory, FaultKind, Policy};
    use secsim_isa::{Asm, FlatMem, MemIo, Reg};

    fn program() -> (FlatMem, u32) {
        let mut a = Asm::new(0x1000);
        let top = a.new_label();
        a.li(Reg::R1, 0x10_0000);
        a.bind(top).unwrap();
        a.lw(Reg::R1, Reg::R1, 0);
        a.bne(Reg::R1, Reg::R0, top);
        a.halt();
        let mut mem = FlatMem::new(0x1000, 1 << 22);
        mem.load_words(0x1000, &a.assemble().unwrap());
        for i in 0..40u32 {
            let addr = 0x10_0000 + i * 4096;
            let next = if i == 39 { 0 } else { addr + 4096 };
            mem.write_u32(addr, next);
        }
        (mem, 0x1000)
    }

    #[test]
    fn observer_sees_every_retire_in_order() {
        let (mem, entry) = program();
        let cfg = SimConfig::paper_256k(Policy::authen_then_issue());
        let mut seqs = Vec::new();
        let out = SimSession::new(&cfg)
            .observe(|r| seqs.push(r.seq))
            .run(&mut mem.clone(), entry);
        assert_eq!(seqs.len() as u64, out.report().insts);
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn session_matches_bare_pipeline_byte_for_byte() {
        let (mem, entry) = program();
        for policy in [
            Policy::baseline(),
            Policy::authen_then_issue(),
            Policy::authen_then_commit(),
            Policy::authen_then_write(),
            Policy::authen_then_fetch(),
            Policy::commit_plus_fetch(),
        ] {
            let cfg = SimConfig::paper_256k(policy);
            let (old, _, _, _) = crate::pipeline::run_pipeline(
                &mut mem.clone(),
                ArchState::new(entry),
                &cfg,
                BusTraceMode::Off,
                None,
                None,
                None,
            );
            let new = SimSession::new(&cfg).run(&mut mem.clone(), entry).into_report();
            assert_eq!(
                old.to_json().unwrap().render(),
                new.to_json().unwrap().render(),
                "SimSession must reproduce the bare pipeline exactly under {policy}"
            );
        }
    }

    #[test]
    fn digest_session_matches_full_trace_and_retains_no_events() {
        let (mem, entry) = program();
        let cfg = SimConfig::paper_256k(Policy::authen_then_commit());
        let full = SimSession::new(&cfg).trace_bus(true).run(&mut mem.clone(), entry).into_report();
        let digest =
            SimSession::new(&cfg).trace_bus_digest().run(&mut mem.clone(), entry).into_report();
        assert!(!full.bus_events.is_empty(), "full mode retains events");
        assert!(digest.bus_events.is_empty(), "streaming mode retains none");
        assert_eq!(full.bus_digest, digest.bus_digest, "same run, same digest");
        let d = digest.bus_digest.expect("digest mode populates bus_digest");
        assert_eq!(d.events as usize, full.bus_events.len());
    }

    #[test]
    fn faulted_outcome_carries_detection_evidence() {
        // Tight load loop over one data line; the plan corrupts that
        // line mid-run, so the next (re)fetch fails verification.
        let mut a = Asm::new(0x0);
        let top = a.new_label();
        a.li(Reg::R1, 0x1000);
        a.li(Reg::R2, 400);
        a.bind(top).unwrap();
        a.lw(Reg::R3, Reg::R1, 0);
        a.addi(Reg::R2, Reg::R2, -1);
        a.bne(Reg::R2, Reg::R0, top);
        a.halt();
        let words = a.assemble().unwrap();
        let mut plain = vec![0u8; 8192];
        for (i, w) in words.iter().enumerate() {
            plain[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        let mut img = EncryptedMemory::from_plain(0, &plain, &[8; 16], b"sess");
        let cfg = SimConfig::paper_256k(Policy::authen_then_issue());
        let plan = FaultPlan::new().at(300, 0x1000, FaultKind::CiphertextFlip { mask: 0x80 });
        let out = SimSession::new(&cfg).faults(plan).run(&mut img, 0x0);
        match out {
            SimOutcome::TamperDetected { cycle, line_addr, cause, exposure, .. } => {
                assert!(cycle >= 300, "detection postdates injection, got {cycle}");
                assert_eq!(line_addr & !63, 0x1000);
                assert_eq!(cause, TamperCause::CiphertextFlip);
                // Eager (issue) gating admits no tainted work.
                assert_eq!(exposure.total(), 0, "issue gating leaked {exposure}");
            }
            other => panic!("expected TamperDetected, got {other:?}"),
        }
    }

    #[test]
    fn cycle_fence_ends_run_as_limit_exceeded() {
        let (mem, entry) = program();
        let cfg = SimConfig::paper_256k(Policy::baseline()).with_max_cycles(50);
        let out = SimSession::new(&cfg).run(&mut mem.clone(), entry);
        match out {
            SimOutcome::CycleLimitExceeded { cycle, ref run } => {
                assert_eq!(cycle, 50);
                assert!(!run.report.halted);
            }
            other => panic!("expected CycleLimitExceeded, got {other:?}"),
        }
    }
}
