//! The one-pass out-of-order timing model.
//!
//! The simulator executes the program functionally (oracle execution via
//! `secsim_isa::step`) and computes, for every dynamic instruction, the
//! cycle of each pipeline event — fetch, dispatch, issue, complete,
//! commit — under the structural constraints of Table 3 and the gating
//! rules of the active [`Policy`]. In-flight state is carried in ring
//! buffers (RUU / LSQ / store buffer occupancy) and a register-readiness
//! scoreboard, the way SimpleScalar's RUU model does, so policy effects
//! like "commit stalls fill the RUU, which stalls dispatch, which stalls
//! fetch" emerge naturally.
//!
//! ## Model notes (documented simplifications)
//!
//! * Wrong-path instructions are not fetched; a mispredicted branch
//!   instead charges the full resolve + redirect latency to the next
//!   fetch. Wrong-path cache pollution is therefore not modeled.
//! * The *LastRequest tag* variant of authen-then-fetch gates each fetch
//!   on the verification watermark as of its triggering instruction's
//!   issue cycle; the *drain* variant conservatively waits for the whole
//!   queue as filled at that moment.
//! * Store-to-load forwarding matches exact word addresses.

use crate::bpred::BranchPredictor;
use crate::config::SimConfig;
use crate::observe::RetireRecord;
use crate::report::{AuthException, ControlEvent, IoEvent, SimReport};
use crate::sched::{FuPool, InOrderSlots, WindowSlots};
use crate::trace::{SimTrace, StallCause, TraceConfig, Tracer};
use secsim_core::{
    EncryptedMemory, Exposure, FaultEvent, FaultInjector, FaultKind, FaultPlan, FetchGateVariant,
    Policy, SecureMemCtrl, TamperCause, TamperError, MAC_DROP_DELAY,
};
use secsim_isa::{decode, step_decoded, ArchState, FlatMem, Inst, MemIo, MemWidth, OpClass, RegRef};
use secsim_mem::{AccessKind, MemSystem};
use secsim_stats::FastMap;

/// A functional memory image the pipeline can execute from, with an
/// integrity oracle telling which lines would fail MAC verification.
///
/// [`FlatMem`] (plaintext, always valid) and
/// [`EncryptedMemory`] (real ciphertext, tamperable) both qualify.
pub trait SecureImage: MemIo {
    /// Whether the line containing `addr` passes MAC verification.
    fn line_valid(&self, _addr: u32) -> bool {
        true
    }

    /// Applies one scheduled fault to the backing image, reporting
    /// whether stored bits actually changed. Plaintext images carry no
    /// ciphertext, tags, or counters to corrupt, so the default is a
    /// no-op.
    fn apply_fault(&mut self, _ev: &FaultEvent) -> Result<bool, TamperError> {
        Ok(false)
    }
}

impl SecureImage for FlatMem {}

impl SecureImage for EncryptedMemory {
    fn line_valid(&self, addr: u32) -> bool {
        EncryptedMemory::line_valid(self, addr)
    }

    fn apply_fault(&mut self, ev: &FaultEvent) -> Result<bool, TamperError> {
        EncryptedMemory::apply_fault(self, ev)
    }
}

fn reg_slot(r: RegRef) -> usize {
    match r {
        RegRef::Int(x) => x.index(),
        RegRef::Fp(x) => 32 + x.index(),
    }
}

fn exec_latency(inst: &Inst) -> (u64, u64) {
    // (latency, unit occupancy); occupancy > 1 = not pipelined.
    match inst {
        Inst::Mul { .. } => (3, 1),
        Inst::Divu { .. } | Inst::Remu { .. } => (20, 20),
        Inst::Fmul { .. } => (4, 1),
        Inst::Fdiv { .. } => (12, 12),
        i => match i.class() {
            OpClass::FpAlu => (2, 1),
            _ => (1, 1),
        },
    }
}

/// Earliest cycle a new external fetch may be granted under the active
/// policy (0 = ungated). `at` is the cycle the triggering instruction
/// issued — the moment the *LastRequest register* is sampled (§4.2.4).
fn fetch_gate(engine: &SecureMemCtrl, policy: &Policy, at: u64) -> u64 {
    if !policy.gate_fetch {
        return 0;
    }
    let q = engine.queue();
    match policy.fetch_variant {
        // Drain variant: wait for the whole queue as currently filled.
        FetchGateVariant::Drain => q.drain_time(),
        // Tag variant: wait only for requests that existed when the
        // triggering instruction issued.
        FetchGateVariant::LastRequestTag => q.watermark_before(at),
    }
}

/// How a pipeline run ended, beyond what [`SimReport`] captures: the
/// cycle fence (if it tripped), the attributed cause of any detected
/// tampering, and the exposure accumulated before detection. The
/// session layer folds this into a structured `SimOutcome`.
pub(crate) struct RunEnding {
    /// `Some(fence)` when the run was cut off by `cfg.max_cycles`.
    pub cycle_limit: Option<u64>,
    /// What corrupted the detected line (meaningful only when the
    /// report carries an exception).
    pub cause: TamperCause,
    /// Architectural effects dependent on tampered data that predate
    /// the detection cycle.
    pub exposure: Exposure,
}

/// Applies every scheduled fault due at or before `now`: integrity
/// faults corrupt the image and poison any cached copies (so the
/// corruption reaches the chip on the next fill), verification faults
/// arm the controller's one-shot MAC-delay injection. Returns whether
/// any stored bits of the image actually changed (the caller must then
/// drop decoded-instruction caches built over the image).
fn apply_due_faults<M: SecureImage>(
    injector: &mut Option<FaultInjector>,
    now: u64,
    image: &mut M,
    ms: &mut MemSystem<SecureMemCtrl>,
) -> bool {
    let Some(inj) = injector.as_mut() else { return false };
    if !inj.pending() {
        return false;
    }
    let mut mutated = false;
    for ev in inj.take_due(now).to_vec() {
        match ev.kind {
            FaultKind::MacDelay { extra } => ms.engine_mut().inject_mac_delay(extra),
            FaultKind::MacDrop => ms.engine_mut().inject_mac_delay(MAC_DROP_DELAY),
            _ => {
                // A fault aimed outside the image is a scheduled no-op;
                // the injector still records it as applied.
                if image.apply_fault(&ev).unwrap_or(false) {
                    ms.poison_line(ev.addr);
                    mutated = true;
                }
            }
        }
    }
    mutated
}

/// Direct-mapped decoded-instruction cache indexed by word-PC low bits.
///
/// The functional step otherwise re-fetches and re-decodes every dynamic
/// instruction; hot loops span a few dozen static instructions, so a
/// small direct-mapped cache removes that work almost entirely. Program
/// stores probe and evict the covered words (self-modifying fuzz
/// programs stay correct) and injected faults flush the whole cache.
struct DecodeCache {
    /// `pc as u64` per slot; `u64::MAX` = empty (no 32-bit PC matches).
    tags: Vec<u64>,
    insts: Vec<Inst>,
}

impl DecodeCache {
    /// Slots (power of two): covers a 16 KB code footprint exactly.
    const LEN: usize = 4096;

    fn new() -> Self {
        Self { tags: vec![u64::MAX; Self::LEN], insts: vec![Inst::Nop; Self::LEN] }
    }

    #[inline]
    fn slot(pc: u32) -> usize {
        ((pc >> 2) as usize) & (Self::LEN - 1)
    }

    /// The decoding of memory at `pc`, cached.
    #[inline]
    fn lookup<M: MemIo>(&mut self, pc: u32, mem: &mut M) -> Inst {
        let i = Self::slot(pc);
        if self.tags[i] == u64::from(pc) {
            return self.insts[i];
        }
        let inst = decode(mem.fetch_word(pc));
        self.tags[i] = u64::from(pc);
        self.insts[i] = inst;
        inst
    }

    /// Drops any cached decoding of the words a store touched.
    #[inline]
    fn invalidate_store(&mut self, addr: u32, width: MemWidth) {
        let bytes = match width {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
            MemWidth::Double => 8,
        };
        let first = addr & !3;
        let last = addr.wrapping_add(bytes - 1) & !3;
        let mut w = first;
        loop {
            let i = Self::slot(w);
            if self.tags[i] == u64::from(w) {
                self.tags[i] = u64::MAX;
            }
            if w == last {
                break;
            }
            w = w.wrapping_add(4);
        }
    }

    /// Drops everything (the image changed underneath us).
    fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

/// How (and whether) the attacker-visible bus trace is captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum BusTraceMode {
    /// No capture.
    #[default]
    Off,
    /// Retain every [`secsim_mem::BusEvent`] (plus resolved-control and
    /// first-instruction timing capture) — memory grows with the run.
    Full,
    /// Fold events into a constant-size [`secsim_mem::BusDigest`] only:
    /// the streaming mode for 100M-instruction two-run comparisons.
    Digest,
}

impl BusTraceMode {
    pub(crate) fn full_if(on: bool) -> Self {
        if on {
            BusTraceMode::Full
        } else {
            BusTraceMode::Off
        }
    }
}

/// The one-pass timing engine behind [`crate::SimSession`].
///
/// `observer` receives one [`RetireRecord`] per committed instruction;
/// `trace`, when set, turns on structured event tracing and yields a
/// [`SimTrace`]. Neither affects the computed timing. `faults`, when
/// set, schedules deterministic mid-run tampering: due events are
/// applied as the modelled clock advances past their cycle.
///
/// `start` is the architectural state to begin from — `ArchState::new(entry)`
/// for a cold run, or a functionally fast-forwarded state when resuming from
/// a warmup checkpoint. Timing state (caches, predictor, MAC queue) always
/// starts cold; only the *functional* state is warm.
pub(crate) fn run_pipeline<M: SecureImage>(
    image: &mut M,
    start: ArchState,
    cfg: &SimConfig,
    bus_mode: BusTraceMode,
    mut observer: Option<&mut dyn FnMut(&RetireRecord)>,
    trace: Option<TraceConfig>,
    faults: Option<&FaultPlan>,
) -> (SimReport, ArchState, Option<SimTrace>, RunEnding) {
    let policy = cfg.secure.policy;
    let trace_bus = bus_mode == BusTraceMode::Full;
    let mut injector = faults.map(FaultInjector::new);
    let mut ms = MemSystem::new(cfg.mem, SecureMemCtrl::new(cfg.secure.ctrl));
    match bus_mode {
        BusTraceMode::Off => {}
        BusTraceMode::Full => ms.channel_mut().trace_mut().enable(),
        BusTraceMode::Digest => ms.channel_mut().trace_mut().enable_digest(),
    }
    let mut tracer = trace.map(Tracer::new);
    if tracer.is_some() {
        ms.channel_mut().record_transfers();
        ms.engine_mut().queue_mut().record_spans();
    }
    let mut bp = BranchPredictor::new(cfg.cpu.bpred);
    let mut st = start;
    let mut icache = DecodeCache::new();

    let ruu = cfg.cpu.ruu_size as usize;
    let lsq = cfg.cpu.lsq_size as usize;
    let sb = cfg.cpu.store_buffer as usize;
    let mut fetch_slots = InOrderSlots::new(cfg.cpu.fetch_width);
    let mut dispatch_slots = InOrderSlots::new(cfg.cpu.decode_width);
    let mut commit_slots = InOrderSlots::new(cfg.cpu.commit_width);
    let mut issue_slots = WindowSlots::new(cfg.cpu.issue_width);
    let mut fu_int = FuPool::new(cfg.cpu.int_alu);
    let mut fu_mul = FuPool::new(cfg.cpu.int_mul);
    let mut fu_fp = FuPool::new(cfg.cpu.fp_alu);
    let mut fu_fpmul = FuPool::new(cfg.cpu.fp_mul);
    let mut fu_mem = FuPool::new(cfg.cpu.mem_ports);

    let mut reg_ready = [0u64; 64];
    // Why each register's value is as late as it is: the stall cause of
    // the producing instruction, inherited through the dependence graph
    // (CPI-stack attribution).
    let mut reg_cause = [StallCause::Frontend; 64];
    let mut commit_ring = vec![0u64; ruu];
    let mut lsq_ring = vec![0u64; lsq];
    let mut store_release_ring = vec![0u64; sb];
    // word address -> (value ready, cache write time, producer cause,
    // producer taint) for forwarding
    let mut store_fwd: FastMap<u32, (u64, u64, StallCause, bool)> = FastMap::default();

    // Exposure accounting: which registers hold values derived from a
    // line that fails verification (one bit per scoreboard slot), and
    // the event cycles of every tainted instruction. Counted against the
    // detection cycle once the run ends; bounded because detection
    // squashes the run.
    let mut reg_taint: u64 = 0;
    let mut cur_iline_tainted = false;
    // Struct-of-arrays taint log: the exposure pass scans each event
    // column independently, and pushes touch four dense u64 streams
    // instead of one padded wide record.
    #[derive(Default)]
    struct TaintLog {
        at_issue: Vec<bool>, // tainted before its own load's data arrived
        issue: Vec<u64>,
        commit: Vec<u64>,
        store_release: Vec<u64>, // 0 = not a store
        bus_granted: Vec<u64>,   // 0 = no dependent off-chip transfer
    }
    const TAINT_CAP: usize = 1 << 20;
    let mut taint_log = TaintLog::default();
    let track_exposure = policy.authenticate;

    let l1i_line_mask = !(cfg.mem.l1i.line_bytes - 1);
    let mut cur_iline: Option<u32> = None;
    let mut iline_auth: u64 = 0;
    let mut fetch_avail: u64 = 0;
    // Why `fetch_avail` is what it is (I-miss, fetch gate, redirect…).
    let mut fetch_cause = StallCause::Frontend;
    let mut prev_commit: u64 = 0;
    let mut prev_commit_cause = StallCause::Frontend;
    // Commit slots consumed or charged so far; every retire advances
    // this past its own global slot index, charging the skipped slots.
    let mut consumed_slots: u64 = 0;
    let commit_width = u64::from(cfg.cpu.commit_width);
    let mut mem_ops: usize = 0;
    let mut stores: usize = 0;
    let mut insts: u64 = 0;
    let mut last_commit: u64 = 0;
    // Cycle the machine fully quiesces: last commit, plus store-buffer
    // and I/O releases that may outlast it (authen-then-write).
    let mut quiesce: u64 = 0;

    let mut report = SimReport::default();
    // Per-instruction counters live in locals — the `CounterSet` name
    // lookup is too slow for the per-inst loop — and flush into
    // `report.counters` once, after the run.
    let mut n_loads: u64 = 0;
    let mut n_load_forwards: u64 = 0;
    let mut n_load_l2_misses: u64 = 0;
    let mut n_stores: u64 = 0;
    let mut n_branches: u64 = 0;
    let mut n_mispredicts: u64 = 0;
    let mut issue_stall_cycles: u64 = 0;
    let mut commit_stall_cycles: u64 = 0;
    let mut write_hold_cycles: u64 = 0;
    let mut exception: Option<AuthException> = None;
    let mut cycle_limit: Option<u64> = None;
    let precise = policy.gate_issue || policy.gate_commit;

    let note_tamper = |image: &M, addr: u32, auth_ready: u64, exc: &mut Option<AuthException>| {
        if auth_ready == 0 {
            return; // not authenticated (baseline) — tampering goes unnoticed
        }
        if !image.line_valid(addr) {
            let better = exc.is_none_or(|e| auth_ready < e.cycle);
            if better {
                *exc = Some(AuthException { cycle: auth_ready, line_addr: addr, precise });
            }
        }
    };

    loop {
        if st.halted {
            report.halted = true;
            break;
        }
        if cfg.max_insts > 0 && insts >= cfg.max_insts {
            break;
        }
        // Recovery: a raised security exception squashes everything
        // younger than the detection point — no instruction whose fetch
        // would postdate the exception enters the pipe. Work already in
        // flight (fetched at or before detection) drains normally; the
        // exposure ledger records how much of it depended on the
        // tampered line.
        if let Some(e) = exception {
            if fetch_avail > e.cycle {
                break;
            }
        }
        // Cycle fence: the watchdog for runs whose modelled clock runs
        // away (dropped MAC verifications, non-terminating fuzz
        // programs). Fetch, commit, and the store-buffer quiesce
        // horizon are the three clocks that can escape.
        if cfg.max_cycles > 0 && fetch_avail.max(prev_commit).max(quiesce) > cfg.max_cycles {
            cycle_limit = Some(cfg.max_cycles);
            break;
        }
        let next_inst = icache.lookup(st.pc, image);
        let info = match step_decoded(&mut st, image, next_inst) {
            Ok(i) => i,
            Err(_) => {
                report.decode_fault = true;
                break;
            }
        };
        // A store may overwrite code: evict any decoding it covered.
        if let Some(ma) = info.mem.filter(|m| m.is_store) {
            icache.invalidate_store(ma.addr, ma.width);
        }

        // ---- fetch ----
        let line = info.pc & l1i_line_mask;
        let mut ifetch_floor: u64 = 0;
        let mut ifetch_granted: u64 = 0;
        if cur_iline != Some(line) {
            if apply_due_faults(&mut injector, fetch_avail, image, &mut ms) {
                icache.flush();
            }
            // No later watermark query samples below `fetch_avail`: it
            // never decreases, later I-fetches sample it, and a D-side
            // access samples at or after its instruction's issue, which
            // follows its fetch slot. Runs once per I-line at least.
            ms.engine_mut().queue_mut().forget_before(fetch_avail);
            let bnb = fetch_gate(ms.engine(), &policy, fetch_avail);
            let acc = ms.access(info.pc, AccessKind::IFetch, fetch_avail, bnb);
            note_tamper(image, info.pc, acc.auth_ready, &mut exception);
            cur_iline = Some(line);
            cur_iline_tainted = !image.line_valid(info.pc);
            iline_auth = acc.auth_ready;
            if acc.ready > fetch_avail {
                fetch_cause = if policy.gate_fetch && acc.l2_miss && bnb > fetch_avail {
                    StallCause::FetchGate
                } else if acc.l1_miss {
                    StallCause::IcacheMiss
                } else {
                    StallCause::Frontend
                };
            }
            fetch_avail = fetch_avail.max(acc.ready);
            ifetch_floor = bnb;
            ifetch_granted = acc.bus_granted;
        }
        let ft = fetch_slots.take(fetch_avail);
        let ft_cause = if ft > fetch_avail { StallCause::Frontend } else { fetch_cause };

        // ---- dispatch (rename + RUU/LSQ allocation) ----
        let mut disp_min = ft + cfg.cpu.frontend_depth;
        let mut disp_cause = ft_cause;
        if insts >= ruu as u64 {
            let head = commit_ring[(insts as usize) % ruu];
            if head > disp_min {
                disp_min = head;
                disp_cause = StallCause::RuuFull;
            }
        }
        let is_mem = info.mem.is_some();
        if is_mem && mem_ops >= lsq {
            let head = lsq_ring[mem_ops % lsq];
            if head > disp_min {
                disp_min = head;
                disp_cause = StallCause::LsqFull;
            }
        }
        let dt = dispatch_slots.take(disp_min);
        let dt_cause = if dt > disp_min { StallCause::Frontend } else { disp_cause };
        issue_slots.advance_floor(dt);

        // ---- operand readiness ----
        let mut ready = dt + 1;
        let mut ready_cause = dt_cause;
        let mut tainted_at_issue = cur_iline_tainted;
        for src in info.inst.srcs().into_iter().flatten() {
            let slot = reg_slot(src);
            tainted_at_issue |= (reg_taint >> slot) & 1 != 0;
            if reg_ready[slot] > ready {
                ready = reg_ready[slot];
                ready_cause = reg_cause[slot];
            }
        }
        if policy.gate_issue {
            // The instruction itself must be verified before issue.
            if iline_auth > ready {
                issue_stall_cycles += iline_auth - ready;
                ready = iline_auth;
                ready_cause = StallCause::AuthIssue;
            }
        }

        // ---- issue + execute ----
        let class = info.inst.class();
        let mut data_auth: u64 = 0; // verification time of the D-line touched
        let mut data_tainted = false; // loaded value comes from an invalid line
        let mut store_tag_done: u64 = 0; // authen-then-write watermark
        let mut bus_floor: u64 = 0; // fetch-gate floor of the D-access
        let mut bus_granted: u64 = 0; // its bus-grant cycle (0 = no transfer)
        let it = issue_slots.take(ready);
        let it_cause = if it > ready { StallCause::FuBusy } else { ready_cause };
        // Cause attribution for a D-side access: off-chip misses charge
        // the fetch gate when it held the grant back, else DRAM; on-chip
        // misses charge the cache; L1 hits inherit the issue-time cause.
        let access_cause = |acc: &secsim_mem::MemAccessResult,
                           bnb: u64,
                           start: u64,
                           inherit: StallCause| {
            if acc.ready <= start + 1 {
                inherit
            } else if acc.l2_miss {
                if policy.gate_fetch && bnb > start {
                    StallCause::FetchGate
                } else {
                    StallCause::DramBus
                }
            } else if acc.l1_miss {
                StallCause::DcacheMiss
            } else {
                inherit
            }
        };
        let (complete, complete_cause) = match class {
            OpClass::Load => {
                let start = fu_mem.take(it, 1);
                let start_cause = if start > it { StallCause::FuBusy } else { it_cause };
                let ma = info.mem.expect("load has a memory access");
                let word = ma.addr & !3;
                let fwd = (ma.width != MemWidth::Double)
                    .then(|| store_fwd.get(&word))
                    .flatten()
                    .copied()
                    .filter(|&(_, wtime, _, _)| wtime > start);
                n_loads += 1;
                match fwd {
                    Some((vready, _, producer_cause, fwd_taint)) => {
                        n_load_forwards += 1;
                        data_tainted = fwd_taint;
                        let c = (start + 1).max(vready);
                        (c, if vready > start + 1 { producer_cause } else { start_cause })
                    }
                    None => {
                        if apply_due_faults(&mut injector, start, image, &mut ms) {
                            icache.flush();
                        }
                        let bnb = fetch_gate(ms.engine(), &policy, start);
                        let acc = ms.access(ma.addr, AccessKind::Load, start, bnb);
                        note_tamper(image, ma.addr, acc.auth_ready, &mut exception);
                        data_auth = acc.auth_ready;
                        data_tainted = !image.line_valid(ma.addr);
                        bus_floor = bnb;
                        bus_granted = acc.bus_granted;
                        if acc.l2_miss {
                            n_load_l2_misses += 1;
                        }
                        let mut c = acc.ready;
                        let mut cause = access_cause(&acc, bnb, start, start_cause);
                        if policy.gate_issue && acc.auth_ready > c {
                            // Loaded data unusable until verified.
                            issue_stall_cycles += acc.auth_ready - c;
                            c = acc.auth_ready;
                            cause = StallCause::AuthIssue;
                        }
                        (c, cause)
                    }
                }
            }
            OpClass::Store => {
                let start = fu_mem.take(it, 1);
                let start_cause = if start > it { StallCause::FuBusy } else { it_cause };
                let ma = info.mem.expect("store has a memory access");
                if apply_due_faults(&mut injector, start, image, &mut ms) {
                    icache.flush();
                }
                let bnb = fetch_gate(ms.engine(), &policy, start);
                // Write-allocate fill happens at issue; the commit-time
                // write hits the (now resident) line.
                let acc = ms.access(ma.addr, AccessKind::Store, start, bnb);
                note_tamper(image, ma.addr, acc.auth_ready, &mut exception);
                data_auth = acc.auth_ready;
                bus_floor = bnb;
                bus_granted = acc.bus_granted;
                n_stores += 1;
                if policy.gate_write {
                    store_tag_done = ms.engine().queue().drain_time();
                }
                // Address generation + buffer entry; the store "finishes"
                // for commit purposes once the line is present.
                let mut c = (start + 1).max(acc.ready);
                let mut cause = access_cause(&acc, bnb, start, start_cause);
                if policy.gate_issue && acc.auth_ready > c {
                    c = acc.auth_ready;
                    cause = StallCause::AuthIssue;
                }
                (c, cause)
            }
            _ => {
                let (lat, occ) = exec_latency(&info.inst);
                let pool = match class {
                    OpClass::IntMul => &mut fu_mul,
                    OpClass::FpAlu => &mut fu_fp,
                    OpClass::FpMulDiv => &mut fu_fpmul,
                    _ => &mut fu_int,
                };
                let start = pool.take(it, occ);
                let cause = if start > it {
                    StallCause::FuBusy
                } else if lat >= 12 {
                    StallCause::Exec
                } else {
                    it_cause
                };
                (start + lat, cause)
            }
        };

        let tainted = tainted_at_issue || data_tainted;
        if let Some(dst) = info.inst.dst() {
            reg_ready[reg_slot(dst)] = complete;
            reg_cause[reg_slot(dst)] = complete_cause;
            // Overwriting a register with a clean value clears its taint.
            reg_taint = (reg_taint & !(1 << reg_slot(dst))) | (u64::from(tainted) << reg_slot(dst));
        }

        // ---- control resolution ----
        if let Some((taken, target)) = info.control {
            n_branches += 1;
            if trace_bus {
                report
                    .control_events
                    .push(ControlEvent { pc: info.pc, taken, target, resolved: complete });
            }
            let (ptaken, ptarget) = bp.predict(info.pc, &info.inst);
            let correct = ptaken == taken && (!taken || ptarget == Some(target));
            bp.record_outcome(correct);
            bp.update(info.pc, &info.inst, taken, target);
            if !correct {
                n_mispredicts += 1;
                let redirect = complete + cfg.cpu.mispredict_redirect;
                if redirect > fetch_avail {
                    fetch_cause = StallCause::Mispredict;
                }
                fetch_avail = fetch_avail.max(redirect);
                cur_iline = None;
            } else if taken {
                // Correctly predicted taken transfer: fetch group breaks.
                if ft + 1 > fetch_avail {
                    fetch_cause = StallCause::Frontend;
                }
                fetch_avail = fetch_avail.max(ft + 1);
                cur_iline = None;
            }
        }

        // ---- commit (in order) ----
        let mut cmin = complete;
        let mut commit_cause = complete_cause;
        if prev_commit > cmin {
            cmin = prev_commit;
            commit_cause = prev_commit_cause;
        }
        if policy.gate_commit {
            let gate = iline_auth.max(data_auth);
            if gate > cmin {
                commit_stall_cycles += gate - cmin;
                cmin = gate;
                commit_cause = StallCause::AuthCommit;
            }
        }
        if class == OpClass::Store && stores >= sb {
            // Store buffer full: the oldest outstanding store must
            // release first (authen-then-write back-pressure).
            let head = store_release_ring[stores % sb];
            if head > cmin {
                cmin = head;
                commit_cause = StallCause::AuthWrite;
            }
        }
        let ct = commit_slots.take(cmin);
        prev_commit = ct;
        prev_commit_cause = commit_cause;
        // ---- commit-slot ledger ----
        // The retire sits at global slot `(ct-1)*width + pos`; every
        // slot skipped since the previous retire is lost, charged to
        // this instruction's binding constraint.
        let (_, slot_pos) = commit_slots.occupancy();
        let slot_idx = (ct - 1) * commit_width + u64::from(slot_pos - 1);
        let lost = slot_idx - consumed_slots;
        if lost > 0 {
            report.stall.add(commit_cause, lost);
        }
        consumed_slots = slot_idx + 1;
        commit_ring[(insts as usize) % ruu] = ct;
        if is_mem {
            lsq_ring[mem_ops % lsq] = ct;
            mem_ops += 1;
        }
        let mut store_release: u64 = 0;
        if class == OpClass::Store {
            let release = ct.max(store_tag_done);
            write_hold_cycles += release - ct;
            quiesce = quiesce.max(release);
            store_release_ring[stores % sb] = release;
            stores += 1;
            store_release = release;
            if let Some(ma) = info.mem {
                if ma.width != MemWidth::Double {
                    store_fwd.insert(ma.addr & !3, (complete, release, complete_cause, tainted));
                }
            }
            if store_fwd.len() > (1 << 20) {
                store_fwd.retain(|_, &mut (_, w, _, _)| w > ct);
            }
        }
        if track_exposure && tainted && taint_log.issue.len() < TAINT_CAP {
            taint_log.at_issue.push(tainted_at_issue);
            taint_log.issue.push(it);
            taint_log.commit.push(ct);
            taint_log.store_release.push(if class == OpClass::Store { store_release } else { 0 });
            taint_log.bus_granted.push(if tainted_at_issue { bus_granted } else { 0 });
        }

        // ---- security-invariant oracles ----
        // Alive under `cargo test` (debug assertions) and the `oracles`
        // feature; compiled out of plain release builds. Each asserts
        // the *definition* of its control point against the cycles the
        // model actually produced.
        if cfg!(any(debug_assertions, feature = "oracles")) {
            if policy.gate_issue {
                assert!(
                    it >= iline_auth,
                    "issue-gate oracle: #{insts} pc={:#x} issued at {it} before \
                     I-line verified at {iline_auth}",
                    info.pc,
                );
                assert!(
                    complete >= data_auth,
                    "issue-gate oracle: #{insts} pc={:#x} load usable at {complete} \
                     before data verified at {data_auth}",
                    info.pc,
                );
            }
            if policy.gate_commit {
                assert!(
                    ct >= iline_auth.max(data_auth),
                    "commit-gate oracle: #{insts} pc={:#x} committed at {ct} before \
                     verification at {}",
                    info.pc,
                    iline_auth.max(data_auth),
                );
            }
            if policy.gate_write && class == OpClass::Store {
                assert!(
                    store_release >= store_tag_done,
                    "write-gate oracle: #{insts} pc={:#x} store released at \
                     {store_release} before watermark {store_tag_done}",
                    info.pc,
                );
            }
        }

        // ---- externally visible I/O ----
        if let Some((port, value)) = info.out {
            // Output channels wait for verification under write gating;
            // commit gating already delayed `ct` past verification.
            let vis = if policy.gate_write { ct.max(ms.engine().queue().drain_time()) } else { ct };
            quiesce = quiesce.max(vis);
            report.io_events.push(IoEvent { port, value, cycle: vis });
        }

        if trace_bus && report.inst_timings.len() < crate::TIMING_CAP {
            report.inst_timings.push(crate::InstTiming {
                seq: insts,
                pc: info.pc,
                inst: info.inst,
                fetch: ft,
                dispatch: dt,
                issue: it,
                complete,
                commit: ct,
            });
        }
        if let Some(tr) = tracer.as_mut() {
            tr.record_inst(
                insts,
                info.pc,
                info.inst,
                ft,
                dt,
                it,
                complete,
                ct,
                commit_cause,
                lost,
            );
            if store_release > ct {
                tr.record_store_release(insts, ct, store_release);
            }
        }
        if let Some(obs) = observer.as_mut() {
            obs(&RetireRecord {
                seq: insts,
                pc: info.pc,
                inst: info.inst,
                next_pc: info.next_pc,
                mem: info.mem,
                // `step` already ran, so the state holds post-execution
                // values; FP goes out as raw bits for exact comparison.
                dst: info.inst.dst().map(|d| {
                    let bits = match d {
                        RegRef::Int(r) => u64::from(st.reg(r)),
                        RegRef::Fp(f) => st.freg(f).to_bits(),
                    };
                    (d, bits)
                }),
                out: info.out,
                control: info.control,
                fetch: ft,
                dispatch: dt,
                issue: it,
                complete,
                commit: ct,
                iline_auth,
                data_auth,
                store_tag_done,
                store_release,
                bus_floor,
                bus_granted,
                ifetch_floor,
                ifetch_granted,
            });
        }
        insts += 1;
        last_commit = ct;
    }

    // ---- final report ----
    report.insts = insts;
    report.cycles = last_commit.max(quiesce).max(1);
    // Close the commit-slot ledger: cycles past the last commit are the
    // write-gate drain (store buffer / gated I/O quiescing), anything
    // else left over is end-of-run drain. After this, exactly
    // `sum(stall) + insts == commit_width × cycles`.
    {
        let total_slots = report.cycles * commit_width;
        let mut trailing = total_slots - consumed_slots;
        if quiesce > last_commit {
            let hold = ((quiesce - last_commit) * commit_width).min(trailing);
            report.stall.add(StallCause::AuthWrite, hold);
            trailing -= hold;
        }
        if trailing > 0 {
            report.stall.add(StallCause::Drain, trailing);
        }
        if cfg!(any(debug_assertions, feature = "oracles")) {
            assert_eq!(
                report.stall.total() + insts,
                total_slots,
                "stall-attribution completeness: breakdown + retires != width × cycles",
            );
        }
    }
    report.exception = exception;
    report.counters.set("pipe.insts", insts);
    report.counters.set("pipe.cycles", report.cycles);
    report.counters.add("pipe.loads", n_loads);
    report.counters.add("pipe.load_forwards", n_load_forwards);
    report.counters.add("pipe.load_l2_miss", n_load_l2_misses);
    report.counters.add("pipe.stores", n_stores);
    report.counters.add("pipe.branches", n_branches);
    report.counters.add("pipe.mispredicts", n_mispredicts);
    report.counters.add("auth.issue_stall_cycles", issue_stall_cycles);
    report.counters.add("auth.commit_stall_cycles", commit_stall_cycles);
    report.counters.add("auth.write_hold_cycles", write_hold_cycles);
    report.counters.merge(&bp.counters());
    {
        let (l1i, l1d, l2) = ms.cache_counters();
        for (prefix, c) in [("l1i", l1i), ("l1d", l1d), ("l2", l2)] {
            for (k, v) in c.iter() {
                report.counters.add(&format!("{prefix}.{k}"), v);
            }
        }
    }
    report.counters.merge(&ms.counters());
    for (k, v) in ms.channel().counters().iter() {
        report.counters.add(&format!("bus.{k}"), v);
    }
    for (k, v) in ms.channel().dram_counters().iter() {
        report.counters.add(&format!("dram.{k}"), v);
    }
    for (k, v) in ms.engine().counters().iter() {
        report.counters.add(&format!("ctrl.{k}"), v);
    }
    for (k, v) in ms.engine().queue().counters().iter() {
        report.counters.add(&format!("auth.{k}"), v);
    }
    if let Some(obf) = ms.engine().obfuscator() {
        for (k, v) in obf.counters().iter() {
            report.counters.add(&format!("obf.{k}"), v);
        }
    }
    if let Some(tree) = ms.engine().tree() {
        for (k, v) in tree.counters().iter() {
            report.counters.add(&format!("tree.{k}"), v);
        }
    }
    if let Some(inj) = &injector {
        report.counters.add("faults.injected", inj.applied().len() as u64);
    }
    report.bus_events = ms.channel().trace().events().to_vec();
    if bus_mode != BusTraceMode::Off {
        report.bus_digest = Some(ms.channel().trace().digest());
    }
    let sim_trace = tracer
        .map(|t| t.finish(ms.engine().queue().spans(), ms.channel().transfers(), report.cycles));

    // ---- exposure ledger ----
    // Count every tainted architectural event that beat detection. The
    // per-policy ordering of the paper falls out: issue gating admits
    // none, commit gating only speculative issues, write gating adds
    // commits, fetch gating adds released stores.
    let exposure = match exception {
        Some(e) if track_exposure => {
            let d = e.cycle;
            let mut x = Exposure::default();
            // Column-wise scans over the SoA log.
            for (&ai, &iss) in taint_log.at_issue.iter().zip(&taint_log.issue) {
                if ai && iss < d {
                    x.issued += 1;
                }
            }
            for &c in &taint_log.commit {
                if c < d {
                    x.committed += 1;
                }
            }
            for &s in &taint_log.store_release {
                if s > 0 && s < d {
                    x.stores_released += 1;
                }
            }
            for &b in &taint_log.bus_granted {
                if b > 0 && b < d {
                    x.bus_grants += 1;
                }
            }
            x
        }
        _ => Exposure::default(),
    };
    let cause = match (exception, &injector) {
        (Some(e), Some(inj)) => inj.cause_for(e.line_addr),
        _ => TamperCause::StaticImage,
    };
    let ending = RunEnding { cycle_limit, cause, exposure };
    (report, st, sim_trace, ending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use secsim_isa::{Asm, Reg};

    /// Test shim over the session API (the old free function is
    /// deprecated; tests exercise the same engine through the builder).
    fn simulate<M: SecureImage>(
        image: &mut M,
        entry: u32,
        cfg: &SimConfig,
        trace_bus: bool,
    ) -> SimReport {
        crate::SimSession::new(cfg).trace_bus(trace_bus).run(image, entry).into_report()
    }

    fn program_sum_loop(n: i16) -> (FlatMem, u32) {
        let mut a = Asm::new(0x1000);
        let top = a.new_label();
        a.addi(Reg::R1, Reg::R0, n);
        a.addi(Reg::R2, Reg::R0, 0);
        a.bind(top).unwrap();
        a.add(Reg::R2, Reg::R2, Reg::R1);
        a.addi(Reg::R1, Reg::R1, -1);
        a.bne(Reg::R1, Reg::R0, top);
        a.halt();
        let mut mem = FlatMem::new(0x1000, 1 << 20);
        mem.load_words(0x1000, &a.assemble().unwrap());
        (mem, 0x1000)
    }

    /// Pointer-chasing program over a linked list laid out with a large
    /// stride (every node on its own L2 line).
    fn program_pointer_chase(nodes: u32) -> (FlatMem, u32) {
        let mut a = Asm::new(0x1000);
        let top = a.new_label();
        let done = a.new_label();
        a.li(Reg::R1, 0x10_0000); // head
        a.bind(top).unwrap();
        a.lw(Reg::R1, Reg::R1, 0); // next = *p
        a.bne(Reg::R1, Reg::R0, top);
        a.bind(done).unwrap();
        a.halt();
        let mut mem = FlatMem::new(0x1000, 1 << 24);
        mem.load_words(0x1000, &a.assemble().unwrap());
        // Build list: node i at 0x100000 + i*4096 (page-sized stride).
        for i in 0..nodes {
            let addr = 0x10_0000 + i * 4096;
            let next = if i + 1 == nodes { 0 } else { 0x10_0000 + (i + 1) * 4096 };
            mem.write_u32(addr, next);
        }
        (mem, 0x1000)
    }

    #[test]
    fn simple_loop_runs_and_counts() {
        // Long enough that the ~340-cycle cold start (TLB walk + counter
        // fetch + first decryption) amortizes away.
        let (mut mem, entry) = program_sum_loop(5000);
        let cfg = SimConfig::paper_256k(Policy::baseline());
        let r = simulate(&mut mem, entry, &cfg, false);
        assert!(r.halted);
        assert_eq!(r.insts, 3 + 5000 * 3);
        assert!(r.ipc() > 1.0, "tight ALU loop should exceed IPC 1, got {}", r.ipc());
        assert!(r.exception.is_none());
    }

    #[test]
    fn max_insts_caps_run() {
        let (mut mem, entry) = program_sum_loop(10_000);
        let cfg = SimConfig::paper_256k(Policy::baseline()).with_max_insts(500);
        let r = simulate(&mut mem, entry, &cfg, false);
        assert!(!r.halted);
        assert_eq!(r.insts, 500);
    }

    #[test]
    fn policies_order_ipc_on_memory_bound_code() {
        let (mem, entry) = program_pointer_chase(400);
        let mut ipc = std::collections::HashMap::new();
        for policy in [
            Policy::baseline(),
            Policy::authen_then_write(),
            Policy::authen_then_commit(),
            Policy::authen_then_fetch(),
            Policy::authen_then_issue(),
        ] {
            let mut m = mem.clone();
            let cfg = SimConfig::paper_256k(policy);
            let r = simulate(&mut m, entry, &cfg, false);
            assert!(r.halted);
            ipc.insert(policy.to_string(), r.ipc());
        }
        let base = ipc["baseline-decrypt-only"];
        let issue = ipc["authen-then-issue"];
        let write = ipc["authen-then-write"];
        let fetch = ipc["authen-then-fetch"];
        // Dependent-miss chain: issue gating must hurt; write gating must
        // be nearly free; the ordering of the paper must hold.
        assert!(issue < base, "issue {issue} !< base {base}");
        assert!(write <= base + 1e-9);
        assert!(issue < write, "issue {issue} !< write {write}");
        assert!(fetch < write + 1e-9, "fetch {fetch} !<= write {write}");
        assert!(issue <= fetch + 1e-9, "issue {issue} !<= fetch {fetch}");
        assert!(write / issue > 1.02, "gap too small: write {write} vs issue {issue}");
    }

    #[test]
    fn commit_gating_between_issue_and_write() {
        let (mem, entry) = program_pointer_chase(300);
        let run = |p: Policy| {
            let mut m = mem.clone();
            simulate(&mut m, entry, &SimConfig::paper_256k(p), false).ipc()
        };
        let issue = run(Policy::authen_then_issue());
        let commit = run(Policy::authen_then_commit());
        let write = run(Policy::authen_then_write());
        assert!(issue <= commit + 1e-9, "issue {issue} commit {commit}");
        assert!(commit <= write + 1e-9, "commit {commit} write {write}");
    }

    #[test]
    fn bigger_l2_narrows_the_gap() {
        // With a 16KB footprint everything fits either L2; use a larger
        // footprint so the 256KB config actually misses.
        let (mem, entry) = program_pointer_chase(600);
        let run = |cfg: SimConfig| {
            let mut m = mem.clone();
            simulate(&mut m, entry, &cfg, false).ipc()
        };
        // 600 nodes * 4096B stride ≈ 2.4MB footprint: misses both, but
        // that's fine — here we check that IPC under 1MB ≥ under 256KB.
        let small = run(SimConfig::paper_256k(Policy::authen_then_issue()));
        let large = run(SimConfig::paper_1m(Policy::authen_then_issue()));
        assert!(large >= small * 0.95);
    }

    #[test]
    fn deterministic_across_runs() {
        let (mem, entry) = program_pointer_chase(100);
        let cfg = SimConfig::paper_256k(Policy::commit_plus_fetch());
        let r1 = simulate(&mut mem.clone(), entry, &cfg, false);
        let r2 = simulate(&mut mem.clone(), entry, &cfg, false);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.insts, r2.insts);
    }

    #[test]
    fn bus_trace_captured_when_enabled() {
        let (mut mem, entry) = program_pointer_chase(50);
        let cfg = SimConfig::paper_256k(Policy::authen_then_commit());
        let r = simulate(&mut mem, entry, &cfg, true);
        assert!(!r.bus_events.is_empty());
        // Every node address appears as a demand fetch.
        let addrs: std::collections::HashSet<u32> =
            r.bus_events.iter().map(|e| e.addr & !63).collect();
        assert!(addrs.contains(&0x10_0000));
    }

    #[test]
    fn out_instruction_reported() {
        let mut a = Asm::new(0x1000);
        a.addi(Reg::R1, Reg::R0, 42);
        a.out(Reg::R1, 7);
        a.halt();
        let mut mem = FlatMem::new(0x1000, 1 << 16);
        mem.load_words(0x1000, &a.assemble().unwrap());
        let cfg = SimConfig::paper_256k(Policy::authen_then_commit());
        let r = simulate(&mut mem, 0x1000, &cfg, false);
        assert_eq!(r.io_events.len(), 1);
        assert_eq!(r.io_events[0].value, 42);
        assert_eq!(r.io_events[0].port, 7);
    }

    #[test]
    fn store_load_forwarding_works() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::R1, 0x8000);
        a.addi(Reg::R2, Reg::R0, 123);
        a.sw(Reg::R2, Reg::R1, 0);
        a.lw(Reg::R3, Reg::R1, 0);
        a.halt();
        let mut mem = FlatMem::new(0x1000, 1 << 16);
        mem.load_words(0x1000, &a.assemble().unwrap());
        let cfg = SimConfig::paper_256k(Policy::baseline());
        let r = simulate(&mut mem, 0x1000, &cfg, false);
        assert_eq!(r.counters.get("pipe.load_forwards"), 1);
    }

    #[test]
    fn decode_fault_stops_run() {
        let mut mem = FlatMem::new(0x1000, 4096);
        mem.write_u32(0x1000, 0xF800_0001); // illegal
        let cfg = SimConfig::paper_256k(Policy::baseline());
        let r = simulate(&mut mem, 0x1000, &cfg, false);
        assert!(r.decode_fault);
        assert!(!r.halted);
    }

    #[test]
    fn smaller_ruu_hurts_commit_gating_more() {
        let (mem, entry) = program_pointer_chase(300);
        let run = |cpu: crate::CpuConfig| {
            let mut m = mem.clone();
            let mut cfg = SimConfig::paper_256k(Policy::authen_then_commit());
            cfg.cpu = cpu;
            simulate(&mut m, entry, &cfg, false).ipc()
        };
        let big = run(crate::CpuConfig::paper_reference());
        let small = run(crate::CpuConfig::paper_ruu64());
        assert!(small <= big + 1e-9);
    }

    #[test]
    fn stall_breakdown_is_complete_and_attributes_auth() {
        let (mem, entry) = program_pointer_chase(300);
        let run = |p: Policy| {
            let mut m = mem.clone();
            simulate(&mut m, entry, &SimConfig::paper_256k(p), false)
        };
        let base = run(Policy::baseline());
        let issue = run(Policy::authen_then_issue());
        let commit = run(Policy::authen_then_commit());
        let width = u64::from(crate::CpuConfig::paper_reference().commit_width);
        for r in [&base, &issue, &commit] {
            assert_eq!(
                r.stall.total() + r.insts,
                width * r.cycles,
                "completeness: every commit slot accounted for"
            );
        }
        // Ungated runs charge nothing to auth causes.
        assert_eq!(base.stall.get(StallCause::AuthIssue), 0);
        assert_eq!(base.stall.get(StallCause::AuthCommit), 0);
        // The dependent-miss chain shows up as off-chip stall everywhere.
        assert!(base.stall.get(StallCause::DramBus) > 0);
        // Each gate charges its own cause, and the harsher gate loses
        // more slots — mirroring the IPC ordering issue < commit.
        assert!(issue.stall.get(StallCause::AuthIssue) > 0);
        assert!(commit.stall.get(StallCause::AuthCommit) > 0);
        assert!(
            issue.stall.get(StallCause::AuthIssue) > commit.stall.get(StallCause::AuthCommit),
            "issue gate must stall more than commit gate on dependent misses"
        );
    }

    #[test]
    fn event_trace_captures_all_sources() {
        use crate::trace::{TraceConfig, TraceEvent};
        let (mut mem, entry) = program_pointer_chase(60);
        let cfg = SimConfig::paper_256k(Policy::authen_then_commit());
        let out = crate::SimSession::new(&cfg)
            .trace(TraceConfig::default())
            .run(&mut mem, entry)
            .into_run();
        let trace = out.trace.as_ref().expect("trace requested");
        let has = |f: &dyn Fn(&TraceEvent) -> bool| trace.events.iter().any(f);
        assert!(has(&|e| matches!(e, TraceEvent::Inst { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::Auth { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::Bus(_))));
        assert!(!trace.ruu_occupancy.is_empty());
        assert!(!trace.authq_occupancy.is_empty());
        // The exported document is valid JSON with trace events.
        let doc = trace.to_chrome();
        assert!(!doc.get("traceEvents").unwrap().as_array().unwrap().is_empty());
        // And the traced run's timing matches an untraced run exactly.
        let plain = simulate(&mut mem.clone(), entry, &cfg, false);
        assert_eq!(plain.cycles, out.report.cycles);
    }

    /// The Gantt chart's issue marker is the issue slot the retire
    /// observer reports, also when a burst of instructions waits on one
    /// missing load and the issue width spreads them over several
    /// cycles after their operand is ready.
    #[test]
    fn inst_timings_issue_is_the_issue_slot() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::R1, 0x10_0000);
        a.lw(Reg::R2, Reg::R1, 0);
        for _ in 0..24 {
            a.add(Reg::R3, Reg::R2, Reg::R2);
        }
        a.halt();
        let mut mem = FlatMem::new(0x1000, 2 << 20);
        mem.load_words(0x1000, &a.assemble().unwrap());
        let cfg = SimConfig::paper_256k(Policy::authen_then_commit());
        let mut issued = Vec::new();
        let r = crate::SimSession::new(&cfg)
            .trace_bus(true)
            .observe(|rec| issued.push((rec.seq, rec.issue)))
            .run(&mut mem, 0x1000)
            .into_report();
        let drawn: Vec<_> = r.inst_timings.iter().map(|t| (t.seq, t.issue)).collect();
        assert_eq!(drawn, issued);
        // The adds are ready together and issue four a cycle.
        let adds: Vec<u64> = r
            .inst_timings
            .iter()
            .filter(|t| matches!(t.inst, Inst::Add { .. }))
            .map(|t| t.issue)
            .collect();
        assert_eq!(adds.len(), 24);
        assert!(adds[23] > adds[0], "issue width spreads the burst: {adds:?}");
    }
}
