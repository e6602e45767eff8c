//! Cycle accounting and structured event tracing.
//!
//! Two observability layers live here:
//!
//! * **Stall attribution** (always on, allocation-free): every commit
//!   slot the machine *loses* — `commit_width × cycles` minus retired
//!   instructions — is charged to exactly one [`StallCause`],
//!   CPI-stack style. Causes propagate through the dependence graph:
//!   an ALU op waiting on a load that missed to DRAM charges its lost
//!   slots to [`StallCause::DramBus`], not to a generic "data
//!   dependence". The totals land in [`StallBreakdown`] on
//!   [`SimReport`](crate::SimReport), and the completeness invariant
//!   `sum(breakdown) + insts == commit_width × cycles` holds exactly
//!   (checked by `secsim-check`).
//!
//! * **Event tracing** (zero-cost when off): with a [`TraceConfig`],
//!   [`SimSession`](crate::SimSession) records ring-buffered
//!   [`TraceEvent`]s — per-instruction stage spans, store-buffer holds,
//!   MAC-queue verification windows, bus/DRAM transfers — plus RUU and
//!   auth-queue occupancy series, and exports them as Chrome
//!   `trace_event` JSON via [`SimTrace::to_chrome`] (loadable in
//!   `about://tracing` / Perfetto).

use secsim_isa::Inst;
use secsim_mem::{BusKind, BusXfer};
use secsim_stats::{Json, OccupancySeries, Timeline};
use std::collections::VecDeque;

/// Why a commit slot was lost (or, transitively, why a value was late).
///
/// Ordered roughly front-to-back through the pipe; the attribution
/// cascade keeps the *earliest binding* cause on ties so slots are never
/// double-charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallCause {
    /// Fetch/decode/commit bandwidth and pipeline-depth latency — the
    /// residual cost of being a pipeline at all.
    Frontend,
    /// Instruction-line miss (L1I/L2/off-chip fetch path).
    IcacheMiss,
    /// Branch mispredict resolve + redirect.
    Mispredict,
    /// *Authen-then-fetch*: the bus grant waited for the verification
    /// watermark.
    FetchGate,
    /// RUU full: dispatch waited for the commit of the instruction
    /// `ruu_size` ago.
    RuuFull,
    /// LSQ full: dispatch waited for an older memory op to commit.
    LsqFull,
    /// Issue-bandwidth or functional-unit contention.
    FuBusy,
    /// Long-latency execution (divide and friends).
    Exec,
    /// Data-side on-chip miss (L1D miss hitting L2).
    DcacheMiss,
    /// Off-chip latency and bus/DRAM contention on the data side.
    DramBus,
    /// *Authen-then-issue*: instruction or loaded value unusable until
    /// verified.
    AuthIssue,
    /// *Authen-then-commit*: retirement waited for verification.
    AuthCommit,
    /// *Authen-then-write*: store-buffer release watermark (including
    /// back-pressure from a full store buffer and end-of-run drain).
    AuthWrite,
    /// Slots after the last commit while the machine quiesced (runs
    /// capped by `max_insts`, fault tails).
    Drain,
}

impl StallCause {
    /// Number of distinct causes.
    pub const COUNT: usize = 14;

    /// All causes, in display order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::Frontend,
        StallCause::IcacheMiss,
        StallCause::Mispredict,
        StallCause::FetchGate,
        StallCause::RuuFull,
        StallCause::LsqFull,
        StallCause::FuBusy,
        StallCause::Exec,
        StallCause::DcacheMiss,
        StallCause::DramBus,
        StallCause::AuthIssue,
        StallCause::AuthCommit,
        StallCause::AuthWrite,
        StallCause::Drain,
    ];

    /// Stable snake_case name (used in JSON and result tables).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Frontend => "frontend",
            StallCause::IcacheMiss => "icache_miss",
            StallCause::Mispredict => "mispredict",
            StallCause::FetchGate => "fetch_gate",
            StallCause::RuuFull => "ruu_full",
            StallCause::LsqFull => "lsq_full",
            StallCause::FuBusy => "fu_busy",
            StallCause::Exec => "exec",
            StallCause::DcacheMiss => "dcache_miss",
            StallCause::DramBus => "dram_bus",
            StallCause::AuthIssue => "auth_issue",
            StallCause::AuthCommit => "auth_commit",
            StallCause::AuthWrite => "auth_write",
            StallCause::Drain => "drain",
        }
    }

    /// Inverse of [`StallCause::name`].
    pub fn from_name(name: &str) -> Option<StallCause> {
        StallCause::ALL.into_iter().find(|c| c.name() == name)
    }

    fn index(self) -> usize {
        StallCause::ALL.iter().position(|&c| c == self).expect("cause is in ALL")
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Lost commit slots per [`StallCause`], accumulated over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallBreakdown {
    slots: [u64; StallCause::COUNT],
}

impl Default for StallBreakdown {
    fn default() -> Self {
        Self { slots: [0; StallCause::COUNT] }
    }
}

impl StallBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `slots` lost slots to `cause`.
    pub fn add(&mut self, cause: StallCause, slots: u64) {
        self.slots[cause.index()] += slots;
    }

    /// Slots charged to `cause`.
    pub fn get(&self, cause: StallCause) -> u64 {
        self.slots[cause.index()]
    }

    /// Total lost slots across all causes.
    pub fn total(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// `(cause, slots)` pairs in display order (zeros included).
    pub fn iter(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.into_iter().map(move |c| (c, self.slots[c.index()]))
    }

    /// Serializes as a name→count object (all causes, fixed order).
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.iter().map(|(c, n)| (c.name().to_string(), Json::UInt(n))).collect(),
        )
    }

    /// Inverse of [`StallBreakdown::to_json`]; `None` on any unknown
    /// or non-integer entry.
    pub fn from_json(v: &Json) -> Option<StallBreakdown> {
        let mut b = StallBreakdown::new();
        match v {
            Json::Object(pairs) => {
                for (name, count) in pairs {
                    b.add(StallCause::from_name(name)?, count.as_u64()?);
                }
                Some(b)
            }
            _ => None,
        }
    }
}

/// Event-trace configuration for [`SimSession`](crate::SimSession).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity per event source: only the last `capacity` events
    /// of each kind are kept (occupancy series always cover the whole
    /// run).
    pub capacity: usize,
    /// Occupancy-counter sampling interval, cycles.
    pub sample_interval: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { capacity: 4096, sample_interval: 64 }
    }
}

/// One structured trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// Per-instruction stage span (fetch → commit) with its commit-time
    /// binding constraint and the commit slots lost ahead of it.
    Inst {
        /// Dynamic instruction index.
        seq: u64,
        /// Program counter.
        pc: u32,
        /// Decoded instruction.
        inst: Inst,
        /// Fetch cycle.
        fetch: u64,
        /// Dispatch cycle.
        dispatch: u64,
        /// Issue cycle.
        issue: u64,
        /// Execution-complete cycle.
        complete: u64,
        /// Commit cycle.
        commit: u64,
        /// Binding constraint on the commit time.
        cause: StallCause,
        /// Commit slots lost immediately before this retire.
        lost: u64,
    },
    /// A store held in the store buffer past commit (authen-then-write).
    StoreRelease {
        /// Dynamic instruction index of the store.
        seq: u64,
        /// Commit cycle.
        commit: u64,
        /// Buffer-release cycle (`>= commit`).
        release: u64,
    },
    /// One MAC-queue verification window.
    Auth {
        /// Request id (1-based).
        id: u64,
        /// Cycle the block's data was home.
        arrive: u64,
        /// Cycle the MAC engine started on it.
        start: u64,
        /// Verification-complete cycle.
        done: u64,
    },
    /// One fully-timed bus/DRAM transaction.
    Bus(BusXfer),
}

/// Everything an event-traced run captured; export with
/// [`SimTrace::to_chrome`].
#[derive(Debug, Clone)]
pub struct SimTrace {
    /// Captured events (per-source ring-buffered to
    /// [`TraceConfig::capacity`]).
    pub events: Vec<TraceEvent>,
    /// RUU occupancy deltas over the whole run.
    pub ruu_occupancy: OccupancySeries,
    /// Auth-queue occupancy deltas (data home → verified) over the
    /// whole run.
    pub authq_occupancy: OccupancySeries,
    /// Total run cycles.
    pub cycles: u64,
    /// Sampling interval the occupancy counters are exported at.
    pub sample_interval: u64,
}

fn bus_kind_label(kind: BusKind) -> &'static str {
    match kind {
        BusKind::InstrFetch => "ifetch",
        BusKind::DataFetch => "dfetch",
        BusKind::Writeback => "writeback",
        BusKind::MacFetch => "mac fetch",
        BusKind::MacWrite => "mac write",
        BusKind::CounterFetch => "counter fetch",
        BusKind::RemapFetch => "remap fetch",
        BusKind::RemapWrite => "remap write",
        BusKind::TreeFetch => "tree fetch",
    }
}

impl SimTrace {
    /// Renders the Chrome `trace_event` JSON document: pipeline spans on
    /// the `pipeline` track, store-buffer holds, MAC-queue windows,
    /// bus-arbitration waits and DRAM bursts each on their own track,
    /// plus `ruu_occupancy` / `authq_occupancy` counters.
    pub fn to_chrome(&self) -> Json {
        let mut tl = Timeline::new();
        for e in &self.events {
            match *e {
                TraceEvent::Inst {
                    seq,
                    pc,
                    inst,
                    fetch,
                    commit,
                    cause,
                    lost,
                    dispatch,
                    issue,
                    complete,
                } => {
                    tl.push_span_args(
                        "pipeline",
                        &inst.to_string(),
                        fetch,
                        commit,
                        vec![
                            ("seq".to_string(), Json::UInt(seq)),
                            ("pc".to_string(), Json::Str(format!("{pc:#x}"))),
                            ("dispatch".to_string(), Json::UInt(dispatch)),
                            ("issue".to_string(), Json::UInt(issue)),
                            ("complete".to_string(), Json::UInt(complete)),
                            ("cause".to_string(), Json::Str(cause.name().to_string())),
                            ("lost_slots".to_string(), Json::UInt(lost)),
                        ],
                    );
                }
                TraceEvent::StoreRelease { seq, commit, release } => {
                    tl.push_span_args(
                        "store-buffer",
                        "hold",
                        commit,
                        release,
                        vec![("seq".to_string(), Json::UInt(seq))],
                    );
                }
                TraceEvent::Auth { id, arrive, start, done } => {
                    tl.push_span_args(
                        "mac-queue",
                        "verify",
                        start,
                        done,
                        vec![
                            ("id".to_string(), Json::UInt(id)),
                            ("arrive".to_string(), Json::UInt(arrive)),
                        ],
                    );
                }
                TraceEvent::Bus(x) => {
                    if x.granted > x.requested {
                        tl.push_span("bus-arb", bus_kind_label(x.kind), x.requested, x.granted);
                    }
                    tl.push_span_args(
                        "dram",
                        bus_kind_label(x.kind),
                        x.granted,
                        x.done,
                        vec![
                            ("addr".to_string(), Json::Str(format!("{:#x}", x.addr))),
                            ("bytes".to_string(), Json::UInt(u64::from(x.bytes))),
                            ("first_ready".to_string(), Json::UInt(x.first_ready)),
                        ],
                    );
                }
            }
        }
        for (ts, level) in self.ruu_occupancy.samples(self.sample_interval) {
            tl.push_counter("ruu_occupancy", ts, level as f64);
        }
        for (ts, level) in self.authq_occupancy.samples(self.sample_interval) {
            tl.push_counter("authq_occupancy", ts, level as f64);
        }
        tl.to_chrome_trace()
    }
}

/// Live event recorder threaded through the pipeline loop (only when a
/// [`TraceConfig`] is set on the session).
#[derive(Debug)]
pub(crate) struct Tracer {
    cfg: TraceConfig,
    insts: VecDeque<TraceEvent>,
    releases: VecDeque<TraceEvent>,
    ruu: OccupancySeries,
}

impl Tracer {
    pub(crate) fn new(cfg: TraceConfig) -> Self {
        Self {
            cfg,
            insts: VecDeque::new(),
            releases: VecDeque::new(),
            ruu: OccupancySeries::new(),
        }
    }

    fn push_ring(ring: &mut VecDeque<TraceEvent>, cap: usize, ev: TraceEvent) {
        if cap == 0 {
            return;
        }
        if ring.len() == cap {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_inst(
        &mut self,
        seq: u64,
        pc: u32,
        inst: Inst,
        fetch: u64,
        dispatch: u64,
        issue: u64,
        complete: u64,
        commit: u64,
        cause: StallCause,
        lost: u64,
    ) {
        self.ruu.delta(dispatch, 1);
        self.ruu.delta(commit, -1);
        Self::push_ring(
            &mut self.insts,
            self.cfg.capacity,
            TraceEvent::Inst { seq, pc, inst, fetch, dispatch, issue, complete, commit, cause, lost },
        );
    }

    pub(crate) fn record_store_release(&mut self, seq: u64, commit: u64, release: u64) {
        Self::push_ring(
            &mut self.releases,
            self.cfg.capacity,
            TraceEvent::StoreRelease { seq, commit, release },
        );
    }

    /// Folds in the post-run sources (MAC-queue spans, bus transfer log)
    /// and produces the final [`SimTrace`].
    pub(crate) fn finish(
        self,
        auth_spans: &[(u64, u64, u64)],
        bus: &[BusXfer],
        cycles: u64,
    ) -> SimTrace {
        let cap = self.cfg.capacity;
        let mut events: Vec<TraceEvent> = self.insts.into_iter().collect();
        events.extend(self.releases);
        let mut authq = OccupancySeries::new();
        let mut auth_ring: VecDeque<TraceEvent> = VecDeque::new();
        for (id0, &(arrive, start, done)) in auth_spans.iter().enumerate() {
            authq.delta(arrive, 1);
            authq.delta(done, -1);
            Self::push_ring(
                &mut auth_ring,
                cap,
                TraceEvent::Auth { id: id0 as u64 + 1, arrive, start, done },
            );
        }
        events.extend(auth_ring);
        let skip = bus.len().saturating_sub(cap);
        events.extend(bus[skip..].iter().map(|&x| TraceEvent::Bus(x)));
        SimTrace {
            events,
            ruu_occupancy: self.ruu,
            authq_occupancy: authq,
            cycles,
            sample_interval: self.cfg.sample_interval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_names_round_trip() {
        for c in StallCause::ALL {
            assert_eq!(StallCause::from_name(c.name()), Some(c));
            assert_eq!(c.to_string(), c.name());
        }
        assert_eq!(StallCause::from_name("nope"), None);
    }

    #[test]
    fn breakdown_accumulates_and_round_trips() {
        let mut b = StallBreakdown::new();
        b.add(StallCause::AuthIssue, 100);
        b.add(StallCause::DramBus, 7);
        b.add(StallCause::AuthIssue, 1);
        assert_eq!(b.get(StallCause::AuthIssue), 101);
        assert_eq!(b.total(), 108);
        let back = StallBreakdown::from_json(&b.to_json()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn breakdown_rejects_unknown_causes() {
        let j = Json::obj(vec![("not_a_cause", Json::UInt(1))]);
        assert!(StallBreakdown::from_json(&j).is_none());
        assert!(StallBreakdown::from_json(&Json::Null).is_none());
    }

    #[test]
    fn tracer_ring_keeps_last_capacity_events() {
        let mut t = Tracer::new(TraceConfig { capacity: 2, sample_interval: 16 });
        for seq in 0..5u64 {
            t.record_store_release(seq, seq * 10, seq * 10 + 3);
        }
        let trace = t.finish(&[], &[], 100);
        let seqs: Vec<u64> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StoreRelease { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![3, 4]);
    }
}
