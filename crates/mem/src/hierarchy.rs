//! The L1I/L1D/L2 cache hierarchy, glued to the bus channel through a
//! pluggable [`FillEngine`].
//!
//! `secsim-core` implements [`FillEngine`] with the secure memory
//! controller (counter-mode decryption overlap, MAC authentication, hash
//! tree, address obfuscation); [`PlainFill`] is the unprotected
//! reference. The hierarchy itself is policy-agnostic: it reports, for
//! every access, when the value becomes *usable* (decrypted) and when it
//! becomes *verified* (authenticated), and the pipeline in `secsim-cpu`
//! decides which of those two moments gates which pipeline stage — that
//! decision is exactly the paper's subject.

use crate::cache::{Cache, CacheConfig};
use crate::channel::{BusKind, Channel};
use crate::dram::DramConfig;
use crate::tlb::{Tlb, TlbConfig};
use secsim_stats::CounterSet;

/// What kind of access the pipeline is making.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch.
    IFetch,
    /// Data load.
    Load,
    /// Data store (write-allocate).
    Store,
}

/// A request for an external (off-chip) line fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillRequest {
    /// L2-line-aligned address.
    pub line_addr: u32,
    /// The precise demand address within the line (critical-word-first
    /// column address — this is what an eavesdropper reads off the bus
    /// pins, at the data-bus width granularity).
    pub demand_addr: u32,
    /// Line size in bytes.
    pub bytes: u32,
    /// Demand access kind that triggered the fill.
    pub kind: AccessKind,
    /// Cycle at which the miss reached the memory controller.
    pub now: u64,
    /// Earliest cycle the bus may be granted (authen-then-fetch).
    pub bus_not_before: u64,
}

/// Timing outcome of an external line fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillResponse {
    /// Cycle the ciphertext (critical chunk) arrived on chip.
    pub data_ready: u64,
    /// Cycle the plaintext became usable (decryption done).
    pub decrypt_ready: u64,
    /// Cycle integrity verification completes (`0` if the engine does
    /// not authenticate).
    pub auth_ready: u64,
    /// Authentication-queue request id (`0` if none).
    pub auth_id: u64,
    /// Cycle the demand bus transfer's address phase was granted (`0`
    /// if the fill put nothing on the bus). Always `>=` the request's
    /// `bus_not_before` — the authen-then-fetch invariant.
    pub bus_granted: u64,
}

impl FillResponse {
    /// A response for data that needs no decryption or verification.
    pub fn immediate(ready: u64) -> Self {
        Self { data_ready: ready, decrypt_ready: ready, auth_ready: 0, auth_id: 0, bus_granted: 0 }
    }
}

/// The hook through which the secure memory controller injects
/// cryptographic timing into every off-chip transfer.
pub trait FillEngine {
    /// Schedules the line fetch (plus any metadata traffic: counters,
    /// MACs, tree nodes, remap entries) and returns its timing.
    /// [`MemSystem::access`] calls it once per L2 demand miss, and once
    /// more for a next-line prefetch.
    fn fill(&mut self, req: FillRequest, chan: &mut Channel) -> FillResponse;

    /// Schedules a dirty-line writeback (plus metadata updates).
    fn writeback(&mut self, line_addr: u32, bytes: u32, now: u64, chan: &mut Channel);
}

/// The unprotected reference engine: raw fetches, no crypto.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainFill;

impl FillEngine for PlainFill {
    fn fill(&mut self, req: FillRequest, chan: &mut Channel) -> FillResponse {
        let kind = match req.kind {
            AccessKind::IFetch => BusKind::InstrFetch,
            AccessKind::Load | AccessKind::Store => BusKind::DataFetch,
        };
        // The bus shows the critical-word column address (8-byte
        // granularity), not just the line address.
        let bus_addr = req.line_addr | (req.demand_addr & (req.bytes - 1) & !7);
        let t = chan.transfer(bus_addr, req.bytes, kind, req.now, req.bus_not_before);
        FillResponse {
            data_ready: t.first_ready,
            decrypt_ready: t.first_ready,
            auth_ready: 0,
            auth_id: 0,
            bus_granted: t.granted,
        }
    }

    fn writeback(&mut self, line_addr: u32, bytes: u32, now: u64, chan: &mut Channel) {
        chan.transfer(line_addr, bytes, BusKind::Writeback, now, 0);
    }
}

/// Configuration of the whole hierarchy (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSystemConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// SDRAM timing.
    pub dram: DramConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Tagged next-line prefetch on L2 demand misses (an extension the
    /// paper does not evaluate; default off). Prefetched lines go
    /// through the full secure fill path — they are decrypted *and*
    /// authenticated like any demand fetch, and their bus grants obey
    /// the same authen-then-fetch gate as the triggering miss.
    pub prefetch_next_line: bool,
}

impl MemSystemConfig {
    /// Paper Table 3 with the 256 KB L2.
    pub fn paper_256k() -> Self {
        Self {
            l1i: CacheConfig::paper_l1(),
            l1d: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2_256k(),
            dram: DramConfig::paper_reference(),
            itlb: TlbConfig::paper_reference(),
            dtlb: TlbConfig::paper_reference(),
            prefetch_next_line: false,
        }
    }

    /// Paper Table 3 with the 1 MB L2.
    pub fn paper_1m() -> Self {
        Self { l2: CacheConfig::paper_l2_1m(), ..Self::paper_256k() }
    }
}

/// Result of one pipeline-visible memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccessResult {
    /// Cycle the value is usable by dependents (plaintext available).
    pub ready: u64,
    /// Cycle the line's integrity verification completes (`0` = already
    /// verified / not authenticated).
    pub auth_ready: u64,
    /// Authentication request id for the line (`0` = none).
    pub auth_id: u64,
    /// Whether this access missed in L2 (went off-chip).
    pub l2_miss: bool,
    /// Whether this access missed in L1.
    pub l1_miss: bool,
    /// Cycle the demand bus transfer triggered *by this access* was
    /// granted (`0` when the access caused no off-chip transfer, i.e.
    /// any cache hit). The differential harness checks this against the
    /// authen-then-fetch `bus_not_before` floor.
    pub bus_granted: u64,
}

/// The two-level hierarchy with pluggable secure fill engine.
///
/// # Examples
///
/// ```
/// use secsim_mem::{AccessKind, MemSystem, MemSystemConfig, PlainFill};
///
/// let mut ms = MemSystem::new(MemSystemConfig::paper_256k(), PlainFill);
/// let cold = ms.access(0x8000, AccessKind::Load, 0, 0);
/// assert!(cold.l2_miss);
/// let warm = ms.access(0x8004, AccessKind::Load, cold.ready, 0);
/// assert!(!warm.l1_miss);
/// assert!(warm.ready < cold.ready + 10);
/// ```
#[derive(Debug, Clone)]
pub struct MemSystem<F> {
    cfg: MemSystemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    chan: Channel,
    engine: F,
    /// Per-L2-way fill metadata, indexed by [`CacheAccess::way`]
    /// (`crate::cache::CacheAccess::way`): a slot is meaningful exactly
    /// while the L2 line it was written for stays resident, so lookups
    /// go through `Cache::probe_way` and never need a hash map.
    line_meta: Vec<FillResponse>,
    // Plain fields: bumped on every L2 lookup.
    l2_hits: u64,
    l2_misses: u64,
    l2_prefetches: u64,
}

impl<F: FillEngine> MemSystem<F> {
    /// Creates a cold hierarchy.
    pub fn new(cfg: MemSystemConfig, engine: F) -> Self {
        Self {
            cfg,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
            chan: Channel::new(cfg.dram),
            engine,
            line_meta: vec![FillResponse::immediate(0); Cache::new(cfg.l2).way_slots()],
            l2_hits: 0,
            l2_misses: 0,
            l2_prefetches: 0,
        }
    }

    /// Performs an access at `addr` starting at cycle `now`.
    ///
    /// `bus_not_before` is the earliest cycle any off-chip fetch this
    /// access triggers may be granted (the *authen-then-fetch* gate; pass
    /// 0 when the policy does not gate fetches).
    pub fn access(
        &mut self,
        addr: u32,
        kind: AccessKind,
        now: u64,
        bus_not_before: u64,
    ) -> MemAccessResult {
        let is_ifetch = kind == AccessKind::IFetch;
        let is_store = kind == AccessKind::Store;
        let tlb = if is_ifetch { &mut self.itlb } else { &mut self.dtlb };
        let t0 = now + tlb.access(addr);

        let l1 = if is_ifetch { &mut self.l1i } else { &mut self.l1d };
        let l1_lat = l1.config().latency;
        let l1_res = l1.access(addr, is_store);
        let l2_line = self.cfg.l2.line_addr(addr);

        if l1_res.hit {
            let base = t0 + l1_lat;
            return self.result_from_meta(l2_line, base, false, false);
        }

        // L1 miss: write back dirty L1 victim into L2 (or memory).
        if let Some(v) = l1_res.victim {
            if v.dirty {
                let v_l2_line = self.cfg.l2.line_addr(v.line_addr);
                if !self.l2.mark_dirty(v_l2_line) {
                    // Victim not in L2 (non-inclusive corner): write it
                    // straight to memory.
                    self.engine.writeback(
                        v_l2_line,
                        self.cfg.l2.line_bytes,
                        t0,
                        &mut self.chan,
                    );
                }
            }
        }

        let l2_lat = self.l2.config().latency;
        let l2_res = self.l2.access(addr, false);
        if l2_res.hit {
            self.l2_hits += 1;
            let base = t0 + l1_lat + l2_lat;
            return self.result_from_meta(l2_line, base, true, false);
        }

        // L2 miss: write back dirty L2 victim, then fill through the
        // engine.
        self.l2_misses += 1;
        let miss_time = t0 + l1_lat + l2_lat;
        if let Some(v) = l2_res.victim {
            // The victim's meta slot is `l2_res.way`, overwritten below
            // with the new line's response — no explicit removal needed.
            if v.dirty {
                self.engine.writeback(v.line_addr, self.cfg.l2.line_bytes, miss_time, &mut self.chan);
            }
        }
        let line_bytes = self.cfg.l2.line_bytes;
        let demand_req = FillRequest {
            line_addr: l2_line,
            demand_addr: addr,
            bytes: line_bytes,
            kind,
            now: miss_time,
            bus_not_before,
        };

        let resp = self.engine.fill(demand_req, &mut self.chan);
        self.line_meta[l2_res.way] = resp;

        // Next-line prefetch: allocate the line in L2, write back its
        // dirty victim, then fill it starting when the demand line's data
        // is home.
        if self.cfg.prefetch_next_line {
            let next = l2_line.wrapping_add(line_bytes);
            if !self.l2.probe(next) {
                let pf = self.l2.access(next, false);
                if let Some(v) = pf.victim.filter(|v| v.dirty) {
                    self.engine.writeback(v.line_addr, line_bytes, miss_time, &mut self.chan);
                }
                let pf_req = FillRequest {
                    line_addr: next,
                    demand_addr: next,
                    now: resp.data_ready,
                    ..demand_req
                };
                self.line_meta[pf.way] = self.engine.fill(pf_req, &mut self.chan);
                self.l2_prefetches += 1;
            }
        }
        MemAccessResult {
            ready: resp.decrypt_ready.max(miss_time),
            auth_ready: resp.auth_ready,
            auth_id: resp.auth_id,
            l2_miss: true,
            l1_miss: true,
            bus_granted: resp.bus_granted,
        }
    }

    fn result_from_meta(
        &self,
        l2_line: u32,
        base: u64,
        l1_miss: bool,
        l2_miss: bool,
    ) -> MemAccessResult {
        match self.l2.probe_way(l2_line) {
            Some(way) => {
                let meta = &self.line_meta[way];
                MemAccessResult {
                    ready: base.max(meta.decrypt_ready),
                    auth_ready: meta.auth_ready,
                    auth_id: meta.auth_id,
                    l2_miss,
                    l1_miss,
                    bus_granted: 0,
                }
            }
            None => MemAccessResult {
                ready: base,
                auth_ready: 0,
                auth_id: 0,
                l2_miss,
                l1_miss,
                bus_granted: 0,
            },
        }
    }

    /// Drops the line containing `addr` from both L1s and the L2 and
    /// forgets its fill metadata, so the next access re-fetches it from
    /// the (possibly corrupted) off-chip image.
    ///
    /// This is the fault-injection hook: corrupting DRAM or the bus
    /// cannot retroactively change clean on-chip copies, so the injector
    /// pairs every off-chip corruption with a poison of the covering
    /// line — the next demand access then observes the corruption
    /// through a genuine re-fill. Dirty copies are dropped without a
    /// writeback (the injected corruption wins over the victim's data,
    /// exactly what a mid-run DRAM upset does to an unflushed line).
    ///
    /// Returns whether any cached state was dropped.
    pub fn poison_line(&mut self, addr: u32) -> bool {
        let l2_line = self.cfg.l2.line_addr(addr);
        // The line's meta slot dies with L2 residency (lookups go
        // through `probe_way`), so invalidating the caches is enough.
        let mut any = false;
        // L1 lines may be smaller than the L2 line: drop every covered one.
        let step = self.cfg.l1i.line_bytes.min(self.cfg.l1d.line_bytes);
        let mut a = l2_line;
        while a < l2_line + self.cfg.l2.line_bytes {
            any |= self.l1i.invalidate(a).is_some();
            any |= self.l1d.invalidate(a).is_some();
            a += step;
        }
        any | self.l2.invalidate(l2_line).is_some()
    }

    /// The fill engine (e.g. to query the authentication queue).
    pub fn engine(&self) -> &F {
        &self.engine
    }

    /// Mutable access to the fill engine.
    pub fn engine_mut(&mut self) -> &mut F {
        &mut self.engine
    }

    /// The bus channel (trace, counters).
    pub fn channel(&self) -> &Channel {
        &self.chan
    }

    /// Mutable channel access (enable tracing, direct metadata traffic).
    pub fn channel_mut(&mut self) -> &mut Channel {
        &mut self.chan
    }

    /// The L2-line-aligned address for `addr`.
    pub fn l2_line_addr(&self, addr: u32) -> u32 {
        self.cfg.l2.line_addr(addr)
    }

    /// Hierarchy-level counters (`l2.hit` / `l2.miss` /
    /// `l2.prefetch`), materialized on demand.
    pub fn counters(&self) -> CounterSet {
        [("l2.hit", self.l2_hits), ("l2.miss", self.l2_misses), ("l2.prefetch", self.l2_prefetches)]
            .into_iter()
            .collect()
    }

    /// Per-cache counters: `(l1i, l1d, l2)`.
    pub fn cache_counters(&self) -> (CounterSet, CounterSet, CounterSet) {
        (self.l1i.counters(), self.l1d.counters(), self.l2.counters())
    }

    /// The configuration.
    pub fn config(&self) -> &MemSystemConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms() -> MemSystem<PlainFill> {
        MemSystem::new(MemSystemConfig::paper_256k(), PlainFill)
    }

    #[test]
    fn cold_miss_goes_off_chip() {
        let mut m = ms();
        let r = m.access(0x10_0000, AccessKind::Load, 0, 0);
        assert!(r.l1_miss && r.l2_miss);
        assert!(r.ready > 100); // DRAM latency dominates
        assert_eq!(m.counters().get("l2.miss"), 1);
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut m = ms();
        let cold = m.access(0x10_0000, AccessKind::Load, 0, 0);
        let warm = m.access(0x10_0000, AccessKind::Load, cold.ready + 10, 0);
        assert!(!warm.l1_miss);
        // TLB hit + L1 hit = 1 cycle.
        assert_eq!(warm.ready, cold.ready + 10 + 1);
    }

    #[test]
    fn l2_hit_after_l1_conflict() {
        let mut m = ms();
        let a = 0x10_0000u32;
        let b = a + 16 * 1024; // same L1 set (16KB DM), different L2 set? 256KB 4-way: different tag
        let r0 = m.access(a, AccessKind::Load, 0, 0);
        let t1 = r0.ready + 1;
        let r1 = m.access(b, AccessKind::Load, t1, 0);
        let t2 = r1.ready + 1;
        // a was evicted from L1 by b but still lives in L2.
        let r2 = m.access(a, AccessKind::Load, t2, 0);
        assert!(r2.l1_miss);
        assert!(!r2.l2_miss);
        assert_eq!(r2.ready, t2 + 1 + 4); // L1 + L2 latency
    }

    #[test]
    fn ifetch_uses_separate_l1() {
        let mut m = ms();
        let addr = 0x20_0000;
        let r0 = m.access(addr, AccessKind::IFetch, 0, 0);
        assert!(r0.l2_miss);
        // Same line as data: L1D misses but L2 hits.
        let r1 = m.access(addr, AccessKind::Load, r0.ready, 0);
        assert!(r1.l1_miss);
        assert!(!r1.l2_miss);
    }

    #[test]
    fn bus_not_before_propagates_to_fill() {
        let mut m = ms();
        let r = m.access(0x30_0000, AccessKind::Load, 0, 9999);
        assert!(r.ready > 9999);
    }

    #[test]
    fn store_writeback_traffic_eventually() {
        // Dirty a line, then stream enough lines through the same L2 set
        // to force its eviction and a writeback transaction.
        let mut m = ms();
        m.channel_mut().trace_mut().enable();
        let base = 0x40_0000u32;
        m.access(base, AccessKind::Store, 0, 0);
        let mut t = 1000;
        // 256KB 4-way, 64B lines → set stride 64KB; 5 more lines in the set.
        for i in 1..=5u32 {
            let r = m.access(base + i * 64 * 1024, AccessKind::Load, t, 0);
            t = r.ready + 1;
        }
        let wbs: Vec<_> = m
            .channel()
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == BusKind::Writeback)
            .collect();
        assert!(!wbs.is_empty(), "expected an L2 writeback");
        assert_eq!(wbs[0].addr, base);
    }

    #[test]
    fn next_line_prefetch_warms_the_stream() {
        let mut cfg = MemSystemConfig::paper_256k();
        cfg.prefetch_next_line = true;
        let mut m = MemSystem::new(cfg, PlainFill);
        let a = m.access(0x70_0000, AccessKind::Load, 0, 0);
        assert!(a.l2_miss);
        assert_eq!(m.counters().get("l2.prefetch"), 1);
        // The next line is already resident (L2 hit, not off-chip).
        let b = m.access(0x70_0040, AccessKind::Load, a.ready + 500, 0);
        assert!(!b.l2_miss, "prefetched line must hit L2");
        // And its timing meta exists (it waits for its own fill).
        let c = m.access(0x70_0040, AccessKind::Load, a.ready, 0);
        assert!(c.ready >= a.ready, "prefetched data cannot be ready before the trigger");
    }

    #[test]
    fn prefetch_disabled_by_default() {
        let mut m = ms();
        m.access(0x70_0000, AccessKind::Load, 0, 0);
        assert_eq!(m.counters().get("l2.prefetch"), 0);
    }

    #[test]
    fn bus_grant_cycle_reported_and_respects_floor() {
        let mut m = ms();
        let r = m.access(0x60_0000, AccessKind::Load, 0, 7777);
        assert!(r.l2_miss);
        assert!(r.bus_granted >= 7777, "grant {} below fetch-gate floor", r.bus_granted);
        let warm = m.access(0x60_0000, AccessKind::Load, r.ready + 1, 0);
        assert_eq!(warm.bus_granted, 0, "hits cause no bus transfer");
    }

    #[test]
    fn poison_line_forces_refetch() {
        let mut m = ms();
        let cold = m.access(0x80_0000, AccessKind::Load, 0, 0);
        assert!(cold.l2_miss);
        let warm = m.access(0x80_0000, AccessKind::Load, cold.ready + 1, 0);
        assert!(!warm.l1_miss);
        assert!(m.poison_line(0x80_0000), "resident line must report dropped state");
        let refetch = m.access(0x80_0000, AccessKind::Load, warm.ready + 1, 0);
        assert!(refetch.l1_miss && refetch.l2_miss, "poisoned line goes off-chip again");
        assert!(!m.poison_line(0x12_3456), "absent line drops nothing");
        // A dirty line is dropped without writeback traffic.
        m.channel_mut().trace_mut().enable();
        let st = m.access(0x90_0000, AccessKind::Store, 0, 0);
        m.poison_line(0x90_0000);
        let _ = m.access(0x90_0000, AccessKind::Load, st.ready + 1, 0);
        let wbs =
            m.channel().trace().events().iter().filter(|e| e.kind == BusKind::Writeback).count();
        assert_eq!(wbs, 0, "poison must not write the victim back");
    }

    #[test]
    fn meta_tracks_pending_lines() {
        // Second access to a line still in flight waits for the fill.
        let mut m = ms();
        let r0 = m.access(0x50_0000, AccessKind::Load, 0, 0);
        let r1 = m.access(0x50_0008, AccessKind::Load, 5, 0);
        assert!(!r1.l2_miss || r1.ready >= r0.ready); // same L2 line: hit in L1? same L1 line too
        // Accessing a different word of the same L2 line but different L1
        // line (L1 32B vs L2 64B):
        let r2 = m.access(0x50_0020, AccessKind::Load, 5, 0);
        assert!(!r2.l2_miss);
        assert!(r2.ready >= r0.ready.min(r2.ready)); // waits on decrypt_ready via meta
    }
}
