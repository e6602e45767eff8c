//! Seeded properties of the memory substrate: the cache agrees with an
//! executable reference model, DRAM and bus timing are causal, bus-trace
//! recording is deterministic, and a fresh line hits L1.
//!
//! Each property runs on `secsim_stats::for_each_case` and names the case
//! seed in every assert message, so a failure replays from that seed
//! alone.

use secsim_mem::{
    AccessKind, BusKind, Cache, CacheConfig, Channel, Dram, DramConfig, MemSystem, MemSystemConfig,
    PlainFill,
};
use secsim_stats::{for_each_case, SplitMix64};
use std::collections::VecDeque;

const CASES: u64 = 256;

/// An executable reference model of a set-associative LRU cache.
struct RefCache {
    sets: Vec<VecDeque<(u32, bool)>>, // (tag, dirty), front = MRU
    assoc: usize,
    line: u32,
    nsets: u32,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            sets: vec![VecDeque::new(); cfg.sets() as usize],
            assoc: cfg.assoc as usize,
            line: cfg.line_bytes,
            nsets: cfg.sets(),
        }
    }

    /// Whether `addr` hit, and the (line address, dirty) victim a miss
    /// evicted.
    fn access(&mut self, addr: u32, write: bool) -> (bool, Option<(u32, bool)>) {
        let set = ((addr / self.line) & (self.nsets - 1)) as usize;
        let tag = addr / self.line / self.nsets;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&(t, _)| t == tag) {
            let (t, d) = s.remove(pos).expect("present");
            s.push_front((t, d || write));
            return (true, None);
        }
        let victim = if s.len() == self.assoc {
            let (vt, vd) = s.pop_back().expect("full");
            Some(((vt * self.nsets + set as u32) * self.line, vd))
        } else {
            None
        };
        s.push_front((tag, write));
        (false, victim)
    }
}

/// Up to `max` bus transfers `(addr, now increment, not_before)`.
fn transfers(rng: &mut SplitMix64, max: usize) -> Vec<(u32, u64, u64)> {
    let n = 1 + rng.index(max);
    (0..n).map(|_| (rng.next_u32(), rng.index(500) as u64, rng.index(2000) as u64)).collect()
}

/// The cache agrees with the reference model on every hit or miss and
/// every victim, for random traces and geometries.
#[test]
fn cache_matches_reference_model() {
    for_each_case(CASES, |seed, rng| {
        let assoc = 1 << rng.index(3);
        let sets = 2 << rng.index(3);
        let cfg = CacheConfig { size_bytes: 32 * sets * assoc, line_bytes: 32, assoc, latency: 1 };
        let mut dut = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for _ in 0..1 + rng.index(499) {
            // Small addresses that still span every set.
            let addr = (rng.next_u32() & 0xFFFF) * 8;
            let write = rng.next_u64() & 1 == 1;
            let got = dut.access(addr, write);
            let (hit, victim) = reference.access(addr, write);
            assert_eq!(got.hit, hit, "case seed {seed}: hit/miss at {addr:#x}");
            let got_victim = got.victim.map(|v| (v.line_addr, v.dirty));
            assert_eq!(got_victim, victim, "case seed {seed}: victim at {addr:#x}");
        }
    });
}

/// DRAM causality: an access starts no earlier than it is made, its
/// first word is no earlier than its start, and it finishes no earlier
/// than its first word.
#[test]
fn dram_causality() {
    for_each_case(CASES, |seed, rng| {
        let mut d = Dram::new(DramConfig::paper_reference());
        let mut now = 0u64;
        for _ in 0..1 + rng.index(99) {
            now += rng.index(1000) as u64;
            let (addr, bytes) = (rng.next_u32(), 8 + rng.index(120) as u32);
            let r = d.access(addr, bytes, now);
            assert!(r.start >= now, "case seed {seed}: started at {} before {now}", r.start);
            assert!(r.first_ready >= r.start, "case seed {seed}: first word before start");
            assert!(r.done >= r.first_ready, "case seed {seed}: done before first word");
        }
    });
}

/// Bus grants are causal and honour the fetch gate's `not_before`, data
/// bursts never overlap, and the trace holds exactly one event per
/// transfer.
#[test]
fn channel_bursts_never_overlap() {
    for_each_case(CASES, |seed, rng| {
        let mut ch = Channel::new(DramConfig::paper_reference());
        ch.trace_mut().enable();
        let (mut now, mut prev_done) = (0u64, 0u64);
        let xfers = transfers(rng, 100);
        for &(addr, dt, nb) in &xfers {
            now += dt;
            let t = ch.transfer(addr, 64, BusKind::DataFetch, now, nb);
            assert!(t.granted >= now, "case seed {seed}: granted before the request");
            assert!(t.granted >= nb, "case seed {seed}: authen-then-fetch gate violated");
            assert!(t.first_ready >= prev_done, "case seed {seed}: data bursts overlapped");
            assert!(t.done >= t.first_ready, "case seed {seed}: burst ended before it began");
            prev_done = t.done;
        }
        assert_eq!(ch.trace().events().len(), xfers.len(), "case seed {seed}");
    });
}

/// Bus-trace recording is deterministic: replaying one transfer sequence
/// yields identical events and digests on a second run, on worker
/// threads, and in the streaming (digest-only) capture mode. The
/// two-run obliviousness oracle rests on this: any cross-run difference
/// must come from the inputs, never from recording.
#[test]
fn bus_trace_recording_is_deterministic() {
    for_each_case(CASES, |seed, rng| {
        let xfers = transfers(rng, 100);
        let replay = |digest_only: bool| {
            let mut ch = Channel::new(DramConfig::paper_reference());
            if digest_only {
                ch.trace_mut().enable_digest();
            } else {
                ch.trace_mut().enable();
            }
            let mut now = 0u64;
            for &(addr, dt, nb) in &xfers {
                now += dt;
                ch.transfer(addr, 64, BusKind::DataFetch, now, nb);
            }
            (ch.trace().events().to_vec(), ch.trace().digest())
        };
        let (events, digest) = replay(false);
        assert_eq!(replay(false), (events.clone(), digest), "case seed {seed}: second run");
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..3).map(|_| s.spawn(|| replay(false))).collect();
            for w in workers {
                let got = w.join().expect("replay worker");
                assert_eq!(got, (events.clone(), digest), "case seed {seed}: on a worker thread");
            }
        });
        let (none, streamed) = replay(true);
        assert!(none.is_empty(), "case seed {seed}: streaming mode kept events");
        assert_eq!(streamed, digest, "case seed {seed}: streaming digest");
        assert_eq!(digest.events, events.len() as u64, "case seed {seed}: digest event count");
    });
}

/// Every access completes after it is made, and an immediate re-access
/// of the same address hits L1 within 40 cycles.
#[test]
fn memsystem_causality_and_residency() {
    for_each_case(CASES, |seed, rng| {
        let mut ms = MemSystem::new(MemSystemConfig::paper_256k(), PlainFill);
        let mut now = 0u64;
        for _ in 0..1 + rng.index(199) {
            let addr = rng.next_u32() & ((1 << 22) - 1);
            let kind = if rng.next_u64() & 1 == 1 { AccessKind::Store } else { AccessKind::Load };
            let r = ms.access(addr, kind, now, 0);
            assert!(r.ready > now, "case seed {seed}: {addr:#x} ready before it was asked");
            let r2 = ms.access(addr, kind, r.ready, 0);
            assert!(!r2.l1_miss, "case seed {seed}: re-access of {addr:#x} missed L1");
            assert!(r2.ready <= r.ready + 40, "case seed {seed}: slow hit at {addr:#x}");
            now = r.ready;
        }
    });
}
