//! A simple set-associative TLB timing model with identity translation.
//!
//! The paper's exploits interact with virtual memory (§3.3) — the attack
//! harness models page masking *functionally*; here we only model the
//! timing cost of TLB misses per Table 3 (4-way, 128 entries).

use secsim_stats::CounterSet;

/// TLB geometry and miss penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries (paper: 128).
    pub entries: u32,
    /// Associativity (paper: 4).
    pub assoc: u32,
    /// Page size in bytes (4 KB).
    pub page_bytes: u32,
    /// Miss penalty in core cycles (hardware walk).
    pub miss_penalty: u64,
}

impl TlbConfig {
    /// Paper Table 3 I-TLB/D-TLB: 4-way, 128 entries, 4 KB pages; a
    /// 30-cycle hardware-walk penalty.
    pub fn paper_reference() -> Self {
        Self { entries: 128, assoc: 4, page_bytes: 4096, miss_penalty: 30 }
    }

    /// Checks the power-of-two geometry [`Tlb::new`] relies on; the
    /// error names the field at fault and what it must be.
    pub fn validate(&self) -> Result<(), (&'static str, &'static str)> {
        if self.assoc == 0 {
            return Err(("assoc", "must be at least 1"));
        }
        if !self.page_bytes.is_power_of_two() {
            return Err(("page_bytes", "must be a power of two"));
        }
        if !self.entries.is_multiple_of(self.assoc)
            || !(self.entries / self.assoc).is_power_of_two()
        {
            return Err(("entries", "must be assoc times a power-of-two set count"));
        }
        Ok(())
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::paper_reference()
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    vpn: u32,
    valid: bool,
    lru: u64,
}

/// A set-associative TLB. Translation is identity (physical == virtual);
/// only hit/miss timing is modeled.
///
/// # Examples
///
/// ```
/// use secsim_mem::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::paper_reference());
/// assert_eq!(tlb.access(0x1234), 30); // cold miss pays the walk
/// assert_eq!(tlb.access(0x1FFF), 0);  // same page: hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    entries: Vec<Entry>,
    tick: u64,
    // Precomputed shift/mask geometry (see `Cache`): no divisions on
    // the per-reference path.
    page_shift: u32,
    set_mask: u32,
    // Plain fields: `access` runs per simulated memory reference.
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TlbConfig::validate`].
    pub fn new(cfg: TlbConfig) -> Self {
        if let Err((field, problem)) = cfg.validate() {
            panic!("TLB {field} {problem}");
        }
        Self {
            cfg,
            entries: vec![Entry { vpn: 0, valid: false, lru: 0 }; cfg.entries as usize],
            tick: 0,
            page_shift: cfg.page_bytes.trailing_zeros(),
            set_mask: cfg.entries / cfg.assoc - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the page of `vaddr`; returns the extra latency (0 on
    /// hit, `miss_penalty` on miss) and installs the entry.
    pub fn access(&mut self, vaddr: u32) -> u64 {
        self.tick += 1;
        let vpn = vaddr >> self.page_shift;
        let set = vpn & self.set_mask;
        let base = (set * self.cfg.assoc) as usize;
        let ways = base..base + self.cfg.assoc as usize;
        for i in ways.clone() {
            let e = &mut self.entries[i];
            if e.valid && e.vpn == vpn {
                e.lru = self.tick;
                self.hits += 1;
                return 0;
            }
        }
        self.misses += 1;
        let victim = ways
            .min_by_key(|&i| {
                let e = &self.entries[i];
                if e.valid {
                    (1, e.lru)
                } else {
                    (0, 0)
                }
            })
            .expect("non-empty set");
        self.entries[victim] = Entry { vpn, valid: true, lru: self.tick };
        self.cfg.miss_penalty
    }

    /// Hit/miss counters, materialized on demand.
    pub fn counters(&self) -> CounterSet {
        [("hit", self.hits), ("miss", self.misses)].into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss() {
        let mut t = Tlb::new(TlbConfig::paper_reference());
        assert_eq!(t.access(0x0000), 30);
        assert_eq!(t.access(0x0FFF), 0);
        assert_eq!(t.access(0x1000), 30); // next page
        assert_eq!(t.counters().get("hit"), 1);
        assert_eq!(t.counters().get("miss"), 2);
    }

    #[test]
    fn capacity_eviction() {
        let cfg = TlbConfig { entries: 4, assoc: 2, page_bytes: 4096, miss_penalty: 10 };
        let mut t = Tlb::new(cfg);
        // Three pages in the same set (set stride = 2 pages).
        t.access(0);
        t.access(2 * 4096);
        t.access(4 * 4096); // evicts page 0
        assert_eq!(t.access(0), 10);
    }

    #[test]
    #[should_panic]
    fn bad_geometry_rejected() {
        Tlb::new(TlbConfig { entries: 6, assoc: 2, page_bytes: 4096, miss_penalty: 1 });
    }
}
