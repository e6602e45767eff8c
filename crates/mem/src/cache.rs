//! Set-associative cache timing model (tags only — contents are
//! functional and live in `secsim-isa`).

use secsim_stats::CounterSet;

/// Geometry and latency of one cache.
///
/// # Examples
///
/// ```
/// use secsim_mem::CacheConfig;
///
/// let l1 = CacheConfig::paper_l1();
/// assert_eq!(l1.sets(), 512); // 16KB direct-mapped, 32B lines
/// let l2 = CacheConfig::paper_l2_256k();
/// assert_eq!(l2.assoc, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (1 = direct mapped).
    pub assoc: u32,
    /// Access latency in core cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Paper Table 3 L1 (I or D): direct-mapped, 16 KB, 32 B lines,
    /// 1-cycle latency.
    pub fn paper_l1() -> Self {
        Self { size_bytes: 16 * 1024, line_bytes: 32, assoc: 1, latency: 1 }
    }

    /// Paper Table 3 L2, 256 KB point: 4-way, 64 B lines, 4 cycles.
    pub fn paper_l2_256k() -> Self {
        Self { size_bytes: 256 * 1024, line_bytes: 64, assoc: 4, latency: 4 }
    }

    /// Paper Table 3 L2, 1 MB point: 4-way, 64 B lines, 8 cycles.
    pub fn paper_l2_1m() -> Self {
        Self { size_bytes: 1024 * 1024, line_bytes: 64, assoc: 4, latency: 8 }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.assoc)
    }

    /// The line-aligned address containing `addr`.
    pub fn line_addr(&self, addr: u32) -> u32 {
        addr & !(self.line_bytes - 1)
    }

    /// Checks the power-of-two geometry [`Cache::new`] relies on; the
    /// error names the field at fault and what it must be.
    pub fn validate(&self) -> Result<(), (&'static str, &'static str)> {
        if !self.line_bytes.is_power_of_two() {
            return Err(("line_bytes", "must be a power of two"));
        }
        if self.assoc == 0 {
            return Err(("assoc", "must be at least 1"));
        }
        let way = u64::from(self.line_bytes) * u64::from(self.assoc);
        let size = u64::from(self.size_bytes);
        if !size.is_multiple_of(way) || !(size / way).is_power_of_two() {
            return Err(("size_bytes", "must be line_bytes * assoc times a power-of-two set count"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    lru: u64,
}

const INVALID: Line = Line { tag: 0, valid: false, dirty: false, lru: 0 };

/// An evicted dirty line that must be written back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned address of the evicted line.
    pub line_addr: u32,
    /// Whether it was dirty (needs a writeback).
    pub dirty: bool,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was resident.
    pub hit: bool,
    /// On miss: the line that was evicted to make room (if any was
    /// valid).
    pub victim: Option<Victim>,
    /// Index of the way slot that was hit (or newly allocated). Stable
    /// while the line stays resident, and unique across the cache —
    /// callers keep per-line side data in a dense array indexed by it
    /// instead of a hash map (see `MemSystem`'s fill metadata).
    pub way: usize,
}

/// Event counts kept as plain fields — `access` runs on every simulated
/// memory reference, so it must not pay a name lookup per event.
#[derive(Debug, Clone, Copy, Default)]
struct CacheCounters {
    read_hit: u64,
    write_hit: u64,
    read_miss: u64,
    write_miss: u64,
    evictions: u64,
    writebacks: u64,
}

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement.
///
/// The cache stores only tags and dirty bits: `secsim` keeps data
/// functionally in `FlatMem` and uses the cache purely for hit/miss
/// timing and writeback traffic, like SimpleScalar's `sim-outorder`.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    counters: CacheCounters,
    // Precomputed shift/mask geometry: `access` runs per simulated
    // memory reference and must not pay runtime divisions.
    line_shift: u32,
    set_mask: u32,
    set_shift: u32,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        if let Err((field, problem)) = cfg.validate() {
            panic!("cache {field} {problem}");
        }
        let n = (cfg.sets() * cfg.assoc) as usize;
        Self {
            cfg,
            lines: vec![INVALID; n],
            tick: 0,
            counters: CacheCounters::default(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: cfg.sets() - 1,
            set_shift: cfg.sets().trailing_zeros(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_range(&self, addr: u32) -> std::ops::Range<usize> {
        let set = (addr >> self.line_shift) & self.set_mask;
        let base = (set * self.cfg.assoc) as usize;
        base..base + self.cfg.assoc as usize
    }

    #[inline]
    fn tag(&self, addr: u32) -> u32 {
        addr >> (self.line_shift + self.set_shift)
    }

    /// Accesses `addr`, allocating on miss (write-allocate). Returns
    /// hit/miss and any evicted victim.
    pub fn access(&mut self, addr: u32, write: bool) -> CacheAccess {
        self.tick += 1;
        let tag = self.tag(addr);
        let range = self.set_range(addr);
        let lru_tick = self.tick;

        // Hit?
        for i in range.clone() {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                line.lru = lru_tick;
                line.dirty |= write;
                if write {
                    self.counters.write_hit += 1;
                } else {
                    self.counters.read_hit += 1;
                }
                return CacheAccess { hit: true, victim: None, way: i };
            }
        }

        // Miss: pick invalid way or LRU victim.
        if write {
            self.counters.write_miss += 1;
        } else {
            self.counters.read_miss += 1;
        }
        let victim_idx = range
            .clone()
            .min_by_key(|&i| {
                let l = &self.lines[i];
                if l.valid {
                    (1, l.lru)
                } else {
                    (0, 0)
                }
            })
            .expect("set is non-empty");
        let old = self.lines[victim_idx];
        let victim = if old.valid {
            self.counters.evictions += 1;
            if old.dirty {
                self.counters.writebacks += 1;
            }
            Some(Victim { line_addr: self.reconstruct_addr(victim_idx, old.tag), dirty: old.dirty })
        } else {
            None
        };
        self.lines[victim_idx] = Line { tag, valid: true, dirty: write, lru: lru_tick };
        CacheAccess { hit: false, victim, way: victim_idx }
    }

    /// Checks residency without updating LRU or allocating.
    pub fn probe(&self, addr: u32) -> bool {
        self.probe_way(addr).is_some()
    }

    /// The way slot holding `addr`'s line, without updating LRU state.
    #[inline]
    pub fn probe_way(&self, addr: u32) -> Option<usize> {
        let tag = self.tag(addr);
        self.set_range(addr).find(|&i| {
            let l = &self.lines[i];
            l.valid && l.tag == tag
        })
    }

    /// Total number of way slots (`sets × assoc`) — the index space of
    /// [`CacheAccess::way`] / [`probe_way`](Cache::probe_way).
    pub fn way_slots(&self) -> usize {
        self.lines.len()
    }

    /// Marks a resident line dirty (e.g. an L1 victim written back into
    /// L2). Returns whether the line was resident.
    pub fn mark_dirty(&mut self, addr: u32) -> bool {
        let tag = self.tag(addr);
        for i in self.set_range(addr) {
            let l = &mut self.lines[i];
            if l.valid && l.tag == tag {
                l.dirty = true;
                return true;
            }
        }
        false
    }

    /// Invalidates a line if resident; returns whether it was dirty.
    pub fn invalidate(&mut self, addr: u32) -> Option<bool> {
        let tag = self.tag(addr);
        for i in self.set_range(addr) {
            let l = &mut self.lines[i];
            if l.valid && l.tag == tag {
                let dirty = l.dirty;
                *l = INVALID;
                return Some(dirty);
            }
        }
        None
    }

    fn reconstruct_addr(&self, idx: usize, tag: u32) -> u32 {
        let set = (idx as u32) / self.cfg.assoc;
        ((tag << self.set_shift) + set) << self.line_shift
    }

    /// Hit/miss/eviction counters, materialized as a named set (built on
    /// demand — the hot path keeps plain fields).
    pub fn counters(&self) -> CounterSet {
        let c = &self.counters;
        [
            ("read_hit", c.read_hit),
            ("write_hit", c.write_hit),
            ("read_miss", c.read_miss),
            ("write_miss", c.write_miss),
            ("evictions", c.evictions),
            ("writebacks", c.writebacks),
        ]
        .into_iter()
        .collect()
    }

    /// Total misses (read + write).
    pub fn misses(&self) -> u64 {
        self.counters.read_miss + self.counters.write_miss
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.misses() + self.counters.read_hit + self.counters.write_hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B
        Cache::new(CacheConfig { size_bytes: 128, line_bytes: 16, assoc: 2, latency: 1 })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x10F, false).hit); // same line
        assert!(!c.access(0x110, false).hit); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.accesses(), 4);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = sets*line = 64B).
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x000, false); // touch 0x000 so 0x040 is LRU
        let r = c.access(0x080, false);
        assert!(!r.hit);
        assert_eq!(r.victim, Some(Victim { line_addr: 0x040, dirty: false }));
        assert!(c.probe(0x000));
        assert!(!c.probe(0x040));
    }

    #[test]
    fn dirty_victim_reports_writeback() {
        let mut c = small();
        c.access(0x000, true);
        c.access(0x040, false);
        let r = c.access(0x080, false); // evicts dirty 0x000
        assert_eq!(r.victim, Some(Victim { line_addr: 0x000, dirty: true }));
        assert_eq!(c.counters().get("writebacks"), 1);
    }

    #[test]
    fn write_allocates_and_marks_dirty() {
        let mut c = small();
        assert!(!c.access(0x200, true).hit);
        // Evicting it must report dirty: fill the set and push it out.
        c.access(0x240, false);
        let r = c.access(0x280, false);
        assert_eq!(r.victim.unwrap().line_addr, 0x200);
        assert!(r.victim.unwrap().dirty);
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = small();
        assert!(!c.probe(0x300));
        assert!(!c.access(0x300, false).hit);
    }

    #[test]
    fn mark_dirty_and_invalidate() {
        let mut c = small();
        c.access(0x100, false);
        assert!(c.mark_dirty(0x100));
        assert_eq!(c.invalidate(0x100), Some(true));
        assert_eq!(c.invalidate(0x100), None);
        assert!(!c.mark_dirty(0x100));
    }

    #[test]
    fn victim_address_reconstruction() {
        let mut c = small();
        for addr in [0x000u32, 0x040, 0x080, 0x0C0, 0x7C0] {
            c.access(addr, false);
        }
        // All map to set 0; victims must come back line-aligned from the
        // same set.
        let r = c.access(0x100, false);
        let v = r.victim.unwrap();
        assert_eq!(v.line_addr % 16, 0);
        assert_eq!((v.line_addr / 16) % 4, 0); // set 0
    }

    #[test]
    fn paper_configs_shape() {
        assert_eq!(CacheConfig::paper_l1().sets(), 512);
        assert_eq!(CacheConfig::paper_l2_256k().sets(), 1024);
        assert_eq!(CacheConfig::paper_l2_1m().sets(), 4096);
        assert_eq!(CacheConfig::paper_l2_1m().latency, 8);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig { size_bytes: 64, line_bytes: 16, assoc: 1, latency: 1 });
        c.access(0x000, false);
        let r = c.access(0x040, false); // same set in 4-set DM cache
        assert_eq!(r.victim, Some(Victim { line_addr: 0x000, dirty: false }));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_config_rejected() {
        Cache::new(CacheConfig { size_bytes: 96, line_bytes: 12, assoc: 1, latency: 1 });
    }
}
