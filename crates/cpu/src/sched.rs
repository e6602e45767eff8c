//! Cycle-slot and functional-unit schedulers for the one-pass timing
//! model.

use std::collections::HashMap;

/// Bandwidth limiter for in-order stages (fetch/dispatch/commit):
/// requests arrive with non-decreasing earliest times, at most `width`
/// grants per cycle.
#[derive(Debug, Clone)]
pub struct InOrderSlots {
    width: u32,
    cycle: u64,
    used: u32,
}

impl InOrderSlots {
    /// Creates a limiter granting `width` slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: u32) -> Self {
        assert!(width > 0, "width must be positive");
        Self { width, cycle: 0, used: 0 }
    }

    /// Grants a slot at the first cycle `>= at` with capacity.
    /// `at` values must be non-decreasing across calls.
    pub fn take(&mut self, at: u64) -> u64 {
        if at > self.cycle {
            self.cycle = at;
            self.used = 0;
        }
        if self.used >= self.width {
            self.cycle += 1;
            self.used = 0;
        }
        self.used += 1;
        self.cycle
    }

    /// The current grant position: `(cycle, slots_used_in_cycle)`. After
    /// a [`take`](InOrderSlots::take) the granted instruction occupies
    /// slot `slots_used_in_cycle - 1` of `cycle` — the stall-attribution
    /// layer uses this to index commit slots globally.
    pub fn occupancy(&self) -> (u64, u32) {
        (self.cycle, self.used)
    }
}

/// Bandwidth limiter for the out-of-order issue stage: requests may
/// target any cycle at or above a monotonically advancing floor.
///
/// Internally a dense power-of-two ring of per-cycle grant counts
/// indexed by the cycle's low bits. Live (possibly non-zero) counts
/// always span fewer than `counts.len()` cycles — `[zeroed_to, hi)` —
/// so two live cycles never alias one slot; slots vacated as the floor
/// advances are zeroed lazily before the ring wraps onto them. This
/// replaces a `HashMap<u64, u32>` that dominated the issue-stage
/// profile.
///
/// Ring growth is capped: grants beyond [`WindowSlots::MAX_LEN`]
/// cycles past the reclaimable window spill into a sparse overflow
/// map instead of growing the ring. Only pathological latencies land
/// there — a dropped MAC verification is modeled as a `2^40`-cycle
/// delay, and a dense ring spanning it would be an 8 TB allocation.
#[derive(Debug, Clone)]
pub struct WindowSlots {
    width: u32,
    counts: Vec<u32>,
    /// All cycles below this have had their ring slot zeroed; never
    /// exceeds `floor`.
    zeroed_to: u64,
    /// One past the highest ring-granted cycle (upper bound of live
    /// ring counts; overflow grants are tracked separately).
    hi: u64,
    floor: u64,
    /// Grant counts for cycles at or beyond the capped ring
    /// (`>= zeroed_to + counts.len()` at all times — entries the
    /// window slides over are migrated into the ring by `ensure`).
    overflow: HashMap<u64, u32>,
}

impl WindowSlots {
    const INITIAL_LEN: usize = 1024;
    /// Ring-size cap (2^20 cycles ≈ 4 MB of counts); beyond it the
    /// sparse overflow map takes over.
    const MAX_LEN: usize = 1 << 20;

    /// Creates a limiter granting `width` slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: u32) -> Self {
        assert!(width > 0, "width must be positive");
        Self {
            width,
            counts: vec![0; Self::INITIAL_LEN],
            zeroed_to: 0,
            hi: 0,
            floor: 0,
            overflow: HashMap::new(),
        }
    }

    /// Grants a slot at the first cycle `>= max(at, floor)` with
    /// capacity.
    pub fn take(&mut self, at: u64) -> u64 {
        let mut c = at.max(self.floor);
        loop {
            self.ensure(c);
            let len = self.counts.len() as u64;
            let mask = self.counts.len() - 1;
            let limit = self.zeroed_to + len;
            if c >= limit {
                // Beyond the capped ring even after reclaiming: the
                // sparse far-future path.
                while *self.overflow.get(&c).unwrap_or(&0) >= self.width {
                    c += 1;
                }
                *self.overflow.entry(c).or_insert(0) += 1;
                return c;
            }
            while c < limit && self.counts[(c as usize) & mask] >= self.width {
                c += 1;
            }
            if c < limit {
                self.counts[(c as usize) & mask] += 1;
                if c >= self.hi {
                    self.hi = c + 1;
                }
                return c;
            }
        }
    }

    /// Advances the floor: no future `take` will target cycles below
    /// `floor` (the dispatch time of the current instruction, which
    /// lower-bounds all future issue times).
    pub fn advance_floor(&mut self, floor: u64) {
        if floor > self.floor {
            self.floor = floor;
        }
    }

    /// Makes cycle `c` addressable if the cap allows: first reclaims
    /// slots below the floor (they can never be granted again), then
    /// doubles the ring — up to [`WindowSlots::MAX_LEN`] — if the live
    /// span `[zeroed_to, c]` still does not fit. Whenever the window
    /// moves, overflow entries it now covers migrate into the ring.
    fn ensure(&mut self, c: u64) {
        let len = self.counts.len() as u64;
        if c < self.zeroed_to + len {
            return;
        }
        let mut moved = false;
        if self.floor > self.zeroed_to {
            if self.floor >= self.zeroed_to + len {
                self.counts.fill(0);
            } else {
                let mask = self.counts.len() - 1;
                for cy in self.zeroed_to..self.floor {
                    self.counts[(cy as usize) & mask] = 0;
                }
            }
            self.zeroed_to = self.floor;
            if self.hi < self.zeroed_to {
                self.hi = self.zeroed_to;
            }
            moved = true;
        }
        if c >= self.zeroed_to + len && self.counts.len() < Self::MAX_LEN {
            let mut new_len = self.counts.len();
            while c >= self.zeroed_to + new_len as u64 && new_len < Self::MAX_LEN {
                new_len *= 2;
            }
            let mut counts = vec![0u32; new_len];
            let old_mask = self.counts.len() - 1;
            for cy in self.zeroed_to..self.hi {
                counts[(cy as usize) & (new_len - 1)] = self.counts[(cy as usize) & old_mask];
            }
            self.counts = counts;
            moved = true;
        }
        if moved && !self.overflow.is_empty() {
            // Re-home overflow entries the window now covers. Slots in
            // [hi, limit) are zero by the ring invariant, so this is a
            // plain store; entries below `zeroed_to` can never be
            // granted again and are dropped outright.
            let limit = self.zeroed_to + self.counts.len() as u64;
            let mask = self.counts.len() - 1;
            let zeroed_to = self.zeroed_to;
            let counts = &mut self.counts;
            let hi = &mut self.hi;
            self.overflow.retain(|&cy, cnt| {
                if cy >= limit {
                    return true;
                }
                if cy >= zeroed_to {
                    counts[(cy as usize) & mask] = *cnt;
                    if cy >= *hi {
                        *hi = cy + 1;
                    }
                }
                false
            });
        }
    }
}

/// A pool of identical functional units: each grant occupies the chosen
/// unit for `occupancy` cycles (1 = fully pipelined).
#[derive(Debug, Clone)]
pub struct FuPool {
    free_at: Vec<u64>,
}

impl FuPool {
    /// Creates a pool of `units` units.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`.
    pub fn new(units: u32) -> Self {
        assert!(units > 0, "unit count must be positive");
        Self { free_at: vec![0; units as usize] }
    }

    /// Grants the earliest-available unit no earlier than `at`,
    /// occupying it for `occupancy` cycles. Returns the start cycle.
    pub fn take(&mut self, at: u64, occupancy: u64) -> u64 {
        let (idx, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &f)| f)
            .expect("pool is non-empty");
        let start = at.max(self.free_at[idx]);
        self.free_at[idx] = start + occupancy.max(1);
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secsim_stats::SplitMix64;

    #[test]
    fn in_order_slots_pack_per_cycle() {
        let mut s = InOrderSlots::new(2);
        assert_eq!(s.take(5), 5);
        assert_eq!(s.take(5), 5);
        assert_eq!(s.take(5), 6);
        assert_eq!(s.take(6), 6); // second slot of cycle 6
        assert_eq!(s.take(6), 7);
        assert_eq!(s.take(100), 100);
    }

    #[test]
    fn window_slots_allow_out_of_order() {
        let mut s = WindowSlots::new(1);
        assert_eq!(s.take(10), 10);
        assert_eq!(s.take(5), 5); // earlier cycle still available
        assert_eq!(s.take(5), 6);
        assert_eq!(s.take(10), 11);
    }

    #[test]
    fn window_floor_blocks_past() {
        let mut s = WindowSlots::new(4);
        s.advance_floor(100);
        assert_eq!(s.take(5), 100);
    }

    /// Pin the ring-buffer window against a naive unbounded model
    /// through wrap-around (cycles far beyond the 1024-slot initial
    /// ring with the floor advancing behind them, forcing slot reuse),
    /// growth (a live span wider than the ring, forcing a resize that
    /// must carry every live count across), and far leaps past the
    /// ring-size cap (the dropped-MAC `2^40` sentinel, which must land
    /// in the sparse overflow map instead of growing the ring).
    #[test]
    fn window_ring_wrap_and_growth_match_dense_model() {
        fn naive_take(counts: &mut HashMap<u64, u32>, width: u32, floor: u64, at: u64) -> u64 {
            let mut c = at.max(floor);
            while *counts.get(&c).unwrap_or(&0) >= width {
                c += 1;
            }
            *counts.entry(c).or_insert(0) += 1;
            c
        }

        for width in [1u32, 2, 4] {
            let mut ring = WindowSlots::new(width);
            let mut dense: HashMap<u64, u32> = HashMap::new();
            let mut floor = 0u64;
            let mut rng = SplitMix64::new(0x2006);
            let mut base = 0u64;
            for i in 0..20_000u64 {
                let z = rng.next_u64();
                // Mostly local jitter; occasionally leap far past the
                // ring (wrap) or stretch the live span (growth).
                let at = match z % 97 {
                    0 => base + 3000 + z % 5000, // wider than the ring: growth
                    1..=5 => base + 1500,        // just past: wrap via reclaim
                    6 => base + (1u64 << 40) + z % 8, // past the cap: overflow map
                    _ => base + z % 64,
                };
                assert_eq!(
                    ring.take(at),
                    naive_take(&mut dense, width, floor, at),
                    "width {width}, step {i}, at {at}, floor {floor}"
                );
                // Advance the floor the way dispatch does: monotonically,
                // trailing the issue front.
                if z.is_multiple_of(11) {
                    base += 1 + z % 40;
                    floor = floor.max(base.saturating_sub(20));
                    ring.advance_floor(floor);
                }
            }
        }
    }

    #[test]
    fn fu_pool_balances_units() {
        let mut p = FuPool::new(2);
        assert_eq!(p.take(0, 10), 0); // unit 0 busy till 10
        assert_eq!(p.take(0, 10), 0); // unit 1 busy till 10
        assert_eq!(p.take(0, 10), 10); // back to unit 0
    }

    #[test]
    fn fu_pool_pipelined_units() {
        let mut p = FuPool::new(1);
        assert_eq!(p.take(0, 1), 0);
        assert_eq!(p.take(0, 1), 1);
        assert_eq!(p.take(0, 1), 2);
    }

    #[test]
    fn fu_pool_nonpipelined_divider() {
        let mut p = FuPool::new(1);
        assert_eq!(p.take(0, 20), 0);
        assert_eq!(p.take(5, 20), 20);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        InOrderSlots::new(0);
    }
}
