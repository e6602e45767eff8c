//! Deterministic, seeded fault injection against the encrypted memory
//! image and the secure memory controller.
//!
//! A [`FaultPlan`] is a schedule of [`FaultEvent`]s — ciphertext bit
//! flips, MAC-tag corruption, counter replay, DRAM transient upsets, bus
//! transfer corruption, and MAC-queue verification delay/drop — each
//! pinned to a simulated cycle and a physical address. The pipeline
//! drains the plan as its clock advances and applies each event to the
//! [`EncryptedMemory`](crate::EncryptedMemory) image or the
//! [`SecureMemCtrl`](crate::SecureMemCtrl), replacing the old
//! static-image-only tampering path with mid-run injection.
//!
//! Everything here is plain data: given the same plan and the same
//! program, a run is bit-for-bit reproducible.
//!
//! # Examples
//!
//! ```
//! use secsim_core::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::new()
//!     .at(500, 0x4000, FaultKind::CiphertextFlip { mask: 0x01 })
//!     .at(200, 0x4040, FaultKind::TagCorrupt { mask: 1 });
//! assert_eq!(plan.len(), 2);
//! // Events are kept sorted by injection cycle.
//! assert_eq!(plan.events()[0].cycle, 200);
//! ```

use secsim_stats::SplitMix64;
use std::fmt;

/// A tamper operation addressed bytes outside the encrypted image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TamperError {
    /// First out-of-image byte address of the rejected operation.
    pub addr: u32,
    /// Length in bytes of the rejected operation.
    pub len: usize,
}

impl fmt::Display for TamperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tamper of {} byte(s) at {:#x} outside image", self.len, self.addr)
    }
}

impl std::error::Error for TamperError {}

/// Extra verification latency used to model a *dropped* MAC check: the
/// result never arrives within any realistic cycle fence, so gated
/// pipelines run into `max_cycles` instead of hanging.
pub const MAC_DROP_DELAY: u64 = 1 << 40;

/// What a scheduled fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// XOR `mask` over one ciphertext byte at the event address (CTR
    /// malleability: the decrypted plaintext flips the same bits).
    CiphertextFlip {
        /// Bits to flip.
        mask: u8,
    },
    /// XOR `mask` over the stored MAC tag of the line at the event
    /// address.
    TagCorrupt {
        /// Bits to flip in the 64-bit tag (must be non-zero to have an
        /// effect).
        mask: u64,
    },
    /// Replay the line under a stale counter: the stored ciphertext no
    /// longer matches the counter the processor decrypts with, so the
    /// line decrypts to garbage and its (address, counter, plaintext)
    /// MAC fails.
    CounterReplay,
    /// A DRAM transient upset: flip a single bit of the stored cell at
    /// the event address.
    DramFlip {
        /// Bit index within the byte (0..8).
        bit: u8,
    },
    /// Corruption on the memory bus: the line's next transfer carries
    /// flipped bits, modeled by XOR-ing `mask` over the stored
    /// ciphertext byte the transfer would deliver.
    BusCorrupt {
        /// Bits to flip.
        mask: u8,
    },
    /// Delay MAC verification of subsequent fills by `extra` cycles
    /// (an availability fault — data is untouched).
    MacDelay {
        /// Additional verification latency in cycles.
        extra: u64,
    },
    /// Drop MAC verification of subsequent fills entirely (modeled as a
    /// [`MAC_DROP_DELAY`]-cycle delay, so gated policies trip the
    /// `max_cycles` fence instead of hanging).
    MacDrop,
}

impl FaultKind {
    /// Whether this fault corrupts stored data or metadata (as opposed
    /// to only delaying verification).
    pub fn corrupts_data(&self) -> bool {
        !matches!(self, FaultKind::MacDelay { .. } | FaultKind::MacDrop)
    }

    /// The [`TamperCause`] a detection of this fault reports.
    pub fn cause(&self) -> TamperCause {
        match self {
            FaultKind::CiphertextFlip { .. } => TamperCause::CiphertextFlip,
            FaultKind::TagCorrupt { .. } => TamperCause::TagCorrupt,
            FaultKind::CounterReplay => TamperCause::CounterReplay,
            FaultKind::DramFlip { .. } => TamperCause::DramFlip,
            FaultKind::BusCorrupt { .. } => TamperCause::BusCorrupt,
            FaultKind::MacDelay { .. } | FaultKind::MacDrop => TamperCause::StaticImage,
        }
    }

    /// Short stable name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::CiphertextFlip { .. } => "ct-flip",
            FaultKind::TagCorrupt { .. } => "tag-corrupt",
            FaultKind::CounterReplay => "counter-replay",
            FaultKind::DramFlip { .. } => "dram-flip",
            FaultKind::BusCorrupt { .. } => "bus-corrupt",
            FaultKind::MacDelay { .. } => "mac-delay",
            FaultKind::MacDrop => "mac-drop",
        }
    }
}

/// Why a run's tamper detection fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TamperCause {
    /// A scheduled [`FaultKind::CiphertextFlip`].
    CiphertextFlip,
    /// A scheduled [`FaultKind::TagCorrupt`].
    TagCorrupt,
    /// A scheduled [`FaultKind::CounterReplay`].
    CounterReplay,
    /// A scheduled [`FaultKind::DramFlip`].
    DramFlip,
    /// A scheduled [`FaultKind::BusCorrupt`].
    BusCorrupt,
    /// No scheduled fault matches: the image was tampered before the
    /// run (the attack-crate path).
    StaticImage,
}

impl fmt::Display for TamperCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TamperCause::CiphertextFlip => "ct-flip",
            TamperCause::TagCorrupt => "tag-corrupt",
            TamperCause::CounterReplay => "counter-replay",
            TamperCause::DramFlip => "dram-flip",
            TamperCause::BusCorrupt => "bus-corrupt",
            TamperCause::StaticImage => "static-image",
        };
        f.write_str(s)
    }
}

/// One scheduled fault: at `cycle`, apply `kind` to `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultEvent {
    /// Simulated cycle at (or after) which the fault fires. It is
    /// applied the next time the memory hierarchy is consulted at or
    /// past this cycle.
    pub cycle: u64,
    /// Physical byte address the fault targets (line-granular kinds use
    /// the containing 64-byte line). Ignored by the MAC-queue kinds.
    pub addr: u32,
    /// What the fault does.
    pub kind: FaultKind,
}

/// An ordered schedule of [`FaultEvent`]s.
///
/// Construction keeps events sorted by cycle (stable for equal cycles),
/// so injection is a single cursor walk as simulated time advances.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one event (builder style).
    pub fn at(mut self, cycle: u64, addr: u32, kind: FaultKind) -> Self {
        self.push(FaultEvent { cycle, addr, kind });
        self
    }

    /// Adds one event, keeping the schedule sorted by cycle.
    pub fn push(&mut self, ev: FaultEvent) {
        let pos = self.events.partition_point(|e| e.cycle <= ev.cycle);
        self.events.insert(pos, ev);
    }

    /// A seeded pseudo-random plan of `n` data-corrupting events over
    /// `addrs`, with injection cycles drawn from `cycles`
    /// (start..end). Deterministic in `seed`.
    pub fn seeded(seed: u64, n: usize, cycles: std::ops::Range<u64>, addrs: &[u32]) -> Self {
        assert!(!addrs.is_empty(), "seeded plan needs at least one target address");
        let span = cycles.end.saturating_sub(cycles.start).max(1);
        let mut rng = SplitMix64::new(seed);
        let mut plan = Self::new();
        for _ in 0..n {
            let cycle = cycles.start + rng.next_u64() % span;
            let addr = addrs[(rng.next_u64() % addrs.len() as u64) as usize];
            let kind = match rng.next_u64() % 4 {
                0 => FaultKind::CiphertextFlip { mask: 1 << (rng.next_u64() % 8) },
                1 => FaultKind::TagCorrupt { mask: 1 | rng.next_u64() },
                2 => FaultKind::CounterReplay,
                _ => FaultKind::DramFlip { bit: (rng.next_u64() % 8) as u8 },
            };
            plan.push(FaultEvent { cycle, addr, kind });
        }
        plan
    }

    /// The schedule, sorted by cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Cursor over a [`FaultPlan`]: hands out the events that have become
/// due as simulated time advances, and remembers what was applied so a
/// detection can be attributed to its cause.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    next: usize,
}

impl FaultInjector {
    /// A cursor at the start of `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        Self { events: plan.events.clone(), next: 0 }
    }

    /// Whether any event is still pending (due or future).
    pub fn pending(&self) -> bool {
        self.next < self.events.len()
    }

    /// Returns the events that became due at or before `now` and
    /// advances the cursor past them. Each event is returned exactly
    /// once.
    pub fn take_due(&mut self, now: u64) -> &[FaultEvent] {
        let start = self.next;
        while self.next < self.events.len() && self.events[self.next].cycle <= now {
            self.next += 1;
        }
        &self.events[start..self.next]
    }

    /// Events already handed out by [`FaultInjector::take_due`].
    pub fn applied(&self) -> &[FaultEvent] {
        &self.events[..self.next]
    }

    /// The cause of a detection on `line_addr` (64-byte granularity):
    /// the first applied data-corrupting event on that line, or
    /// [`TamperCause::StaticImage`] when none matches.
    pub fn cause_for(&self, line_addr: u32) -> TamperCause {
        self.applied()
            .iter()
            .find(|e| e.kind.corrupts_data() && (e.addr & !63) == (line_addr & !63))
            .map(|e| e.kind.cause())
            .unwrap_or(TamperCause::StaticImage)
    }
}

/// Tampered state that escaped into the pipeline before detection.
///
/// Counters cover only instructions that *depended* on a tampered line
/// (fetched from it, loaded from it, or read a register produced by
/// such an instruction) and only events strictly before the detection
/// cycle. Eager control points keep these at zero; lazy ones trade
/// exposure for performance — quantifying that trade is the point of
/// the fault campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exposure {
    /// Tainted instructions issued before detection.
    pub issued: u64,
    /// Tainted instructions committed before detection.
    pub committed: u64,
    /// Tainted stores released from the store buffer before detection.
    pub stores_released: u64,
    /// Bus transfers triggered by tainted instructions and granted
    /// before detection.
    pub bus_grants: u64,
}

impl Exposure {
    /// Sum of all exposure counters (the scalar the campaign orders
    /// policies by).
    pub fn total(&self) -> u64 {
        self.issued + self.committed + self.stores_released + self.bus_grants
    }
}

impl fmt::Display for Exposure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "issued={} committed={} stores={} bus={}",
            self.issued, self.committed, self.stores_released, self.bus_grants
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_keeps_events_sorted() {
        let plan = FaultPlan::new()
            .at(90, 0x100, FaultKind::CounterReplay)
            .at(10, 0x200, FaultKind::MacDrop)
            .at(50, 0x300, FaultKind::DramFlip { bit: 3 });
        let cycles: Vec<u64> = plan.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![10, 50, 90]);
    }

    #[test]
    fn injector_hands_out_each_event_once() {
        let plan = FaultPlan::new()
            .at(10, 0x0, FaultKind::CiphertextFlip { mask: 1 })
            .at(20, 0x40, FaultKind::TagCorrupt { mask: 2 })
            .at(30, 0x80, FaultKind::CounterReplay);
        let mut inj = FaultInjector::new(&plan);
        assert!(inj.pending());
        assert_eq!(inj.take_due(5).len(), 0);
        assert_eq!(inj.take_due(20).len(), 2);
        assert_eq!(inj.take_due(20).len(), 0, "due events are not repeated");
        assert_eq!(inj.take_due(u64::MAX).len(), 1);
        assert!(!inj.pending());
        assert_eq!(inj.applied().len(), 3);
    }

    #[test]
    fn cause_attribution_is_line_granular() {
        let plan = FaultPlan::new()
            .at(10, 0x1008, FaultKind::DramFlip { bit: 0 })
            .at(10, 0x2000, FaultKind::MacDelay { extra: 7 });
        let mut inj = FaultInjector::new(&plan);
        inj.take_due(100);
        assert_eq!(inj.cause_for(0x1000), TamperCause::DramFlip);
        assert_eq!(inj.cause_for(0x1040), TamperCause::StaticImage);
        // MAC-queue faults never attribute a data detection.
        assert_eq!(inj.cause_for(0x2000), TamperCause::StaticImage);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_data_corrupting() {
        let addrs = [0x4000, 0x4040, 0x4080];
        let a = FaultPlan::seeded(7, 16, 100..5000, &addrs);
        let b = FaultPlan::seeded(7, 16, 100..5000, &addrs);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        for e in a.events() {
            assert!(e.kind.corrupts_data());
            assert!((100..5000).contains(&e.cycle));
            assert!(addrs.contains(&e.addr));
        }
        let c = FaultPlan::seeded(8, 16, 100..5000, &addrs);
        assert_ne!(a, c, "different seeds give different plans");
    }

    /// The seeded stream is pinned: a generator change that moves any
    /// drawn cycle, address, kind or mask fails here.
    #[test]
    fn seeded_plan_known_answer() {
        use FaultKind::{CiphertextFlip, CounterReplay, DramFlip, TagCorrupt};
        let plan = FaultPlan::seeded(7, 16, 100..5000, &[0x4000, 0x4040, 0x4080]);
        let want = [
            (328, 0x4080, CounterReplay),
            (439, 0x4000, TagCorrupt { mask: 0xf89c_5aca_8c44_8a79 }),
            (458, 0x4080, CounterReplay),
            (459, 0x4040, CounterReplay),
            (803, 0x4040, TagCorrupt { mask: 0x77cb_c4a1_33c2_d0f7 }),
            (980, 0x4040, DramFlip { bit: 5 }),
            (1187, 0x4000, CounterReplay),
            (1550, 0x4000, CounterReplay),
            (2207, 0x4040, TagCorrupt { mask: 0xeb7a_07aa_cd55_5fc9 }),
            (2315, 0x4080, TagCorrupt { mask: 0x13a1_6201_310d_9abb }),
            (2501, 0x4000, CiphertextFlip { mask: 0x20 }),
            (3820, 0x4000, CounterReplay),
            (3916, 0x4000, CiphertextFlip { mask: 0x40 }),
            (4482, 0x4080, TagCorrupt { mask: 0x1a82_e79b_05b5_faeb }),
            (4830, 0x4080, CounterReplay),
            (4900, 0x4040, TagCorrupt { mask: 0x582d_6717_a91d_279d }),
        ]
        .map(|(cycle, addr, kind)| FaultEvent { cycle, addr, kind });
        assert_eq!(plan.events(), want);
    }

    #[test]
    fn exposure_total_and_display() {
        let e = Exposure { issued: 3, committed: 2, stores_released: 1, bus_grants: 4 };
        assert_eq!(e.total(), 10);
        assert_eq!(e.to_string(), "issued=3 committed=2 stores=1 bus=4");
    }

    #[test]
    fn tamper_error_displays_range() {
        let err = TamperError { addr: 0x30, len: 4 };
        assert_eq!(err.to_string(), "tamper of 4 byte(s) at 0x30 outside image");
    }
}
