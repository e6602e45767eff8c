//! Workload assembly: program + initialized memory image.

use crate::kernels::{emit, KernelKind};
use crate::SplitMix64;
use crate::spec::{Phase, Profile};
use secsim_isa::{Asm, FReg, FlatMem, MemIo, Reg};

/// Code is placed at 4 KB; data starts at 1 MB so code and data lines
/// never collide.
pub(crate) const CODE_BASE: u32 = 0x1000;

/// First data address of every built workload. Exported so experiment
/// harnesses can derive a run's full configuration (protected region
/// base) without paying for image construction.
pub const DATA_BASE: u32 = 0x10_0000;

/// A runnable benchmark: entry point plus an initialized flat memory
/// image.
///
/// # Examples
///
/// ```
/// use secsim_workloads::BenchId;
///
/// let w = BenchId::Gzip.build(1);
/// assert!(w.mem.contains(w.entry, 4));
/// assert_eq!(w.data_base, 0x10_0000);
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (`"mcf"`, `"swim"`, …).
    pub name: &'static str,
    /// Entry PC.
    pub entry: u32,
    /// The initialized memory image (clone it per simulation run).
    pub mem: FlatMem,
    /// First data address.
    pub data_base: u32,
    /// Data footprint in bytes (power of two).
    pub data_bytes: u32,
}

impl Workload {
    /// Builds the program and image for `profile`, deterministically in
    /// `seed`.
    pub fn from_profile(profile: &Profile, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5ec5_1313);
        let footprint = profile.footprint;
        assert!(footprint.is_power_of_two(), "footprint must be a power of two");
        let mut mem = FlatMem::new(0, (DATA_BASE + footprint) as usize);

        // ---- data initialization ----
        // Fill the region with pseudo-random words (drives branchy
        // kernels and makes stream sums nontrivial).
        for addr in (DATA_BASE..DATA_BASE + footprint).step_by(4) {
            mem.write_u32(addr, rng.next_u32());
        }
        // Pointer-chase list: a Sattolo single cycle over nodes spaced
        // `node_stride` apart, overwriting the region's words at node
        // positions.
        let uses_chase =
            profile.phases.iter().any(|p| matches!(p.kind, KernelKind::PointerChase));
        if uses_chase {
            let n = (footprint / profile.node_stride).max(2);
            let mut order: Vec<u32> = (0..n).collect();
            // Sattolo's algorithm: a uniformly random single n-cycle.
            for i in (1..n as usize).rev() {
                let j = rng.index(i);
                order.swap(i, j);
            }
            for k in 0..n as usize {
                let from = DATA_BASE + order[k] * profile.node_stride;
                let to = DATA_BASE + order[(k + 1) % n as usize] * profile.node_stride;
                mem.write_u32(from, to);
            }
        }

        // ---- program ----
        let mut a = Asm::new(CODE_BASE);
        a.li(Reg::R8, DATA_BASE);
        a.li(Reg::R16, (seed as u32) | 1); // LCG seed
        a.li(Reg::R17, DATA_BASE); // chase cursor at node 0
        a.addi(Reg::R11, Reg::R0, 0); // stream offset
        a.addi(Reg::R13, Reg::R0, 0); // accumulator
        // FP constants: f1 = 3, f6 = 1
        a.addi(Reg::R12, Reg::R0, 3);
        a.fcvtif(FReg::R1, Reg::R12);
        a.addi(Reg::R12, Reg::R0, 1);
        a.fcvtif(FReg::R6, Reg::R12);

        let outer_top = a.new_label();
        a.li(Reg::R9, profile.outer_iters);
        a.bind(outer_top).expect("fresh label");
        for Phase { kind, elems, region_bytes } in &profile.phases {
            let region = if *region_bytes == 0 { footprint } else { (*region_bytes).min(footprint) };
            emit(&mut a, *kind, *elems, region - 1);
        }
        a.addi(Reg::R9, Reg::R9, -1);
        a.bne(Reg::R9, Reg::R0, outer_top);
        a.halt();

        let words = a.assemble().expect("profile programs always assemble");
        assert!(
            CODE_BASE as usize + words.len() * 4 <= DATA_BASE as usize,
            "program too large for the code region"
        );
        mem.load_words(CODE_BASE, &words);

        Workload { name: profile.name, entry: CODE_BASE, mem, data_base: DATA_BASE, data_bytes: footprint }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BenchId;
    use secsim_isa::{step, ArchState};

    #[test]
    fn mcf_builds_and_runs_functionally() {
        let p = BenchId::Mcf.profile();
        let mut w = Workload::from_profile(&p, 7);
        let mut st = ArchState::new(w.entry);
        for _ in 0..200_000 {
            if st.halted {
                break;
            }
            step(&mut st, &mut w.mem).expect("no faults in benchmark code");
        }
        // Benchmarks run long; we only require forward progress without
        // faults or out-of-region wildness.
        assert!(st.icount > 100_000 || st.halted);
        assert_eq!(w.mem.oob_count(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = BenchId::Gcc.profile();
        let a = Workload::from_profile(&p, 3);
        let b = Workload::from_profile(&p, 3);
        assert_eq!(a.mem.as_bytes(), b.mem.as_bytes());
        let c = Workload::from_profile(&p, 4);
        assert_ne!(c.mem.as_bytes(), a.mem.as_bytes());
    }

    #[test]
    fn chase_list_is_single_cycle() {
        let p = BenchId::Mcf.profile();
        let mut w = Workload::from_profile(&p, 1);
        let n = p.footprint / p.node_stride;
        let mut seen = std::collections::HashSet::new();
        let mut cursor = w.data_base;
        for _ in 0..n {
            assert!(seen.insert(cursor), "cycle shorter than node count");
            cursor = w.mem.read_u32(cursor);
            assert_eq!((cursor - w.data_base) % p.node_stride, 0);
        }
        assert_eq!(cursor, w.data_base, "not a single cycle");
    }
}
