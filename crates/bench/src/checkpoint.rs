//! Checkpointed functional fast-forward for warmup.
//!
//! Long experiment grids re-simulate the same `(bench, seed)` point
//! under many policies and latencies, and every run repeats the same
//! warmup prefix before the region of interest. The warmup prefix is
//! *functional* — architectural state and memory only, no timing — so
//! it is policy-independent: one fast-forwarded snapshot can seed the
//! whole 8-policy × latency grid.
//!
//! This module provides that snapshot. [`fast_forward`] steps the
//! golden interpreter for `warmup_insts` instructions;
//! [`warm_start`] wraps it with an on-disk checkpoint store beside the
//! sweep cache (`results/checkpoints/`), keyed by a
//! [`StableHasher`] fingerprint of `(CHECKPOINT_VERSION, bench, seed,
//! warmup_insts)`. The serialized form round-trips *exactly* (registers,
//! PC, instruction count, halt flag, memory bytes, out-of-bounds
//! counter), so a restored run is byte-for-byte identical to one that
//! fast-forwarded from scratch — the invariant the checkpoint
//! determinism tests pin.
//!
//! A restore is one copy: the fixed-size header is read onto the stack
//! and checked against the target image (magic, version, halt flag,
//! base, length) before anything is written, then the memory payload is
//! read from the file straight into the image's own bytes. No
//! intermediate buffer or second image is allocated. Because a valid
//! checkpoint overwrites every byte, the image it lands in needs no
//! pristine rewind first; the image is rewound to the pristine workload
//! only when a restore fails after writing into it (a torn payload or
//! trailing bytes), and then fast-forwarded afresh.
//!
//! Timing state is deliberately **not** checkpointed: caches, branch
//! predictor, and MAC queue start cold either way, exactly as they do
//! in a cold run, so checkpoints can never change a report.
//!
//! # Examples
//!
//! ```
//! use secsim_bench::checkpoint;
//! use secsim_isa::{Asm, FlatMem, Reg};
//!
//! let mut a = Asm::new(0x1000);
//! a.addi(Reg::R1, Reg::R0, 7);
//! a.halt();
//! let mut mem = FlatMem::new(0x1000, 1 << 12);
//! mem.load_words(0x1000, &a.assemble().unwrap());
//!
//! let st = checkpoint::fast_forward(&mut mem, 0x1000, 1);
//! assert_eq!(st.icount, 1);
//! let bytes = checkpoint::to_bytes(&st, &mem);
//! let (st2, mem2) = checkpoint::from_bytes(&bytes).unwrap();
//! assert_eq!(st, st2);
//! assert_eq!(mem.as_bytes(), mem2.as_bytes());
//! ```

use secsim_isa::{step, ArchState, FReg, FlatMem, Reg};
use secsim_stats::{StableHash, StableHasher};
use secsim_workloads::{BenchId, Workload};
use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Salt for every checkpoint key and the on-disk format version. Bump
/// on any serialization change *or* any functional-semantics change
/// that would make old snapshots diverge from a fresh fast-forward.
pub const CHECKPOINT_VERSION: u32 = 1;

/// File magic: identifies a secsim checkpoint regardless of version.
const MAGIC: &[u8; 8] = b"SSIMCKPT";

/// Bytes before the memory payload: magic, version, PC, halt flag,
/// instruction count, 32 integer and 32 FP registers, image base,
/// out-of-bounds count, payload length.
const HEADER_LEN: usize = MAGIC.len() + 4 + 4 + 1 + 8 + 32 * 4 + 32 * 8 + 4 + 8 + 8;

/// Stable checkpoint key: a fingerprint of
/// `(CHECKPOINT_VERSION, bench, seed, warmup_insts)`. Identical across
/// processes and platforms; policy and latency are deliberately absent
/// (the snapshot is shared across the whole grid).
pub fn checkpoint_key(bench: BenchId, seed: u64, warmup_insts: u64) -> u64 {
    let mut h = StableHasher::new();
    (CHECKPOINT_VERSION as u64).stable_hash(&mut h);
    bench.name().stable_hash(&mut h);
    // External programs key by content, not just (sanitized) file name,
    // mirroring the sweep cache.
    if let Some(hash) = bench.external_hash() {
        "external".stable_hash(&mut h);
        hash.stable_hash(&mut h);
    }
    seed.stable_hash(&mut h);
    warmup_insts.stable_hash(&mut h);
    h.finish()
}

/// Where checkpoints land: `checkpoints/` beside the sweep cache,
/// relocated together with it by `SECSIM_RESULTS`.
pub fn checkpoints_dir() -> PathBuf {
    crate::results_dir().join("checkpoints")
}

/// Steps the golden interpreter until `warmup_insts` instructions have
/// retired (or the program halts or faults first), mutating `mem` in
/// place, and returns the architectural state at the boundary.
///
/// A decode fault ends the fast-forward early with the PC parked on the
/// faulting instruction — the subsequent timed run re-encounters the
/// same fault and handles it under its own rules, exactly as a cold run
/// reaching that point would.
pub fn fast_forward(mem: &mut FlatMem, entry: u32, warmup_insts: u64) -> ArchState {
    let mut st = ArchState::new(entry);
    while st.icount < warmup_insts && !st.halted {
        if step(&mut st, mem).is_err() {
            break;
        }
    }
    st
}

/// Serializes a warmup snapshot: fixed-width little-endian fields, no
/// framing dependencies, fully self-describing via magic + version.
pub fn to_bytes(state: &ArchState, mem: &FlatMem) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + mem.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&state.pc.to_le_bytes());
    out.push(state.halted as u8);
    out.extend_from_slice(&state.icount.to_le_bytes());
    for i in 0..32 {
        out.extend_from_slice(&state.reg(Reg::from_index(i)).to_le_bytes());
    }
    for i in 0..32 {
        out.extend_from_slice(&state.freg(FReg::from_index(i)).to_bits().to_le_bytes());
    }
    out.extend_from_slice(&mem.base().to_le_bytes());
    out.extend_from_slice(&mem.oob_count().to_le_bytes());
    out.extend_from_slice(&(mem.len() as u64).to_le_bytes());
    out.extend_from_slice(mem.as_bytes());
    out
}

/// The fixed-size fields in front of a snapshot's memory payload.
struct Header {
    state: ArchState,
    base: u32,
    oob: u64,
    len: u64,
}

/// Parses the header of a snapshot serialized by [`to_bytes`]. `None`
/// on a wrong magic, an unknown version or a halt flag other than 0/1.
fn parse_header(bytes: &[u8; HEADER_LEN]) -> Option<Header> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.take(MAGIC.len())? != MAGIC {
        return None;
    }
    if cur.u32()? != CHECKPOINT_VERSION {
        return None;
    }
    let pc = cur.u32()?;
    let halted = match cur.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let icount = cur.u64()?;
    let mut state = ArchState::new(pc);
    state.halted = halted;
    state.icount = icount;
    for i in 0..32 {
        let v = cur.u32()?;
        state.set_reg(Reg::from_index(i), v);
    }
    for i in 0..32 {
        let v = f64::from_bits(cur.u64()?);
        state.set_freg(FReg::from_index(i), v);
    }
    let base = cur.u32()?;
    let oob = cur.u64()?;
    let len = cur.u64()?;
    Some(Header { state, base, oob, len })
}

/// Parses a snapshot serialized by [`to_bytes`]. `None` on any
/// malformation — wrong magic, unknown version, truncation or trailing
/// bytes — so a torn or stale file degrades to a fresh fast-forward,
/// never a panic.
pub fn from_bytes(bytes: &[u8]) -> Option<(ArchState, FlatMem)> {
    let (head, data) = bytes.split_first_chunk::<HEADER_LEN>()?;
    let h = parse_header(head)?;
    if data.len() as u64 != h.len {
        return None;
    }
    let mut mem = FlatMem::new(h.base, data.len());
    mem.as_bytes_mut().copy_from_slice(data);
    mem.set_oob_count(h.oob);
    Some((h.state, mem))
}

/// Why [`read_into`] restored nothing.
#[derive(Debug, PartialEq, Eq)]
enum Miss {
    /// The image was not written: no file, a short or malformed header,
    /// or a header that does not fit the image.
    Untouched,
    /// The payload was read into the image but the file turned out
    /// short or overlong, so the image holds neither its old contents
    /// nor a valid snapshot.
    Torn,
}

/// Restores the snapshot at `path` into `mem` in place: the header is
/// read onto the stack and checked against `mem`'s base and length
/// before a byte is written, then the payload is read straight into
/// `mem`'s bytes and the file must end there.
fn read_into(path: &Path, mem: &mut FlatMem) -> Result<ArchState, Miss> {
    let mut file = File::open(path).map_err(|_| Miss::Untouched)?;
    let mut head = [0; HEADER_LEN];
    file.read_exact(&mut head).map_err(|_| Miss::Untouched)?;
    let h = parse_header(&head).ok_or(Miss::Untouched)?;
    if h.base != mem.base() || h.len != mem.len() as u64 {
        return Err(Miss::Untouched);
    }
    let torn = file.read_exact(mem.as_bytes_mut()).is_err();
    if torn || file.read(&mut [0]).map_or(true, |n| n != 0) {
        return Err(Miss::Torn);
    }
    mem.set_oob_count(h.oob);
    Ok(h.state)
}

/// Fast-forwards `w` by `warmup_insts` instructions through the
/// checkpoint store and returns the warm start state. `w` must hold the
/// pristine image of `(bench, seed)`. A valid on-disk snapshot is read
/// straight into the image (one copy, from the file into the image's
/// bytes); a miss fast-forwards functionally and persists the result
/// for the rest of the grid. A snapshot that fails after its payload
/// was read into the image rewinds the image to the pristine workload
/// before that fast-forward; every other miss leaves the image as it
/// was. `warmup_insts == 0` is a cold start and touches neither the
/// image nor the store.
///
/// Store I/O is best-effort: an unreadable entry or unwritable
/// directory silently degrades to the fresh path. Writes go through a
/// per-process temporary file renamed into place, so concurrent sweep
/// workers never observe a torn checkpoint.
pub fn warm_start(bench: BenchId, seed: u64, warmup_insts: u64, w: &mut Workload) -> ArchState {
    warm_start_over(bench, seed, warmup_insts, w, true)
}

/// [`warm_start`] over an image that need not be pristine when
/// `pristine` is false: a valid snapshot overwrites every byte anyway,
/// and any miss rewinds the image to the pristine workload before it
/// fast-forwards.
pub(crate) fn warm_start_over(
    bench: BenchId,
    seed: u64,
    warmup_insts: u64,
    w: &mut Workload,
    pristine: bool,
) -> ArchState {
    if warmup_insts == 0 {
        return ArchState::new(w.entry);
    }
    let path = checkpoints_dir()
        .join(format!("{:016x}.ckpt", checkpoint_key(bench, seed, warmup_insts)));
    match read_into(&path, &mut w.mem) {
        Ok(state) => return state,
        Err(Miss::Untouched) if pristine => {}
        Err(_) => crate::rewind_to_pristine(bench, seed, &mut w.mem),
    }
    let state = fast_forward(&mut w.mem, w.entry, warmup_insts);
    save_atomic(&path, &to_bytes(&state, &w.mem));
    state
}

/// Best-effort atomic write: temp file in the target directory, then
/// rename. Failures are swallowed — a missing checkpoint only costs the
/// next run a fast-forward.
fn save_atomic(path: &Path, bytes: &[u8]) {
    let Some(dir) = path.parent() else { return };
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if fs::write(&tmp, bytes).is_ok() && fs::rename(&tmp, path).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secsim_isa::Asm;

    fn program() -> (FlatMem, u32) {
        let mut a = Asm::new(0x1000);
        a.li(Reg::R1, 0x2000);
        a.addi(Reg::R2, Reg::R0, 5);
        let top = a.new_label();
        a.bind(top).unwrap();
        a.sw(Reg::R2, Reg::R1, 0);
        a.addi(Reg::R1, Reg::R1, 4);
        a.addi(Reg::R2, Reg::R2, -1);
        a.bne(Reg::R2, Reg::R0, top);
        a.halt();
        let mut mem = FlatMem::new(0x1000, 1 << 13);
        mem.load_words(0x1000, &a.assemble().unwrap());
        (mem, 0x1000)
    }

    #[test]
    fn round_trip_is_exact() {
        let (mut mem, entry) = program();
        let st = fast_forward(&mut mem, entry, 9);
        assert_eq!(st.icount, 9);
        assert!(!st.halted);
        let bytes = to_bytes(&st, &mem);
        let (st2, mem2) = from_bytes(&bytes).expect("round trip");
        assert_eq!(st, st2);
        assert_eq!(mem, mem2);
        assert_eq!(mem.oob_count(), mem2.oob_count());
    }

    #[test]
    fn oob_counter_survives_round_trip() {
        use secsim_isa::MemIo;
        let (mut mem, entry) = program();
        mem.write_u32(0x9999_0000, 1); // out of image
        let st = fast_forward(&mut mem, entry, 3);
        let (_, mem2) = from_bytes(&to_bytes(&st, &mem)).unwrap();
        assert_eq!(mem2.oob_count(), mem.oob_count());
        assert!(mem2.oob_count() >= 1);
    }

    /// The truncation cut points both readers are run over.
    fn cuts(len: usize) -> [usize; 7] {
        [0, 4, MAGIC.len(), MAGIC.len() + 3, HEADER_LEN, len / 2, len - 1]
    }

    #[test]
    fn malformed_snapshots_are_rejected_not_panicking() {
        let (mut mem, entry) = program();
        let st = fast_forward(&mut mem, entry, 2);
        let good = to_bytes(&st, &mem);
        assert!(from_bytes(&good).is_some());
        // Truncations at every prefix length fail cleanly.
        for cut in cuts(good.len()) {
            assert!(from_bytes(&good[..cut]).is_none(), "cut={cut}");
        }
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(from_bytes(&bad).is_none());
        // Unknown version.
        let mut bad = good.clone();
        bad[MAGIC.len()] ^= 0xFF;
        assert!(from_bytes(&bad).is_none());
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(from_bytes(&bad).is_none());
    }

    #[test]
    fn streaming_reader_restores_in_place_and_rejects_truncation() {
        let (mut mem, entry) = program();
        let st = fast_forward(&mut mem, entry, 9);
        let good = to_bytes(&st, &mem);
        let path =
            std::env::temp_dir().join(format!("secsim-ckpt-reader-{}.ckpt", std::process::id()));
        let pristine = program().0;
        let read = |bytes: &[u8], target: &mut FlatMem| {
            fs::write(&path, bytes).unwrap();
            read_into(&path, target)
        };

        let mut target = pristine.clone();
        assert_eq!(read(&good, &mut target), Ok(st));
        assert_eq!(target, mem);
        // A cut inside the header leaves the image untouched; a cut in
        // the payload, or a trailing byte, is reported as torn.
        for cut in cuts(good.len()) {
            let mut target = pristine.clone();
            let miss = if cut < HEADER_LEN { Miss::Untouched } else { Miss::Torn };
            assert_eq!(read(&good[..cut], &mut target), Err(miss), "cut={cut}");
            if cut < HEADER_LEN {
                assert_eq!(target, pristine, "cut={cut} wrote into the image");
            }
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(read(&trailing, &mut pristine.clone()), Err(Miss::Torn));
        // A snapshot of an image of another size is rejected unread.
        let mut other = FlatMem::new(0x1000, 1 << 12);
        assert_eq!(read(&good, &mut other), Err(Miss::Untouched));
        assert_eq!(other, FlatMem::new(0x1000, 1 << 12));
        let _ = fs::remove_file(&path);
        assert_eq!(read_into(&path, &mut pristine.clone()), Err(Miss::Untouched), "no file");
    }

    #[test]
    fn fast_forward_stops_at_halt() {
        let (mut mem, entry) = program();
        let st = fast_forward(&mut mem, entry, 1_000_000);
        assert!(st.halted);
        assert!(st.icount < 1_000_000);
    }

    #[test]
    fn keys_separate_every_dimension() {
        let k = |b: &str, s, w| checkpoint_key(b.parse().unwrap(), s, w);
        let base = k("mcf", 2006, 1000);
        assert_ne!(base, k("gzip", 2006, 1000));
        assert_ne!(base, k("mcf", 2007, 1000));
        assert_ne!(base, k("mcf", 2006, 1001));
        assert_eq!(base, k("mcf", 2006, 1000));
    }
}
