//! The relocatable program-file format (`.sprog`) and its loader.
//!
//! A [`ProgramImage`] is what the text assembler ([`crate::asm`])
//! produces and what external workloads ship as: code words, initialized
//! data segments, an entry point, the protected-region geometry
//! (`data_base` + power-of-two `footprint`), and a relocation table that
//! lets the loader rebase the image. [`ProgramImage::to_bytes`] /
//! [`ProgramImage::from_bytes`] round-trip through a versioned,
//! checksummed binary encoding, so shipped victims are validated before
//! they reach a simulation.
//!
//! # Examples
//!
//! ```
//! use secsim_workloads::asm::assemble;
//! use secsim_workloads::ProgramImage;
//!
//! let img = assemble("li r1, 7\nhalt\n").unwrap();
//! let bytes = img.to_bytes();
//! let back = ProgramImage::from_bytes(&bytes).unwrap();
//! assert_eq!(img, back);
//! ```

use crate::builder::Workload;
use secsim_isa::{FlatMem, MemIo};
use secsim_stats::StableHasher;
use std::fmt;

/// File magic for `.sprog` images.
pub const PROG_MAGIC: &[u8; 8] = b"SSIMPROG";

/// Current (and only) on-disk format version.
pub const PROG_VERSION: u16 = 1;

/// Default data-section base when a source names none — matches the
/// built-in workloads' [`DATA_BASE`](crate::DATA_BASE).
pub const DEFAULT_DATA_BASE: u32 = crate::DATA_BASE;

/// Where a relocated absolute address lives in the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocKind {
    /// High half of a `lui`/`ori` pair: code word `at` holds
    /// `target >> 16` in its 16-bit immediate.
    Hi16,
    /// Low half of a `lui`/`ori` pair: code word `at` holds
    /// `target & 0xFFFF` in its 16-bit immediate.
    Lo16,
    /// A 4-byte little-endian absolute address at byte offset `at` of
    /// data segment `seg`.
    Word32,
}

/// One relocation record: where an absolute address was materialized
/// and what it pointed at when the image was assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reloc {
    /// Patch site interpretation (see [`RelocKind`]).
    pub kind: RelocKind,
    /// Data-segment index (`Word32`) or 0 (code kinds).
    pub seg: u32,
    /// Code word index (`Hi16`/`Lo16`) or segment byte offset
    /// (`Word32`).
    pub at: u32,
    /// The absolute address the site referred to at assembly time.
    pub target: u32,
}

/// One initialized data run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// First byte address.
    pub addr: u32,
    /// Initialized bytes.
    pub bytes: Vec<u8>,
}

impl Segment {
    /// One past the last initialized byte.
    pub fn end(&self) -> u32 {
        self.addr + self.bytes.len() as u32
    }
}

/// A loaded (or freshly assembled) relocatable program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramImage {
    /// Program name (file stem for loaded images).
    pub name: String,
    /// Entry PC.
    pub entry: u32,
    /// Address of `code[0]`.
    pub code_base: u32,
    /// Encoded instruction words.
    pub code: Vec<u32>,
    /// First protected data address.
    pub data_base: u32,
    /// Protected-region size in bytes (power of two).
    pub footprint: u32,
    /// Initialized data runs, in ascending address order.
    pub segments: Vec<Segment>,
    /// Absolute-address patch sites, for rebasing.
    pub relocs: Vec<Reloc>,
}

/// Why a program file failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgError {
    /// The file does not start with [`PROG_MAGIC`].
    BadMagic,
    /// The file's version is not [`PROG_VERSION`].
    UnsupportedVersion {
        /// Version found in the file.
        found: u16,
    },
    /// The file ended before the encoded structure did.
    Truncated {
        /// Byte offset at which the read ran out.
        at: usize,
    },
    /// The trailing checksum does not match the payload.
    BadChecksum,
    /// A structurally valid file violated an image invariant.
    Invalid(String),
}

impl fmt::Display for ProgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgError::BadMagic => write!(f, "not a secsim program: bad magic"),
            ProgError::UnsupportedVersion { found } => {
                write!(f, "unsupported program format version {found} (expected {PROG_VERSION})")
            }
            ProgError::Truncated { at } => write!(f, "truncated program file at byte {at}"),
            ProgError::BadChecksum => write!(f, "program file checksum mismatch"),
            ProgError::Invalid(why) => write!(f, "invalid program image: {why}"),
        }
    }
}

impl std::error::Error for ProgError {}

impl ProgramImage {
    /// One past the last code byte.
    pub fn code_end(&self) -> u32 {
        self.code_base + (self.code.len() as u32) * 4
    }

    /// Checks every image invariant the simulator relies on.
    ///
    /// # Errors
    ///
    /// [`ProgError::Invalid`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), ProgError> {
        let invalid = |why: String| Err(ProgError::Invalid(why));
        if self.code.is_empty() {
            return invalid("no code".into());
        }
        if !self.code_base.is_multiple_of(4) {
            return invalid(format!("code base {:#x} not word aligned", self.code_base));
        }
        if !self.footprint.is_power_of_two() {
            return invalid(format!("footprint {} is not a power of two", self.footprint));
        }
        // Both ends must be addressable: every later use of `code_end`
        // and `data_base + footprint` relies on it.
        let code_end = u64::from(self.code_base) + 4 * self.code.len() as u64;
        if code_end > u64::from(u32::MAX) {
            return invalid(format!(
                "code [{:#x}, {code_end:#x}) ends outside the 32-bit address space",
                self.code_base
            ));
        }
        let region_end = u64::from(self.data_base) + u64::from(self.footprint);
        if region_end > u64::from(u32::MAX) {
            return invalid(format!(
                "protected region [{:#x}, {region_end:#x}) ends outside the 32-bit address space",
                self.data_base
            ));
        }
        let (code_end, region_end) = (code_end as u32, region_end as u32);
        if !self.entry.is_multiple_of(4) || self.entry < self.code_base || self.entry >= code_end {
            return invalid(format!("entry {:#x} outside code", self.entry));
        }
        if code_end > self.data_base && self.data_base != 0 {
            return invalid(format!(
                "code [{:#x}, {code_end:#x}) overlaps data base {:#x}",
                self.code_base, self.data_base
            ));
        }
        let mut prev_end = 0u32;
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.bytes.is_empty() {
                return invalid(format!("segment {i} is empty"));
            }
            let Some(end) = seg.addr.checked_add(seg.bytes.len() as u32) else {
                return invalid(format!("segment {i} wraps the address space"));
            };
            if seg.addr < code_end && end > self.code_base {
                return invalid(format!("segment {i} overlaps code"));
            }
            if i > 0 && seg.addr < prev_end {
                return invalid(format!("segment {i} overlaps segment {}", i - 1));
            }
            if seg.addr < self.data_base || end > region_end {
                return invalid(format!(
                    "segment {i} [{:#x}, {end:#x}) outside protected region [{:#x}, {region_end:#x})",
                    seg.addr, self.data_base
                ));
            }
            prev_end = end;
        }
        for (i, r) in self.relocs.iter().enumerate() {
            let ok = match r.kind {
                RelocKind::Hi16 | RelocKind::Lo16 => (r.at as usize) < self.code.len(),
                RelocKind::Word32 => self
                    .segments
                    .get(r.seg as usize)
                    .is_some_and(|s| (r.at as usize) + 4 <= s.bytes.len()),
            };
            if !ok {
                return invalid(format!("relocation {i} points outside the image"));
            }
        }
        Ok(())
    }

    /// Moves the image to a new code base, patching every relocation
    /// whose target lay inside the old code section. Data segments and
    /// `data_base` are unchanged.
    ///
    /// # Errors
    ///
    /// [`ProgError::Invalid`] if the rebased image violates an
    /// invariant (e.g. code now overlaps data).
    pub fn rebase_code(mut self, new_base: u32) -> Result<Self, ProgError> {
        let old_base = self.code_base;
        let old_end = self.code_end();
        let delta = new_base.wrapping_sub(old_base);
        let shift =
            |target: u32| if (old_base..old_end).contains(&target) { target.wrapping_add(delta) } else { target };
        for i in 0..self.relocs.len() {
            let r = self.relocs[i];
            let target = shift(r.target);
            self.relocs[i].target = target;
            match r.kind {
                RelocKind::Hi16 => {
                    let w = &mut self.code[r.at as usize];
                    *w = (*w & 0xFFFF_0000) | (target >> 16);
                }
                RelocKind::Lo16 => {
                    let w = &mut self.code[r.at as usize];
                    *w = (*w & 0xFFFF_0000) | (target & 0xFFFF);
                }
                RelocKind::Word32 => {
                    let seg = &mut self.segments[r.seg as usize];
                    seg.bytes[r.at as usize..r.at as usize + 4]
                        .copy_from_slice(&target.to_le_bytes());
                }
            }
        }
        self.entry = self.entry.wrapping_add(delta);
        self.code_base = new_base;
        self.validate()?;
        Ok(self)
    }

    /// A stable fingerprint of the full image content — the cache-key
    /// identity of an external program ("StableHash over program
    /// bytes").
    pub fn content_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write(&self.to_bytes());
        h.finish()
    }

    /// Serializes to the versioned `.sprog` encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(PROG_MAGIC);
        out.extend_from_slice(&PROG_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.name.len() as u16).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&self.entry.to_le_bytes());
        out.extend_from_slice(&self.code_base.to_le_bytes());
        out.extend_from_slice(&self.data_base.to_le_bytes());
        out.extend_from_slice(&self.footprint.to_le_bytes());
        out.extend_from_slice(&(self.code.len() as u32).to_le_bytes());
        for w in &self.code {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for seg in &self.segments {
            out.extend_from_slice(&seg.addr.to_le_bytes());
            out.extend_from_slice(&(seg.bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&seg.bytes);
        }
        out.extend_from_slice(&(self.relocs.len() as u32).to_le_bytes());
        for r in &self.relocs {
            let kind = match r.kind {
                RelocKind::Hi16 => 0u8,
                RelocKind::Lo16 => 1,
                RelocKind::Word32 => 2,
            };
            out.push(kind);
            out.extend_from_slice(&r.seg.to_le_bytes());
            out.extend_from_slice(&r.at.to_le_bytes());
            out.extend_from_slice(&r.target.to_le_bytes());
        }
        let mut h = StableHasher::new();
        h.write(&out);
        out.extend_from_slice(&h.finish().to_le_bytes());
        out
    }

    /// Parses and validates a `.sprog` file.
    ///
    /// # Errors
    ///
    /// A typed [`ProgError`]: wrong magic, unsupported version,
    /// truncation, checksum mismatch, or a violated image invariant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ProgError> {
        let mut cur = Cursor { bytes, pos: 0 };
        if cur.take(PROG_MAGIC.len())? != PROG_MAGIC {
            return Err(ProgError::BadMagic);
        }
        let version = cur.u16()?;
        if version != PROG_VERSION {
            return Err(ProgError::UnsupportedVersion { found: version });
        }
        let name_len = cur.u16()? as usize;
        let name = String::from_utf8(cur.take(name_len)?.to_vec())
            .map_err(|_| ProgError::Invalid("name is not UTF-8".into()))?;
        let entry = cur.u32()?;
        let code_base = cur.u32()?;
        let data_base = cur.u32()?;
        let footprint = cur.u32()?;
        let ncode = cur.u32()? as usize;
        let mut code = Vec::with_capacity(ncode.min(1 << 20));
        for _ in 0..ncode {
            code.push(cur.u32()?);
        }
        let nsegs = cur.u32()? as usize;
        let mut segments = Vec::with_capacity(nsegs.min(1 << 10));
        for _ in 0..nsegs {
            let addr = cur.u32()?;
            let len = cur.u32()? as usize;
            segments.push(Segment { addr, bytes: cur.take(len)?.to_vec() });
        }
        let nrelocs = cur.u32()? as usize;
        let mut relocs = Vec::with_capacity(nrelocs.min(1 << 16));
        for _ in 0..nrelocs {
            let kind = match cur.u8()? {
                0 => RelocKind::Hi16,
                1 => RelocKind::Lo16,
                2 => RelocKind::Word32,
                k => return Err(ProgError::Invalid(format!("unknown relocation kind {k}"))),
            };
            let seg = cur.u32()?;
            let at = cur.u32()?;
            let target = cur.u32()?;
            relocs.push(Reloc { kind, seg, at, target });
        }
        let payload_end = cur.pos;
        let checksum = cur.u64()?;
        if cur.pos != bytes.len() {
            return Err(ProgError::Invalid("trailing bytes after checksum".into()));
        }
        let mut h = StableHasher::new();
        h.write(&bytes[..payload_end]);
        if h.finish() != checksum {
            return Err(ProgError::BadChecksum);
        }
        let img =
            Self { name, entry, code_base, data_base, footprint, segments, relocs, code };
        img.validate()?;
        Ok(img)
    }

    /// Instantiates the runnable [`Workload`]: a flat memory image
    /// sized like the built-in workloads' (base 0 through the end of
    /// the protected region), code and segments loaded in place.
    ///
    /// `name` is the workload label — the external-program registry
    /// passes its interned copy so cloning workloads never re-leaks.
    pub fn workload(&self, name: &'static str) -> Workload {
        let end = (self.data_base + self.footprint).max(self.code_end());
        let mut mem = FlatMem::new(0, end as usize);
        mem.load_words(self.code_base, &self.code);
        for seg in &self.segments {
            mem.write(seg.addr, &seg.bytes);
        }
        Workload {
            name,
            entry: self.entry,
            mem,
            data_base: self.data_base,
            data_bytes: self.footprint,
        }
    }
}

/// Bounds-checked little-endian reader that reports *where* a short
/// file ran out.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProgError> {
        let at = self.pos;
        let end = at.checked_add(n).ok_or(ProgError::Truncated { at })?;
        let s = self.bytes.get(at..end).ok_or(ProgError::Truncated { at })?;
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ProgError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ProgError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("two bytes")))
    }
    fn u32(&mut self) -> Result<u32, ProgError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("four bytes")))
    }
    fn u64(&mut self) -> Result<u64, ProgError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("eight bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> ProgramImage {
        ProgramImage {
            name: "t".into(),
            entry: 0x1000,
            code_base: 0x1000,
            code: vec![0x1234_5678, 0x9ABC_DEF0],
            data_base: 0x10_0000,
            footprint: 4096,
            segments: vec![Segment { addr: 0x10_0000, bytes: vec![1, 2, 3, 4] }],
            relocs: vec![Reloc { kind: RelocKind::Word32, seg: 0, at: 0, target: 0x10_0000 }],
        }
    }

    #[test]
    fn round_trip_exact() {
        let img = image();
        let bytes = img.to_bytes();
        assert_eq!(ProgramImage::from_bytes(&bytes).unwrap(), img);
        assert_eq!(img.content_hash(), ProgramImage::from_bytes(&bytes).unwrap().content_hash());
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = image().to_bytes();
        for cut in 0..bytes.len() {
            let err = ProgramImage::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, ProgError::Truncated { .. } | ProgError::BadMagic),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_version_checksum() {
        let good = image().to_bytes();
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(ProgramImage::from_bytes(&bad), Err(ProgError::BadMagic));
        let mut bad = good.clone();
        bad[8] = 0x7F; // version field
        assert!(matches!(
            ProgramImage::from_bytes(&bad),
            Err(ProgError::UnsupportedVersion { found: 0x7F })
        ));
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1; // checksum byte
        assert_eq!(ProgramImage::from_bytes(&bad), Err(ProgError::BadChecksum));
        // A payload flip that no field parser can notice (reloc target
        // data) is still caught — by the checksum, not a panic.
        let mut bad = good.clone();
        let last_payload = bad.len() - 9;
        bad[last_payload] ^= 1;
        assert_eq!(ProgramImage::from_bytes(&bad), Err(ProgError::BadChecksum));
    }

    #[test]
    fn invariants_are_enforced() {
        let mut img = image();
        img.footprint = 4097;
        assert!(matches!(img.validate(), Err(ProgError::Invalid(_))));
        let mut img = image();
        img.entry = 0x2000;
        assert!(matches!(img.validate(), Err(ProgError::Invalid(_))));
        let mut img = image();
        img.segments[0].addr = 0x0FFF_FFF0;
        assert!(matches!(img.validate(), Err(ProgError::Invalid(_))));
    }

    #[test]
    fn rebase_patches_relocs() {
        let mut img = image();
        // Make the reloc point into code so the rebase moves it.
        img.relocs = vec![
            Reloc { kind: RelocKind::Word32, seg: 0, at: 0, target: 0x1004 },
            Reloc { kind: RelocKind::Hi16, seg: 0, at: 0, target: 0x1004 },
            Reloc { kind: RelocKind::Lo16, seg: 0, at: 1, target: 0x1004 },
        ];
        let img = img.rebase_code(0x2000).unwrap();
        assert_eq!(img.code_base, 0x2000);
        assert_eq!(img.entry, 0x2000);
        assert_eq!(&img.segments[0].bytes[..4], &0x2004u32.to_le_bytes());
        assert_eq!(img.code[0] & 0xFFFF, 0x2004 >> 16);
        assert_eq!(img.code[1] & 0xFFFF, 0x2004 & 0xFFFF);
        // Targets outside code stay put.
        let img2 = image().rebase_code(0x3000).unwrap();
        assert_eq!(img2.relocs[0].target, 0x10_0000);
    }

    #[test]
    fn workload_places_code_and_data() {
        let img = image();
        let mut w = img.workload("t");
        assert_eq!(w.entry, 0x1000);
        assert_eq!(w.mem.read_u32(0x1000), 0x1234_5678);
        assert_eq!(w.mem.read_u32(0x10_0000), u32::from_le_bytes([1, 2, 3, 4]));
        assert_eq!(w.data_bytes, 4096);
        assert_eq!(w.mem.len(), (0x10_0000 + 4096) as usize);
    }
}
