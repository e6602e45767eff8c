//! External programs: a process-global registry of assembled or loaded
//! images, and [`BenchId::from_arg`], which turns a CLI argument into the
//! [`BenchId`] that sessions, sweep grids, cache keys and checkpoints
//! already speak.
//!
//! Registering an image returns a tiny [`ExternalId`] handle
//! (deduplicated by content hash) which [`BenchId::External`] then
//! carries through everything built-ins already flow through.
//!
//! # Examples
//!
//! ```
//! use secsim_workloads::{asm, register_program, BenchId};
//!
//! let img = asm::assemble_named("li r1, 7\nhalt\n", "tiny").unwrap();
//! let bench = BenchId::External(register_program(img));
//! assert_eq!(bench.name(), "tiny");
//! let w = bench.build(0); // seed is ignored: external bytes are fixed
//! assert_eq!((w.name, w.entry), ("tiny", 0x1000));
//! ```

use crate::asm;
use crate::prog::{ProgError, ProgramImage};
use crate::spec::BenchId;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, OnceLock, RwLock};

struct Entry {
    name: &'static str,
    image: Arc<ProgramImage>,
}

fn registry() -> &'static RwLock<Vec<Entry>> {
    static REGISTRY: OnceLock<RwLock<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Vec::new()))
}

/// Handle to a registered external program image.
///
/// Cheap to copy and stable for the life of the process; the content
/// hash rides along so cache keys never need the image itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExternalId {
    index: u32,
    hash: u64,
}

impl ExternalId {
    /// The registered (sanitized) program name.
    pub fn name(self) -> &'static str {
        registry().read().expect("registry poisoned")[self.index as usize].name
    }

    /// The image this handle refers to.
    pub fn image(self) -> Arc<ProgramImage> {
        Arc::clone(&registry().read().expect("registry poisoned")[self.index as usize].image)
    }

    /// Stable content hash of the serialized image (cache-key token).
    pub fn content_hash(self) -> u64 {
        self.hash
    }
}

/// Sanitizes a program name for use in cache filenames and reports:
/// lowercase alphanumerics plus `-`/`_`, never empty.
fn sanitize(name: &str) -> String {
    let s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    if s.is_empty() {
        "program".to_string()
    } else {
        s
    }
}

/// Registers an external program image, returning its handle.
///
/// Registration is idempotent: the same image bytes (by
/// [`ProgramImage::content_hash`]) return the same [`ExternalId`], so
/// repeated CLI invocations or tests don't grow the registry.
pub fn register_program(image: ProgramImage) -> ExternalId {
    let hash = image.content_hash();
    let mut reg = registry().write().expect("registry poisoned");
    for (i, e) in reg.iter().enumerate() {
        if e.image.content_hash() == hash {
            return ExternalId { index: i as u32, hash };
        }
    }
    let name: &'static str = Box::leak(sanitize(&image.name).into_boxed_str());
    reg.push(Entry { name, image: Arc::new(image) });
    ExternalId { index: (reg.len() - 1) as u32, hash }
}

impl BenchId {
    /// Parses a CLI argument: a benchmark name (`mcf`, `fuzz`, …), a
    /// `.sasm` source path (assembled on the spot), or a `.sprog`
    /// image path (loaded and verified). Files are registered and come
    /// back as [`BenchId::External`].
    pub fn from_arg(arg: &str) -> Result<BenchId, SourceError> {
        let path = Path::new(arg);
        match path.extension().and_then(|e| e.to_str()) {
            Some("sasm") => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| SourceError::Io { path: arg.to_string(), why: e.to_string() })?;
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("program");
                let img = asm::assemble_named(&text, stem)
                    .map_err(|d| SourceError::Asm { path: arg.to_string(), diag: d })?;
                Ok(BenchId::External(register_program(img)))
            }
            Some("sprog") => {
                let bytes = std::fs::read(path)
                    .map_err(|e| SourceError::Io { path: arg.to_string(), why: e.to_string() })?;
                let img = ProgramImage::from_bytes(&bytes)
                    .map_err(|e| SourceError::Prog { path: arg.to_string(), err: e })?;
                Ok(BenchId::External(register_program(img)))
            }
            _ => arg.parse().map_err(|_| SourceError::UnknownBench(arg.to_string())),
        }
    }
}

/// Error resolving a [`BenchId`] from a CLI argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// File could not be read.
    Io {
        /// The path as given.
        path: String,
        /// OS error text.
        why: String,
    },
    /// `.sasm` source failed to assemble.
    Asm {
        /// The path as given.
        path: String,
        /// The positioned diagnostic.
        diag: asm::AsmDiag,
    },
    /// `.sprog` image failed to load.
    Prog {
        /// The path as given.
        path: String,
        /// The loader error.
        err: ProgError,
    },
    /// Not a path and not a known benchmark name.
    UnknownBench(String),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Io { path, why } => write!(f, "{path}: {why}"),
            SourceError::Asm { path, diag } => write!(f, "{path}:{diag}"),
            SourceError::Prog { path, err } => write!(f, "{path}: {err}"),
            SourceError::UnknownBench(name) => {
                write!(f, "unknown benchmark or program file {name:?} (expected a bench name, *.sasm, or *.sprog)")
            }
        }
    }
}

impl std::error::Error for SourceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_by_content() {
        let img = asm::assemble_named("li r1, 1\nhalt\n", "Dup Test!").unwrap();
        let a = register_program(img.clone());
        let b = register_program(img);
        assert_eq!(a, b);
        assert_eq!(a.name(), "dup-test-", "name sanitized");
        let other = asm::assemble_named("li r1, 2\nhalt\n", "dup-test-").unwrap();
        let c = register_program(other);
        assert_ne!(a, c, "different bytes, different id");
    }

    #[test]
    fn from_arg_dispatches_on_extension() {
        assert_eq!(BenchId::from_arg("mcf"), Ok(BenchId::Mcf));
        assert_eq!(BenchId::from_arg("fuzz"), Ok(BenchId::Fuzz));
        assert!(matches!(BenchId::from_arg("nosuch"), Err(SourceError::UnknownBench(_))));
        assert!(matches!(BenchId::from_arg("/nonexistent/x.sasm"), Err(SourceError::Io { .. })));
        let dir = std::env::temp_dir().join("secsim-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sasm = dir.join("victim.sasm");
        std::fs::write(&sasm, "li r1, 42\nhalt\n").unwrap();
        let bench = BenchId::from_arg(sasm.to_str().unwrap()).unwrap();
        assert_eq!(bench.name(), "victim");
        let BenchId::External(e) = bench else { unreachable!("sasm parses to external") };
        let sprog = dir.join("victim.sprog");
        std::fs::write(&sprog, e.image().to_bytes()).unwrap();
        let reloaded = BenchId::from_arg(sprog.to_str().unwrap()).unwrap();
        assert_eq!(reloaded, bench, "same bytes dedup to the same id");
    }
}
