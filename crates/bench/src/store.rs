//! The content-addressed simulation-result store.
//!
//! `results/cache/` grew up: what used to be ad-hoc per-sweep JSON
//! files is now a [`ResultStore`] — one shared, deduplicated result
//! tier that every experiment binary *and* the `secsim-serve` job
//! server sit on top of.
//!
//! # Layout and schema
//!
//! Every entry is one file, `<bench>-<key:016x>.json`, addressed by the
//! [`SweepPoint::key`](crate::SweepPoint::key) fingerprint of the full
//! run configuration (benchmark identity + seed + `SimConfig` + warmup,
//! salted with [`CACHE_VERSION`](crate::CACHE_VERSION)). The body is a
//! versioned envelope:
//!
//! ```json
//! {"version":2,"bench":"mcf","key":"00a1…","report":{…},"sum":"…"}
//! ```
//!
//! `sum` is a stable fingerprint of the rendered report; entries whose
//! checksum is missing or disagrees, whose report holds a number too
//! large for `f64` (`1e999`), or whose embedded key or schema version
//! disagree, are treated as misses (and counted under `bad_entries`) —
//! a corrupt or stale entry can degrade performance, never correctness.
//!
//! # Concurrency: claims
//!
//! Atomic tmp-file + rename writes already guaranteed no *torn* entry;
//! claims add cross-process **in-flight dedup**. Before simulating a
//! missing point, a worker tries to create `.claim-<key:016x>` with
//! `O_EXCL`:
//!
//! * **won** — this worker simulates and publishes the entry; the claim
//!   file is removed afterwards (even on panic — it rides an RAII
//!   ticket).
//! * **lost** — some other worker (possibly another process) is already
//!   simulating the same point; [`ResultStore::await_entry`] polls for
//!   the published entry instead of burning a core on a duplicate run.
//!   A claim whose file stops aging (a crashed owner) is broken after
//!   [`ResultStore::with_claim_wait`] and the waiter simulates after
//!   all — duplicated work in a crash corner, never a wrong result and
//!   never a deadlock.
//!
//! # Eviction
//!
//! With a byte budget configured (`SECSIM_STORE_BYTES`, `--store-bytes`,
//! or [`ResultStore::with_budget`]), the store evicts
//! least-recently-used entries after each write until it fits. Recency
//! is exact within a process and seeded from file modification times
//! across processes. The newest entry is never evicted, so a store
//! under pressure still serves the fan-in it was just written for.

use secsim_cpu::SimReport;
use secsim_stats::{Json, StableHash, StableHasher};
use secsim_workloads::SplitMix64;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Outcome of trying to claim a missing point for simulation.
#[derive(Debug)]
pub enum Claim {
    /// This worker simulates the point. The ticket (when the claim file
    /// could be created at all) removes the marker on drop.
    Won(Option<ClaimTicket>),
    /// Another worker — possibly in another process — is already
    /// simulating this point; wait for its entry via
    /// [`ResultStore::await_entry`].
    Lost,
}

/// RAII marker for a won claim: dropping it removes the on-disk
/// `.claim-<key>` file, releasing waiters.
#[derive(Debug)]
pub struct ClaimTicket {
    path: PathBuf,
}

impl Drop for ClaimTicket {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// A point-in-time snapshot of the store's counters (the `status`
/// payload of `secsim-serve`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no (valid) entry; a point's rechecks within
    /// one resolution count no further miss.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries deleted by the LRU budget.
    pub evictions: u64,
    /// Entries rejected by version/key/checksum validation.
    pub bad_entries: u64,
    /// Claims this store won (simulations it ran).
    pub claims_won: u64,
    /// Claims lost to a concurrent worker (cross-process in-flight
    /// dedup: the waiter reused the winner's entry instead of
    /// re-simulating).
    pub claims_lost: u64,
    /// Stale claims broken after the wait deadline.
    pub claim_breaks: u64,
    /// Torn `.tmp-` files removed by [`ResultStore::scavenge`] (a
    /// writer crashed between `write` and `rename`).
    pub scavenged_tmp: u64,
    /// Stale `.claim-` files removed by [`ResultStore::scavenge`] (a
    /// claim owner crashed without releasing).
    pub scavenged_claims: u64,
}

impl StoreCounters {
    /// JSON for the `status` response.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hits", Json::UInt(self.hits)),
            ("misses", Json::UInt(self.misses)),
            ("stores", Json::UInt(self.stores)),
            ("evictions", Json::UInt(self.evictions)),
            ("bad_entries", Json::UInt(self.bad_entries)),
            ("claims_won", Json::UInt(self.claims_won)),
            ("claims_lost", Json::UInt(self.claims_lost)),
            ("claim_breaks", Json::UInt(self.claim_breaks)),
            ("scavenged_tmp", Json::UInt(self.scavenged_tmp)),
            ("scavenged_claims", Json::UInt(self.scavenged_claims)),
        ])
    }
}

/// In-process LRU bookkeeping, maintained only when a byte budget is
/// configured.
#[derive(Debug, Default)]
struct LruState {
    scanned: bool,
    seq: u64,
    total: u64,
    entries: HashMap<u64, EntryMeta>,
}

#[derive(Debug)]
struct EntryMeta {
    path: PathBuf,
    len: u64,
    last_use: u64,
}

/// The content-addressed result store. See the module docs.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    budget: Option<u64>,
    claim_wait: Duration,
    scavenge_age: Duration,
    lru: Mutex<LruState>,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    bad_entries: AtomicU64,
    claims_won: AtomicU64,
    claims_lost: AtomicU64,
    claim_breaks: AtomicU64,
    scavenged_tmp: AtomicU64,
    scavenged_claims: AtomicU64,
}

/// Why a read of an entry found nothing usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Miss {
    /// No entry file (or one that could not be read).
    Absent,
    /// An entry that failed version, key, number or checksum validation.
    Bad,
}

/// Default patience for a lost claim before the waiter assumes the
/// owner crashed, breaks the claim, and simulates itself.
const DEFAULT_CLAIM_WAIT: Duration = Duration::from_secs(600);

/// Default minimum age before a `.tmp-` file counts as torn. Long
/// enough that no live writer — which holds a tmp file for milliseconds
/// between `write` and `rename` — can be swept out from under itself.
const DEFAULT_SCAVENGE_AGE: Duration = Duration::from_secs(60);

impl ResultStore {
    /// A store over `dir`. The byte budget comes from
    /// `SECSIM_STORE_BYTES` when set (0 = unlimited), and the stale-
    /// claim deadline from `SECSIM_CLAIM_STALE_SECS`.
    pub fn new(dir: PathBuf) -> Self {
        let budget = std::env::var("SECSIM_STORE_BYTES")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .filter(|&n| n > 0);
        let claim_wait = std::env::var("SECSIM_CLAIM_STALE_SECS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map_or(DEFAULT_CLAIM_WAIT, Duration::from_secs);
        Self {
            dir,
            budget,
            claim_wait,
            scavenge_age: DEFAULT_SCAVENGE_AGE,
            lru: Mutex::new(LruState::default()),
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bad_entries: AtomicU64::new(0),
            claims_won: AtomicU64::new(0),
            claims_lost: AtomicU64::new(0),
            claim_breaks: AtomicU64::new(0),
            scavenged_tmp: AtomicU64::new(0),
            scavenged_claims: AtomicU64::new(0),
        }
    }

    /// Overrides the LRU byte budget (`None` = never evict).
    pub fn with_budget(mut self, bytes: Option<u64>) -> Self {
        self.budget = bytes.filter(|&n| n > 0);
        self
    }

    /// Overrides how long a lost claim is waited on before it is
    /// considered stale and broken.
    pub fn with_claim_wait(mut self, wait: Duration) -> Self {
        self.claim_wait = wait;
        self
    }

    /// Overrides the minimum age before a `.tmp-` file counts as torn
    /// for [`scavenge`](ResultStore::scavenge) (tests use `ZERO`).
    pub fn with_scavenge_age(mut self, age: Duration) -> Self {
        self.scavenge_age = age;
        self
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Current counter values.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bad_entries: self.bad_entries.load(Ordering::Relaxed),
            claims_won: self.claims_won.load(Ordering::Relaxed),
            claims_lost: self.claims_lost.load(Ordering::Relaxed),
            claim_breaks: self.claim_breaks.load(Ordering::Relaxed),
            scavenged_tmp: self.scavenged_tmp.load(Ordering::Relaxed),
            scavenged_claims: self.scavenged_claims.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, bench: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{bench}-{key:016x}.json"))
    }

    fn claim_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!(".claim-{key:016x}"))
    }

    /// Looks up an entry, validating version, embedded key, and
    /// checksum. Counts a hit or a miss, and a bad entry.
    pub fn load(&self, bench: &str, key: u64) -> Option<SimReport> {
        match self.read(bench, key) {
            Ok(r) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            Err(miss) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if miss == Miss::Bad {
                    self.bad_entries.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// A later look at an entry whose miss a [`load`](ResultStore::load)
    /// has already counted: a hit counts as a hit, but a miss or a bad
    /// entry is not counted again, so one resolution of a point counts
    /// at most one of each.
    pub(crate) fn recheck(&self, bench: &str, key: u64) -> Option<SimReport> {
        let r = self.read(bench, key).ok()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(r)
    }

    /// Reads and validates an entry without counting anything.
    fn read(&self, bench: &str, key: u64) -> Result<SimReport, Miss> {
        let path = self.entry_path(bench, key);
        let text = retry_io(key, || fs::read_to_string(&path)).ok_or(Miss::Absent)?;
        let parsed = (|| {
            let v = Json::parse(&text).ok()?;
            if v.get("version")?.as_u64()? != crate::CACHE_VERSION {
                return None;
            }
            if v.get("key")?.as_str()? != format!("{key:016x}") {
                return None;
            }
            let report = v.get("report")?;
            if !all_finite(report) || v.get("sum")?.as_str()? != report_sum(report) {
                return None;
            }
            SimReport::from_json(report)
        })();
        let r = parsed.ok_or(Miss::Bad)?;
        self.touch(key);
        Ok(r)
    }

    /// Publishes an entry atomically (tmp + rename), then applies the
    /// eviction budget. I/O failures degrade to a skipped store.
    /// Returns whether the entry was written.
    pub fn put(&self, bench: &str, key: u64, report: &SimReport) -> bool {
        // Traced reports refuse to serialize; sweeps never trace.
        let Some(body) = render_entry(bench, key, report) else { return false };
        let path = self.entry_path(bench, key);
        if retry_io(key ^ 0x5eed, || fs::create_dir_all(&self.dir)).is_none() {
            return false;
        }
        let tmp = self.dir.join(format!(
            ".tmp-{key:016x}-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let committed = retry_io(key, || {
            fs::write(&tmp, &body)?;
            fs::rename(&tmp, &path)
        });
        if committed.is_none() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.record_and_evict(key, path, body.len() as u64);
        true
    }

    /// Tries to claim the right to simulate a missing point. See the
    /// module docs for the protocol.
    pub fn claim(&self, key: u64) -> Claim {
        let path = self.claim_path(key);
        if fs::create_dir_all(&self.dir).is_err() {
            // No store directory, no coordination: simulate locally and
            // let `put` fail silently too.
            self.claims_won.fetch_add(1, Ordering::Relaxed);
            return Claim::Won(None);
        }
        match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                use std::io::Write as _;
                let _ = write!(f, "{}", std::process::id());
                self.claims_won.fetch_add(1, Ordering::Relaxed);
                Claim::Won(Some(ClaimTicket { path }))
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                self.claims_lost.fetch_add(1, Ordering::Relaxed);
                Claim::Lost
            }
            Err(_) => {
                // An unwritable directory must not block the sweep:
                // proceed unclaimed (duplicate work at worst).
                self.claims_won.fetch_add(1, Ordering::Relaxed);
                Claim::Won(None)
            }
        }
    }

    /// After losing a claim: polls for the winner's entry. Returns
    /// `None` when the claim disappeared without an entry (the winner
    /// failed to publish) or went stale — the caller simulates itself.
    /// A poll counts only a hit: the `load` before the claim counted the
    /// miss, so a bad entry polled again and again still counts once.
    pub fn await_entry(&self, bench: &str, key: u64) -> Option<SimReport> {
        let claim = self.claim_path(key);
        loop {
            if let Some(r) = self.recheck(bench, key) {
                return Some(r);
            }
            match fs::metadata(&claim) {
                Err(_) => {
                    // Claim released: either the entry landed (caught on
                    // the next poll) or the winner gave up storing.
                    return self.recheck(bench, key);
                }
                Ok(meta) => {
                    let age = meta
                        .modified()
                        .ok()
                        .and_then(|m| m.elapsed().ok())
                        .unwrap_or(Duration::ZERO);
                    if age > self.claim_wait {
                        // The owner looks dead; break its claim so the
                        // grid cannot wedge on a crashed process.
                        let _ = fs::remove_file(&claim);
                        self.claim_breaks.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Bumps LRU recency on a hit (budgeted stores only).
    fn touch(&self, key: u64) {
        if self.budget.is_none() {
            return;
        }
        let mut lru = self.lru.lock().expect("lru poisoned");
        lru.seq += 1;
        let seq = lru.seq;
        if let Some(meta) = lru.entries.get_mut(&key) {
            meta.last_use = seq;
        }
    }

    /// Registers a fresh entry and evicts least-recently-used entries
    /// until the store fits its budget. The entry just written is never
    /// evicted.
    fn record_and_evict(&self, key: u64, path: PathBuf, len: u64) {
        let Some(budget) = self.budget else { return };
        let mut lru = self.lru.lock().expect("lru poisoned");
        self.ensure_scanned(&mut lru);
        lru.seq += 1;
        let seq = lru.seq;
        match lru.entries.insert(key, EntryMeta { path, len, last_use: seq }) {
            Some(old) => lru.total = lru.total - old.len + len,
            None => lru.total += len,
        }
        while lru.total > budget && lru.entries.len() > 1 {
            let Some((&victim, _)) = lru
                .entries
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, m)| m.last_use)
            else {
                break;
            };
            let meta = lru.entries.remove(&victim).expect("victim present");
            lru.total -= meta.len;
            let _ = fs::remove_file(&meta.path);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Crash recovery: removes debris left by crashed writers.
    ///
    /// * `.tmp-…` files older than the scavenge age are torn writes (a
    ///   writer died between `write` and `rename`); a live writer holds
    ///   its tmp file for milliseconds, so age discriminates safely.
    /// * `.claim-…` files older than the claim-wait deadline belong to
    ///   owners that crashed without releasing; removing them up front
    ///   spares every later waiter the full stale-claim timeout.
    ///
    /// Entries themselves are never touched (atomic rename means an
    /// entry either exists whole or not at all). Returns
    /// `(tmp_removed, claims_removed)` and bumps the corresponding
    /// counters, which `status` surfaces. `secsim-serve` calls this at
    /// startup.
    pub fn scavenge(&self) -> (u64, u64) {
        let Ok(dir) = fs::read_dir(&self.dir) else { return (0, 0) };
        let (mut tmp, mut claims) = (0u64, 0u64);
        for entry in dir.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let threshold = if name.starts_with(".tmp-") {
                self.scavenge_age
            } else if name.starts_with(".claim-") {
                self.claim_wait
            } else {
                continue;
            };
            let age = entry
                .metadata()
                .ok()
                .and_then(|m| m.modified().ok())
                .and_then(|m| m.elapsed().ok())
                .unwrap_or(Duration::ZERO);
            if age >= threshold && fs::remove_file(&path).is_ok() {
                if name.starts_with(".tmp-") {
                    tmp += 1;
                } else {
                    claims += 1;
                }
            }
        }
        self.scavenged_tmp.fetch_add(tmp, Ordering::Relaxed);
        self.scavenged_claims.fetch_add(claims, Ordering::Relaxed);
        (tmp, claims)
    }

    /// Seeds the LRU map from the directory (oldest mtime = least
    /// recent), once per process.
    fn ensure_scanned(&self, lru: &mut LruState) {
        if lru.scanned {
            return;
        }
        lru.scanned = true;
        let Ok(dir) = fs::read_dir(&self.dir) else { return };
        let mut found: Vec<(u64, PathBuf, u64, std::time::SystemTime)> = Vec::new();
        for entry in dir.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(key) = entry_key_from_name(name) else { continue };
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            found.push((key, path, meta.len(), mtime));
        }
        found.sort_by_key(|&(_, _, _, mtime)| mtime);
        for (key, path, len, _) in found {
            lru.seq += 1;
            let seq = lru.seq;
            if lru.entries.insert(key, EntryMeta { path, len, last_use: seq }).is_none() {
                lru.total += len;
            }
        }
    }
}

/// Extracts the 16-hex-digit key from an entry filename
/// (`<bench>-<key>.json`); `None` for tmp/claim/other files.
fn entry_key_from_name(name: &str) -> Option<u64> {
    if name.starts_with('.') {
        return None;
    }
    let stem = name.strip_suffix(".json")?;
    let (_, hex) = stem.rsplit_once('-')?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Whether every number in `v` is finite. `Json::parse` reads `1e999`
/// as an infinite float, which has no rendering, so a report holding
/// one must be refused before [`report_sum`] renders it. (A `SimReport`
/// renders no floats at all.) The recursion is bounded by the parser's
/// depth limit.
fn all_finite(v: &Json) -> bool {
    match v {
        Json::Float(f) => f.is_finite(),
        Json::Array(items) => items.iter().all(all_finite),
        Json::Object(pairs) => pairs.iter().all(|(_, x)| all_finite(x)),
        _ => true,
    }
}

/// Stable checksum over a rendered report (the `sum` field).
fn report_sum(report: &Json) -> String {
    let mut h = StableHasher::new();
    report.render().stable_hash(&mut h);
    format!("{:016x}", h.finish())
}

/// The full entry body for `(bench, key, report)`; `None` when the
/// report refuses to serialize (traced runs).
fn render_entry(bench: &str, key: u64, report: &SimReport) -> Option<String> {
    let report = report.to_json()?;
    let sum = report_sum(&report);
    Some(
        Json::obj(vec![
            ("version", Json::UInt(crate::CACHE_VERSION)),
            ("bench", Json::Str(bench.to_string())),
            ("key", Json::Str(format!("{key:016x}"))),
            ("report", report),
            ("sum", Json::Str(sum)),
        ])
        .render(),
    )
}

/// Runs one store-file operation with up to three attempts, sleeping a
/// short jittered backoff ([`client::backoff`](crate::client::backoff))
/// between tries. A transient filesystem error (EIO, ENOSPC, EAGAIN…)
/// on the shared store directory thus degrades to a miss / skipped
/// store instead of failing the sweep. `NotFound` is the ordinary miss
/// and returns immediately.
pub(crate) fn retry_io<T>(salt: u64, mut op: impl FnMut() -> std::io::Result<T>) -> Option<T> {
    const ATTEMPTS: u32 = 3;
    for attempt in 0..ATTEMPTS {
        match op() {
            Ok(v) => return Some(v),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(_) => {
                if attempt + 1 == ATTEMPTS {
                    return None;
                }
                // Deterministic jitter (SplitMix64 over the key and
                // attempt) desynchronizes workers retrying against the
                // same directory: 200–400 µs after the first failure,
                // 400–800 µs after the second.
                let mut rng = SplitMix64::new(salt ^ (u64::from(attempt) << 56));
                let micros = crate::client::backoff(400, 800, attempt + 1, &mut rng);
                std::thread::sleep(Duration::from_micros(micros));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("secsim-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn report(insts: u64) -> SimReport {
        SimReport { insts, cycles: insts * 2, halted: true, ..Default::default() }
    }

    #[test]
    fn put_load_round_trip_with_checksum() {
        let dir = temp_dir("roundtrip");
        let store = ResultStore::new(dir.clone());
        assert!(store.put("mcf", 0xabc, &report(100)));
        let r = store.load("mcf", 0xabc).expect("hit");
        assert_eq!(r.insts, 100);
        let c = store.counters();
        assert_eq!((c.stores, c.hits, c.misses), (1, 1, 0));
        // The entry body carries a verifiable checksum.
        let body = fs::read_to_string(store.dir().join("mcf-0000000000000abc.json")).unwrap();
        assert!(body.contains("\"sum\":\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checksum_is_a_miss() {
        let dir = temp_dir("sum");
        let store = ResultStore::new(dir.clone());
        store.put("mcf", 7, &report(5));
        let path = store.entry_path("mcf", 7);
        let body = fs::read_to_string(&path).unwrap();
        // Flip one report byte but keep valid JSON: the checksum catches
        // what version/key validation cannot.
        let forged = body.replacen("\"insts\":5", "\"insts\":6", 1);
        assert_ne!(forged, body);
        fs::write(&path, forged).unwrap();
        assert!(store.load("mcf", 7).is_none());
        assert_eq!(store.counters().bad_entries, 1);
        // An entry without its checksum is just as unverifiable.
        let sum_at = body.find(",\"sum\":").expect("entry carries a sum");
        fs::write(&path, format!("{}}}", &body[..sum_at])).unwrap();
        assert!(Json::parse(&fs::read_to_string(&path).unwrap()).is_ok(), "still valid JSON");
        assert!(store.load("mcf", 7).is_none());
        assert_eq!(store.counters().bad_entries, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_entry_is_a_miss() {
        let dir = temp_dir("nested");
        let store = ResultStore::new(dir.clone());
        store.put("mcf", 7, &report(5));
        // A crafted entry in a shared store: parsing it must not
        // overflow the loading thread's stack.
        fs::write(store.entry_path("mcf", 7), "[".repeat(100_000)).unwrap();
        assert!(store.load("mcf", 7).is_none());
        assert_eq!(store.counters().bad_entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `1e999` parses as an infinite float, which has no rendering: an
    /// entry holding one, in the report or inside its `counters`, is a
    /// bad entry, not a panic in the loader.
    #[test]
    fn non_finite_number_in_an_entry_is_a_miss() {
        let dir = temp_dir("non-finite");
        let store = ResultStore::new(dir.clone());
        store.put("mcf", 7, &report(5));
        let path = store.entry_path("mcf", 7);
        let body = fs::read_to_string(&path).unwrap();
        let mut bad = 0;
        for number in ["1e999", "-1e999"] {
            let counters = format!("\"counters\":{{\"l2.miss\":{number}}}");
            for forged in [
                body.replacen("\"insts\":5", &format!("\"insts\":{number}"), 1),
                body.replacen("\"counters\":{}", &counters, 1),
            ] {
                assert_ne!(forged, body);
                fs::write(&path, &forged).unwrap();
                assert!(store.load("mcf", 7).is_none(), "{forged}");
                bad += 1;
                assert_eq!(store.counters().bad_entries, bad, "{forged}");
            }
        }
        assert_eq!(store.counters().misses, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A lost claim polls the entry every 2 ms: a bad entry sitting
    /// there counts once, at the `load` before the claim, however many
    /// polls read it again.
    #[test]
    fn awaiting_over_a_bad_entry_counts_it_once() {
        let dir = temp_dir("await-bad");
        let store = ResultStore::new(dir.clone()).with_claim_wait(Duration::from_millis(30));
        fs::create_dir_all(&dir).unwrap();
        fs::write(store.entry_path("mcf", 3), "{}").unwrap();
        // A claim nobody releases: the waiter polls until it goes stale.
        fs::write(store.claim_path(3), "99999").unwrap();
        assert!(store.load("mcf", 3).is_none());
        assert!(store.await_entry("mcf", 3).is_none(), "stale claim, bad entry");
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.bad_entries, c.claim_breaks), (0, 1, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn claim_is_exclusive_and_released_on_drop() {
        let dir = temp_dir("claim");
        let store = ResultStore::new(dir.clone());
        let first = store.claim(42);
        assert!(matches!(first, Claim::Won(Some(_))));
        assert!(matches!(store.claim(42), Claim::Lost));
        drop(first);
        assert!(matches!(store.claim(42), Claim::Won(Some(_))), "drop releases the claim");
        let c = store.counters();
        assert_eq!((c.claims_won, c.claims_lost), (2, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn await_entry_returns_published_result() {
        let dir = temp_dir("await");
        let store = std::sync::Arc::new(ResultStore::new(dir.clone()));
        let ticket = match store.claim(9) {
            Claim::Won(t) => t,
            Claim::Lost => panic!("fresh claim must be won"),
        };
        let publisher = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                store.put("gzip", 9, &report(77));
                drop(ticket);
            })
        };
        let r = store.await_entry("gzip", 9).expect("winner publishes");
        assert_eq!(r.insts, 77);
        publisher.join().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_claim_is_broken_after_deadline() {
        let dir = temp_dir("stale");
        let store = ResultStore::new(dir.clone()).with_claim_wait(Duration::from_millis(30));
        // Plant a claim nobody will ever release.
        fs::create_dir_all(&dir).unwrap();
        fs::write(store.claim_path(3), "99999").unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert!(store.await_entry("mcf", 3).is_none(), "stale claim must not block");
        assert_eq!(store.counters().claim_breaks, 1);
        assert!(!store.claim_path(3).exists(), "stale claim file removed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_budget_evicts_oldest_but_never_newest() {
        let dir = temp_dir("lru");
        // Budget fits roughly two minimal entries.
        let probe = render_entry("b0", 0, &report(0)).unwrap().len() as u64;
        let store = ResultStore::new(dir.clone()).with_budget(Some(probe * 2 + probe / 2));
        for key in 0..4u64 {
            store.put(&format!("b{key}"), key, &report(key));
        }
        let c = store.counters();
        assert!(c.evictions >= 2, "eviction must have fired: {c:?}");
        // The newest entry always survives…
        assert!(store.load("b3", 3).is_some());
        // …and whatever else survived is intact (no corruption).
        let survivors = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| entry_key_from_name(e.file_name().to_str().unwrap()).is_some())
            .count();
        assert!(survivors < 4, "budget must have shrunk the store");
        for key in 0..4u64 {
            if store.entry_path(&format!("b{key}"), key).exists() {
                assert!(store.load(&format!("b{key}"), key).is_some(), "survivor {key} corrupt");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_recency_protects_recently_read_entries() {
        let dir = temp_dir("recency");
        let probe = render_entry("b0", 0, &report(0)).unwrap().len() as u64;
        let store = ResultStore::new(dir.clone()).with_budget(Some(probe * 2 + probe / 2));
        store.put("b0", 0, &report(0));
        store.put("b1", 1, &report(1));
        // Touch b0 so b1 becomes the LRU victim.
        assert!(store.load("b0", 0).is_some());
        store.put("b2", 2, &report(2));
        assert!(store.entry_path("b0", 0).exists(), "recently-read entry survives");
        assert!(!store.entry_path("b1", 1).exists(), "least-recently-used entry evicted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_and_claim_files_are_not_entries() {
        assert_eq!(entry_key_from_name("mcf-00000000000000ff.json"), Some(0xff));
        assert_eq!(entry_key_from_name("a-b-00000000000000ff.json"), Some(0xff));
        assert_eq!(entry_key_from_name(".claim-00000000000000ff"), None);
        assert_eq!(entry_key_from_name(".tmp-00000000000000ff-1-0"), None);
        assert_eq!(entry_key_from_name("notes.txt"), None);
        assert_eq!(entry_key_from_name("short-ff.json"), None);
    }

    #[test]
    fn scavenge_removes_torn_tmp_files_and_counts_them() {
        let dir = temp_dir("scavenge-tmp");
        fs::create_dir_all(&dir).unwrap();
        // A torn write: tmp file that never got renamed.
        fs::write(dir.join(".tmp-00000000000000aa-1234-0"), "partial").unwrap();
        let store = ResultStore::new(dir.clone()).with_scavenge_age(Duration::ZERO);
        assert_eq!(store.scavenge(), (1, 0));
        assert!(!dir.join(".tmp-00000000000000aa-1234-0").exists());
        assert_eq!(store.counters().scavenged_tmp, 1);
        assert_eq!(store.counters().scavenged_claims, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scavenge_removes_stale_claims_but_spares_fresh_ones() {
        let dir = temp_dir("scavenge-claim");
        fs::create_dir_all(&dir).unwrap();
        let store = ResultStore::new(dir.clone())
            .with_claim_wait(Duration::from_millis(30))
            .with_scavenge_age(Duration::from_secs(3600));
        // Stale claim: planted first, aged past the claim-wait deadline.
        fs::write(store.claim_path(0x11), "99999").unwrap();
        std::thread::sleep(Duration::from_millis(40));
        // Fresh claim: created just before the sweep; must survive.
        let ticket = store.claim(0x42);
        assert!(matches!(ticket, Claim::Won(Some(_))));
        assert_eq!(store.scavenge(), (0, 1));
        assert!(!store.claim_path(0x11).exists(), "stale claim removed");
        assert!(store.claim_path(0x42).exists(), "fresh claim spared");
        assert_eq!(store.counters().scavenged_claims, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scavenge_never_touches_entries() {
        let dir = temp_dir("scavenge-entries");
        let store = ResultStore::new(dir.clone()).with_scavenge_age(Duration::ZERO);
        store.put("mcf", 0xbeef, &report(12));
        assert_eq!(store.scavenge(), (0, 0));
        assert!(store.load("mcf", 0xbeef).is_some(), "entry survives scavenging");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_io_retries_transients_and_gives_up_cleanly() {
        use std::io::{Error, ErrorKind};
        // Two transient failures, then success: the third attempt wins.
        let mut calls = 0;
        let out = retry_io(42, || {
            calls += 1;
            if calls < 3 {
                Err(Error::from(ErrorKind::Interrupted))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out, Some(7));
        assert_eq!(calls, 3);
        // A persistent failure exhausts exactly three attempts.
        let mut calls = 0;
        let out: Option<()> = retry_io(42, || {
            calls += 1;
            Err(Error::from(ErrorKind::Other))
        });
        assert_eq!(out, None);
        assert_eq!(calls, 3);
        // NotFound is an ordinary miss: no retries at all.
        let mut calls = 0;
        let out: Option<()> = retry_io(42, || {
            calls += 1;
            Err(Error::from(ErrorKind::NotFound))
        });
        assert_eq!(out, None);
        assert_eq!(calls, 1);
    }
}
