//! Failure-path tests for the persistent sweep cache: a corrupt,
//! stale-versioned, or torn cache entry must silently fall back to a
//! fresh simulation and leave a valid, byte-identical entry behind —
//! never a panic, never a poisoned result.

use secsim_bench::{RunOpts, Sweep, SweepPoint, CACHE_VERSION};
use secsim_core::Policy;
use secsim_workloads::BenchId;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

fn opts() -> RunOpts {
    RunOpts { max_insts: 3_000, ..RunOpts::default() }
}

fn point() -> SweepPoint {
    SweepPoint::of(BenchId::Gzip, Policy::authen_then_commit(), &opts())
}

fn temp_cache(tag: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join(format!("secsim-cache-fail-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("temp dir");
    d
}

fn entry_path(dir: &Path, p: &SweepPoint) -> PathBuf {
    dir.join(format!("{}-{:016x}.json", p.bench, p.key()))
}

/// Runs the point through a fresh `Sweep` (fresh in-process memo) over
/// `dir` and returns the report's serialized form for comparison.
fn run_once(dir: &Path) -> String {
    let sweep = Sweep::new().with_jobs(1).with_cache_dir(dir.to_path_buf());
    let r = sweep
        .run(std::slice::from_ref(&point()))
        .pop()
        .expect("one point in, one result out")
        .expect("known bench simulates");
    r.to_json().expect("untraced report serializes").render()
}

#[test]
fn truncated_entry_falls_back_and_rewrites() {
    let dir = temp_cache("truncated");
    let baseline = run_once(&dir);
    let path = entry_path(&dir, &point());
    assert!(path.is_file(), "first run must write the entry");

    // Truncate mid-JSON, as a crashed writer without the atomic-rename
    // discipline would have left it.
    let full = fs::read_to_string(&path).unwrap();
    fs::write(&path, &full[..full.len() / 2]).unwrap();

    let again = run_once(&dir);
    assert_eq!(again, baseline, "fallback simulation must agree with the original");
    let healed = fs::read_to_string(&path).unwrap();
    assert_eq!(healed, full, "corrupt entry must be rewritten valid and byte-identical");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatch_is_ignored_and_replaced() {
    let dir = temp_cache("version");
    let baseline = run_once(&dir);
    let path = entry_path(&dir, &point());
    let full = fs::read_to_string(&path).unwrap();

    // Forge a future CACHE_VERSION with otherwise-valid JSON: a format
    // bump must invalidate old entries even when they parse.
    let forged = full.replacen(&format!("\"version\":{CACHE_VERSION}"), "\"version\":9999", 1);
    assert_ne!(forged, full, "version field not found — cache format changed?");
    fs::write(&path, &forged).unwrap();

    let again = run_once(&dir);
    assert_eq!(again, baseline);
    assert_eq!(fs::read_to_string(&path).unwrap(), full, "stale entry must be replaced");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn key_mismatch_is_ignored() {
    let dir = temp_cache("key");
    let baseline = run_once(&dir);
    let path = entry_path(&dir, &point());
    let full = fs::read_to_string(&path).unwrap();

    // An entry whose embedded key disagrees with its filename (e.g. a
    // hand-copied file) must not be trusted.
    let forged = full.replacen("\"key\":\"", "\"key\":\"0", 1);
    fs::write(&path, &forged).unwrap();

    let again = run_once(&dir);
    assert_eq!(again, baseline);
    assert_eq!(fs::read_to_string(&path).unwrap(), full);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn leftover_tmp_files_do_not_confuse_the_cache() {
    let dir = temp_cache("tmp");
    // Plant torn tmp files (a mid-write crash) before any run.
    let p = point();
    fs::write(dir.join(format!(".tmp-{:016x}-999-0", p.key())), "{\"version\"").unwrap();
    fs::write(dir.join(".tmp-garbage"), "not json at all").unwrap();

    let baseline = run_once(&dir);
    let path = entry_path(&dir, &p);
    assert!(path.is_file());

    // A second fresh sweep must load the real entry (cache hit path)
    // and still agree.
    let again = run_once(&dir);
    assert_eq!(again, baseline);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unreadable_entry_degrades_to_cache_miss_not_error() {
    // Replace the cache entry with a *directory* of the same name:
    // `read_to_string` then fails with a persistent non-NotFound error,
    // which the retry loop must exhaust and degrade to a fresh
    // simulation — never a SweepError, never a panic.
    let dir = temp_cache("unreadable");
    let baseline = run_once(&dir);
    let path = entry_path(&dir, &point());
    fs::remove_file(&path).unwrap();
    fs::create_dir(&path).unwrap();

    let again = run_once(&dir);
    assert_eq!(again, baseline, "degraded run must agree with the original");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_cache_dir_skips_the_store_silently() {
    // Point the cache at a path whose parent is a plain file:
    // `create_dir_all` fails persistently, so stores are skipped after
    // the retries — the sweep itself must still produce its report.
    let holder = temp_cache("unwritable");
    let blocker = holder.join("blocker");
    fs::write(&blocker, "i am a file, not a directory").unwrap();
    let cache = blocker.join("cache");

    let first = run_once(&cache);
    let second = run_once(&cache);
    assert_eq!(first, second, "two uncached runs must still agree");
    assert!(!entry_path(&cache, &point()).exists(), "nothing can have been written");
    let _ = fs::remove_dir_all(&holder);
}

#[test]
fn cache_round_trip_is_byte_stable_across_processes_shape() {
    // Same point, two independent Sweep instances (separate memos):
    // the second must *load* rather than re-simulate, and the loaded
    // report must serialize identically — the property the persistent
    // result cache exists for.
    let dir = temp_cache("stable");
    let first = run_once(&dir);
    let path = entry_path(&dir, &point());
    let mtime = fs::metadata(&path).unwrap().modified().unwrap();
    let second = run_once(&dir);
    assert_eq!(first, second);
    assert_eq!(
        fs::metadata(&path).unwrap().modified().unwrap(),
        mtime,
        "cache hit must not rewrite the entry"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// One resolution of a point counts one store lookup: the miss before
/// the claim, not again the recheck after winning it. A missing entry
/// is one miss; a bad entry is one miss and one bad entry; the entry the
/// resolution publishes is a hit for the next sweep.
#[test]
fn one_resolution_counts_one_miss_and_one_bad_entry() {
    let dir = temp_cache("count-once");
    let counts = |sweep: &Sweep| {
        let c = sweep.store().expect("cache on").counters();
        (c.hits, c.misses, c.bad_entries, c.stores)
    };
    let sweep = Sweep::new().with_jobs(1).with_cache_dir(dir.clone());
    sweep.run_point(&point()).expect("gzip simulates");
    assert_eq!(counts(&sweep), (0, 1, 0, 1), "missing entry: one miss, one store");

    fs::write(entry_path(&dir, &point()), "{\"version\":0}").unwrap();
    let sweep = Sweep::new().with_jobs(1).with_cache_dir(dir.clone());
    sweep.run_point(&point()).expect("gzip simulates");
    assert_eq!(counts(&sweep), (0, 1, 1, 1), "bad entry: one miss, one bad entry");

    let sweep = Sweep::new().with_jobs(1).with_cache_dir(dir.clone());
    sweep.run_point(&point()).expect("gzip simulates");
    assert_eq!(counts(&sweep), (1, 0, 0, 0), "the rewritten entry is a hit");
    let _ = fs::remove_dir_all(&dir);
}

/// An entry holding `1e999` (an infinite float once parsed, which has
/// no rendering) is a bad entry: the point is simulated afresh, and a
/// second request on the same `Sweep` is answered too, so the first
/// cannot have stranded the point's in-flight gate. The calls run on a
/// helper thread, each behind a timeout, so a stranded gate fails the
/// test instead of hanging it.
#[test]
fn non_finite_entry_is_resimulated_and_the_point_stays_answerable() {
    let dir = temp_cache("non-finite");
    let opts = RunOpts { max_insts: 2_000, ..RunOpts::default() };
    let p = SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts);
    let fresh = Sweep::new().without_cache().run_point(&p).expect("gzip simulates");
    let fresh = fresh.to_json().expect("untraced report serializes").render();
    let poisoned = format!(
        "{{\"version\":{CACHE_VERSION},\"bench\":\"gzip\",\"key\":\"{:016x}\",\
         \"report\":{{\"insts\":1e999}},\"sum\":\"0\"}}",
        p.key()
    );
    fs::write(entry_path(&dir, &p), poisoned).unwrap();

    let (tx, rx) = mpsc::channel();
    let cache = dir.clone();
    std::thread::spawn(move || {
        let sweep = Sweep::new().with_jobs(1).with_cache_dir(cache);
        for _ in 0..2 {
            let answer = match catch_unwind(AssertUnwindSafe(|| sweep.run_point(&p))) {
                Ok(Ok(r)) => r.to_json().expect("untraced report serializes").render(),
                Ok(Err(e)) => format!("hole: {e}"),
                Err(_) => "panicked".to_string(),
            };
            if tx.send(answer).is_err() {
                return;
            }
        }
    });
    let answers: Vec<String> = (0..2)
        .map(|_| match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(answer) if answer == fresh => "the fresh report".to_string(),
            Ok(answer) => answer,
            Err(_) => "no answer within 30 s".to_string(),
        })
        .collect();
    assert_eq!(answers, ["the fresh report"; 2]);
    let _ = fs::remove_dir_all(&dir);
}
