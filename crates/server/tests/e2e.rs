//! End-to-end acceptance: concurrent clients share simulations
//! exactly-once, the store's LRU eviction under a tiny byte budget
//! never corrupts the surviving entries, and the accept loop serves a
//! connection the moment it arrives and returns on a wire `shutdown`.

use secsim_bench::{client, ResultStore, RunOpts, Sweep, SweepPoint};
use secsim_core::Policy;
use secsim_server::{JobServer, ServerConfig};
use secsim_stats::Json;
use secsim_workloads::BenchId;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("secsim-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn spawn_server(
    store_dir: &Path,
    store_bytes: Option<u64>,
) -> (String, std::thread::JoinHandle<std::io::Result<Json>>) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        threads: 2,
        queue_cap: 8,
        job_timeout: Duration::from_secs(120),
        store_dir: store_dir.to_path_buf(),
        store_bytes,
        ..ServerConfig::default()
    };
    let server = JobServer::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.serve()))
}

fn grid() -> Vec<SweepPoint> {
    let opts = RunOpts { max_insts: 8_000, ..RunOpts::default() };
    vec![
        SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts),
        SweepPoint::of(BenchId::Gzip, Policy::authen_then_commit(), &opts),
        SweepPoint::of(BenchId::Mcf, Policy::baseline(), &opts),
        SweepPoint::of(BenchId::Mcf, Policy::authen_then_commit(), &opts),
    ]
}

fn renders(results: &[Result<secsim_cpu::SimReport, secsim_bench::SweepError>]) -> Vec<String> {
    results
        .iter()
        .map(|r| r.as_ref().expect("point reports").to_json().expect("untraced").render())
        .collect()
}

fn store_counter(status: &Json, name: &str) -> u64 {
    status
        .get("store")
        .and_then(|s| s.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("status carries store.{name}"))
}

/// The ISSUE acceptance test: two clients submit the identical grid
/// concurrently; each unique point is simulated exactly once on the
/// server, both clients receive complete, byte-identical reports, and
/// those bytes match an in-process `Sweep` of the same grid.
#[test]
fn two_concurrent_clients_share_one_simulation_per_point() {
    let dir = temp_dir("dedup");
    let (addr, handle) = spawn_server(&dir.join("store"), None);

    let points = grid();
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let points = points.clone();
            std::thread::spawn(move || client::run_sweep(&addr, &points))
        })
        .collect();
    let outs: Vec<Vec<String>> = clients
        .into_iter()
        .map(|c| renders(&c.join().expect("client thread").expect("sweep job")))
        .collect();
    assert_eq!(outs[0], outs[1], "both clients must see byte-identical reports");

    let local_store = temp_dir("dedup-local");
    let local = Sweep::new().with_store(ResultStore::new(local_store.clone())).run(&points);
    assert_eq!(outs[0], renders(&local), "server bytes must match in-process Sweep");
    let _ = std::fs::remove_dir_all(&local_store);

    let status = client::status(&addr).expect("status");
    let simulated = status
        .get("sweep")
        .and_then(|s| s.get("simulated"))
        .and_then(Json::as_u64)
        .expect("status carries sweep.simulated");
    assert_eq!(
        simulated,
        points.len() as u64,
        "8 requested points over 4 unique keys must simulate exactly 4 times"
    );

    client::shutdown(&addr).expect("shutdown");
    let final_status = handle.join().expect("server thread").expect("serve returns");
    assert_eq!(
        final_status.get("queue_depth").and_then(Json::as_u64),
        Some(0),
        "the queue must drain before exit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash recovery at startup: a server binding onto a store directory
/// littered with a torn `.tmp-` file and a stale `.claim-` file
/// scavenges both and surfaces the counts in `status`.
#[test]
fn bind_scavenges_crash_debris_and_status_reports_it() {
    let dir = temp_dir("scavenge");
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&store_dir).expect("store dir");
    // Debris a crashed writer / claim owner would leave behind.
    std::fs::write(store_dir.join(".tmp-00000000000000aa-4242-0"), "torn half-entry")
        .expect("plant tmp");
    std::fs::write(store_dir.join(".claim-00000000000000bb"), "4242").expect("plant claim");
    std::thread::sleep(Duration::from_millis(30));

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: store_dir.clone(),
        claim_wait: Some(Duration::from_millis(10)),
        scavenge_age: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let server = JobServer::bind(&cfg).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.serve());

    assert!(!store_dir.join(".tmp-00000000000000aa-4242-0").exists(), "torn tmp removed");
    assert!(!store_dir.join(".claim-00000000000000bb").exists(), "stale claim removed");
    let status = client::status(&addr).expect("status");
    assert_eq!(store_counter(&status, "scavenged_tmp"), 1);
    assert_eq!(store_counter(&status, "scavenged_claims"), 1);

    client::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread").expect("serve returns");
    let _ = std::fs::remove_dir_all(&dir);
}

/// LRU eviction under a byte budget sized for ~2 entries: the first
/// server evicts, a second server on the same store still answers the
/// full grid byte-identically (survivors load, evictees re-simulate).
#[test]
fn lru_eviction_under_a_tiny_budget_keeps_survivors_valid() {
    let points = grid();

    // Measure one entry so the budget is honest about entry size.
    let probe = temp_dir("evict-probe");
    let first = Sweep::new().with_store(ResultStore::new(probe.clone()));
    first.run(std::slice::from_ref(&points[0]));
    let entry_bytes = std::fs::read_dir(&probe)
        .expect("probe store")
        .filter_map(|e| e.ok())
        .filter(|e| !e.file_name().to_string_lossy().starts_with('.'))
        .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
        .max()
        .expect("probe entry written");
    let _ = std::fs::remove_dir_all(&probe);
    let budget = entry_bytes * 5 / 2; // room for 2 of the 4 entries

    let dir = temp_dir("evict");
    let store_dir = dir.join("store");
    let (addr, handle) = spawn_server(&store_dir, Some(budget));
    let run1 = client::run_sweep(&addr, &points).expect("first sweep");
    let bytes1 = renders(&run1);
    let status = client::status(&addr).expect("status");
    assert!(
        store_counter(&status, "evictions") >= 1,
        "4 entries against a 2-entry budget must evict"
    );
    assert_eq!(store_counter(&status, "stores"), 4, "every unique point must be stored once");
    client::shutdown(&addr).expect("shutdown first server");
    handle.join().expect("server thread").expect("serve returns");

    // Which points survived? The store is content-addressed, so the
    // on-disk names answer directly: "{bench}-{key:016x}.json".
    let surviving_keys: std::collections::HashSet<u64> = std::fs::read_dir(&store_dir)
        .expect("store dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let stem = name.strip_suffix(".json")?;
            u64::from_str_radix(stem.get(stem.len().checked_sub(16)?..)?, 16).ok()
        })
        .collect();
    let survivors: Vec<SweepPoint> =
        points.iter().filter(|p| surviving_keys.contains(&p.key())).cloned().collect();
    assert!(!survivors.is_empty(), "eviction must keep at least one entry");
    assert!(survivors.len() < points.len(), "eviction must have removed something");

    // A fresh server (empty memo) on the surviving store files. Ask for
    // the survivors alone first: pure loads, no puts, so eviction can't
    // race them out from under us.
    let (addr, handle) = spawn_server(&store_dir, Some(budget));
    let run_survivors = client::run_sweep(&addr, &survivors).expect("survivor sweep");
    let survivor_bytes: Vec<String> = points
        .iter()
        .zip(&bytes1)
        .filter(|(p, _)| surviving_keys.contains(&p.key()))
        .map(|(_, b)| b.clone())
        .collect();
    assert_eq!(
        survivor_bytes,
        renders(&run_survivors),
        "eviction must never corrupt surviving entries"
    );
    let status = client::status(&addr).expect("status");
    assert_eq!(
        store_counter(&status, "hits"),
        survivors.len() as u64,
        "every survivor must be served from the store"
    );
    assert_eq!(
        store_counter(&status, "bad_entries"),
        0,
        "no surviving entry may fail integrity checks"
    );

    // Now the full grid: survivors come from the memo, evictees
    // re-simulate, and the whole result still matches run 1.
    let run2 = client::run_sweep(&addr, &points).expect("second full sweep");
    assert_eq!(bytes1, renders(&run2), "the full grid must reproduce after eviction");
    let status = client::status(&addr).expect("status");
    let sim2 = status
        .get("sweep")
        .and_then(|s| s.get("simulated"))
        .and_then(Json::as_u64)
        .expect("status carries sweep.simulated");
    assert_eq!(
        sim2,
        (points.len() - survivors.len()) as u64,
        "exactly the evicted points re-simulate"
    );
    client::shutdown(&addr).expect("shutdown second server");
    handle.join().expect("server thread").expect("serve returns");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Accept blocks instead of polling: a client that reconnects right
/// after its last answer is served at once. With a 20 ms poll, 50
/// sequential connections took about 1 s.
#[test]
fn sequential_connections_are_served_without_waiting_for_a_poll() {
    let dir = temp_dir("sequential");
    let (addr, handle) = spawn_server(&dir.join("store"), None);
    client::status(&addr).expect("first status");

    let t = Instant::now();
    for _ in 0..50 {
        client::status(&addr).expect("status");
    }
    let took = t.elapsed();
    assert!(took < Duration::from_millis(250), "50 sequential status requests took {took:?}");

    client::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread").expect("serve returns");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `status` never lags a `complete` the client already saw: the worker
/// counts a job done before it publishes the job's final event, so a
/// status request that arrives at once (no accept poll delays it any
/// more) finds the job in `jobs_done` and no job active. The lag was a
/// scheduling race, hence 200 small jobs (about 0.3 s).
#[test]
fn status_right_after_complete_counts_the_job() {
    let dir = temp_dir("status-after-complete");
    let (addr, handle) = spawn_server(&dir.join("store"), None);
    for i in 0..200u64 {
        let opts = RunOpts { max_insts: 2_000 + i, ..RunOpts::default() };
        let point = SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts);
        client::run_sweep(&addr, &[point]).expect("sweep");
        let status = client::status(&addr).expect("status");
        assert_eq!(status.get("jobs_done").and_then(Json::as_u64), Some(i + 1), "after job {i}");
        assert_eq!(status.get("active_jobs").and_then(Json::as_u64), Some(0), "after job {i}");
    }
    client::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread").expect("serve returns");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wire `shutdown` wakes the blocked accept: `serve` returns with no
/// other connection arriving. The server binds the unspecified address,
/// so the wake must dial loopback. The wait is bounded: a lost wake
/// fails the test instead of hanging the suite.
#[test]
fn wire_shutdown_wakes_an_idle_accept() {
    let dir = temp_dir("idle-shutdown");
    let cfg = ServerConfig {
        addr: "0.0.0.0:0".to_string(),
        store_dir: dir.join("store"),
        ..ServerConfig::default()
    };
    let server = JobServer::bind(&cfg).expect("bind");
    let dial = server.dial_addr();
    assert!(dial.ip().is_loopback(), "unspecified bind IP dials loopback, got {dial}");
    assert_eq!(dial.port(), server.local_addr().expect("local addr").port());
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(server.serve());
    });

    client::shutdown(&dial.to_string()).expect("shutdown");
    let status = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("serve returns after shutdown")
        .expect("serve succeeds");
    assert_eq!(status.get("accepting").and_then(Json::as_bool), Some(false));
    assert!(dir.join("server_status.json").exists(), "status flushed next to the store");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
