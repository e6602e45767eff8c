//! `secsim-serve` — the simulation job server.
//!
//! ```text
//! secsim-serve [--addr HOST:PORT] [--workers N] [--threads N]
//!              [--queue N] [--job-timeout-secs N]
//!              [--store-dir PATH] [--store-bytes N]
//!              [--retain-events N] [--retain-jobs N] [--smoke]
//! ```
//!
//! Runs until a `shutdown` request, then drains the queue and flushes
//! `results/server_status.json` + `results/server_timeline.json`. SIGINT
//! belongs to this binary, not the library: its handler wakes one
//! watcher thread, which sends `shutdown` to the server's own address,
//! so Ctrl-C takes the same stop path as any client.
//! `--smoke` runs the self-contained end-to-end check used by tier-1:
//! an ephemeral server over a store holding one poisoned entry, two
//! concurrent clients submitting the same 2-point grid, exactly-once
//! simulation asserted, the grid resubmitted in reverse order and
//! served from the memo, clean shutdown.

use secsim_server::{JobServer, ServerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: secsim-serve [--addr HOST:PORT] [--workers N] [--threads N] \
         [--queue N] [--job-timeout-secs N] [--store-dir PATH] [--store-bytes N] \
         [--retain-events N] [--retain-jobs N] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> (ServerConfig, bool) {
    let mut cfg = ServerConfig::default();
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| {
            eprintln!("error: {name} needs a value");
            usage()
        });
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--workers" => cfg.workers = parse_num(&value("--workers"), "--workers") as usize,
            "--threads" => cfg.threads = parse_num(&value("--threads"), "--threads") as usize,
            "--queue" => cfg.queue_cap = parse_num(&value("--queue"), "--queue") as usize,
            "--job-timeout-secs" => {
                cfg.job_timeout =
                    Duration::from_secs(parse_num(&value("--job-timeout-secs"), "--job-timeout-secs"))
            }
            "--store-dir" => cfg.store_dir = value("--store-dir").into(),
            "--store-bytes" => {
                let n = parse_num(&value("--store-bytes"), "--store-bytes");
                cfg.store_bytes = (n > 0).then_some(n);
            }
            "--retain-events" => {
                cfg.retain_events = parse_num(&value("--retain-events"), "--retain-events") as usize
            }
            "--retain-jobs" => {
                cfg.retain_jobs = parse_num(&value("--retain-jobs"), "--retain-jobs") as usize
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other}");
                usage()
            }
        }
    }
    (cfg, smoke)
}

fn parse_num(s: &str, name: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: {name} expects a number, got {s:?}");
        usage()
    })
}

fn main() {
    let (cfg, smoke) = parse_args();
    if smoke {
        smoke_test();
        return;
    }
    let server = match JobServer::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    if let Err(e) = sigint::forward_to(server.dial_addr().to_string()) {
        eprintln!("error: cannot install the SIGINT handler: {e}");
        std::process::exit(1);
    }
    match server.local_addr() {
        Ok(addr) => eprintln!(
            "secsim-serve listening on {addr} (workers={}, threads={}, queue={}, store={})",
            cfg.workers,
            cfg.threads,
            cfg.queue_cap,
            cfg.store_dir.display()
        ),
        Err(_) => eprintln!("secsim-serve listening on {}", cfg.addr),
    }
    match server.serve() {
        Ok(status) => eprintln!("secsim-serve drained cleanly: {}", status.render()),
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Ctrl-C as a wire `shutdown`. The handler only writes one byte to a
/// socket pair (`write(2)` is async-signal-safe); a watcher thread
/// blocked on the other end sends `shutdown` to the server. Std-only:
/// the C runtime's `signal(2)` and `write(2)` are already linked into
/// every Rust binary.
#[cfg(unix)]
mod sigint {
    use std::io::Read;
    use std::os::unix::io::IntoRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicI32, Ordering};

    /// Write end of the socket pair, kept open for the process's life.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn on_sigint(_: i32) {
        let byte = 1u8;
        // SAFETY: write(2) is async-signal-safe and reads one byte from
        // `byte`, which lives across the call; the fd is the pair's
        // write end, never closed once stored.
        unsafe {
            write(WAKE_FD.load(Ordering::SeqCst), &byte, 1);
        }
    }

    /// Installs the handler and starts the watcher that sends
    /// `shutdown` to `addr` on the first SIGINT.
    pub fn forward_to(addr: String) -> std::io::Result<()> {
        let (tx, mut rx) = UnixStream::pair()?;
        WAKE_FD.store(tx.into_raw_fd(), Ordering::SeqCst);
        const SIGINT: i32 = 2;
        let handler = on_sigint as extern "C" fn(i32);
        // SAFETY: `handler` has the `void (*)(int)` signature signal(2)
        // expects and does only async-signal-safe work; the fd it
        // writes is stored above, before the handler can run.
        let previous = unsafe { signal(SIGINT, handler as usize) };
        if previous == usize::MAX {
            return Err(std::io::Error::last_os_error()); // SIG_ERR
        }
        // Detached: it blocks until the first SIGINT, which may never
        // come when a client sends `shutdown` instead.
        std::thread::spawn(move || {
            if rx.read_exact(&mut [0u8]).is_ok() {
                if let Err(e) = secsim_bench::client::shutdown(&addr) {
                    eprintln!("error: SIGINT: shutdown request failed: {e}");
                }
            }
        });
        Ok(())
    }
}

/// Off Unix, shutdown remains available via the wire request.
#[cfg(not(unix))]
mod sigint {
    pub fn forward_to(_addr: String) -> std::io::Result<()> {
        Ok(())
    }
}

/// The tier-1 smoke: ephemeral server, two concurrent clients, one
/// identical 2-point grid each, and a store entry for the first point
/// whose report holds `1e999` (a number `f64` cannot hold) planted
/// before the server starts. Asserts (a) both clients get complete,
/// byte-identical result sets, the poisoned point simulated afresh
/// rather than a hole, (b) the server simulated each unique point
/// exactly once (dedup fan-in) and counted the bad entry once, (c) the
/// grid resubmitted in reverse order (another job hash, so a new job)
/// is answered from the memo with the same bytes, (d) shutdown drains
/// cleanly.
fn smoke_test() {
    use secsim_bench::{client, RunOpts, SweepPoint};
    use secsim_core::Policy;
    use secsim_stats::Json;
    use secsim_workloads::BenchId;

    let tmp = std::env::temp_dir().join(format!("secsim-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let opts = RunOpts { max_insts: 20_000, ..RunOpts::default() };
    let points = vec![
        SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts),
        SweepPoint::of(BenchId::Mcf, Policy::authen_then_commit(), &opts),
    ];
    // The store's documented entry layout, `<bench>-<key:016x>.json`.
    let poisoned = &points[0];
    std::fs::create_dir_all(tmp.join("store")).expect("smoke: store dir");
    std::fs::write(
        tmp.join("store").join(format!("{}-{:016x}.json", poisoned.bench, poisoned.key())),
        format!(
            "{{\"version\":{},\"bench\":\"{}\",\"key\":\"{:016x}\",\
             \"report\":{{\"insts\":1e999}},\"sum\":\"0\"}}",
            secsim_bench::CACHE_VERSION,
            poisoned.bench,
            poisoned.key()
        ),
    )
    .expect("smoke: plant the poisoned entry");
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        threads: 2,
        queue_cap: 8,
        job_timeout: Duration::from_secs(120),
        store_dir: tmp.join("store"),
        ..ServerConfig::default()
    };
    let server = JobServer::bind(&cfg).expect("smoke: bind ephemeral port");
    let addr = server.local_addr().expect("smoke: local addr").to_string();
    let server_thread = std::thread::spawn(move || server.serve());

    let clients: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let points = points.clone();
            std::thread::spawn(move || client::run_sweep(&addr, &points))
        })
        .collect();
    let mut renders: Vec<Vec<String>> = Vec::new();
    for c in clients {
        let results = c
            .join()
            .expect("smoke: client thread")
            .expect("smoke: sweep job succeeds");
        renders.push(
            results
                .into_iter()
                .map(|r| {
                    r.expect("smoke: every point reports")
                        .to_json()
                        .expect("smoke: untraced report renders")
                        .render()
                })
                .collect(),
        );
    }
    assert_eq!(
        renders[0], renders[1],
        "smoke: concurrent clients must see byte-identical reports"
    );

    let count = |group: &str, name: &str| {
        let status = client::status(&addr).expect("smoke: status request");
        status
            .get(group)
            .and_then(|s| s.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("smoke: status carries {group}.{name}"))
    };
    let sweep_count = |name: &str| count("sweep", name);
    let simulated = sweep_count("simulated");
    assert_eq!(
        simulated, 2,
        "smoke: 4 requested points over 2 unique keys must simulate exactly twice \
         (dedup fan-in), got {simulated}"
    );
    let bad_entries = count("store", "bad_entries");
    assert_eq!(
        bad_entries, 1,
        "smoke: the poisoned entry must count as one bad entry, however often its point's \
         resolution reads it"
    );

    // The memo-hit path: the reversed grid hashes differently, so it is
    // a new job rather than an attach, and both points are memo hits.
    let memo_hits = sweep_count("memo_hits");
    let reversed: Vec<SweepPoint> = points.iter().rev().cloned().collect();
    let again: Vec<String> = client::run_sweep(&addr, &reversed)
        .expect("smoke: resubmitted sweep job succeeds")
        .into_iter()
        .rev()
        .map(|r| r.expect("smoke: every point reports").to_json().expect("untraced").render())
        .collect();
    assert_eq!(again, renders[0], "smoke: memo hits must resend byte-identical reports");
    assert_eq!(sweep_count("simulated"), simulated, "smoke: a memo hit must not simulate");
    assert_eq!(sweep_count("memo_hits"), memo_hits + 2, "smoke: both points are memo hits");

    client::shutdown(&addr).expect("smoke: shutdown request");
    let final_status = server_thread
        .join()
        .expect("smoke: server thread")
        .expect("smoke: serve returns");
    assert_eq!(
        final_status.get("queue_depth").and_then(Json::as_u64),
        Some(0),
        "smoke: queue must drain before exit"
    );
    let _ = std::fs::remove_dir_all(&tmp);
    println!(
        "serve smoke OK: 2 clients x 2 points, simulated=2 (poisoned entry: \
         bad_entries={bad_entries}), reversed grid from the memo (memo_hits +2), drained clean"
    );
}
