//! The checkpoint subsystem's guarantee: a timed run resumed from a
//! *restored* snapshot is byte-for-byte identical to one resumed from a
//! fresh functional fast-forward — across every policy of the grid,
//! because warmup is policy-independent — and a damaged or missing
//! snapshot degrades to that fresh fast-forward, however dirty the
//! scratch image the restore lands in.
//!
//! Reports carry no `PartialEq`; byte-identity is asserted on the
//! deterministic JSON rendering, which covers every serialized field.

use secsim_bench::checkpoint::{self, checkpoint_key, fast_forward, from_bytes, to_bytes};
use secsim_bench::{run_bench, sim_config_id, with_workload, RunOpts, SweepPoint};
use secsim_core::{FetchGateVariant, Policy};
use secsim_cpu::{SimReport, SimSession};
use secsim_workloads::BenchId;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

const WARMUP: u64 = 4_000;

fn opts() -> RunOpts {
    RunOpts { max_insts: 20_000, warmup_insts: WARMUP, ..RunOpts::default() }
}

/// The full 8-policy grid of the paper (fetch in both last-request-tag
/// and drain variants, plus the combined policies).
fn policies8() -> [Policy; 8] {
    [
        Policy::baseline(),
        Policy::authen_then_issue(),
        Policy::authen_then_commit(),
        Policy::authen_then_write(),
        Policy::authen_then_fetch(),
        Policy::authen_then_fetch().with_fetch_variant(FetchGateVariant::Drain),
        Policy::commit_plus_fetch(),
        Policy::commit_plus_obfuscation(),
    ]
}

#[test]
fn restored_snapshot_matches_fresh_fast_forward_across_all_8_policies() {
    let bench: BenchId = "mcf".parse().unwrap();
    let opts = opts();

    // Snapshot once: serialize the warmup boundary of a pristine image.
    let snapshot = with_workload(bench, opts.seed, |w| {
        let st = fast_forward(&mut w.mem, w.entry, WARMUP);
        assert_eq!(st.icount, WARMUP, "warmup must not run off the program");
        to_bytes(&st, &w.mem)
    });

    for policy in policies8() {
        let cfg = sim_config_id(bench, policy, &opts);

        // Cold path: fast-forward functionally, then simulate.
        let cold = with_workload(bench, opts.seed, |w| {
            let st = fast_forward(&mut w.mem, w.entry, WARMUP);
            SimSession::new(&cfg).resume_from(st).run(&mut w.mem, w.entry).into_report()
        });

        // Restore path: deserialize the shared snapshot, copy it over
        // the image, then simulate.
        let restored = with_workload(bench, opts.seed, |w| {
            let (st, mem) = from_bytes(&snapshot).expect("valid snapshot");
            w.mem.restore_from(&mem);
            SimSession::new(&cfg).resume_from(st).run(&mut w.mem, w.entry).into_report()
        });

        assert_eq!(
            cold.to_json().unwrap().render(),
            restored.to_json().unwrap().render(),
            "checkpoint restore diverged from cold fast-forward under {policy}"
        );
    }
}

/// `SECSIM_RESULTS` (and with it `results/checkpoints/`) pointed at a
/// fresh scratch dir until drop. The variable is process-global, so the
/// tests that set it hold one lock for their whole run.
struct ScratchResults {
    dir: PathBuf,
    _lock: MutexGuard<'static, ()>,
}

impl ScratchResults {
    fn new(tag: &str) -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("secsim-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        std::env::set_var("SECSIM_RESULTS", &dir);
        Self { dir, _lock: lock }
    }
}

impl Drop for ScratchResults {
    fn drop(&mut self) {
        std::env::remove_var("SECSIM_RESULTS");
        let _ = fs::remove_dir_all(&self.dir);
    }
}

fn json(r: &SimReport) -> String {
    r.to_json().unwrap().render()
}

/// The reference a warm point must reproduce, with no checkpoint file
/// involved: the snapshot of a pristine image fast-forwarded
/// functionally, and the report of the timed run resumed from it.
fn cold_fast_forward(bench: BenchId, policy: Policy, opts: &RunOpts) -> (Vec<u8>, String) {
    let cfg = sim_config_id(bench, policy, opts);
    with_workload(bench, opts.seed, |w| {
        let st = fast_forward(&mut w.mem, w.entry, opts.warmup_insts);
        let snapshot = to_bytes(&st, &w.mem);
        (
            snapshot,
            json(&SimSession::new(&cfg).resume_from(st).run(&mut w.mem, w.entry).into_report()),
        )
    })
}

fn checkpoint_path(bench: BenchId, opts: &RunOpts) -> PathBuf {
    checkpoint::checkpoints_dir()
        .join(format!("{:016x}.ckpt", checkpoint_key(bench, opts.seed, opts.warmup_insts)))
}

#[test]
fn warm_start_disk_store_hit_reproduces_miss_exactly() {
    let _results = ScratchResults::new("hit");

    let opts = RunOpts { max_insts: 12_000, warmup_insts: 2_000, ..RunOpts::default() };
    let policy = Policy::authen_then_commit();

    // Miss: fast-forwards functionally and persists the snapshot.
    let miss = run_bench(BenchId::Gzip, policy, &opts);
    let ckpt_dir = checkpoint::checkpoints_dir();
    let entries = fs::read_dir(&ckpt_dir).expect("checkpoint dir created").count();
    assert_eq!(entries, 1, "one checkpoint per (bench, seed, warmup)");

    // Hit: restores the snapshot from disk.
    let hit = run_bench(BenchId::Gzip, policy, &opts);
    assert_eq!(json(&miss), json(&hit), "disk-restored warmup diverged from the run that wrote it");
    assert_eq!(
        fs::read_dir(&ckpt_dir).expect("checkpoint dir").count(),
        entries,
        "hits must not create new checkpoints"
    );

    // A corrupt store degrades to the fresh path, never a failure.
    for e in fs::read_dir(&ckpt_dir).unwrap() {
        fs::write(e.unwrap().path(), b"garbage").unwrap();
    }
    let degraded = run_bench(BenchId::Gzip, policy, &opts);
    assert_eq!(
        json(&miss),
        json(&degraded),
        "corrupt checkpoint must degrade to a fresh fast-forward"
    );
}

#[test]
fn damaged_checkpoints_fall_back_to_a_fresh_fast_forward_and_are_rewritten() {
    let _results = ScratchResults::new("damaged");
    let (bench, policy) = (BenchId::Gzip, Policy::authen_then_commit());
    let opts = opts();
    let (good, cold) = cold_fast_forward(bench, policy, &opts);
    // Fills this thread's scratch image with garbage. A warm point does
    // not rewind it, so only a full restore or a rewound fast-forward
    // can still produce the cold report.
    let scribble = || with_workload(bench, opts.seed, |w| w.mem.as_bytes_mut().fill(0xA5));
    let path = checkpoint_path(bench, &opts);

    scribble();
    assert_eq!(json(&run_bench(bench, policy, &opts)), cold, "checkpoint miss");
    assert!(fs::read(&path).expect("checkpoint written") == good, "miss wrote a bad checkpoint");
    scribble();
    assert_eq!(json(&run_bench(bench, policy, &opts)), cold, "checkpoint hit");

    // The snapshot ends with the image base (u32), the out-of-bounds
    // count (u64) and the payload length (u64), then the payload.
    let image_len = with_workload(bench, opts.seed, |w| w.mem.len());
    let header = good.len() - image_len;
    let (base_at, len_at) = (header - 20, header - 8);
    let patched = |at: usize, field: &[u8], payload: usize| {
        let mut b = good[..header + payload].to_vec();
        b[at..at + field.len()].copy_from_slice(field);
        b
    };
    let mut trailing = good.clone();
    trailing.push(0);
    let other_base = patched(base_at, &0x40u32.to_le_bytes(), image_len);
    let other_len = patched(len_at, &(image_len as u64 - 64).to_le_bytes(), image_len - 64);
    // Well-formed snapshots of another image: only the header check
    // against the target image rejects them.
    assert!(from_bytes(&other_base).is_some() && from_bytes(&other_len).is_some());
    let cases = [
        ("cut at the header/payload boundary", good[..header].to_vec()),
        ("cut in mid-payload", good[..header + image_len / 2].to_vec()),
        ("one trailing byte", trailing),
        ("base disagrees with the image", other_base),
        ("length disagrees with the image", other_len),
        ("wrong version", patched(8, &2u32.to_le_bytes(), image_len)),
    ];
    for (what, bytes) in cases {
        fs::write(&path, &bytes).unwrap();
        scribble();
        assert_eq!(json(&run_bench(bench, policy, &opts)), cold, "{what}: report diverged");
        assert!(
            fs::read(&path).unwrap() == good,
            "{what}: the fallback must leave a good checkpoint"
        );
    }
}

#[test]
fn warm_rerun_without_its_checkpoint_rewinds_the_scratch_image() {
    let _results = ScratchResults::new("deleted");
    // gzip stores into its image (mcf's first 24k instructions only
    // load), so a fast-forward over a dirty image shows in its snapshot.
    let (bench, policy) = (BenchId::Gzip, Policy::authen_then_issue());
    let opts = opts();
    let (good, cold) = cold_fast_forward(bench, policy, &opts);
    let path = checkpoint_path(bench, &opts);

    // Every run here uses this thread's scratch image, and each starts
    // from the end state of the one before and finds no checkpoint to
    // restore, so it has to rewind to the pristine image first.
    let first = run_bench(bench, policy, &opts);
    assert_eq!(json(&first), cold);
    assert!(fs::read(&path).expect("first run wrote its checkpoint") == good);
    fs::remove_file(&path).unwrap();
    let second = run_bench(bench, policy, &opts);
    assert_eq!(json(&second), cold, "a warm rerun diverged after its checkpoint was deleted");
    assert!(
        fs::read(&path).expect("the rerun persists its checkpoint") == good,
        "the rerun fast-forwarded from a dirty scratch image"
    );
}

#[test]
fn zero_warmup_is_the_plain_cold_session() {
    let bench: BenchId = "swim".parse().unwrap();
    let opts = RunOpts { max_insts: 10_000, ..RunOpts::default() };
    assert_eq!(opts.warmup_insts, 0, "default is cold");
    let cfg = sim_config_id(bench, Policy::authen_then_issue(), &opts);
    let via_run_bench = run_bench(BenchId::Swim, Policy::authen_then_issue(), &opts);
    let direct = with_workload(bench, opts.seed, |w| {
        SimSession::new(&cfg).run(&mut w.mem, w.entry).into_report()
    });
    assert_eq!(
        via_run_bench.to_json().unwrap().render(),
        direct.to_json().unwrap().render(),
        "warmup_insts == 0 must not perturb the existing cold path"
    );
}

#[test]
fn warmup_is_part_of_the_sweep_cache_key() {
    let cold = SweepPoint::of("mcf".parse().unwrap(), Policy::baseline(), &RunOpts::default());
    let warm = SweepPoint::of(
        "mcf".parse().unwrap(),
        Policy::baseline(),
        &RunOpts { warmup_insts: 1_000, ..RunOpts::default() },
    );
    assert_ne!(cold.key(), warm.key(), "warm and cold reports must never collide");
}
