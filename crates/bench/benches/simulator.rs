//! End-to-end benchmarks: simulated instructions per second of
//! wall-clock for representative workloads and policies, plus the cost
//! of one full exploit run.

use secsim_attack::{run_exploit, Exploit};
use secsim_bench::timing::{fmt_rate, measure};
use secsim_core::Policy;
use secsim_cpu::{SimConfig, SimSession};
use secsim_workloads::BenchId;

const INSTS: u64 = 30_000;

fn main() {
    for bench in [BenchId::Gzip, BenchId::Mcf, BenchId::Swim] {
        for (label, policy) in [
            ("baseline", Policy::baseline()),
            ("issue", Policy::authen_then_issue()),
            ("commit+fetch", Policy::commit_plus_fetch()),
        ] {
            let w = bench.build(11);
            let mut cfg = SimConfig::paper_256k(policy).with_max_insts(INSTS);
            cfg.secure = cfg.secure.with_protected_region(w.data_base, w.data_bytes);
            let m = measure(&format!("simulate_30k/{bench}/{label}"), 1.0, || {
                let mut mem = w.mem.clone();
                SimSession::new(&cfg).run(&mut mem, w.entry);
            });
            println!(
                "{:40} {:>12} simulated insts/s  ({:.2} ms/run)",
                m.label,
                fmt_rate(m.rate(INSTS as f64)),
                m.per_iter_secs() * 1e3
            );
        }
    }
    for (label, exploit, policy) in [
        ("pointer_conversion_commit", Exploit::PointerConversion, Policy::authen_then_commit()),
        ("disclosing_kernel_issue", Exploit::DisclosingKernel, Policy::authen_then_issue()),
    ] {
        let m = measure(&format!("exploit/{label}"), 1.0, || {
            run_exploit(exploit, policy);
        });
        println!("{:40} {:>12.2} ms/run", m.label, m.per_iter_secs() * 1e3);
    }
}
