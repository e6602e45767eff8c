//! Microbenchmarks for the timing-model components: how fast the
//! simulator itself simulates.

use secsim_bench::timing::{fmt_rate, measure};
use secsim_core::{AuthQueue, AuthQueueConfig, CtrlConfig, ObfConfig, Obfuscator, SecureMemCtrl};
use secsim_mem::{
    AccessKind, Cache, CacheConfig, Channel, Dram, DramConfig, FillEngine, FillRequest,
};

fn report(m: secsim_bench::timing::Measurement) {
    println!(
        "{:28} {:>12} ops/s  ({:.1} ns/op)",
        m.label,
        fmt_rate(m.rate(1.0)),
        m.per_iter_secs() * 1e9
    );
}

fn main() {
    let mut cache = Cache::new(CacheConfig::paper_l2_256k());
    cache.access(0x1000, false);
    report(measure("cache/l2_access_hit", 0.5, || {
        std::hint::black_box(cache.access(0x1000, false));
    }));

    let mut cache = Cache::new(CacheConfig::paper_l2_256k());
    let mut addr: u32 = 0;
    report(measure("cache/l2_access_stream", 0.5, || {
        addr = addr.wrapping_add(64);
        std::hint::black_box(cache.access(addr, false));
    }));

    let mut d = Dram::new(DramConfig::paper_reference());
    let mut now = 0u64;
    report(measure("dram/access_page_hit", 0.5, || {
        let r = d.access(0x100, 64, now);
        now = r.done;
    }));

    let mut q = AuthQueue::new(AuthQueueConfig::default());
    let mut t = 0u64;
    report(measure("auth_queue_request", 0.5, || {
        t += 50;
        std::hint::black_box(q.request(t, 0));
    }));

    let mut ctrl = SecureMemCtrl::new(CtrlConfig::paper_reference());
    let mut chan = Channel::new(DramConfig::paper_reference());
    let mut t = 0u64;
    let mut addr = 0u32;
    report(measure("secure_fill", 0.5, || {
        t += 200;
        addr = addr.wrapping_add(64);
        std::hint::black_box(ctrl.fill(
            FillRequest {
                line_addr: addr,
                demand_addr: addr,
                bytes: 64,
                kind: AccessKind::Load,
                now: t,
                bus_not_before: 0,
            },
            &mut chan,
        ));
    }));

    let mut obf = Obfuscator::new(ObfConfig::paper_reference(0, 1 << 14));
    let mut chan = Channel::new(DramConfig::paper_reference());
    let mut t = 0u64;
    let mut addr = 0u32;
    report(measure("obf_lookup", 0.5, || {
        t += 100;
        addr = (addr + 64) & ((1 << 20) - 1);
        std::hint::black_box(obf.lookup(addr, t, &mut chan));
    }));
}
