//! The [`SimConfig`] schema: one exhaustive field walk per config struct
//! (a destructuring `let` with no `..`) names each field's wire key and
//! [`Rule`]. [`SimConfig::to_json`], the [`StableHash`] behind the result
//! store's cache key, [`SimConfig::from_json`] and
//! [`SimConfig::validate`] are visitors of those walks, so a new field
//! does not compile until it has all four, and the wire form and the key
//! cannot drift apart.
//!
//! # Examples
//!
//! ```
//! use secsim_core::Policy;
//! use secsim_cpu::SimConfig;
//!
//! let cfg = SimConfig::paper_1m(Policy::commit_plus_obfuscation());
//! assert_eq!(SimConfig::from_json(&cfg.to_json()), Ok(cfg));
//!
//! let mut bad = cfg;
//! bad.cpu.ruu_size = 0;
//! assert_eq!(bad.validate().unwrap_err().field, "cpu.ruu_size");
//! ```

use crate::bpred::BPredConfig;
use crate::config::{CpuConfig, SimConfig};
use secsim_core::{
    AuthQueueConfig, CtrlConfig, FetchGateVariant, ObfConfig, Policy, SecureConfig, TreeConfig,
};
use secsim_crypto::{CryptoLatency, EncryptionMode, MacScheme};
use secsim_mem::{CacheConfig, DramConfig, MemSystemConfig, TlbConfig};
use secsim_stats::{Json, StableHash, StableHasher};

/// A config field that failed to decode or to validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted path of the field, e.g. `cpu.ruu_size`.
    pub field: String,
    /// What the value must be.
    pub problem: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.field, self.problem)
    }
}

impl std::error::Error for ConfigError {}

impl SimConfig {
    /// The complete config as JSON, every field explicit, in walk order.
    pub fn to_json(&self) -> Json {
        let mut out = ToJson(Vec::new());
        sim_fields(&mut out, &mut { *self });
        Json::Object(out.0)
    }

    /// Parses what [`to_json`](SimConfig::to_json) rendered and
    /// [`validate`](SimConfig::validate)s it. Unknown keys are ignored;
    /// a missing or mistyped field is an error naming it.
    pub fn from_json(v: &Json) -> Result<SimConfig, ConfigError> {
        // Every field is overwritten or is an error, so any preset will do.
        let mut cfg = SimConfig::paper_256k(Policy::baseline());
        let mut c = Check { json: Some(v), path: Vec::new(), err: None };
        sim_fields(&mut c, &mut cfg);
        c.err.map_or(Ok(cfg), Err)
    }

    /// Checks every field against what the model can simulate: non-zero
    /// where the model divides by, indexes with or needs one of a field,
    /// powers of two where cache, TLB and predictor geometry assume them,
    /// a cap on every field that is added to a cycle count, and caps on
    /// the tables a point allocates that hold its largest accepted config
    /// to about 60 MiB.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut c = Check { json: None, path: Vec::new(), err: None };
        sim_fields(&mut c, &mut { *self });
        c.err.map_or(Ok(()), Err)
    }
}

impl StableHash for SimConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        sim_fields(&mut Hash(h), &mut { *self });
    }
}

/// What an integer field may hold.
#[derive(Debug, Clone, Copy)]
struct Rule {
    min: u64,
    max: u64,
    pow2: bool,
}

impl Rule {
    const fn range(min: u64, max: u64) -> Rule {
        Rule { min, max, pow2: false }
    }

    const fn pow2(max: u64) -> Rule {
        Rule { min: 1, max, pow2: true }
    }
}

const ANY: Rule = Rule::range(0, u64::MAX);
/// Divisors and counts the model needs at least one of.
const NONZERO: Rule = Rule::range(1, u64::MAX);
/// Latencies and delays, cycles: far above any modelled engine, far
/// below where adding them to a cycle count could overflow.
const CYCLES: Rule = Rule::range(0, 1 << 24);
/// Per-cycle widths and functional-unit counts (one slot each).
const WIDTH: Rule = Rule::range(1, 1 << 10);
/// Ring-buffered windows: RUU, LSQ, store buffer, RAS, MAC queue.
const WINDOW: Rule = Rule::range(1, 1 << 16);
/// Lines per cache: 4 MiB of tags each, and 10 MiB of fill metadata
/// beside the L2. A point builds up to six caches.
const CACHE_LINES: u32 = 1 << 18;

fn sim_fields<F: Fields>(f: &mut F, c: &mut SimConfig) {
    let SimConfig { cpu, mem, secure, max_insts, max_cycles } = c;
    f.group("cpu", cpu, cpu_fields);
    f.group("mem", mem, mem_fields);
    f.group("secure", secure, secure_fields);
    f.num("max_insts", max_insts, ANY);
    f.num("max_cycles", max_cycles, ANY);
}

fn cpu_fields<F: Fields>(f: &mut F, c: &mut CpuConfig) {
    let CpuConfig {
        fetch_width,
        decode_width,
        issue_width,
        commit_width,
        ruu_size,
        lsq_size,
        store_buffer,
        frontend_depth,
        mispredict_redirect,
        int_alu,
        int_mul,
        fp_alu,
        fp_mul,
        mem_ports,
        bpred,
    } = c;
    f.num("fetch_width", fetch_width, WIDTH);
    f.num("decode_width", decode_width, WIDTH);
    f.num("issue_width", issue_width, WIDTH);
    f.num("commit_width", commit_width, WIDTH);
    f.num("ruu_size", ruu_size, WINDOW);
    f.num("lsq_size", lsq_size, WINDOW);
    f.num("store_buffer", store_buffer, WINDOW);
    f.num("frontend_depth", frontend_depth, CYCLES);
    f.num("mispredict_redirect", mispredict_redirect, CYCLES);
    f.num("int_alu", int_alu, WIDTH);
    f.num("int_mul", int_mul, WIDTH);
    f.num("fp_alu", fp_alu, WIDTH);
    f.num("fp_mul", fp_mul, WIDTH);
    f.num("mem_ports", mem_ports, WIDTH);
    f.group("bpred", bpred, bpred_fields);
}

fn bpred_fields<F: Fields>(f: &mut F, b: &mut BPredConfig) {
    let BPredConfig { bimodal_entries, btb_entries, ras_depth } = b;
    f.num("bimodal_entries", bimodal_entries, Rule::pow2(1 << 20));
    f.num("btb_entries", btb_entries, Rule::pow2(1 << 16));
    f.num("ras_depth", ras_depth, WINDOW);
}

fn mem_fields<F: Fields>(f: &mut F, m: &mut MemSystemConfig) {
    let MemSystemConfig { l1i, l1d, l2, dram, itlb, dtlb, prefetch_next_line } = m;
    f.group("l1i", l1i, cache_fields);
    f.group("l1d", l1d, cache_fields);
    f.group("l2", l2, cache_fields);
    f.group("dram", dram, dram_fields);
    f.group("itlb", itlb, tlb_fields);
    f.group("dtlb", dtlb, tlb_fields);
    f.flag("prefetch_next_line", prefetch_next_line);
}

fn cache_fields<F: Fields>(f: &mut F, c: &mut CacheConfig) {
    let CacheConfig { size_bytes, line_bytes, assoc, latency } = c;
    f.num("size_bytes", size_bytes, ANY);
    f.num("line_bytes", line_bytes, Rule::range(0, 1 << 12));
    f.num("assoc", assoc, Rule::range(0, 1 << 16));
    f.num("latency", latency, CYCLES);
    // Zero and non-power-of-two geometry: `CacheConfig::validate`.
    f.check(|| {
        c.validate()?;
        if c.size_bytes / c.line_bytes > CACHE_LINES {
            return Err(("size_bytes", "must be at most 2^18 * line_bytes"));
        }
        Ok(())
    });
}

fn dram_fields<F: Fields>(f: &mut F, d: &mut DramConfig) {
    let DramConfig { banks, row_bytes, cas, rcd, rp, core_per_bus, bus_bytes } = d;
    f.num("banks", banks, Rule::range(1, 1 << 10));
    f.num("row_bytes", row_bytes, NONZERO);
    f.num("cas", cas, CYCLES);
    f.num("rcd", rcd, CYCLES);
    f.num("rp", rp, CYCLES);
    f.num("core_per_bus", core_per_bus, Rule::range(1, CYCLES.max));
    f.num("bus_bytes", bus_bytes, NONZERO);
}

fn tlb_fields<F: Fields>(f: &mut F, t: &mut TlbConfig) {
    let TlbConfig { entries, assoc, page_bytes, miss_penalty } = t;
    f.num("entries", entries, Rule::range(0, 1 << 16));
    f.num("assoc", assoc, ANY);
    f.num("page_bytes", page_bytes, ANY);
    f.num("miss_penalty", miss_penalty, CYCLES);
    f.check(|| t.validate());
}

fn secure_fields<F: Fields>(f: &mut F, s: &mut SecureConfig) {
    let SecureConfig { policy, ctrl } = s;
    f.group("policy", policy, policy_fields);
    f.group("ctrl", ctrl, ctrl_fields);
}

fn policy_fields<F: Fields>(f: &mut F, p: &mut Policy) {
    let Policy {
        authenticate,
        gate_issue,
        gate_commit,
        gate_write,
        gate_fetch,
        fetch_variant,
        obfuscate,
    } = p;
    f.flag("authenticate", authenticate);
    f.flag("gate_issue", gate_issue);
    f.flag("gate_commit", gate_commit);
    f.flag("gate_write", gate_write);
    f.flag("gate_fetch", gate_fetch);
    f.pick("fetch_variant", fetch_variant);
    f.flag("obfuscate", obfuscate);
}

fn ctrl_fields<F: Fields>(f: &mut F, c: &mut CtrlConfig) {
    let CtrlConfig {
        crypto,
        enc_mode,
        mac_scheme,
        authenticate,
        queue,
        counter_cache,
        mac_bytes,
        ctr_predict,
        lazy_delay,
        tree,
        obf,
    } = c;
    f.group("crypto", crypto, crypto_fields);
    f.pick("enc_mode", enc_mode);
    f.pick("mac_scheme", mac_scheme);
    f.flag("authenticate", authenticate);
    f.group("queue", queue, queue_fields);
    f.group("counter_cache", counter_cache, cache_fields);
    f.num("mac_bytes", mac_bytes, Rule::range(0, 1 << 12));
    f.flag("ctr_predict", ctr_predict);
    f.num("lazy_delay", lazy_delay, CYCLES);
    f.opt("tree", tree, TreeConfig::paper_reference(0, 0), tree_fields);
    f.opt("obf", obf, ObfConfig::paper_reference(0, 1), obf_fields);
}

fn crypto_fields<F: Fields>(f: &mut F, c: &mut CryptoLatency) {
    let CryptoLatency { aes_cycles, sha_block_cycles, gmac_cycles } = c;
    f.num("aes_cycles", aes_cycles, CYCLES);
    f.num("sha_block_cycles", sha_block_cycles, CYCLES);
    f.num("gmac_cycles", gmac_cycles, CYCLES);
}

fn queue_fields<F: Fields>(f: &mut F, q: &mut AuthQueueConfig) {
    let AuthQueueConfig { capacity, mac_latency, initiation_interval } = q;
    f.num("capacity", capacity, WINDOW);
    f.num("mac_latency", mac_latency, Rule::range(1, CYCLES.max));
    f.num("initiation_interval", initiation_interval, CYCLES);
}

fn tree_fields<F: Fields>(f: &mut F, t: &mut TreeConfig) {
    let TreeConfig {
        arity,
        region_base,
        covered_lines,
        line_bytes,
        node_cache,
        hash_latency,
        concurrent,
        counter_tree,
    } = t;
    // An arity of 1 never reaches the root.
    f.num("arity", arity, Rule::range(2, 1 << 16));
    f.num("region_base", region_base, ANY);
    // At most one leaf per byte of the address space, so the walk's
    // per-level node stripes stay below 2^32.
    f.num("covered_lines", covered_lines, Rule::range(0, 1 << 32));
    f.num("line_bytes", line_bytes, NONZERO);
    f.group("node_cache", node_cache, cache_fields);
    f.num("hash_latency", hash_latency, CYCLES);
    f.flag("concurrent", concurrent);
    f.flag("counter_tree", counter_tree);
}

fn obf_fields<F: Fields>(f: &mut F, o: &mut ObfConfig) {
    let ObfConfig {
        region_base,
        region_lines,
        line_bytes,
        remap_cache,
        seed,
        swap_writes,
        chunk_lines,
    } = o;
    f.num("region_base", region_base, ANY);
    // One 4-byte permutation slot per line: 16 MiB.
    f.num("region_lines", region_lines, Rule::range(1, 1 << 22));
    f.num("line_bytes", line_bytes, NONZERO);
    f.group("remap_cache", remap_cache, cache_fields);
    f.num("seed", seed, ANY);
    f.flag("swap_writes", swap_writes);
    f.num("chunk_lines", chunk_lines, Rule::pow2(1 << 26));
    f.check(|| {
        let end = u64::from(o.region_base) + u64::from(o.region_lines) * u64::from(o.line_bytes);
        if end > 1 << 32 {
            return Err(("region_lines", "must end the region below 2^32"));
        }
        Ok(())
    });
}

/// A fieldless enum, written as its variant's name.
trait Choice: Copy + 'static {
    const ALL: &'static [Self];
    fn name(self) -> &'static str;
}

impl Choice for FetchGateVariant {
    const ALL: &'static [Self] = &[Self::LastRequestTag, Self::Drain];
    fn name(self) -> &'static str {
        match self {
            Self::LastRequestTag => "last-request-tag",
            Self::Drain => "drain",
        }
    }
}

impl Choice for EncryptionMode {
    const ALL: &'static [Self] = &[Self::CounterMode, Self::Cbc];
    fn name(self) -> &'static str {
        match self {
            Self::CounterMode => "counter",
            Self::Cbc => "cbc",
        }
    }
}

impl Choice for MacScheme {
    const ALL: &'static [Self] = &[Self::HmacSha256, Self::CbcMacAes, Self::GmacAes];
    fn name(self) -> &'static str {
        match self {
            Self::HmacSha256 => "hmac-sha256",
            Self::CbcMacAes => "cbc-mac-aes",
            Self::GmacAes => "gmac-aes",
        }
    }
}

/// The integer widths config fields use.
trait Num: Copy {
    const MAX: u64;
    fn get(self) -> u64;
    fn from_u64(x: u64) -> Option<Self>;
}

macro_rules! impl_num {
    ($($t:ty),*) => {$(
        impl Num for $t {
            const MAX: u64 = <$t>::MAX as u64;
            fn get(self) -> u64 {
                self as u64
            }
            fn from_u64(x: u64) -> Option<Self> {
                <$t>::try_from(x).ok()
            }
        }
    )*};
}
impl_num!(u32, u64, usize);

type Key = &'static str;

/// One visit of a config struct's fields, in walk order. Keys are wire
/// names; rules and checks matter only to [`Check`].
trait Fields: Sized {
    fn num<N: Num>(&mut self, key: Key, v: &mut N, rule: Rule);
    fn flag(&mut self, key: Key, v: &mut bool);
    fn pick<E: Choice>(&mut self, key: Key, v: &mut E);
    fn group<T>(&mut self, key: Key, v: &mut T, walk: fn(&mut Self, &mut T));
    /// An optional sub-struct, `null` when absent; a decoder fills
    /// `blank` when it is present.
    fn opt<T>(&mut self, key: Key, v: &mut Option<T>, blank: T, walk: fn(&mut Self, &mut T));
    /// A condition over several fields of the struct being walked; its
    /// error names the field at fault and what it must be.
    fn check(&mut self, _ok: impl FnOnce() -> Result<(), (Key, &'static str)>) {}
}

struct ToJson(Vec<(String, Json)>);

impl Fields for ToJson {
    fn num<N: Num>(&mut self, key: Key, v: &mut N, _: Rule) {
        self.0.push((key.into(), Json::UInt(v.get())));
    }
    fn flag(&mut self, key: Key, v: &mut bool) {
        self.0.push((key.into(), Json::Bool(*v)));
    }
    fn pick<E: Choice>(&mut self, key: Key, v: &mut E) {
        self.0.push((key.into(), Json::Str(v.name().into())));
    }
    fn group<T>(&mut self, key: Key, v: &mut T, walk: fn(&mut Self, &mut T)) {
        let mut sub = ToJson(Vec::new());
        walk(&mut sub, v);
        self.0.push((key.into(), Json::Object(sub.0)));
    }
    fn opt<T>(&mut self, key: Key, v: &mut Option<T>, _: T, walk: fn(&mut Self, &mut T)) {
        match v {
            None => self.0.push((key.into(), Json::Null)),
            Some(t) => self.group(key, t, walk),
        }
    }
}

/// Feeds field values (not keys) to the hasher in walk order.
struct Hash<'h>(&'h mut StableHasher);

impl Fields for Hash<'_> {
    fn num<N: Num>(&mut self, _: Key, v: &mut N, _: Rule) {
        self.0.write_u64(v.get());
    }
    fn flag(&mut self, _: Key, v: &mut bool) {
        self.0.write_u64(u64::from(*v));
    }
    fn pick<E: Choice>(&mut self, _: Key, v: &mut E) {
        v.name().stable_hash(self.0);
    }
    fn group<T>(&mut self, _: Key, v: &mut T, walk: fn(&mut Self, &mut T)) {
        walk(self, v);
    }
    fn opt<T>(&mut self, _: Key, v: &mut Option<T>, _: T, walk: fn(&mut Self, &mut T)) {
        self.0.write_u64(u64::from(v.is_some()));
        if let Some(t) = v {
            walk(self, t);
        }
    }
}

/// Reads each field from `json` when there is one, and checks every
/// rule; keeps the first error, with the field's dotted path.
struct Check<'j> {
    json: Option<&'j Json>,
    path: Vec<Key>,
    err: Option<ConfigError>,
}

impl Check<'_> {
    fn fail(&mut self, key: Key, problem: String) {
        if self.err.is_none() {
            let field = self.path.iter().chain([&key]).copied().collect::<Vec<_>>().join(".");
            self.err = Some(ConfigError { field, problem });
        }
    }
}

impl Fields for Check<'_> {
    fn num<N: Num>(&mut self, key: Key, v: &mut N, rule: Rule) {
        if let Some(j) = self.json {
            match j.get(key).and_then(Json::as_u64).and_then(N::from_u64) {
                Some(x) => *v = x,
                None => {
                    self.fail(key, format!("must be an integer in 0..={}", N::MAX));
                    return;
                }
            }
        }
        let x = v.get();
        if !(rule.min..=rule.max).contains(&x) || rule.pow2 && !x.is_power_of_two() {
            let what = if rule.pow2 { "a power of two" } else { "an integer" };
            let (min, max) = (rule.min, rule.max.min(N::MAX));
            self.fail(key, format!("must be {what} in {min}..={max}, got {x}"));
        }
    }
    fn flag(&mut self, key: Key, v: &mut bool) {
        if let Some(j) = self.json {
            match j.get(key).and_then(Json::as_bool) {
                Some(b) => *v = b,
                None => self.fail(key, "must be true or false".into()),
            }
        }
    }
    fn pick<E: Choice>(&mut self, key: Key, v: &mut E) {
        if let Some(j) = self.json {
            let got = j.get(key).and_then(Json::as_str);
            match E::ALL.iter().find(|e| got == Some(e.name())) {
                Some(&e) => *v = e,
                None => {
                    let names: Vec<_> = E::ALL.iter().map(|e| format!("{:?}", e.name())).collect();
                    self.fail(key, format!("must be one of {}", names.join(", ")));
                }
            }
        }
    }
    fn group<T>(&mut self, key: Key, v: &mut T, walk: fn(&mut Self, &mut T)) {
        let up = self.json;
        if let Some(j) = up {
            match j.get(key) {
                Some(sub @ Json::Object(_)) => self.json = Some(sub),
                _ => {
                    self.fail(key, "must be an object".into());
                    return;
                }
            }
        }
        self.path.push(key);
        walk(self, v);
        self.path.pop();
        self.json = up;
    }
    fn opt<T>(&mut self, key: Key, v: &mut Option<T>, blank: T, walk: fn(&mut Self, &mut T)) {
        if let Some(j) = self.json {
            *v = match j.get(key) {
                None | Some(Json::Null) => None,
                Some(_) => Some(blank),
            };
        }
        if let Some(t) = v {
            self.group(key, t, walk);
        }
    }
    fn check(&mut self, ok: impl FnOnce() -> Result<(), (Key, &'static str)>) {
        // Only over fields that passed their rules: a check may divide
        // by one of them.
        if self.err.is_none() {
            if let Err((key, problem)) = ok() {
                self.fail(key, problem.into());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secsim_workloads::{BenchId, SplitMix64};

    /// Rewrites fields from a seeded stream: one in `calm` moves, to a
    /// neighbour of its value or to anything its width holds.
    struct Scramble {
        rng: SplitMix64,
        calm: usize,
    }

    impl Fields for Scramble {
        fn num<N: Num>(&mut self, _: Key, v: &mut N, _: Rule) {
            let x = v.get();
            let y = match self.rng.index(4 * self.calm) {
                0 => x.saturating_mul(2),
                1 => x / 2,
                2 => x.saturating_add(1),
                3 => self.rng.next_u64(),
                _ => x,
            };
            *v = N::from_u64(y.min(N::MAX)).expect("clamped to the width");
        }
        fn flag(&mut self, _: Key, v: &mut bool) {
            *v = self.rng.index(2) == 1;
        }
        fn pick<E: Choice>(&mut self, _: Key, v: &mut E) {
            *v = E::ALL[self.rng.index(E::ALL.len())];
        }
        fn group<T>(&mut self, _: Key, v: &mut T, walk: fn(&mut Self, &mut T)) {
            walk(self, v);
        }
        fn opt<T>(&mut self, _: Key, v: &mut Option<T>, blank: T, walk: fn(&mut Self, &mut T)) {
            if self.rng.index(3) == 0 {
                *v = None;
            } else {
                walk(self, v.get_or_insert(blank));
            }
        }
    }

    /// Over seeded random configs, `from_json(to_json(c))` is `c` when
    /// `c` is valid and `validate`'s error when it is not.
    #[test]
    fn random_configs_round_trip() {
        let presets = [
            SimConfig::paper_256k(Policy::baseline()),
            SimConfig::paper_1m(Policy::commit_plus_fetch()),
        ];
        let (mut valid, mut refused) = (0, 0);
        for case in 0..4_000u64 {
            let seed = 0x5C4E_3A00 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut cfg = presets[case as usize % presets.len()];
            let calm = [2, 16, 64][case as usize % 3];
            sim_fields(&mut Scramble { rng: SplitMix64::new(seed), calm }, &mut cfg);
            let wire = Json::parse(&cfg.to_json().render()).expect("renders valid JSON");
            let back = SimConfig::from_json(&wire);
            assert_eq!(back, cfg.validate().map(|()| cfg), "seed {seed:#x}");
            match back {
                Ok(_) => valid += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(valid >= 1_000 && refused >= 1_000, "{valid} valid, {refused} refused");
    }

    /// Every table a point allocates at its cap: the config validates
    /// and simulates, and one step past any cap is refused by name.
    #[test]
    fn largest_accepted_config_simulates() {
        let mut cfg = SimConfig::paper_1m(Policy::commit_plus_obfuscation());
        cfg.max_insts = 2_000;
        cfg.secure.ctrl.tree = Some(TreeConfig::paper_reference(0, 1 << 32));
        let SimConfig { cpu, mem, secure, .. } = &mut cfg;
        let ctrl = &mut secure.ctrl;
        let (tree, obf) = (ctrl.tree.as_mut().unwrap(), ctrl.obf.as_mut().unwrap());
        for c in [
            &mut mem.l1i,
            &mut mem.l1d,
            &mut mem.l2,
            &mut ctrl.counter_cache,
            &mut tree.node_cache,
            &mut obf.remap_cache,
        ] {
            c.size_bytes = CACHE_LINES * c.line_bytes;
        }
        obf.region_lines = 1 << 22;
        let window = WINDOW.max as u32;
        (cpu.ruu_size, cpu.lsq_size, cpu.store_buffer) = (window, window, window);
        (cpu.bpred.bimodal_entries, cpu.bpred.btb_entries) = (1 << 20, 1 << 16);
        (mem.itlb.entries, mem.dtlb.entries) = (1 << 16, 1 << 16);
        mem.dram.banks = 1 << 10;
        ctrl.queue.capacity = WINDOW.max as usize;
        assert_eq!(cfg.validate(), Ok(()));
        let report = crate::SimSession::new(&cfg).program(BenchId::Gzip).run_program().into_report();
        assert_eq!(report.insts, 2_000);

        let mut over = cfg;
        over.mem.l2.size_bytes *= 2;
        assert_eq!(over.validate().unwrap_err().field, "mem.l2.size_bytes");
        let mut over = cfg;
        over.secure.ctrl.obf.as_mut().unwrap().region_lines += 1;
        assert_eq!(over.validate().unwrap_err().field, "secure.ctrl.obf.region_lines");
    }

    #[test]
    fn decode_names_the_missing_or_mistyped_field() {
        let mut wire = SimConfig::paper_256k(Policy::baseline()).to_json();
        let Json::Object(top) = &mut wire else { unreachable!() };
        top.retain(|(k, _)| k != "max_cycles");
        let err = SimConfig::from_json(&wire).unwrap_err();
        assert_eq!(err.to_string(), "max_cycles must be an integer in 0..=18446744073709551615");
        let text = SimConfig::paper_256k(Policy::baseline()).to_json().render();
        for (from, to, field) in [
            ("\"ruu_size\":128", "\"ruu_size\":4294967296", "cpu.ruu_size"),
            ("\"enc_mode\":\"counter\"", "\"enc_mode\":\"ecb\"", "secure.ctrl.enc_mode"),
            ("\"gate_issue\":false", "\"gate_issue\":0", "secure.policy.gate_issue"),
            ("\"bpred\":{\"bimodal_entries\":2048,", "\"bpred\":7,\"x\":{\"y\":0,", "cpu.bpred"),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text, "{from} is in the wire form");
            let err = SimConfig::from_json(&Json::parse(&bad).expect("still JSON")).unwrap_err();
            assert_eq!(err.field, field, "{err}");
        }
    }
}
