//! The secure memory controller: a [`FillEngine`] that schedules all
//! off-chip traffic of a protected fill/writeback and produces the
//! per-line `decrypt_ready` / `auth_ready` timestamps the pipeline gates
//! on.
//!
//! Per external line fill (paper §5.2):
//!
//! 1. (obfuscation only) look the external address up in the remap cache;
//! 2. (counter mode) obtain the line's counter — on-chip counter cache,
//!    or an extra memory fetch — and start pad precomputation;
//! 3. fetch `line + MAC` over the bus (the MAC travels with the line);
//! 4. `decrypt_ready = max(ciphertext arrival, pad ready)` for counter
//!    mode, or the serial CBC chain;
//! 5. (authentication) walk the hash tree if configured, then enqueue an
//!    [`AuthQueue`] request; `auth_ready` is its completion broadcast.

use crate::obfuscate::{ObfConfig, Obfuscator};
use crate::queue::{AuthQueue, AuthQueueConfig};
use crate::tree::{TreeConfig, TreeTiming};
use secsim_crypto::{CryptoLatency, EncryptionMode, MacScheme};
use secsim_mem::{
    AccessKind, BusKind, Cache, CacheConfig, Channel, FillEngine, FillRequest, FillResponse,
};
use secsim_stats::CounterSet;

/// Synthetic address region for counter blocks.
const COUNTER_BASE: u32 = 0xC000_0000;

/// Secure memory controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrlConfig {
    /// Engine latencies (AES / SHA).
    pub crypto: CryptoLatency,
    /// Memory encryption mode.
    pub enc_mode: EncryptionMode,
    /// Integrity-verification scheme.
    pub mac_scheme: MacScheme,
    /// Whether integrity verification runs at all (`false` = the
    /// decrypt-only baseline).
    pub authenticate: bool,
    /// Authentication queue parameters.
    pub queue: AuthQueueConfig,
    /// On-chip counter cache (counter mode). One 8-byte counter per
    /// line; a 64-byte cache line covers 512 bytes of protected memory.
    pub counter_cache: CacheConfig,
    /// Stored MAC size in bytes, fetched alongside the line (paper: 8).
    pub mac_bytes: u32,
    /// Counter prediction/precomputation per the paper's reference
    /// decryption scheme \[19\]: when `true`, decryption pads are
    /// precomputed from predicted counters and no counter traffic
    /// appears on the demand path. Set `false` to model explicit
    /// counter-cache fills (the ablation in `bench/ablation`).
    pub ctr_predict: bool,
    /// Lazy-verification lag in cycles (the *lazy authentication* of
    /// [20, 25]): verification of each block is deferred this long after
    /// its data arrives, widening the vulnerable window in exchange for
    /// batching freedom. 0 = verify eagerly (the paper's schemes).
    pub lazy_delay: u64,
    /// Hash-tree authentication (Figure 12) when present.
    pub tree: Option<TreeConfig>,
    /// Address obfuscation (Figure 9 / the `+obfuscation` scheme) when
    /// present.
    pub obf: Option<ObfConfig>,
}

impl CtrlConfig {
    /// Paper reference: counter mode + truncated HMAC-SHA256, 32 KB
    /// counter cache, no tree, no obfuscation.
    pub fn paper_reference() -> Self {
        let crypto = CryptoLatency::paper_reference();
        Self {
            crypto,
            enc_mode: EncryptionMode::CounterMode,
            mac_scheme: MacScheme::HmacSha256,
            authenticate: true,
            queue: AuthQueueConfig { mac_latency: crypto.sha_block_cycles, ..Default::default() },
            counter_cache: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                assoc: 8,
                latency: 1,
            },
            mac_bytes: 8,
            ctr_predict: true,
            lazy_delay: 0,
            tree: None,
            obf: None,
        }
    }

    /// Reference configuration without authentication (the Figure 7
    /// normalization baseline).
    pub fn baseline() -> Self {
        Self { authenticate: false, ..Self::paper_reference() }
    }

    /// Reference configuration under a different MAC scheme, with the
    /// authentication-queue latency set to that scheme's engine latency.
    pub fn with_mac(scheme: MacScheme) -> Self {
        let mut cfg = Self::paper_reference();
        cfg.mac_scheme = scheme;
        cfg.queue.mac_latency = match scheme {
            MacScheme::HmacSha256 => cfg.crypto.sha_block_cycles,
            // The serial chain is charged via `mac_extra`; the queue's
            // base covers the first chunk.
            MacScheme::CbcMacAes => cfg.crypto.aes_cycles,
            MacScheme::GmacAes => cfg.crypto.gmac_latency(),
        };
        cfg
    }
}

impl Default for CtrlConfig {
    fn default() -> Self {
        Self::paper_reference()
    }
}

/// The secure memory controller. Implements [`FillEngine`] so it plugs
/// into [`secsim_mem::MemSystem`].
///
/// # Examples
///
/// ```
/// use secsim_core::{CtrlConfig, SecureMemCtrl};
/// use secsim_mem::{AccessKind, Channel, DramConfig, FillEngine, FillRequest};
///
/// let mut ctrl = SecureMemCtrl::new(CtrlConfig::paper_reference());
/// let mut chan = Channel::new(DramConfig::paper_reference());
/// let resp = ctrl.fill(
///     FillRequest { line_addr: 0x8000, demand_addr: 0x8008, bytes: 64, kind: AccessKind::Load, now: 0, bus_not_before: 0 },
///     &mut chan,
/// );
/// assert!(resp.auth_ready > resp.decrypt_ready, "authentication lags decryption");
/// ```
#[derive(Debug, Clone)]
pub struct SecureMemCtrl {
    cfg: CtrlConfig,
    queue: AuthQueue,
    counter_cache: Cache,
    tree: Option<TreeTiming>,
    obf: Option<Obfuscator>,
    // Plain fields: bumped on every fill/writeback.
    counter_hits: u64,
    counter_misses: u64,
    auth_requests: u64,
    writebacks: u64,
    /// One-shot extra verification latency armed by fault injection
    /// ([`FaultKind::MacDelay`](crate::FaultKind::MacDelay) /
    /// [`FaultKind::MacDrop`](crate::FaultKind::MacDrop)); consumed by
    /// the next authentication request.
    injected_mac_delay: u64,
    injected_mac_faults: u64,
}

impl SecureMemCtrl {
    /// Creates a controller with cold metadata caches.
    pub fn new(cfg: CtrlConfig) -> Self {
        Self {
            cfg,
            queue: AuthQueue::new(cfg.queue),
            counter_cache: Cache::new(cfg.counter_cache),
            tree: cfg.tree.map(TreeTiming::new),
            obf: cfg.obf.map(Obfuscator::new),
            counter_hits: 0,
            counter_misses: 0,
            auth_requests: 0,
            writebacks: 0,
            injected_mac_delay: 0,
            injected_mac_faults: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CtrlConfig {
        &self.cfg
    }

    /// The authentication queue (LastRequest register, watermark
    /// queries) — the pipeline's interface for *authen-then-write* /
    /// *authen-then-fetch* tags.
    pub fn queue(&self) -> &AuthQueue {
        &self.queue
    }

    /// Arms a one-shot MAC-verification fault: the next authentication
    /// request pays `extra` additional cycles on top of its normal
    /// latency. Pass [`MAC_DROP_DELAY`](crate::MAC_DROP_DELAY) to model
    /// a dropped verification (the result effectively never arrives,
    /// and gated pipelines run into the `max_cycles` fence). Repeated
    /// arming before the next request keeps the largest delay.
    pub fn inject_mac_delay(&mut self, extra: u64) {
        self.injected_mac_delay = self.injected_mac_delay.max(extra);
    }

    /// The obfuscation engine, when configured.
    pub fn obfuscator(&self) -> Option<&Obfuscator> {
        self.obf.as_ref()
    }

    /// The hash-tree timing engine, when configured.
    pub fn tree(&self) -> Option<&TreeTiming> {
        self.tree.as_ref()
    }

    /// Controller counters, materialized on demand.
    pub fn counters(&self) -> CounterSet {
        [
            ("counter_hit", self.counter_hits),
            ("counter_miss", self.counter_misses),
            ("auth_requests", self.auth_requests),
            ("writebacks", self.writebacks),
            ("mac_faults", self.injected_mac_faults),
        ]
        .into_iter()
        .collect()
    }

    /// Counter-cache address covering `line_addr`'s 8-byte counter.
    fn counter_meta_addr(line_addr: u32) -> u32 {
        COUNTER_BASE + (line_addr / 64) * 8
    }

    /// Resolves the counter for a line: cache hit is free; a miss
    /// fetches the counter block from memory. Returns the cycle the pad
    /// precomputation may start.
    fn counter_ready(&mut self, line_addr: u32, now: u64, chan: &mut Channel) -> u64 {
        let meta = Self::counter_meta_addr(line_addr);
        let res = self.counter_cache.access(meta, false);
        if res.hit {
            self.counter_hits += 1;
            now
        } else {
            self.counter_misses += 1;
            let t = chan.transfer(meta, 64, BusKind::CounterFetch, now, 0);
            t.done
        }
    }
}

impl FillEngine for SecureMemCtrl {
    fn fill(&mut self, req: FillRequest, chan: &mut Channel) -> FillResponse {
        // 1. Address obfuscation lookup.
        let (ext_addr, addr_ready) = match self.obf.as_mut() {
            Some(obf) => obf.lookup(req.line_addr, req.now, chan),
            None => (req.line_addr, req.now),
        };

        // 2. Counter availability (counter mode): pad precomputation can
        // begin once both the fetch address and the counter are known.
        // With prediction [19] the counter is available immediately;
        // otherwise it comes from the counter cache or memory.
        let pad_start = match self.cfg.enc_mode {
            EncryptionMode::CounterMode if self.cfg.ctr_predict => addr_ready,
            EncryptionMode::CounterMode => self.counter_ready(req.line_addr, addr_ready, chan),
            EncryptionMode::Cbc => addr_ready,
        };

        // 3. The line itself (+ its MAC riding along in the burst).
        let kind = match req.kind {
            AccessKind::IFetch => BusKind::InstrFetch,
            AccessKind::Load | AccessKind::Store => BusKind::DataFetch,
        };
        let extra = if self.cfg.authenticate { self.cfg.mac_bytes } else { 0 };
        // The eavesdropper sees the critical-word column address at
        // data-bus (8-byte) granularity; under obfuscation the line part
        // is remapped but the within-line offset survives.
        let bus_addr = ext_addr | (req.demand_addr & (req.bytes - 1) & !7);
        let t = chan.transfer(bus_addr, req.bytes + extra, kind, addr_ready, req.bus_not_before);
        // Security-invariant oracle (active in debug/check builds,
        // compiled out otherwise): the address phase of an external
        // fetch must never be granted below the authen-then-fetch
        // watermark the pipeline passed down.
        if cfg!(any(debug_assertions, feature = "oracles")) {
            assert!(
                t.granted >= req.bus_not_before,
                "fetch-gate oracle: bus granted at cycle {} below auth watermark {} \
                 (line {:#010x})",
                t.granted,
                req.bus_not_before,
                req.line_addr,
            );
        }

        // 4. Decryption readiness (critical chunk).
        let decrypt_ready = match self.cfg.enc_mode {
            EncryptionMode::CounterMode => {
                self.cfg.crypto.ctr_decrypt_ready(pad_start, t.first_ready)
            }
            EncryptionMode::Cbc => self.cfg.crypto.cbc_decrypt_ready(t.done, 0),
        };

        // 5. Authentication: the tree walk, serial-MAC surcharge and
        // one-shot injected fault, then the in-order queue request.
        let (auth_ready, auth_id) = if self.cfg.authenticate {
            let (input_ready, tree_extra) = match self.tree.as_mut() {
                Some(tree) => {
                    let w = tree.walk(req.line_addr, t.done, chan);
                    (w.nodes_ready, w.extra_hash_latency)
                }
                None => (t.done, 0),
            };
            let mac_extra = match self.cfg.mac_scheme {
                MacScheme::HmacSha256 | MacScheme::GmacAes => 0,
                // CBC-MAC recomputes the serial chain over the line's
                // chunks beyond the queue's base latency.
                MacScheme::CbcMacAes => {
                    let chunks = u64::from(req.bytes.div_ceil(16));
                    self.cfg
                        .crypto
                        .cbcmac_latency(chunks)
                        .saturating_sub(self.cfg.queue.mac_latency)
                }
            };
            let fault_extra = std::mem::take(&mut self.injected_mac_delay);
            if fault_extra > 0 {
                self.injected_mac_faults += 1;
            }
            let id = self.queue.request_arrived(
                decrypt_ready,
                input_ready + self.cfg.lazy_delay,
                tree_extra + mac_extra + fault_extra,
            );
            self.auth_requests += 1;
            (self.queue.done_time(id), id.0)
        } else {
            (0, 0)
        };
        FillResponse {
            data_ready: t.first_ready,
            decrypt_ready,
            auth_ready,
            auth_id,
            bus_granted: t.granted,
        }
    }

    fn writeback(&mut self, line_addr: u32, bytes: u32, now: u64, chan: &mut Channel) {
        // Obfuscation: re-map the line to a new external slot.
        let (ext_addr, ready) = match self.obf.as_mut() {
            Some(obf) => obf.reshuffle(line_addr, now, chan),
            None => (line_addr, now),
        };
        // Counter bump: touch the counter cache (write). A miss fetches
        // the counter block first. Under prediction [19] counter
        // updates happen off the demand path.
        if self.cfg.enc_mode == EncryptionMode::CounterMode && !self.cfg.ctr_predict {
            let meta = Self::counter_meta_addr(line_addr);
            let res = self.counter_cache.access(meta, true);
            if !res.hit {
                self.counter_misses += 1;
                chan.transfer(meta, 64, BusKind::CounterFetch, ready, 0);
            }
            if let Some(v) = res.victim {
                if v.dirty {
                    chan.transfer(v.line_addr, 64, BusKind::CounterFetch, ready, 0);
                }
            }
        }
        // Line + fresh MAC out the door. Pad generation and MAC
        // computation for outbound lines overlap eviction buffering and
        // do not stall the pipeline.
        let extra = if self.cfg.authenticate { self.cfg.mac_bytes } else { 0 };
        chan.transfer(ext_addr, bytes + extra, BusKind::Writeback, ready, 0);
        // Hash-tree path update.
        if let Some(tree) = self.tree.as_mut() {
            tree.update_path(line_addr, ready, chan);
        }
        self.writebacks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::AuthId;
    use secsim_mem::{DramConfig, MemAccessResult, MemSystem, MemSystemConfig};

    fn chan() -> Channel {
        Channel::new(DramConfig::paper_reference())
    }

    fn fill_req(addr: u32, now: u64) -> FillRequest {
        FillRequest { line_addr: addr, demand_addr: addr, bytes: 64, kind: AccessKind::Load, now, bus_not_before: 0 }
    }

    #[test]
    fn auth_lags_decrypt_by_mac_latency() {
        let mut ctrl = SecureMemCtrl::new(CtrlConfig::paper_reference());
        let mut ch = chan();
        let _ = ctrl.fill(fill_req(0x8000, 0), &mut ch);
        let r = ctrl.fill(fill_req(0x8000, 10_000), &mut ch);
        // HMAC starts when the full line is home; decrypt is ready at the
        // critical chunk. Gap ≥ hash latency.
        assert!(r.auth_ready >= r.decrypt_ready + 74);
        assert!(r.auth_id > 0);
    }

    #[test]
    fn injected_mac_delay_is_one_shot_and_keeps_queue_order() {
        let mut ctrl = SecureMemCtrl::new(CtrlConfig::paper_reference());
        let mut ch = chan();
        let clean = ctrl.fill(fill_req(0x8000, 0), &mut ch);
        ctrl.inject_mac_delay(500);
        ctrl.inject_mac_delay(300); // largest armed delay wins
        let slow = ctrl.fill(fill_req(0x9000, 20_000), &mut ch);
        assert!(
            slow.auth_ready >= slow.decrypt_ready + 74 + 500,
            "armed delay must stretch verification"
        );
        // One-shot: the next fill pays only the normal latency again,
        // though in-order verification keeps done times monotone.
        let next = ctrl.fill(fill_req(0xA000, 40_000), &mut ch);
        assert!(next.auth_ready >= slow.auth_ready, "in-order queue stays monotone");
        assert!(clean.auth_ready < slow.auth_ready);
        assert_eq!(ctrl.counters().get("mac_faults"), 1);
    }

    #[test]
    fn baseline_never_authenticates() {
        let mut ctrl = SecureMemCtrl::new(CtrlConfig::baseline());
        let mut ch = chan();
        let r = ctrl.fill(fill_req(0x8000, 0), &mut ch);
        assert_eq!(r.auth_ready, 0);
        assert_eq!(r.auth_id, 0);
        assert!(ctrl.queue().is_empty());
    }

    #[test]
    fn counter_miss_delays_pad_not_necessarily_data() {
        // Ablation path: no counter prediction.
        let mut ctrl =
            SecureMemCtrl::new(CtrlConfig { ctr_predict: false, ..CtrlConfig::paper_reference() });
        let mut ch = chan();
        let cold = ctrl.fill(fill_req(0x10_0000, 0), &mut ch);
        assert_eq!(ctrl.counters().get("counter_miss"), 1);
        // Counter block fetch + line fetch serialize on the channel.
        assert!(cold.decrypt_ready > 170);
        // A neighbouring line shares the counter block: hit.
        let warm = ctrl.fill(fill_req(0x10_0040, cold.decrypt_ready), &mut ch);
        assert_eq!(ctrl.counters().get("counter_hit"), 1);
        let _ = warm;
    }

    #[test]
    fn bus_not_before_respected() {
        let mut ctrl = SecureMemCtrl::new(CtrlConfig::paper_reference());
        let mut ch = chan();
        ch.trace_mut().enable();
        let _ = ctrl.fill(
            FillRequest {
                line_addr: 0x20_0000,
                demand_addr: 0x20_0000,
                bytes: 64,
                kind: AccessKind::Load,
                now: 0,
                bus_not_before: 50_000,
            },
            &mut ch,
        );
        let demand: Vec<_> = ch
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == BusKind::DataFetch)
            .collect();
        assert_eq!(demand.len(), 1);
        assert!(demand[0].cycle >= 50_000, "authen-then-fetch gate violated");
    }

    #[test]
    fn queue_ids_are_monotone_across_fills() {
        let mut ctrl = SecureMemCtrl::new(CtrlConfig::paper_reference());
        let mut ch = chan();
        let a = ctrl.fill(fill_req(0x1000, 0), &mut ch);
        let b = ctrl.fill(fill_req(0x2000, 100), &mut ch);
        assert!(b.auth_id > a.auth_id);
        assert!(b.auth_ready >= a.auth_ready);
        assert_eq!(ctrl.queue().last_request(), AuthId(2));
    }

    /// A demand miss at 0x70_0000 on a hierarchy over `cfg` with
    /// next-line prefetch on and a 40-cycle MAC delay armed for the
    /// demand's verification. With `dirty_victim`, the prefetched line's
    /// L2 set (stride 64 KiB) first holds four lines, the oldest dirtied
    /// by a store that a load 16 KiB further evicts from the
    /// direct-mapped L1, so the prefetch evicts a dirty line. Returns
    /// the demand's result, the prefetched line's result read back at
    /// the demand's `ready`, and the queue's LastRequest register and
    /// drain time.
    fn prefetch_case(
        cfg: CtrlConfig,
        dirty_victim: bool,
    ) -> (MemAccessResult, MemAccessResult, AuthId, u64) {
        let (demand, next) = (0x70_0000, 0x70_0040);
        let mut mcfg = MemSystemConfig::paper_256k();
        mcfg.prefetch_next_line = true;
        let mut ms = MemSystem::new(mcfg, SecureMemCtrl::new(cfg));
        let mut now = 100;
        if dirty_victim {
            let warm = [
                (next + 0x1_0000, AccessKind::Store),
                (next + 0x1_4000, AccessKind::Load),
                (next + 0x2_0000, AccessKind::Load),
                (next + 0x3_0000, AccessKind::Load),
                (next + 0x4_0000, AccessKind::Load),
            ];
            for (addr, kind) in warm {
                now = ms.access(addr, kind, now, 0).ready + 1;
            }
        }
        let prefetches = ms.counters().get("l2.prefetch");
        ms.engine_mut().inject_mac_delay(40);
        ms.channel_mut().trace_mut().enable();
        let d = ms.access(demand, AccessKind::Load, now, 0);
        assert_eq!(ms.counters().get("l2.prefetch"), prefetches + 1);
        // The dirty victim's writeback lands between the two fills.
        let bus: Vec<_> = ms
            .channel()
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind != BusKind::TreeFetch)
            .map(|e| (e.kind, e.addr))
            .collect();
        let mut want = vec![(BusKind::DataFetch, demand), (BusKind::DataFetch, next)];
        if dirty_victim {
            want.insert(1, (BusKind::Writeback, next + 0x1_0000));
        }
        assert_eq!(bus, want);
        let p = ms.access(next, AccessKind::Load, d.ready, 0);
        assert!(!p.l2_miss, "the prefetched line is resident");
        (d, p, ms.engine().queue().last_request(), ms.engine().queue().drain_time())
    }

    /// Demand and prefetch fill one after the other, the prefetch
    /// starting when the demand line's data is home (one started at the
    /// miss cycle reads other values), under the reference controller,
    /// the decrypt-only baseline, CBC-MAC and the hash tree, and once
    /// with a dirty prefetch victim.
    #[test]
    fn secure_prefetch_fills_after_the_demand_line() {
        let demand = |ready, auth_ready, auth_id, bus_granted| MemAccessResult {
            ready,
            auth_ready,
            auth_id,
            l2_miss: true,
            l1_miss: true,
            bus_granted,
        };
        let l2_hit = |ready, auth_ready, auth_id| MemAccessResult {
            ready,
            auth_ready,
            auth_id,
            l2_miss: false,
            l1_miss: true,
            bus_granted: 0,
        };
        let tree = CtrlConfig {
            tree: Some(TreeConfig::paper_reference(0x70_0000, 1 << 16)),
            ..CtrlConfig::paper_reference()
        };
        let cases = [
            (CtrlConfig::paper_reference(), false, demand(270, 424, 1, 135), l2_hit(370, 484, 2)),
            (CtrlConfig::baseline(), false, demand(270, 0, 0, 135), l2_hit(370, 0, 0)),
            (
                CtrlConfig::with_mac(MacScheme::CbcMacAes),
                false,
                demand(270, 670, 1, 135),
                l2_hit(370, 730, 2),
            ),
            (tree, false, demand(270, 1143, 1, 135), l2_hit(1030, 1144, 2)),
            (
                CtrlConfig::paper_reference(),
                true,
                demand(1345, 1499, 11, 1175),
                l2_hit(1575, 1689, 12),
            ),
        ];
        for (cfg, dirty, d, p) in cases {
            // The prefetch is the newest request: the queue drains when
            // it verifies.
            let (last, drain) = (AuthId(p.auth_id), p.auth_ready);
            assert_eq!(
                prefetch_case(cfg, dirty),
                (d, p, last, drain),
                "{cfg:?}, dirty victim {dirty}"
            );
        }
    }

    #[test]
    fn tree_configured_adds_latency() {
        let mut plain = SecureMemCtrl::new(CtrlConfig::paper_reference());
        let mut with_tree = SecureMemCtrl::new(CtrlConfig {
            tree: Some(TreeConfig::paper_reference(0, 1 << 16)),
            ..CtrlConfig::paper_reference()
        });
        let mut ch1 = chan();
        let mut ch2 = chan();
        let a = plain.fill(fill_req(0x8000, 0), &mut ch1);
        let b = with_tree.fill(fill_req(0x8000, 0), &mut ch2);
        assert!(b.auth_ready > a.auth_ready, "tree walk must add latency");
    }

    #[test]
    fn obfuscation_changes_bus_address() {
        let mut ctrl = SecureMemCtrl::new(CtrlConfig {
            obf: Some(ObfConfig::paper_reference(0, 1 << 12)),
            ..CtrlConfig::paper_reference()
        });
        let mut ch = chan();
        ch.trace_mut().enable();
        let logical = 0x4_0000u32; // inside the region
        let _ = ctrl.fill(fill_req(logical, 0), &mut ch);
        let expected = ctrl.obfuscator().expect("configured").map(logical);
        let demand: Vec<_> = ch
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == BusKind::DataFetch)
            .collect();
        assert_eq!(demand[0].addr, expected);
    }

    #[test]
    fn cbc_mode_decrypt_after_full_line() {
        let mut ctrl = SecureMemCtrl::new(CtrlConfig {
            enc_mode: EncryptionMode::Cbc,
            ..CtrlConfig::paper_reference()
        });
        let mut ch = chan();
        let r = ctrl.fill(fill_req(0x8000, 0), &mut ch);
        // CBC: decrypt starts only after the line is fully home.
        assert!(r.decrypt_ready > r.data_ready + 79);
    }

    #[test]
    fn writeback_counts_and_traffic() {
        let mut ctrl = SecureMemCtrl::new(CtrlConfig::paper_reference());
        let mut ch = chan();
        ch.trace_mut().enable();
        ctrl.writeback(0x9000, 64, 100, &mut ch);
        assert_eq!(ctrl.counters().get("writebacks"), 1);
        assert!(ch
            .trace()
            .events()
            .iter()
            .any(|e| e.kind == BusKind::Writeback && e.addr == 0x9000));
    }
}
