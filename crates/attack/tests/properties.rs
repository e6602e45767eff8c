//! Seeded security property: a tamper of a line the victim program
//! fetches is detected under every authenticating policy.
//!
//! The property runs on `secsim_stats::for_each_case` and names the case
//! seed in every assert message, so a failure replays from that seed
//! alone. Whether tampering leaks the secret is pinned per exploit and
//! policy by tests/snapshots.rs.

use secsim_attack::{Victim, VictimKind, SECRET};
use secsim_core::Policy;
use secsim_cpu::{SimConfig, SimSession};
use secsim_stats::for_each_case;

const CASES: u64 = 256;

/// Any nonzero XOR mask over the linked-list victim's second instruction
/// word (always fetched; the entry word is left intact) raises the
/// authentication exception under each authenticating policy.
#[test]
fn tampering_touched_code_is_always_detected() {
    let victim = Victim::build(VictimKind::LinkedList, SECRET);
    for_each_case(CASES, |seed, rng| {
        let mask = rng.next_u32().max(1).to_le_bytes();
        for policy in [
            Policy::authen_then_issue(),
            Policy::authen_then_commit(),
            Policy::authen_then_write(),
            Policy::authen_then_fetch(),
        ] {
            let mut cfg = SimConfig::paper_256k(policy).with_max_insts(50_000);
            cfg.secure = cfg.secure.with_protected_region(0, 0x1_0000);
            let mut image = victim.image.clone();
            image.tamper_xor(0x1004, &mask).expect("in-image");
            let r = SimSession::new(&cfg).run(&mut image, victim.entry).into_report();
            assert!(r.exception.is_some(), "case seed {seed}: {policy} missed mask {mask:?}");
        }
    });
}
