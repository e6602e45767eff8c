//! Golden snapshot of the empirical attack matrix.
//!
//! `empirical_matrix()` runs every exploit against every policy on the
//! real simulator; the existing unit tests check it against the paper's
//! Table 2 *claims* (a weaker, column-level property). This snapshot
//! pins every individual cell, so any change to the pipeline, the
//! gating logic, the crypto model or the exploit programs that flips a
//! single outcome fails loudly here and forces a deliberate snapshot
//! update.

use secsim_attack::{empirical_matrix, matrix_table, run_exploit, Exploit, ExploitOutcome, SECRET};
use secsim_check::policy_oblivious;
use secsim_core::Policy;

/// The seven Table 2 policies, in `empirical_matrix`'s row order.
///
/// Every golden table below is sized by `GOLDEN.len()` (rows) and
/// `Exploit::ALL.len()` (columns), so the tests' `zip`s cannot drop a
/// policy or an exploit: adding one without its golden row or column
/// does not compile.
fn table2_policies() -> [Policy; GOLDEN.len()] {
    [
        Policy::baseline(),
        Policy::authen_then_issue(),
        Policy::authen_then_write(),
        Policy::authen_then_commit(),
        Policy::authen_then_fetch(),
        Policy::commit_plus_fetch(),
        Policy::commit_plus_obfuscation(),
    ]
}

/// `(policy name, outcomes in Exploit::ALL order)`; `true` = the
/// exploit leaked the secret.
///
/// Columns: pointer-conversion, binary-search, disclosing-kernel,
/// disclosing-kernel-io, shift-window, brute-force-page.
const GOLDEN: [(&str, [bool; Exploit::ALL.len()]); 7] = [
    ("baseline-decrypt-only", [true, true, true, true, true, true]),
    ("authen-then-issue", [false, false, false, false, false, false]),
    ("authen-then-write", [true, true, true, false, true, true]),
    ("authen-then-commit", [true, true, true, false, true, true]),
    ("authen-then-fetch", [false, false, false, true, false, false]),
    ("authen-then-commit+fetch", [false, false, false, false, false, false]),
    ("authen-then-commit+obfuscation", [false, false, false, false, false, false]),
];

/// `(trials, recovered, exception_cycle)` per cell: the rest of each
/// outcome beside GOLDEN's verdict, rows in GOLDEN's order and columns
/// in `Exploit::ALL` order (the same values as the `attack/` lines of
/// perfbench/pins.txt). A change that moves a trial count, a recovered
/// value or a detection cycle without flipping a verdict fails here.
type Cell = (u32, Option<u32>, Option<u64>);
const HIT: Option<u32> = Some(SECRET);
#[rustfmt::skip]
const GOLDEN_CELLS: [[Cell; Exploit::ALL.len()]; GOLDEN.len()] = [
    // baseline-decrypt-only
    [(1, HIT, None), (32, HIT, None), (1, HIT, None), (1, HIT, None), (4, HIT, None), (1, HIT, None)],
    // authen-then-issue
    [(1, None, Some(1047)), (1, None, Some(609)), (1, None, Some(609)), (1, None, Some(609)),
     (1, None, Some(609)), (16, None, Some(1047))],
    // authen-then-write
    [(1, HIT, Some(709)), (32, HIT, Some(499)), (1, HIT, Some(499)), (1, None, Some(499)),
     (4, HIT, Some(499)), (1, HIT, Some(709))],
    // authen-then-commit
    [(1, HIT, Some(709)), (32, HIT, Some(499)), (1, HIT, Some(499)), (1, None, Some(499)),
     (4, HIT, Some(499)), (1, HIT, Some(709))],
    // authen-then-fetch
    [(1, None, Some(1001)), (17, None, Some(573)), (1, None, Some(573)), (1, HIT, Some(573)),
     (1, None, Some(573)), (16, None, Some(1001))],
    // authen-then-commit+fetch
    [(1, None, Some(1001)), (17, None, Some(573)), (1, None, Some(573)), (1, None, Some(573)),
     (1, None, Some(573)), (16, None, Some(1001))],
    // authen-then-commit+obfuscation
    [(1, None, Some(1186)), (17, None, Some(974)), (1, None, Some(939)), (1, None, Some(939)),
     (1, None, Some(939)), (16, None, Some(1186))],
];

#[test]
fn every_cell_matches_golden_outcome() {
    let rows = table2_policies().into_iter().zip(GOLDEN).zip(GOLDEN_CELLS);
    for ((policy, (name, verdicts)), cells) in rows {
        assert_eq!(policy.to_string(), name, "policy order changed — update GOLDEN");
        let cells = Exploit::ALL.into_iter().zip(verdicts).zip(cells);
        for ((exploit, leaked), (trials, recovered, exception_cycle)) in cells {
            let want = ExploitOutcome { leaked, recovered, exception_cycle, trials };
            assert_eq!(run_exploit(exploit, policy), want, "{name} / {}", exploit.name());
        }
    }
}

#[test]
fn matrix_matches_golden_snapshot() {
    let rows = empirical_matrix();
    assert_eq!(rows.len(), GOLDEN.len(), "policy set changed — update GOLDEN");
    for (row, (name, outcomes)) in rows.iter().zip(GOLDEN) {
        assert_eq!(row.policy.to_string(), name, "policy order changed — update GOLDEN");
        for ((exploit, leaked), want) in row.outcomes.iter().zip(outcomes) {
            assert_eq!(
                *leaked,
                want,
                "{name} / {}: got {}, snapshot says {}",
                exploit.name(),
                if *leaked { "LEAK" } else { "safe" },
                if want { "LEAK" } else { "safe" },
            );
        }
    }
}

/// `(policy name, address-oblivious)` — the passive-eavesdropper
/// column: whether the two-run secret-independence oracle finds the
/// policy's observable bus trace free of secret-dependent addresses on
/// the hand-built secret victims. Only the obfuscating policy is
/// oblivious; every integrity gate (even authen-then-issue, which
/// stops all *tampering* exploits above) leaks passively.
const GOLDEN_OBLIVIOUS: [(&str, bool); GOLDEN.len()] = [
    ("baseline-decrypt-only", false),
    ("authen-then-issue", false),
    ("authen-then-write", false),
    ("authen-then-commit", false),
    ("authen-then-fetch", false),
    ("authen-then-commit+fetch", false),
    ("authen-then-commit+obfuscation", true),
];

#[test]
fn oblivious_column_matches_golden_snapshot() {
    for (policy, (name, want)) in table2_policies().into_iter().zip(GOLDEN_OBLIVIOUS) {
        assert_eq!(policy.to_string(), name, "policy order changed — update GOLDEN_OBLIVIOUS");
        assert_eq!(
            policy_oblivious(policy),
            want,
            "{name}: oblivious verdict flipped — a change in the pipeline, the \
             obfuscation engine or the oracle moved a policy across the leak line"
        );
    }
}

#[test]
fn golden_snapshot_is_in_exploit_order() {
    // The snapshot's column order is Exploit::ALL — if the enum order
    // changes the table above silently means something else, so pin it.
    let names: Vec<&str> = Exploit::ALL.iter().map(|e| e.name()).collect();
    assert_eq!(
        names,
        [
            "pointer-conversion",
            "binary-search",
            "disclosing-kernel",
            "disclosing-kernel-io",
            "shift-window",
            "brute-force-page",
        ]
    );
}

#[test]
fn rendered_table_matches_snapshot_cells() {
    // The markdown emitted to results/table2_empirical.md must carry
    // the same verdicts (guards the renderer, not just the data).
    let rows = empirical_matrix();
    let table = matrix_table(&rows);
    for (r, (_, outcomes)) in table.rows().iter().zip(GOLDEN) {
        for (cell, want) in r[1..=6].iter().zip(outcomes) {
            assert_eq!(cell, if want { "LEAK" } else { "safe" });
        }
    }
}
