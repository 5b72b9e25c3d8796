//! Analyzer self-tests: each fixture under `tests/fixtures/` encodes
//! violations (or deliberate non-violations) of one rule; the test
//! asserts the exact (line, rule) findings. Fixtures are scanned under
//! pretend workspace paths so the path-scoped rules (R2, R4) apply;
//! they are never compiled.

use ijvm_lint::{scan, Checker, Rule, Violation};
use std::collections::BTreeSet;

fn check(fixture: &str, pretend_path: &str, surface: &[&str]) -> Vec<Violation> {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("fixture exists");
    let checker = Checker::with_surface(
        surface
            .iter()
            .map(|s| s.to_string())
            .collect::<BTreeSet<_>>(),
    );
    checker.check_file(&scan(pretend_path, &text))
}

fn lines_of(violations: &[Violation], rule: Rule) -> Vec<usize> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn r1_flags_unjustified_unsafe() {
    let v = check("r1_bad.rs", "crates/core/src/x.rs", &[]);
    assert_eq!(lines_of(&v, Rule::SafetyComment), vec![3]);
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn r1_accepts_every_justified_form() {
    let v = check("r1_good.rs", "crates/core/src/x.rs", &[]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn r2_flags_clocks_sleeps_and_hash_collections() {
    let v = check("r2_bad.rs", "crates/core/src/sched.rs", &[]);
    assert_eq!(lines_of(&v, Rule::Determinism), vec![3, 4, 6, 7, 10, 12]);
    assert_eq!(v.len(), 6, "{v:?}");
    assert!(
        v.iter()
            .any(|x| x.line == 10 && x.message.contains("without a reason")),
        "a reason-less allow is itself a violation: {v:?}"
    );
}

#[test]
fn r2_is_scoped_to_deterministic_paths() {
    let v = check("r2_bad.rs", "crates/workloads/src/runner.rs", &[]);
    // Outside the deterministic paths only the malformed allow (which
    // is checked everywhere) remains.
    assert_eq!(lines_of(&v, Rule::Determinism), vec![10]);
}

/// The checkpoint codec is pinned inside R2's scope: capture must be a
/// pure function of VM state and restore must not introduce hash-order
/// or clock nondeterminism, or images stop being bit-identical across
/// scheduler modes.
#[test]
fn r2_covers_the_checkpoint_codec() {
    let v = check("r2_bad.rs", "crates/core/src/checkpoint.rs", &[]);
    assert_eq!(lines_of(&v, Rule::Determinism), vec![3, 4, 6, 7, 10, 12]);
    assert_eq!(v.len(), 6, "{v:?}");
}

#[test]
fn r3_flags_refcounted_hot_handles() {
    let v = check("r3_bad.rs", "crates/core/src/engine/switch.rs", &[]);
    assert_eq!(lines_of(&v, Rule::HotHandle), vec![5, 8]);
    assert_eq!(v.len(), 2, "{v:?}");
}

#[test]
fn r3_exempts_vmrc() {
    let v = check("r3_bad.rs", "crates/core/src/vmrc.rs", &[]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn r4_flags_surface_types_and_bare_deprecated() {
    let v = check(
        "r4_bad.rs",
        "crates/core/src/fake_api.rs",
        &["Widget", "EngineKind"],
    );
    assert_eq!(lines_of(&v, Rule::ApiHygiene), vec![4, 15]);
    assert_eq!(v.len(), 2, "{v:?}");
}

#[test]
fn r4_is_scoped_to_the_core_crate() {
    let v = check(
        "r4_bad.rs",
        "crates/comm/src/fake_api.rs",
        &["Widget", "EngineKind"],
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn malformed_allows_are_violations() {
    let v = check("allow_bad.rs", "crates/core/src/x.rs", &[]);
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v
        .iter()
        .any(|x| x.line == 2 && x.message.contains("unknown rule")));
    assert!(v
        .iter()
        .any(|x| x.line == 5 && x.message.contains("without a reason")));
}

#[test]
fn r5_flags_public_core_modules_off_the_list() {
    let v = check("r5_bad.rs", "crates/core/src/lib.rs", &[]);
    assert_eq!(lines_of(&v, Rule::Surface), vec![4, 12]);
    assert_eq!(v.len(), 2, "{v:?}");
}

#[test]
fn r5_is_scoped_to_the_core_lib() {
    let v = check("r5_bad.rs", "crates/core/src/fake.rs", &[]);
    assert!(v.is_empty(), "{v:?}");
}
