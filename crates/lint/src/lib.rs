//! `ijvm-lint` — the workspace's project-specific static analysis.
//!
//! Clippy checks general Rust; this crate checks the invariants that
//! are *specific to this codebase's correctness argument* and that no
//! general-purpose tool knows about: the `VmRc` safety story (R1, R3),
//! the deterministic-scheduler purity the differential oracle depends
//! on (R2), the embedding-surface evolution contract (R4) and the
//! list of core modules published to other crates (R5). See
//! [`rules`] for the catalog and `ARCHITECTURE.md` § Correctness
//! tooling for the prose rationale.
//!
//! It runs three ways, all over the same [`check_workspace`] pass:
//!
//! * `cargo test -p ijvm-lint` — the `workspace_is_lint_clean`
//!   integration test fails the build on any violation;
//! * `cargo run -p ijvm-lint` — the same pass as a standalone binary
//!   (exit 1 on violations), which is what the CI `lint` job invokes;
//! * unit/fixture tests exercising the analyzer itself.

pub mod model;
pub mod rules;

pub use model::{scan, Line, SourceFile};
pub use rules::{Checker, Rule, Violation, CORE_PATHS, SURFACE_ALLOWLIST};

use std::path::{Path, PathBuf};

/// The workspace root, derived from this crate's manifest directory
/// (`<root>/crates/lint`).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// Directories never scanned: build output, VCS metadata, and the lint
/// crate's own deliberately-violating fixtures.
fn skip_rel(rel: &str) -> bool {
    rel.starts_with("crates/lint/tests/fixtures")
        || rel.split('/').any(|seg| seg == "target" || seg == ".git")
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let rel = rel_of(&path, root);
        if skip_rel(&rel) {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel_of(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every rule over every `.rs` file under `<root>/crates` and
/// `<root>/src`, returning the violations sorted by path and line.
///
/// The R4 embedding surface is rebuilt from `crates/core/src/lib.rs`
/// on every run, so re-exporting a new type through the prelude places
/// it under the rule with no analyzer change.
pub fn check_workspace(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), root, &mut files);
    collect_rs(&root.join("src"), root, &mut files);

    let lib_path = root.join("crates/core/src/lib.rs");
    let surface = match std::fs::read_to_string(&lib_path) {
        Ok(text) => Checker::surface_from_lib(&scan("crates/core/src/lib.rs", &text)),
        Err(_) => Default::default(),
    };
    let checker = Checker::with_surface(surface);

    let mut out = Vec::new();
    for path in files {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let file = scan(&rel_of(&path, root), &text);
        out.extend(checker.check_file(&file));
    }
    out.sort_by(|a, b| (&a.rel_path, a.line, a.rule).cmp(&(&b.rel_path, b.line, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_dir_and_build_output_are_skipped() {
        assert!(skip_rel("crates/lint/tests/fixtures/r1_bad.rs"));
        assert!(skip_rel("target/debug/build/foo.rs"));
        assert!(skip_rel("crates/core/target/foo.rs"));
        assert!(!skip_rel("crates/core/src/vmrc.rs"));
        assert!(!skip_rel("crates/lint/tests/workspace.rs"));
    }

    #[test]
    fn surface_comes_from_prelude_reexports() {
        let lib = scan(
            "crates/core/src/lib.rs",
            "pub mod prelude {\n    pub use crate::vm::{Vm, VmError};\n    pub use crate::value::Value;\n}\npub use crate::cluster::Cluster;\n",
        );
        let surface = Checker::surface_from_lib(&lib);
        for name in ["Vm", "VmError", "Value", "Cluster"] {
            assert!(surface.contains(name), "missing {name}");
        }
        assert!(!surface.contains("prelude"));
    }
}
