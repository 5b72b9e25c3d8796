//! The rule catalog and the per-file checking passes.
//!
//! Five rules guard the invariants the workspace argues in prose (see
//! `ARCHITECTURE.md` § Correctness tooling):
//!
//! * **R1 `safety-comment`** — every `unsafe` occurrence (block, impl,
//!   fn) must be justified by a `// SAFETY:` comment on the same line or
//!   in the comment block directly above it. The `VmRc` unit-confinement
//!   argument lives in exactly such comments; this rule keeps the next
//!   `unsafe` site from shipping without one.
//! * **R2 `determinism`** — deterministic-path modules (`interp`,
//!   `sched`, `port`, `vm`, `engine/*`) must not read wall clocks
//!   (`Instant`, `SystemTime` — the sanctioned path is
//!   `trace::WallClock`), sleep, use randomness, or mention
//!   `HashMap`/`HashSet` without a justification: hash-iteration order
//!   leaking into delivery or wake order is precisely the bug class the
//!   differential suite can miss (both schedulers would drift
//!   together).
//! * **R3 `hot-handle`** — the hot code handles (`CodeBody`,
//!   `PreparedCode`, `CallSite`) must never be wrapped in `Rc`/`Arc`:
//!   `Rc` would silently un-`Send` the VM unit, `Arc` would re-pay the
//!   contended refcount the `VmRc` design removed. Sharing is minted
//!   only by `vmrc.rs::share()`.
//! * **R4 `api-hygiene`** — embedding-surface types (everything
//!   re-exported through `ijvm_core::prelude` / the crate root) must be
//!   `#[non_exhaustive]` or carry an entry in [`SURFACE_ALLOWLIST`]
//!   explaining why exhaustive construction/matching is part of their
//!   contract; `#[deprecated]` must name its replacement in the note.
//! * **R5 `surface`** — every `pub mod` in `crates/core/src/lib.rs`
//!   must be on [`CORE_PATHS`], with the reason crates outside the core
//!   import it. A module nobody outside the core needs stays
//!   `pub(crate)`; publishing one is a choice made with a reason.
//!
//! Any site can be excused with `// lint: allow(<rule>) — <reason>` on
//! the same line or the comment line directly above (attribute lines in
//! between are skipped). The reason is **required**: an allow without
//! one is itself a violation.

use crate::model::{has_word, Line, SourceFile};
use std::collections::BTreeSet;

/// The rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: `unsafe` requires an adjacent `// SAFETY:` justification.
    SafetyComment,
    /// R2: no wall clocks, sleeps, randomness or unjustified hash
    /// collections in deterministic-path modules.
    Determinism,
    /// R3: no `Rc`/`Arc` around the hot code handles outside `vmrc.rs`.
    HotHandle,
    /// R4: embedding-surface hygiene (`#[non_exhaustive]`, deprecated
    /// notes naming replacements).
    ApiHygiene,
    /// R5: crates outside the core import only listed core paths.
    Surface,
}

impl Rule {
    /// The identifier used in `lint: allow(...)` annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::Determinism => "determinism",
            Rule::HotHandle => "hot-handle",
            Rule::ApiHygiene => "api-hygiene",
            Rule::Surface => "surface",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        match name {
            "safety-comment" => Some(Rule::SafetyComment),
            "determinism" => Some(Rule::Determinism),
            "hot-handle" => Some(Rule::HotHandle),
            "api-hygiene" => Some(Rule::ApiHygiene),
            "surface" => Some(Rule::Surface),
            _ => None,
        }
    }
}

/// One finding: file, 1-based line, rule and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rel_path: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel_path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Embedding-surface types that are deliberately **not**
/// `#[non_exhaustive]`. Every entry must carry the reason; the
/// `allowlist_reasons_are_substantive` unit test enforces it.
pub const SURFACE_ALLOWLIST: &[(&str, &str)] = &[
    (
        "Value",
        "the guest value model; embedders exhaustively match it by design \
         and a new value kind is intentionally a breaking change",
    ),
    (
        "GcRef",
        "a transparent heap handle (newtype over u32); growing it would \
         change the heap word size, never happens compatibly",
    ),
    (
        "ClassId",
        "transparent index newtype; the pub field is the contract",
    ),
    (
        "IsolateId",
        "transparent index newtype; the pub field is the contract",
    ),
    (
        "ThreadId",
        "transparent index newtype; the pub field is the contract",
    ),
    (
        "LoaderId",
        "transparent index newtype; the pub field is the contract",
    ),
    (
        "MethodRef",
        "a resolved (class, slot) pair; both fields are the contract",
    ),
    (
        "IsolationMode",
        "the paper's two-mode A/B (baseline vs I-JVM) is the crate's \
         thesis; a third mode would be a redesign, not an addition",
    ),
    (
        "IsolateState",
        "the paper §3.3 lifecycle (Active/Terminated); embedders \
         exhaustively match it when rendering administrator views",
    ),
    (
        "SchedulerKind",
        "embedders construct and match both modes; a new scheduling mode \
         changes the determinism contract and must be a visible break",
    ),
    (
        "Cluster",
        "opaque handle, no public fields; non_exhaustive adds nothing",
    ),
    (
        "ClusterBuilder",
        "opaque builder, no public fields; non_exhaustive adds nothing",
    ),
    ("UnitHandle", "opaque per-unit handle, no public fields"),
    (
        "UnitId",
        "opaque id (field private behind index()); non_exhaustive adds \
         nothing",
    ),
    (
        "Vm",
        "the VM itself; constructed only via Vm::new and never matched",
    ),
    (
        "TraceEvent",
        "packed 24-byte record with a compile-time size assertion; \
         growing it is deliberately a breaking (and size-visible) change",
    ),
    (
        "TraceRing",
        "opaque ring, fields private, accessor-only surface",
    ),
    ("TraceSink", "opaque export sink, fields private"),
    ("LatencyHistogram", "fields private, accessor-only surface"),
    (
        "ResourceStats",
        "the paper §3.2 resource taxonomy; attack/workload suites build \
         expected-counter tables with struct literals and functional \
         update, which non_exhaustive would forbid across crates",
    ),
    (
        "NativeResult",
        "embedders writing natives construct and exhaustively match the \
         full protocol; hiding variants would make natives unwritable \
         outside the core crate",
    ),
];

/// The `ijvm_core` modules that code outside the core may import, each
/// with the reason embedders need it. Every other core module is
/// `pub(crate)`; publishing one means adding it here with its reason.
pub const CORE_PATHS: &[(&str, &str)] = &[
    ("prelude", "glob import of the embedding types"),
    ("vm", "`Vm`, its options and host calls"),
    ("ids", "typed ids of isolates, classes, threads"),
    ("value", "`Value` and `GcRef` cross every call"),
    ("error", "the error type of every host call"),
    ("engine", "`EngineKind` picks oracle or threaded"),
    ("sched", "the cluster: builder, units, outcomes"),
    ("port", "hub snapshots and per-message cost"),
    ("checkpoint", "unit images: capture and restore"),
    ("bootstrap", "installs core classes into a VM"),
    ("natives", "`NativeResult`, what natives return"),
    ("heap", "`ObjBody` for natives and copies"),
    ("wire", "the value codec of the RMI model"),
    ("trace", "flight-recorder config and metrics"),
    ("thread", "`ThreadState` backs the `isAlive` native"),
    ("accounting", "the per-isolate `ResourceStats` counters"),
    ("isolate", "`IsolateState` for admin views"),
    ("class", "`CodeBody`, built by pre-decode tests"),
];

const DETERMINISTIC_PATHS: &[&str] = &[
    "crates/core/src/interp.rs",
    "crates/core/src/sched.rs",
    "crates/core/src/port.rs",
    "crates/core/src/mailbox.rs",
    "crates/core/src/vm.rs",
    // Image capture must be a pure function of VM state (checkpoint
    // bit-identity across scheduler modes) and restore must rebuild
    // hash-free, clock-free state — both directions are oracle-visible.
    "crates/core/src/checkpoint.rs",
];

const DETERMINISTIC_DIRS: &[&str] = &["crates/core/src/engine/"];

/// Tokens banned in deterministic-path modules (word-boundary matched).
const BANNED_DETERMINISM: &[(&str, &str)] = &[
    ("Instant", "wall-clock read; route through trace::WallClock"),
    (
        "SystemTime",
        "wall-clock read; route through trace::WallClock",
    ),
    (
        "HashMap",
        "hash-iteration order can leak into delivery/wake order",
    ),
    (
        "HashSet",
        "hash-iteration order can leak into delivery/wake order",
    ),
    ("thread_rng", "nondeterministic randomness"),
    ("random", "nondeterministic randomness"),
    ("sleep", "wall-clock dependent blocking"),
];

const HOT_HANDLES: &[&str] = &["CodeBody", "PreparedCode", "CallSite"];

fn is_deterministic_path(rel: &str) -> bool {
    DETERMINISTIC_PATHS.contains(&rel) || DETERMINISTIC_DIRS.iter().any(|d| rel.starts_with(d))
}

/// A parsed `lint: allow(rule)` annotation.
struct Allow {
    rule: Option<Rule>,
    raw_name: String,
    has_reason: bool,
}

/// Extracts every `lint: allow(...)` annotation from a comment.
fn parse_allows(comment: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = comment[from..].find("lint: allow(") {
        let start = from + pos + "lint: allow(".len();
        let Some(close) = comment[start..].find(')') else {
            break;
        };
        let name = comment[start..start + close].trim().to_string();
        let tail = comment[start + close + 1..].trim_start();
        // The reason follows a dash (—, – or -) and must be non-empty.
        let has_reason = tail
            .strip_prefix('—')
            .or_else(|| tail.strip_prefix('–'))
            .or_else(|| tail.strip_prefix("--"))
            .or_else(|| tail.strip_prefix('-'))
            .is_some_and(|r| !r.trim().is_empty());
        out.push(Allow {
            rule: Rule::from_name(&name),
            raw_name: name,
            has_reason,
        });
        from = start + close + 1;
    }
    out
}

/// The checker: rule passes over scanned files. `surface` is the set of
/// type names R4 treats as the embedding surface.
pub struct Checker {
    surface: BTreeSet<String>,
}

impl Checker {
    pub fn with_surface(surface: BTreeSet<String>) -> Checker {
        Checker { surface }
    }

    /// Builds the R4 surface from a scanned `lib.rs`: every CamelCase
    /// name re-exported through a `pub use crate::…` item (the prelude
    /// and the root re-exports). Self-maintaining: exporting a new type
    /// through the prelude puts it under the rule automatically.
    pub fn surface_from_lib(lib: &SourceFile) -> BTreeSet<String> {
        let mut surface = BTreeSet::new();
        let mut in_use = false;
        for line in &lib.lines {
            let code = line.code.trim();
            if code.starts_with("pub use crate::") {
                in_use = true;
            }
            if in_use {
                for tok in code.split(|c: char| !c.is_alphanumeric() && c != '_') {
                    // `Result as VmResult`: definitions are scanned under
                    // their original name, so keep the pre-`as` token;
                    // the alias also lands in the set, harmlessly.
                    if tok.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                        surface.insert(tok.to_string());
                    }
                }
                if code.contains(';') {
                    in_use = false;
                }
            }
        }
        surface
    }

    /// Runs every rule over one scanned file.
    pub fn check_file(&self, file: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        let allows = self.collect_allows(file, &mut out);
        self.rule_safety_comment(file, &allows, &mut out);
        self.rule_determinism(file, &allows, &mut out);
        self.rule_hot_handle(file, &allows, &mut out);
        self.rule_api_hygiene(file, &allows, &mut out);
        self.rule_surface(file, &allows, &mut out);
        out.sort_by_key(|v| (v.line, v.rule));
        out
    }

    /// Per-line allow sets. An annotation covers its own line; on a
    /// comment-only line it covers the next code line (skipping blank
    /// and attribute lines). Unknown rule names and missing reasons are
    /// reported as violations of the annotation itself.
    fn collect_allows(&self, file: &SourceFile, out: &mut Vec<Violation>) -> Vec<Vec<Rule>> {
        let mut per_line: Vec<Vec<Rule>> = vec![Vec::new(); file.lines.len()];
        let mut pending: Vec<Rule> = Vec::new();
        for (i, line) in file.lines.iter().enumerate() {
            let mut here = Vec::new();
            for allow in parse_allows(&line.comment) {
                let Some(rule) = allow.rule else {
                    out.push(Violation {
                        rel_path: file.rel_path.clone(),
                        line: i + 1,
                        rule: Rule::ApiHygiene,
                        message: format!(
                            "unknown rule `{}` in lint: allow(...) — valid rules: \
                             safety-comment, determinism, hot-handle, api-hygiene, surface",
                            allow.raw_name
                        ),
                    });
                    continue;
                };
                if !allow.has_reason {
                    out.push(Violation {
                        rel_path: file.rel_path.clone(),
                        line: i + 1,
                        rule,
                        message: "lint: allow(...) without a reason — write \
                                  `// lint: allow(<rule>) — <why this site is sound>`"
                            .to_string(),
                    });
                    continue;
                }
                here.push(rule);
            }
            if line.is_comment_only() {
                pending.extend(here);
                continue;
            }
            if line.is_blank() || line.is_attr() {
                // Pending allows pass over attributes and blank lines to
                // reach the item they annotate.
                per_line[i].extend(here);
                continue;
            }
            per_line[i].extend(here);
            per_line[i].append(&mut pending);
        }
        per_line
    }

    fn allowed(allows: &[Vec<Rule>], i: usize, rule: Rule) -> bool {
        allows[i].contains(&rule)
    }

    /// R1: every `unsafe` needs a `SAFETY:` comment on the same line or
    /// in the comment block directly above (attributes skipped).
    fn rule_safety_comment(
        &self,
        file: &SourceFile,
        allows: &[Vec<Rule>],
        out: &mut Vec<Violation>,
    ) {
        for (i, line) in file.lines.iter().enumerate() {
            if !has_word(&line.code, "unsafe") || Self::allowed(allows, i, Rule::SafetyComment) {
                continue;
            }
            if line.comment.contains("SAFETY") || line.doc.contains("SAFETY") {
                continue;
            }
            let mut j = i;
            let mut justified = false;
            while j > 0 {
                j -= 1;
                let above: &Line = &file.lines[j];
                if above.is_comment_only() || above.is_blank() || above.is_attr() {
                    if above.comment.contains("SAFETY") || above.doc.contains("SAFETY") {
                        justified = true;
                        break;
                    }
                } else {
                    break;
                }
            }
            if !justified {
                out.push(Violation {
                    rel_path: file.rel_path.clone(),
                    line: i + 1,
                    rule: Rule::SafetyComment,
                    message: "`unsafe` without an adjacent `// SAFETY:` comment stating \
                              why the invariants hold"
                        .to_string(),
                });
            }
        }
    }

    /// R2: banned tokens in deterministic-path modules.
    fn rule_determinism(&self, file: &SourceFile, allows: &[Vec<Rule>], out: &mut Vec<Violation>) {
        if !is_deterministic_path(&file.rel_path) {
            return;
        }
        for (i, line) in file.lines.iter().enumerate() {
            for &(token, why) in BANNED_DETERMINISM {
                if has_word(&line.code, token) && !Self::allowed(allows, i, Rule::Determinism) {
                    out.push(Violation {
                        rel_path: file.rel_path.clone(),
                        line: i + 1,
                        rule: Rule::Determinism,
                        message: format!(
                            "`{token}` in a deterministic-path module ({why}); justify \
                             with `// lint: allow(determinism) — <reason>` if sound"
                        ),
                    });
                }
            }
        }
    }

    /// R3: `Rc`/`Arc` around a hot code handle, outside `vmrc.rs`.
    fn rule_hot_handle(&self, file: &SourceFile, allows: &[Vec<Rule>], out: &mut Vec<Violation>) {
        if file.rel_path.ends_with("vmrc.rs") {
            return;
        }
        for (i, line) in file.lines.iter().enumerate() {
            let wraps = has_word(&line.code, "Rc") || has_word(&line.code, "Arc");
            if !wraps || Self::allowed(allows, i, Rule::HotHandle) {
                continue;
            }
            if let Some(hot) = HOT_HANDLES.iter().find(|h| has_word(&line.code, h)) {
                out.push(Violation {
                    rel_path: file.rel_path.clone(),
                    line: i + 1,
                    rule: Rule::HotHandle,
                    message: format!(
                        "`{hot}` wrapped in Rc/Arc — hot handles are shared only through \
                         VmRc (vmrc.rs::share): Rc would un-Send the unit, Arc re-pays \
                         the atomic refcount the call path was freed from"
                    ),
                });
            }
        }
    }

    /// R4: surface types must be `#[non_exhaustive]` or allowlisted;
    /// `#[deprecated]` must name its replacement.
    fn rule_api_hygiene(&self, file: &SourceFile, allows: &[Vec<Rule>], out: &mut Vec<Violation>) {
        if !file.rel_path.starts_with("crates/core/src/") {
            return;
        }
        for (i, line) in file.lines.iter().enumerate() {
            let code = line.code.trim();
            // -- non_exhaustive on surface structs/enums --------------
            let def = code
                .strip_prefix("pub struct ")
                .or_else(|| code.strip_prefix("pub enum "));
            if let Some(rest) = def {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if self.surface.contains(&name)
                    && !Self::allowed(allows, i, Rule::ApiHygiene)
                    && !SURFACE_ALLOWLIST.iter().any(|(n, _)| *n == name)
                {
                    let mut j = i;
                    let mut marked = false;
                    while j > 0 {
                        j -= 1;
                        let above = &file.lines[j];
                        if above.is_comment_only() || above.is_blank() || above.is_attr() {
                            if above.code.contains("non_exhaustive") {
                                marked = true;
                                break;
                            }
                        } else {
                            break;
                        }
                    }
                    if !marked {
                        out.push(Violation {
                            rel_path: file.rel_path.clone(),
                            line: i + 1,
                            rule: Rule::ApiHygiene,
                            message: format!(
                                "embedding-surface type `{name}` is neither \
                                 #[non_exhaustive] nor allowlisted in \
                                 ijvm_lint::SURFACE_ALLOWLIST (with a reason)"
                            ),
                        });
                    }
                }
            }
            // -- deprecated must name a replacement -------------------
            if code.contains("#[deprecated") && !Self::allowed(allows, i, Rule::ApiHygiene) {
                // Accumulate the attribute's raw text (notes are string
                // literals, blanked in `code`) until brackets balance.
                let mut attr = String::new();
                let mut depth = 0i32;
                for l in &file.lines[i..] {
                    attr.push_str(&l.raw);
                    attr.push('\n');
                    depth += l.code.matches('[').count() as i32;
                    depth -= l.code.matches(']').count() as i32;
                    if depth <= 0 {
                        break;
                    }
                }
                let names_replacement = attr.contains("note")
                    && (attr.contains("use ") || attr.contains('`') || attr.contains("instead"));
                if !names_replacement {
                    out.push(Violation {
                        rel_path: file.rel_path.clone(),
                        line: i + 1,
                        rule: Rule::ApiHygiene,
                        message: "#[deprecated] without a note naming the replacement \
                                  (e.g. note = \"use `X` instead\")"
                            .to_string(),
                    });
                }
            }
        }
    }

    /// R5: every `pub mod` of the core's `lib.rs` is on [`CORE_PATHS`].
    fn rule_surface(&self, file: &SourceFile, allows: &[Vec<Rule>], out: &mut Vec<Violation>) {
        if file.rel_path != "crates/core/src/lib.rs" {
            return;
        }
        for (i, line) in file.lines.iter().enumerate() {
            let Some(rest) = line.code.trim().strip_prefix("pub mod ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if CORE_PATHS.iter().any(|(p, _)| *p == name) || Self::allowed(allows, i, Rule::Surface)
            {
                continue;
            }
            out.push(Violation {
                rel_path: file.rel_path.clone(),
                line: i + 1,
                rule: Rule::Surface,
                message: format!(
                    "public core module `{name}` is not in ijvm_lint::CORE_PATHS: make it \
                     `pub(crate)`, or add it there with the reason other crates import it"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_reasons_are_substantive() {
        for (name, reason) in SURFACE_ALLOWLIST.iter().chain(CORE_PATHS) {
            assert!(
                reason.split_whitespace().count() >= 4,
                "allowlist entry `{name}` needs a real reason, got: {reason:?}"
            );
        }
    }

    #[test]
    fn sharded_hub_files_are_in_deterministic_scope() {
        // The sharded PortHub splits delivery state across registry
        // shards and per-unit mailboxes; a `HashMap` sneaking into
        // either file could leak hash-iteration order into resolution
        // or wake order. Both must stay under the determinism rule.
        for rel in ["crates/core/src/port.rs", "crates/core/src/mailbox.rs"] {
            assert!(
                is_deterministic_path(rel),
                "{rel} must be covered by the determinism lint"
            );
        }
    }

    #[test]
    fn allow_parsing_accepts_dash_variants() {
        for dash in ["—", "-", "--", "–"] {
            let allows = parse_allows(&format!(" lint: allow(determinism) {dash} keyed only"));
            assert_eq!(allows.len(), 1);
            assert_eq!(allows[0].rule, Some(Rule::Determinism));
            assert!(allows[0].has_reason, "dash {dash:?} carries the reason");
        }
        let missing = parse_allows(" lint: allow(determinism)");
        assert!(!missing[0].has_reason);
        let unknown = parse_allows(" lint: allow(no-such-rule) — x");
        assert!(unknown[0].rule.is_none());
    }
}
