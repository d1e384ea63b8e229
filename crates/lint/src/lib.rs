//! # ts3-lint
//!
//! In-workspace static analysis enforcing the contracts the rest of the
//! workspace merely promises: bit-identical parallelism, uniform FMA
//! arithmetic, hermetic imports, no wall-clock or entropy on
//! deterministic paths, and documented `unsafe`/abort sites.
//!
//! The crate is dependency-free (only `ts3-json`, for reports and
//! config) and deliberately *not* a parser: a line/column-tracking
//! lexer ([`lexer`]) that understands strings, raw strings, char
//! literals vs lifetimes, nested block comments and attributes is
//! enough for every rule here, and keeps the pass fast and robust to
//! code the toolchain itself would reject.
//!
//! ## Rules
//!
//! Per-file rules look at one token stream at a time:
//!
//! | id | contract |
//! |---|---|
//! | `unsafe-needs-safety` | every `unsafe` is preceded by `// SAFETY:` |
//! | `no-hashmap-in-lib` | no `HashMap`/`HashSet` in library code |
//! | `no-wallclock-or-entropy` | no `Instant::now`/`SystemTime::now` outside timing modules; no `rand`/`getrandom` |
//! | `no-unwrap-in-lib` | `.unwrap()`/`.expect(`/`panic!` in lib code need a reasoned allow |
//! | `fma-policy` | `acc += a * b` float folds in hot-loop files must be `mul_add` |
//! | `hermetic-imports` | imports may only name std/core/alloc or `ts3*` crates |
//! | `unsafe-dataflow` | `unsafe { … }` in listed kernel files needs an in-function `assert!`/`debug_assert!` before it |
//! | `env-registry` (file half) | every `std::env::var("TS3_…")` read names a registered knob |
//! | `allow-needs-reason` | every allow directive carries a reason |
//! | `unused-allow` | stale allow directives are reported |
//!
//! Graph rules run over the whole workspace after per-file symbol
//! extraction ([`lint_workspace`]):
//!
//! | id | contract |
//! |---|---|
//! | `crate-layering` | the inter-crate dep DAG respects ARCHITECTURE.md's committed layer block (no back-edges) |
//! | `lock-order` | nested `.lock()` acquisitions agree with the committed `lock_order`, no cycles |
//! | `env-registry` (workspace half) | every registered knob is read somewhere and documented in README.md |
//! | `config-liveness` | every path listed in ts3lint.json exists on disk |
//!
//! ## Suppression
//!
//! ```text
//! // ts3-lint: allow(no-unwrap-in-lib) mutex poisoning means a sibling already panicked
//! let guard = cache.lock().unwrap();
//! ```
//!
//! A directive on its own line covers the next code line; a trailing
//! directive covers its own line. `allow(no-unwrap)` is accepted as an
//! alias for `allow(no-unwrap-in-lib)`. Graph diagnostics anchored at
//! manifest/doc files (`Cargo.toml`, `ARCHITECTURE.md`, `README.md`,
//! `ts3lint.json`) are not suppressible — fix the graph or the
//! committed policy instead.
//!
//! ## Entry points
//!
//! [`lint_workspace`] walks the configured roots, runs both passes
//! and returns a [`LintRun`] (diagnostics, crate DAG, per-rule
//! timings); [`lint_source`] runs the per-file rules on one text. The
//! `ts3lint` binary renders findings rustc-style or as a `ts3.lint.v2`
//! JSON document (`--json`, built by [`report`]).

pub mod clock;
pub mod config;
pub mod diag;
mod engine;
mod graph;
pub mod lexer;
mod rules;
mod symbols;
pub mod walk;

pub use clock::now_us;
pub use config::Config;
pub use diag::{report, Diagnostic, Severity};
pub use engine::{FileCtx, ALL_RULES};
pub use walk::{classify, discover, FileKind, SourceFile};

use std::collections::BTreeMap;
use std::path::Path;

/// Lint a single source text under a workspace-relative identity.
/// Runs the per-file rules only — graph rules need a workspace.
pub fn lint_source(
    rel_path: &str,
    kind: FileKind,
    src: &str,
    cfg: &Config,
    selected: &[String],
) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(rel_path, kind, src, cfg);
    engine::lint_file(&ctx, selected)
}

/// The result of a full two-pass workspace lint.
#[derive(Debug)]
pub struct LintRun {
    /// All surviving diagnostics, sorted by (path, line, col, rule).
    pub diags: Vec<Diagnostic>,
    /// Number of `.rs` files walked.
    pub checked_files: usize,
    /// Resolved inter-crate dependency DAG: crate name → sorted
    /// `ts3*` dependency names (from every workspace `Cargo.toml`).
    pub crate_dag: BTreeMap<String, Vec<String>>,
    /// Wall time spent per rule, microseconds (monotonic clock).
    pub rule_timing_us: BTreeMap<&'static str, u64>,
}

/// Two-pass workspace lint.
///
/// Pass 1 lexes every file, runs the per-file rules and extracts a
/// symbol table (`ts3*` use roots, lock sites, env reads). Pass 2 runs
/// the graph rules over the assembled tables plus the workspace
/// manifests. Allow directives are applied last, so they can suppress
/// graph findings anchored in source files; directive hygiene
/// (`allow-needs-reason`, `unused-allow`) closes the run.
///
/// `selected` restricts to the named rules; empty runs everything.
pub fn lint_workspace(
    workspace_root: &Path,
    cfg: &Config,
    selected: &[String],
) -> std::io::Result<LintRun> {
    let files = discover(workspace_root, cfg)?;
    let mut diags = Vec::new();
    let mut timing: engine::RuleTiming = BTreeMap::new();
    for rule in ALL_RULES {
        if selected.is_empty() || selected.iter().any(|s| s == rule) {
            timing.insert(rule, 0);
        }
    }

    let mut tables = Vec::with_capacity(files.len());
    for f in &files {
        let src = std::fs::read_to_string(&f.abs_path)?;
        let mut ctx = FileCtx::new(&f.rel_path, f.kind, &src, cfg);
        engine::run_file_rules(&ctx, selected, &mut diags, &mut timing);
        tables.push(symbols::extract(&mut ctx));
    }

    let crate_dag = graph::run(workspace_root, cfg, &tables, selected, &mut diags, &mut timing);

    let t0 = now_us();
    for t in &tables {
        engine::apply_directives(&t.directives, &t.rel_path, &mut diags);
        engine::directive_hygiene(&t.rel_path, &t.directives, selected, &mut diags);
    }
    let spent = now_us() - t0;
    for rule in ["allow-needs-reason", "unused-allow"] {
        if let Some(slot) = timing.get_mut(rule) {
            *slot += spent / 2;
        }
    }

    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(LintRun { diags, checked_files: files.len(), crate_dag, rule_timing_us: timing })
}
