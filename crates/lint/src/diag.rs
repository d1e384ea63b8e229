//! Diagnostics: the finding type, rustc-style text rendering, and the
//! `ts3.lint.v2` JSON report.

use std::collections::BTreeMap;
use ts3_json::Json;

/// How severe a finding is. `--deny-all` promotes warnings to errors at
/// reporting time; the engine itself keeps the distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint run.
    Error,
    /// Reported, but only fails under `--deny-all`.
    Warning,
}

impl Severity {
    /// Lower-case label used in both renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One finding at one source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (e.g. `unsafe-needs-safety`).
    pub rule: &'static str,
    /// Severity before any `--deny-all` promotion.
    pub severity: Severity,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human message ("what and why"), no trailing period needed.
    pub message: String,
    /// How to silence or fix, shown as a `help:` line.
    pub help: String,
}

impl Diagnostic {
    /// Render rustc-style:
    ///
    /// ```text
    /// error[unsafe-needs-safety]: unsafe block without a `// SAFETY:` comment
    ///   --> crates/tensor/src/par.rs:273:58
    ///    = help: document the invariant the block relies on
    /// ```
    pub fn render(&self) -> String {
        format!(
            "{}[{}]: {}\n  --> {}:{}:{}\n   = help: {}\n",
            self.severity.label(),
            self.rule,
            self.message,
            self.path,
            self.line,
            self.col,
            self.help
        )
    }

    /// Lower to one report `diagnostics` entry.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule", Json::from(self.rule)),
            ("severity", Json::from(self.severity.label())),
            ("path", Json::from(self.path.as_str())),
            ("line", Json::from(self.line as usize)),
            ("col", Json::from(self.col as usize)),
            ("message", Json::from(self.message.as_str())),
            ("help", Json::from(self.help.as_str())),
        ])
    }
}

/// Build the `ts3.lint.v2` report document: the findings, the rules
/// run, the resolved crate dependency DAG and per-rule wall times.
///
/// `deny_all` is recorded so a consumer knows which policy produced the
/// exit status; `checked_files` makes "0 diagnostics" distinguishable
/// from "0 files walked". `trace_check --lint` validates this schema in
/// the verify pipeline.
pub fn report(
    diags: &[Diagnostic],
    checked_files: usize,
    rules: &[&str],
    deny_all: bool,
    crate_dag: &BTreeMap<String, Vec<String>>,
    rule_timing_us: &BTreeMap<&'static str, u64>,
) -> Json {
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.len() - errors;
    let dag = Json::Obj(
        crate_dag
            .iter()
            .map(|(name, deps)| {
                (
                    name.clone(),
                    Json::Arr(deps.iter().map(|d| Json::from(d.as_str())).collect()),
                )
            })
            .collect(),
    );
    let timing = Json::Obj(
        rule_timing_us
            .iter()
            .map(|(rule, us)| ((*rule).to_string(), Json::from(*us)))
            .collect(),
    );
    Json::obj([
        ("schema", Json::from("ts3.lint.v2")),
        ("deny_all", Json::from(deny_all)),
        ("checked_files", Json::from(checked_files)),
        ("rules", Json::Arr(rules.iter().map(|r| Json::from(*r)).collect())),
        ("crate_dag", dag),
        ("rule_timing_us", timing),
        ("diagnostics", Json::Arr(diags.iter().map(Diagnostic::to_json).collect())),
        (
            "summary",
            Json::obj([
                ("errors", Json::from(errors)),
                ("warnings", Json::from(warnings)),
            ]),
        ),
    ])
}
