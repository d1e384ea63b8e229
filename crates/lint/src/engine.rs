//! The rule engine: per-file token analysis context, inline
//! `// ts3-lint: allow(rule) reason` directives, `#[cfg(test)]` span
//! tracking, and suppression bookkeeping.

use crate::clock::now_us;
use crate::config::Config;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, TokKind, Token};
use crate::rules;
use crate::walk::FileKind;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Every rule id, in reporting order: eight per-file contract rules,
/// three workspace-graph rules (which only run under
/// [`crate::lint_workspace`] — they need the whole file set), the
/// config cross-check, and the two directive meta-rules.
pub const ALL_RULES: &[&str] = &[
    "unsafe-needs-safety",
    "no-hashmap-in-lib",
    "no-wallclock-or-entropy",
    "no-unwrap-in-lib",
    "fma-policy",
    "hermetic-imports",
    "unsafe-dataflow",
    "env-registry",
    "crate-layering",
    "lock-order",
    "config-liveness",
    "allow-needs-reason",
    "unused-allow",
];

/// Accumulated wall time per rule id, in microseconds.
pub(crate) type RuleTiming = BTreeMap<&'static str, u64>;

/// Marker accepted as a safety justification: the canonical `// SAFETY:`
/// comment or a rustdoc `# Safety` section heading.
pub(crate) const SAFETY_MARKERS: &[&str] = &["SAFETY:", "# Safety"];

/// One parsed `ts3-lint: allow(...)` directive.
#[derive(Debug)]
pub(crate) struct Directive {
    /// Rules this directive may suppress.
    pub rules: Vec<String>,
    /// Whether free text (the reason) followed the closing paren.
    pub has_reason: bool,
    /// Line/col of the comment carrying the directive.
    pub line: u32,
    pub col: u32,
    /// Line whose diagnostics this directive suppresses: its own line
    /// for trailing comments, the next code line for standalone ones.
    pub target_line: u32,
    /// Set when the directive suppressed at least one diagnostic.
    pub used: Cell<bool>,
}

/// Per-line facts precomputed from the token stream (index 0 unused;
/// lines are 1-based).
#[derive(Debug, Default, Clone)]
pub(crate) struct LineInfo {
    /// Line holds at least one non-comment token.
    pub has_code: bool,
    /// First non-comment token on the line is `#` (attribute line).
    pub attr_start: bool,
    /// Indices (into the token vec) of comments touching this line;
    /// multi-line block comments are recorded on every covered line.
    pub comments: Vec<usize>,
}

/// Token extent of one `fn` body: indices (into the token vec) of the
/// opening and closing braces. Nested functions produce nested spans;
/// the innermost containing span is "the enclosing function".
#[derive(Debug, Clone, Copy)]
pub(crate) struct FnSpan {
    pub open: usize,
    pub close: usize,
}

/// Everything a rule needs to inspect one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub rel_path: &'a str,
    /// File role (lib / bin / test).
    pub kind: FileKind,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Per-line facts; see [`LineInfo`].
    pub(crate) lines: Vec<LineInfo>,
    /// Line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub(crate) test_spans: Vec<(u32, u32)>,
    /// Body extents of every `fn` item, for dataflow-ish rules and
    /// per-function lock-site grouping.
    pub(crate) fn_spans: Vec<FnSpan>,
    /// Workspace configuration.
    pub cfg: &'a Config,
    pub(crate) directives: Vec<Directive>,
}

impl<'a> FileCtx<'a> {
    /// Lex `src` and precompute the analysis context.
    pub fn new(rel_path: &'a str, kind: FileKind, src: &str, cfg: &'a Config) -> FileCtx<'a> {
        let tokens = lex(src);
        let max_line = tokens
            .iter()
            .map(|t| t.line + count_newlines(&t.text))
            .max()
            .unwrap_or(0);
        let mut lines = vec![LineInfo::default(); max_line as usize + 2];
        for (i, t) in tokens.iter().enumerate() {
            match t.kind {
                TokKind::LineComment | TokKind::BlockComment => {
                    for l in t.line..=t.line + count_newlines(&t.text) {
                        lines[l as usize].comments.push(i);
                    }
                }
                _ => {
                    let info = &mut lines[t.line as usize];
                    if !info.has_code {
                        info.attr_start = t.text == "#";
                    }
                    info.has_code = true;
                }
            }
        }
        let test_spans = find_test_spans(&tokens);
        let fn_spans = find_fn_spans(&tokens);
        let directives = find_directives(&tokens, &lines);
        FileCtx { rel_path, kind, tokens, lines, test_spans, fn_spans, cfg, directives }
    }

    /// Index (into [`FileCtx::fn_spans`]) of the innermost function
    /// body containing token `i`, if any.
    pub(crate) fn enclosing_fn(&self, i: usize) -> Option<usize> {
        self.fn_spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.open < i && i <= s.close)
            .min_by_key(|(_, s)| s.close - s.open)
            .map(|(idx, _)| idx)
    }

    /// Is `line` inside a `#[cfg(test)]` module or `#[test]` function?
    pub(crate) fn in_test_code(&self, line: u32) -> bool {
        self.kind == FileKind::Test
            || self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Non-comment token at `i`, if any.
    pub(crate) fn code_tok(&self, i: usize) -> Option<&Token> {
        let t = self.tokens.get(i)?;
        match t.kind {
            TokKind::LineComment | TokKind::BlockComment => None,
            _ => Some(t),
        }
    }

    /// Index of the next non-comment token at or after `i`.
    pub(crate) fn next_code(&self, mut i: usize) -> Option<usize> {
        while i < self.tokens.len() {
            if self.code_tok(i).is_some() {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Index of the previous non-comment token at or before `i`.
    pub(crate) fn prev_code(&self, mut i: usize) -> Option<usize> {
        loop {
            if self.code_tok(i).is_some() {
                return Some(i);
            }
            if i == 0 {
                return None;
            }
            i -= 1;
        }
    }

    /// Build a diagnostic at a token.
    pub(crate) fn diag(
        &self,
        rule: &'static str,
        severity: Severity,
        at: &Token,
        message: impl Into<String>,
        help: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            severity,
            path: self.rel_path.to_string(),
            line: at.line,
            col: at.col,
            message: message.into(),
            help: help.into(),
        }
    }
}

fn count_newlines(s: &str) -> u32 {
    s.bytes().filter(|&b| b == b'\n').count() as u32
}

/// Extract `ts3-lint: allow(rule[, rule]) reason` directives from
/// comment tokens. A comment that mentions `ts3-lint:` but does not
/// parse keeps `rules` empty — the engine reports it as malformed.
fn find_directives(tokens: &[Token], lines: &[LineInfo]) -> Vec<Directive> {
    let mut out = Vec::new();
    for t in tokens {
        // Only plain comments whose whole purpose is the directive
        // count: doc comments and prose that merely *mentions* the
        // syntax (like this crate's own documentation) must not parse
        // as directives.
        let body = match t.kind {
            TokKind::LineComment => {
                if t.text.starts_with("///") || t.text.starts_with("//!") {
                    continue;
                }
                t.text.trim_start_matches('/')
            }
            TokKind::BlockComment => {
                if t.text.starts_with("/**") || t.text.starts_with("/*!") {
                    continue;
                }
                t.text.trim_start_matches("/*")
            }
            _ => continue,
        };
        let Some(rest) = body.trim_start().strip_prefix("ts3-lint:") else { continue };
        let rest = rest.trim_start();
        let (rules, has_reason) = parse_allow(rest);
        // Trailing comment suppresses its own line; a standalone
        // comment line suppresses the next line that holds code.
        let own_line_code = lines
            .get(t.line as usize)
            .is_some_and(|l| l.has_code);
        let target_line = if own_line_code {
            t.line
        } else {
            let mut l = t.line as usize + 1;
            while l < lines.len() && !lines[l].has_code {
                l += 1;
            }
            l as u32
        };
        out.push(Directive {
            rules,
            has_reason,
            line: t.line,
            col: t.col,
            target_line,
            used: Cell::new(false),
        });
    }
    out
}

/// Parse `allow(a, b) reason…`; returns the rule list (empty when
/// malformed) and whether a non-empty reason followed.
fn parse_allow(rest: &str) -> (Vec<String>, bool) {
    let Some(args) = rest.strip_prefix("allow(") else {
        return (Vec::new(), false);
    };
    let Some(close) = args.find(')') else {
        return (Vec::new(), false);
    };
    let rules: Vec<String> = args[..close]
        .split(',')
        .map(|r| r.trim())
        .filter(|r| !r.is_empty())
        // Short alias from the rule's write-up; normalise so directive
        // matching stays exact-id.
        .map(|r| if r == "no-unwrap" { "no-unwrap-in-lib" } else { r })
        .map(str::to_string)
        .collect();
    let reason = args[close + 1..].trim();
    // Block comments may close with `*/` right after the reason.
    let reason = reason.strip_suffix("*/").unwrap_or(reason).trim();
    (rules, !reason.is_empty())
}

/// Find line spans of items annotated `#[test]` or `#[cfg(test)]`
/// (typically `mod tests { … }`), by brace matching from the token
/// stream. Attributes like `#[cfg(not(test))]` do not count.
fn find_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut i = 0;
    while i < code.len() {
        if code[i].1.text != "#" || i + 1 >= code.len() || code[i + 1].1.text != "[" {
            i += 1;
            continue;
        }
        // Collect the attribute body up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut body: Vec<&str> = Vec::new();
        while j < code.len() && depth > 0 {
            match code[j].1.text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                s if depth >= 1 => body.push(s),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = body.as_slice() == ["test"]
            || (body.first() == Some(&"cfg") && body.contains(&"test") && !body.contains(&"not"));
        if !is_test_attr {
            i = j;
            continue;
        }
        let attr_line = code[i].1.line;
        // Find the item's block: first `{` at delimiter depth 0 (a `;`
        // first means a block-less item — nothing to span).
        let mut k = j;
        let mut pdepth = 0i32;
        let mut open = None;
        while k < code.len() {
            match code[k].1.text.as_str() {
                "(" | "[" => pdepth += 1,
                ")" | "]" => pdepth -= 1,
                "{" if pdepth == 0 => {
                    open = Some(k);
                    break;
                }
                ";" if pdepth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if let Some(open) = open {
            let mut bdepth = 0i32;
            let mut k = open;
            while k < code.len() {
                match code[k].1.text.as_str() {
                    "{" => bdepth += 1,
                    "}" => {
                        bdepth -= 1;
                        if bdepth == 0 {
                            spans.push((attr_line, code[k].1.line));
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        i = j;
    }
    spans
}

/// Find the body extents of every `fn` item by scanning from each `fn`
/// keyword to the first `{` at delimiter depth 0 (a `;` or `}` first
/// means a body-less declaration — trait method signatures,
/// fn-pointer-typed struct fields) and brace-matching from there.
fn find_fn_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut spans = Vec::new();
    for ci in 0..code.len() {
        let t = code[ci].1;
        if t.kind != TokKind::Ident || t.text != "fn" {
            continue;
        }
        // Locate the body's opening brace past the signature.
        let mut k = ci + 1;
        let mut pdepth = 0i32;
        let mut open = None;
        while k < code.len() {
            match code[k].1.text.as_str() {
                "(" | "[" => pdepth += 1,
                ")" | "]" => pdepth -= 1,
                "{" if pdepth == 0 => {
                    open = Some(k);
                    break;
                }
                ";" | "}" if pdepth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else { continue };
        let mut bdepth = 0i32;
        let mut k = open;
        while k < code.len() {
            match code[k].1.text.as_str() {
                "{" => bdepth += 1,
                "}" => {
                    bdepth -= 1;
                    if bdepth == 0 {
                        spans.push(FnSpan { open: code[open].0, close: code[k].0 });
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }
    spans
}

/// Run the per-file contract rules over one file, appending raw
/// (un-suppressed) findings to `diags` and crediting wall time to each
/// rule in `timing`. Suppression and directive hygiene are separate
/// stages ([`apply_directives`], [`directive_hygiene`]) so the
/// workspace pass can interleave the graph rules in between.
pub(crate) fn run_file_rules(
    ctx: &FileCtx,
    selected: &[String],
    diags: &mut Vec<Diagnostic>,
    timing: &mut RuleTiming,
) {
    let run = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);
    let rules: [(&'static str, fn(&FileCtx, &mut Vec<Diagnostic>)); 8] = [
        ("unsafe-needs-safety", rules::unsafe_needs_safety),
        ("no-hashmap-in-lib", rules::no_hashmap_in_lib),
        ("no-wallclock-or-entropy", rules::no_wallclock_or_entropy),
        ("no-unwrap-in-lib", rules::no_unwrap_in_lib),
        ("fma-policy", rules::fma_policy),
        ("hermetic-imports", rules::hermetic_imports),
        ("unsafe-dataflow", rules::unsafe_dataflow),
        ("env-registry", rules::env_registry),
    ];
    for (id, rule) in rules {
        if !run(id) {
            continue;
        }
        let t0 = now_us();
        rule(ctx, diags);
        *timing.entry(id).or_insert(0) += now_us() - t0;
    }
}

/// Drop diagnostics of `path` suppressed by a matching allow directive
/// (same target line, same rule id), marking the directive used.
/// Diagnostics belonging to other files pass through untouched, so the
/// workspace pass can run this per file over the combined diagnostic
/// list after the graph rules have contributed their findings.
pub(crate) fn apply_directives(
    directives: &[Directive],
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    diags.retain(|d| {
        if d.path != path {
            return true;
        }
        let mut suppressed = false;
        for dir in directives {
            if dir.target_line == d.line && dir.rules.iter().any(|r| r == d.rule) {
                dir.used.set(true);
                suppressed = true;
            }
        }
        !suppressed
    });
}

/// Directive hygiene for one file. Unknown rule names count as
/// malformed: a typo in a directive must not silently disable a real
/// allow. `unused-allow` only runs under an empty rule filter (usage
/// tracking is incomplete under a filter, so it would produce false
/// positives).
pub(crate) fn directive_hygiene(
    path: &str,
    directives: &[Directive],
    selected: &[String],
    diags: &mut Vec<Diagnostic>,
) {
    let run = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);
    let at = |rule: &'static str, dir: &Directive, msg: String, help: String| Diagnostic {
        rule,
        severity: if rule == "unused-allow" { Severity::Warning } else { Severity::Error },
        path: path.to_string(),
        line: dir.line,
        col: dir.col,
        message: msg,
        help,
    };
    for dir in directives {
        if run("allow-needs-reason") {
            if dir.rules.is_empty() {
                diags.push(at(
                    "allow-needs-reason",
                    dir,
                    "malformed ts3-lint directive".into(),
                    "write `// ts3-lint: allow(rule-name) <reason>`".into(),
                ));
                continue;
            }
            if let Some(unknown) =
                dir.rules.iter().find(|r| !ALL_RULES.contains(&r.as_str()))
            {
                diags.push(at(
                    "allow-needs-reason",
                    dir,
                    format!("directive names unknown rule `{unknown}`"),
                    format!("known rules: {}", ALL_RULES.join(", ")),
                ));
            }
            if !dir.has_reason {
                diags.push(at(
                    "allow-needs-reason",
                    dir,
                    format!("allow({}) carries no reason", dir.rules.join(", ")),
                    "append the justification after the closing paren".into(),
                ));
            }
        }
        if run("unused-allow") && selected.is_empty() && !dir.rules.is_empty() && !dir.used.get()
        {
            diags.push(at(
                "unused-allow",
                dir,
                format!("allow({}) suppressed nothing", dir.rules.join(", ")),
                "delete the stale directive".into(),
            ));
        }
    }
}

/// Lint one file in isolation: run the selected per-file rules, apply
/// allow directives, and report directive hygiene. The workspace-graph
/// rules (`crate-layering`, `lock-order`, `config-liveness` and the
/// cross-file half of `env-registry`) need the whole file set and only
/// run under [`crate::lint_workspace`].
///
/// `selected` filters rules by id; empty means "all".
pub fn lint_file(ctx: &FileCtx, selected: &[String]) -> Vec<Diagnostic> {
    let mut timing = RuleTiming::new();
    let mut diags = Vec::new();
    run_file_rules(ctx, selected, &mut diags, &mut timing);
    apply_directives(&ctx.directives, ctx.rel_path, &mut diags);
    directive_hygiene(ctx.rel_path, &ctx.directives, selected, &mut diags);
    diags.sort_by(|a, b| (a.line, a.col).cmp(&(b.line, b.col)));
    diags
}
