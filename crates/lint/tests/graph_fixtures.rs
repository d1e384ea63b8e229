//! Seeded violations for the graph rule families, each built as a tiny
//! on-disk workspace under `CARGO_TARGET_TMPDIR`: a back-edged crate
//! pair for `crate-layering`, an inverted lock pair for `lock-order`,
//! a ghost env knob for `env-registry`, and a dangling config path for
//! `config-liveness` — plus the compliant spelling of each, which must
//! stay quiet.

use std::path::{Path, PathBuf};
use ts3_lint::{lint_workspace, Config, FileKind};

/// Create a fresh fixture workspace directory for `name`.
fn fixture_root(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root).unwrap();
    }
    std::fs::create_dir_all(&root).unwrap();
    root
}

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, text).unwrap();
}

/// A two-crate workspace: `ts3-low` (layer 0) and `ts3-high` (layer 1).
/// `invert` plants the back-edge (low depends on and uses high).
fn layered_workspace(name: &str, invert: bool) -> PathBuf {
    let root = fixture_root(name);
    write(&root, "Cargo.toml", "[package]\nname = \"demo-root\"\n");
    write(
        &root,
        "ARCHITECTURE.md",
        "# demo\n\n<!-- ts3lint:layers\n0: ts3-low\n1: ts3-high\n2: demo-root\n-->\n",
    );
    let low_deps = if invert { "[dependencies]\nts3-high = { path = \"../high\" }\n" } else { "" };
    write(
        &root,
        "crates/low/Cargo.toml",
        &format!("[package]\nname = \"ts3-low\"\n{low_deps}"),
    );
    let low_src = if invert {
        "pub use ts3_high::thing;\npub fn low() {}\n"
    } else {
        "pub fn low() {}\n"
    };
    write(&root, "crates/low/src/lib.rs", low_src);
    write(
        &root,
        "crates/high/Cargo.toml",
        "[package]\nname = \"ts3-high\"\n[dependencies]\nts3-low = { path = \"../low\" }\n",
    );
    write(&root, "crates/high/src/lib.rs", "pub use ts3_low::low;\npub fn thing() {}\n");
    root
}

fn run(root: &Path, cfg: &Config, rule: &str) -> Vec<ts3_lint::Diagnostic> {
    lint_workspace(root, cfg, &[rule.to_string()]).unwrap().diags
}

#[test]
fn crate_layering_flags_manifest_and_use_back_edges() {
    let root = layered_workspace("layering-bad", true);
    let diags = run(&root, &Config::default(), "crate-layering");
    assert!(diags.iter().all(|d| d.rule == "crate-layering"), "{diags:?}");
    // One back-edge in low's Cargo.toml, one at the `ts3_high::` use.
    assert!(
        diags.iter().any(|d| d.path == "crates/low/Cargo.toml"),
        "missing manifest back-edge: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.path == "crates/low/src/lib.rs"),
        "missing use-site back-edge: {diags:?}"
    );
}

#[test]
fn crate_layering_accepts_a_layered_workspace() {
    let root = layered_workspace("layering-good", false);
    let out = lint_workspace(&root, &Config::default(), &["crate-layering".to_string()])
        .unwrap();
    assert!(out.diags.is_empty(), "{:?}", out.diags);
    // The resolved DAG records high -> low.
    assert_eq!(out.crate_dag["ts3-high"], vec!["ts3-low".to_string()]);
    assert!(out.crate_dag["ts3-low"].is_empty());
}

#[test]
fn crate_layering_requires_the_committed_layer_block() {
    let root = layered_workspace("layering-no-block", false);
    std::fs::remove_file(root.join("ARCHITECTURE.md")).unwrap();
    let diags = run(&root, &Config::default(), "crate-layering");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].path, "ARCHITECTURE.md");
    assert!(diags[0].message.contains("ts3lint:layers"), "{}", diags[0].message);
}

/// Lock fixture: one function acquiring `b_guard` then `a_guard`, with
/// the committed order saying `a` is outer. `invert` plants the
/// contradiction.
fn lock_workspace(name: &str, invert: bool) -> PathBuf {
    let root = fixture_root(name);
    write(&root, "Cargo.toml", "[package]\nname = \"demo-root\"\n");
    let (first, second) = if invert { ("b_guard", "a_guard") } else { ("a_guard", "b_guard") };
    write(
        &root,
        "crates/lk/Cargo.toml",
        "[package]\nname = \"ts3-lk\"\n",
    );
    write(
        &root,
        "crates/lk/src/lib.rs",
        &format!(
            "use std::sync::Mutex;\n\
             pub struct S {{ pub a_guard: Mutex<u32>, pub b_guard: Mutex<u32> }}\n\
             pub fn nested(s: &S) -> u32 {{\n\
             \x20   let x = s.{first}.lock().ok().map(|g| *g).take();\n\
             \x20   let y = s.{second}.lock().ok().map(|g| *g).take();\n\
             \x20   x.zip(y).map(|(a, b)| a + b).take().into_iter().sum()\n\
             }}\n"
        ),
    );
    root
}

fn lock_cfg() -> Config {
    let mut cfg = Config::default();
    cfg.lock_order = vec!["lib.a_guard".to_string(), "lib.b_guard".to_string()];
    cfg
}

#[test]
fn lock_order_flags_an_inverted_pair() {
    let root = lock_workspace("lock-bad", true);
    let diags = run(&root, &lock_cfg(), "lock-order");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "lock-order");
    assert!(
        diags[0].message.contains("inverting the committed order"),
        "{}",
        diags[0].message
    );
}

#[test]
fn lock_order_accepts_the_committed_order_and_rejects_unknown_classes() {
    let root = lock_workspace("lock-good", false);
    assert!(run(&root, &lock_cfg(), "lock-order").is_empty());

    // Same sites with an empty committed list: both classes unknown.
    let diags = run(&root, &Config::default(), "lock-order");
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags
        .iter()
        .all(|d| d.message.contains("not in the committed lock_order")));
}

#[test]
fn env_registry_flags_ghost_and_undocumented_knobs() {
    let root = fixture_root("env-ghost");
    write(&root, "Cargo.toml", "[package]\nname = \"demo-root\"\n");
    write(&root, "crates/e/Cargo.toml", "[package]\nname = \"ts3-e\"\n");
    write(
        &root,
        "crates/e/src/lib.rs",
        "pub fn knob() -> Option<String> { std::env::var(\"TS3_USED\").ok() }\n",
    );
    write(&root, "README.md", "# demo\n\nSet `TS3_USED` to use the knob.\n");
    let mut cfg = Config::default();
    cfg.env_registry = vec!["TS3_USED".to_string(), "TS3_GHOST".to_string()];
    let diags = run(&root, &cfg, "env-registry");
    // TS3_GHOST: never read (ts3lint.json anchor) + not in README.
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().any(|d| d.path == "ts3lint.json" && d.message.contains("TS3_GHOST")));
    assert!(diags.iter().any(|d| d.path == "README.md" && d.message.contains("TS3_GHOST")));
}

#[test]
fn env_registry_file_half_flags_unregistered_reads() {
    let mut cfg = Config::default();
    cfg.env_registry = vec!["TS3_KNOWN".to_string()];
    let bad = "pub fn f() -> Option<String> { std::env::var(\"TS3_MYSTERY\").ok() }\n";
    let diags = ts3_lint::lint_source(
        "crates/demo/src/lib.rs",
        FileKind::Lib,
        bad,
        &cfg,
        &["env-registry".to_string()],
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("TS3_MYSTERY"));

    let good = "pub fn f() -> Option<String> { std::env::var(\"TS3_KNOWN\").ok() }\n";
    let diags = ts3_lint::lint_source(
        "crates/demo/src/lib.rs",
        FileKind::Lib,
        good,
        &cfg,
        &["env-registry".to_string()],
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unsafe_dataflow_requires_an_assert_or_a_reasoned_allow() {
    let mut cfg = Config::default();
    cfg.unsafe_dataflow_files = vec!["crates/demo/src/lib.rs".to_string()];
    let lint = |src: &str| {
        ts3_lint::lint_source(
            "crates/demo/src/lib.rs",
            FileKind::Lib,
            src,
            &cfg,
            &["unsafe-dataflow".to_string()],
        )
    };

    let bad = "pub fn read(p: *const u8, i: usize) -> u8 {\n\
               \x20   unsafe { *p.add(i) }\n\
               }\n";
    let diags = lint(bad);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "unsafe-dataflow");

    let asserted = "pub fn read(buf: &[u8], i: usize) -> u8 {\n\
                    \x20   assert!(i < buf.len());\n\
                    \x20   unsafe { *buf.as_ptr().add(i) }\n\
                    }\n";
    assert!(lint(asserted).is_empty(), "{:?}", lint(asserted));

    let allowed = "pub fn read(p: *const u8, i: usize) -> u8 {\n\
                   \x20   // ts3-lint: allow(unsafe-dataflow) bound established by the caller contract\n\
                   \x20   unsafe { *p.add(i) }\n\
                   }\n";
    assert!(lint(allowed).is_empty(), "{:?}", lint(allowed));
}

#[test]
fn config_liveness_flags_dangling_policy_paths() {
    let root = fixture_root("cfg-liveness");
    write(&root, "Cargo.toml", "[package]\nname = \"demo-root\"\n");
    write(&root, "crates/c/Cargo.toml", "[package]\nname = \"ts3-c\"\n");
    write(&root, "crates/c/src/lib.rs", "pub fn f() {}\n");
    let mut cfg = Config::default();
    cfg.fma_files = vec!["crates/c/src/lib.rs".to_string(), "crates/c/src/nope.rs".to_string()];
    let diags = run(&root, &cfg, "config-liveness");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].path, "ts3lint.json");
    assert!(diags[0].message.contains("nope.rs"), "{}", diags[0].message);
}
