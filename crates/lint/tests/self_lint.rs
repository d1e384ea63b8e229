//! The workspace must lint clean with its committed config — the same
//! check `scripts/verify.sh` gate 7 runs, kept here so `cargo test`
//! alone catches a regression, and so the lint tool exercises itself
//! (the lint crate's own sources are part of the walk).

use std::path::Path;
use ts3_lint::{lint_workspace, Config};

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

#[test]
fn workspace_is_lint_clean_under_committed_config() {
    let root = workspace_root();
    let cfg_text = std::fs::read_to_string(root.join("ts3lint.json")).expect("read ts3lint.json");
    let cfg = Config::parse(&cfg_text).expect("parse ts3lint.json");
    let run = lint_workspace(root, &cfg, &[]).expect("walk workspace");
    let files = run.checked_files;
    assert!(files > 100, "walk saw only {files} files — roots misconfigured?");
    let rendered: String = run.diags.iter().map(|d| d.render()).collect();
    assert!(run.diags.is_empty(), "workspace must be lint-clean:\n{rendered}");
}

#[test]
fn committed_config_matches_repo_layout() {
    let root = workspace_root();
    let cfg_text = std::fs::read_to_string(root.join("ts3lint.json")).expect("read ts3lint.json");
    let cfg = Config::parse(&cfg_text).expect("parse ts3lint.json");
    // Every allowlisted path must exist: a stale entry silently widens
    // the wallclock / FMA escape hatches.
    for rel in cfg.wallclock_allow.iter().chain(&cfg.fma_files) {
        assert!(root.join(rel).is_file(), "ts3lint.json names missing file `{rel}`");
    }
}
