//! Workspace file discovery and file-role classification.

use crate::config::Config;
use std::path::{Path, PathBuf};

/// What role a source file plays; rules scope themselves by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: `crates/*/src/**` (excluding `src/bin`) and the
    /// workspace root `src/**`. The determinism rules bite hardest here.
    Lib,
    /// Binary targets: `src/bin/**` anywhere, plus `examples/**`.
    Bin,
    /// Test code: any `tests/` directory, plus `benches/`.
    Test,
}

/// One file scheduled for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across
    /// platforms, and what config lists and reports use).
    pub rel_path: String,
    /// Absolute path for reading.
    pub abs_path: PathBuf,
    /// Role classification.
    pub kind: FileKind,
}

/// Classify a workspace-relative path.
pub fn classify(rel: &str) -> FileKind {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.contains(&"tests") || parts.contains(&"benches") {
        FileKind::Test
    } else if parts.contains(&"examples") || parts.windows(2).any(|w| w == ["src", "bin"]) {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// Walk the configured roots under `workspace_root` and collect every
/// `.rs` file, sorted by relative path so reports and JSON output are
/// byte-stable across filesystems.
pub fn discover(workspace_root: &Path, cfg: &Config) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for root in &cfg.roots {
        let dir = workspace_root.join(root);
        if dir.is_dir() {
            walk_dir(workspace_root, &dir, cfg, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

fn walk_dir(
    workspace_root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    // Sort entries for a deterministic walk order independent of the
    // filesystem's readdir order.
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if cfg.skip_dirs.iter().any(|s| s == name) || name.starts_with('.') {
                continue;
            }
            walk_dir(workspace_root, &path, cfg, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(workspace_root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let kind = classify(&rel);
            out.push(SourceFile { rel_path: rel, abs_path: path, kind });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_workspace_shapes() {
        assert_eq!(classify("crates/tensor/src/gemm.rs"), FileKind::Lib);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
        assert_eq!(classify("crates/bench/src/bin/ts3.rs"), FileKind::Bin);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Bin);
        assert_eq!(classify("crates/obs/tests/no_alloc.rs"), FileKind::Test);
        assert_eq!(classify("tests/integration_pipeline.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/benches/kernels.rs"), FileKind::Test);
    }
}
