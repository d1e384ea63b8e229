//! Result tables: fixed-width console rendering (mirroring the paper's
//! row/column layout) and CSV + JSON persistence under `results/`, plus
//! the shared [`Progress`] reporter used by every experiment.

use crate::profile::RunProfile;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::time::Instant;
use ts3_json::Json;

/// A rectangular result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (printed above the header).
    pub title: String,
    /// Column headers (first column is the row label).
    pub columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given title and column headers.
    pub fn new<S: AsRef<str>>(title: impl Into<String>, columns: &[S]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} != column count {}",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Write the table as CSV into `results/<stem>.csv` (searching for the
    /// workspace `results/` directory from the current directory upward).
    fn write_csv(&self, stem: &str) -> io::Result<PathBuf> {
        let mut csv = String::new();
        for line in std::iter::once(&self.columns).chain(&self.rows) {
            csv.push_str(&line.join(","));
            csv.push('\n');
        }
        write_result(&format!("{stem}.csv"), &csv)
    }

    /// Mirror the table as JSON into `results/<stem>.json`: the title,
    /// the column list, and one object per row keyed by column header.
    /// Cells stay strings, exactly as rendered to console/CSV.
    pub fn write_json(&self, stem: &str) -> io::Result<PathBuf> {
        let rows: Json = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(
                    self.columns
                        .iter()
                        .zip(row)
                        .map(|(c, cell)| (c.clone(), Json::from(cell.as_str())))
                        .collect(),
                )
            })
            .collect();
        let doc = Json::obj([
            ("title", Json::from(self.title.as_str())),
            (
                "columns",
                self.columns.iter().map(|c| Json::from(c.as_str())).collect(),
            ),
            ("rows", rows),
        ]);
        write_result(&format!("{stem}.json"), &doc.to_string_pretty())
    }
}

/// Write `contents` to `results/<file>`, creating the directory.
fn write_result(file: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = results_dir();
    let path = dir.join(file);
    fs::create_dir_all(&dir)
        .and_then(|()| fs::write(&path, contents))
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(path)
}

/// Write `contents` to `results/<file>` and report it with a
/// `wrote <path>` line (the figures' CSVs).
pub fn save_result(file: &str, contents: &str) -> io::Result<()> {
    println!("wrote {}", write_result(file, contents)?.display());
    Ok(())
}

/// Locate the workspace `results/` directory (falls back to `./results`).
pub fn results_dir() -> PathBuf {
    for base in ["results", "../results", "../../results"] {
        let p = PathBuf::from(base);
        if p.exists() {
            return p;
        }
    }
    PathBuf::from("results")
}

/// Locate the workspace root: the nearest ancestor whose `Cargo.toml`
/// declares `[workspace]` (bench binaries run from the package dir, the
/// CLI from the root). Falls back to the current directory.
pub fn workspace_root() -> PathBuf {
    for base in [".", "..", "../.."] {
        let p = PathBuf::from(base);
        if fs::read_to_string(p.join("Cargo.toml"))
            .map(|s| s.contains("[workspace]"))
            .unwrap_or(false)
        {
            return p;
        }
    }
    PathBuf::from(".")
}

/// The progress reporter shared by every experiment: a run
/// banner, elapsed-stamped step lines on stderr, and result persistence
/// (table render + CSV/JSON + trace manifest) in one call. Each step
/// also fires a `progress` obs event, so traces carry the same timeline
/// the console showed. Setting `TS3_TRACE=0` explicitly silences the
/// banner and step lines (silent CI); tables and `wrote ...` lines
/// always print.
pub struct Progress {
    t0: Instant,
    quiet: bool,
}

impl Default for Progress {
    fn default() -> Self {
        Self::new()
    }
}

impl Progress {
    /// Start the clock; reads the `TS3_TRACE=0` silencer once.
    pub fn new() -> Self {
        Progress { t0: Instant::now(), quiet: ts3_obs::explicitly_silent() }
    }

    /// Print the run headline (what is being regenerated + profile).
    pub fn banner(&self, what: &str, profile: &RunProfile) {
        if !self.quiet {
            println!("TS3Net reproduction - {what}, profile `{}`\n", profile.name);
        }
    }

    /// One progress step: `[  12.3s] msg` on stderr + a `progress` event.
    pub fn step(&self, msg: &str) {
        if !self.quiet {
            eprintln!("[{:>7.1}s] {msg}", self.t0.elapsed().as_secs_f32());
        }
        ts3_obs::event("progress", |f| {
            f.set("msg", msg.to_string());
            f.set("elapsed_s", self.t0.elapsed().as_secs_f64());
        });
    }

    /// Print an info line on stdout (figure summaries etc.), honouring
    /// the silencer.
    pub fn info(&self, msg: &str) {
        if !self.quiet {
            println!("{msg}");
        }
    }

    /// Render the finished table, persist CSV + JSON under `results/`,
    /// and write the trace manifest when tracing is on. Fails on the
    /// first file that cannot be written.
    pub fn finish_table(&self, table: &Table, base: &str, profile: &RunProfile) -> io::Result<()> {
        print!("{}", table.render());
        println!();
        let stem = csv_stem(base, profile.name);
        println!("wrote {}", table.write_csv(&stem)?.display());
        println!("wrote {}", table.write_json(&stem)?.display());
        self.finish_trace(base, profile)
    }

    /// Write just the trace manifest (for the figures, which persist
    /// their CSVs themselves).
    pub fn finish_trace(&self, base: &str, profile: &RunProfile) -> io::Result<()> {
        let stem = csv_stem(base, profile.name);
        if let Some(p) = crate::manifest::write_trace_manifest(&stem, profile)? {
            println!("wrote {}", p.display());
        }
        Ok(())
    }
}

/// CSV stem for a profile: the default `quick` profile owns the canonical
/// `<base>.csv`; other profiles write `<base>_<profile>.csv` so probe and
/// smoke runs never clobber real results.
pub fn csv_stem(base: &str, profile_name: &str) -> String {
    if profile_name == "quick" {
        base.to_string()
    } else {
        format!("{base}_{profile_name}")
    }
}

/// Format an f32 metric with the paper's 3-decimal convention.
pub fn fmt_metric(v: f32) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["Model", "MSE", "MAE"]);
        t.push_row(vec!["TS3Net".into(), "0.324".into(), "0.362".into()]);
        t.push_row(vec!["VeryLongModelName".into(), "1.0".into(), "2.0".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("TS3Net"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
        // Column alignment: both rows have the metric at the same offset.
        let lines: Vec<&str> = s.lines().collect();
        let i1 = lines[3].find("0.324").unwrap();
        let i2 = lines[4].find("1.0").unwrap();
        assert_eq!(i1, i2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn json_mirror_matches_table() {
        let mut t = Table::new("J", &["Model", "MSE"]);
        t.push_row(vec!["TS3Net".into(), "0.324".into()]);
        let path = t.write_json("report_json_test").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("title").unwrap().as_str(), Some("J"));
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("MSE").unwrap().as_str(), Some("0.324"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fmt_metric_three_decimals() {
        assert_eq!(fmt_metric(0.32449), "0.324");
        assert_eq!(fmt_metric(1.5), "1.500");
    }
}
