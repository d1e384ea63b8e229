//! `ts3lint` — run the workspace static-analysis pass.
//!
//! ```text
//! ts3lint [--root DIR] [--config FILE] [--rule NAME]... \
//!         [--json [FILE]] [--bench-out FILE] [--deny-all] [--list-rules]
//! ```
//!
//! * `--root DIR`      workspace root (default: nearest ancestor of the
//!   current directory containing `ts3lint.json`, else `.`)
//! * `--config FILE`   lint config (default: `<root>/ts3lint.json`)
//! * `--rule NAME`     run only the named rule(s); repeatable
//! * `--json [FILE]`   emit the `ts3.lint.v2` report as JSON to FILE
//!   (or stdout when FILE is omitted/`-`) instead of rustc-style text
//! * `--bench-out FILE` write a `ts3.bench.v1` document with the lint
//!   wall time (`lint/wall_ms`) and diagnostic count
//!   (`lint/diagnostics`), for `bench_compare` regression gating
//! * `--deny-all`      treat warnings as errors for the exit status
//! * `--list-rules`    print the rule ids and exit
//!
//! Exit status: 0 on a clean tree, 1 when diagnostics fail the run,
//! 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;
use ts3_json::Json;
use ts3_lint::{lint_workspace, now_us, report, Config, Severity, ALL_RULES};

fn usage() -> ExitCode {
    eprintln!(
        "usage: ts3lint [--root DIR] [--config FILE] [--rule NAME]... \
         [--json [FILE]] [--bench-out FILE] [--deny-all] [--list-rules]"
    );
    ExitCode::from(2)
}

/// One `ts3.bench.v1` entry; the measurement lands in `median_ns` (the
/// key `bench_compare` reads) with the quartile fields collapsed onto
/// it, since a lint run is a single observation.
fn bench_entry(op: &str, shape: &str, value: u64) -> Json {
    Json::obj([
        ("op", Json::from(op)),
        ("shape", Json::from(shape)),
        ("median_ns", Json::from(value)),
        ("p25_ns", Json::from(value)),
        ("p75_ns", Json::from(value)),
        ("min_ns", Json::from(value)),
        ("iters", Json::from(1usize)),
    ])
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut rules: Vec<String> = Vec::new();
    let mut json_out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut deny_all = false;

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--config" => match args.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--rule" => match args.next() {
                Some(v) => rules.push(v),
                None => return usage(),
            },
            "--json" => {
                // Optional operand: a following token that is not a flag.
                let file = match args.peek() {
                    Some(v) if !v.starts_with("--") => args.next(),
                    _ => None,
                };
                json_out = Some(file.unwrap_or_else(|| "-".to_string()));
            }
            "--bench-out" => match args.next() {
                Some(v) => bench_out = Some(v),
                None => return usage(),
            },
            "--deny-all" => deny_all = true,
            "--list-rules" => {
                for r in ALL_RULES {
                    println!("{r}");
                }
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    if let Some(bad) = rules.iter().find(|r| !ALL_RULES.contains(&r.as_str())) {
        eprintln!("ts3lint: unknown rule `{bad}` (see --list-rules)");
        return ExitCode::from(2);
    }

    let root = root.unwrap_or_else(find_root);
    let config_path = config_path.unwrap_or_else(|| root.join("ts3lint.json"));
    let cfg = if config_path.is_file() {
        match std::fs::read_to_string(&config_path)
            .map_err(|e| e.to_string())
            .and_then(|text| Config::parse(&text))
        {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("ts3lint: {}: {e}", config_path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        Config::default()
    };

    let t0 = now_us();
    let run = match lint_workspace(&root, &cfg, &rules) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ts3lint: {e}");
            return ExitCode::from(2);
        }
    };
    let wall_us = now_us() - t0;
    let (diags, checked) = (run.diags, run.checked_files);

    let failing = diags
        .iter()
        .filter(|d| deny_all || d.severity == Severity::Error)
        .count();

    if let Some(dest) = bench_out {
        let doc = Json::obj([
            ("schema", Json::from("ts3.bench.v1")),
            ("threads", Json::from(1usize)),
            (
                "entries",
                Json::Arr(vec![
                    bench_entry("lint", "wall_ms", wall_us * 1_000),
                    bench_entry("lint", "diagnostics", diags.len() as u64),
                ]),
            ),
        ]);
        if let Err(e) = std::fs::write(&dest, doc.to_string()) {
            eprintln!("ts3lint: write {dest}: {e}");
            return ExitCode::from(2);
        }
    }

    if let Some(dest) = json_out {
        let selected: Vec<&str> = if rules.is_empty() {
            ALL_RULES.to_vec()
        } else {
            rules.iter().map(String::as_str).collect()
        };
        let doc = report(
            &diags,
            checked,
            &selected,
            deny_all,
            &run.crate_dag,
            &run.rule_timing_us,
        );
        let text = doc.to_string();
        if dest == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(&dest, text) {
            eprintln!("ts3lint: write {dest}: {e}");
            return ExitCode::from(2);
        }
    } else {
        for d in &diags {
            print!("{}", d.render());
        }
        let errors = failing;
        let warnings = diags.len() - errors;
        println!(
            "ts3lint: {checked} files, {errors} error{}, {warnings} warning{}{}",
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
            if deny_all { " (deny-all)" } else { "" },
        );
    }

    if failing > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Nearest ancestor of the current directory holding `ts3lint.json`,
/// so the binary works from crate subdirectories; falls back to `.`.
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("ts3lint.json").is_file() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
