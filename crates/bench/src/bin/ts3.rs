//! `ts3 <experiment> [--smoke|--quick|--full] [dataset...]` — regenerate
//! one table or figure of the paper's evaluation section into
//! `results/` (the experiment list is `ts3_bench::EXPERIMENTS`).
//!
//! Exit status: 0 on success, 2 on a bad command line, 1 when a result
//! file cannot be written.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match ts3_bench::parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run.execute() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: result write failed: {e}");
            ExitCode::FAILURE
        }
    }
}
