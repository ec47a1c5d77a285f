//! `qar` — mine quantitative association rules from CSV files.
//!
//! See `qar help` or [`quantrules::cli::USAGE`]; the flag table, the
//! dispatcher and every command live in [`quantrules::cli`].

use std::process::ExitCode;

use quantrules::cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = cli::parse_command(&args)
        .map_err(Into::into)
        .and_then(|command| cli::run(&command, &mut std::io::stdout().lock()));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qar: {e}");
            ExitCode::FAILURE
        }
    }
}
