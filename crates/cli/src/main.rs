//! `amjs` — command-line interface to the adaptive metric-aware job
//! scheduling simulator (ICPP 2012 reproduction).
//!
//! `amjs --help` lists the commands; `amjs <command> --help` prints
//! each one's flag table.

mod aggregate;
mod args;
mod commands;
mod config;
mod doctor;
mod obs;
mod serve_cmd;
mod sweep;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest.to_vec()),
        None => {
            eprintln!("{}", commands::top_level_help());
            return ExitCode::FAILURE;
        }
    };

    let result = match command {
        "simulate" => commands::simulate(&rest),
        "serve" => serve_cmd::serve(&rest),
        "doctor" => doctor::doctor(&rest),
        "sweep" => sweep::sweep(&rest),
        "workload" => commands::workload(&rest),
        "trace" => commands::trace(&rest),
        "--help" | "-h" | "help" => {
            println!("{}", commands::top_level_help());
            return ExitCode::SUCCESS;
        }
        other => Err(args::ArgError(format!(
            "unknown command {other:?}\n\n{}",
            commands::top_level_help()
        ))),
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
