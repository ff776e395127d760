//! `amjs` — command-line interface to the adaptive metric-aware job
//! scheduling simulator (ICPP 2012 reproduction).
//!
//! ```text
//! amjs simulate  [flags]            run one policy over a workload
//! amjs serve     [flags]            crash-safe live scheduler daemon (TCP)
//! amjs doctor <dir> [flags]         postmortem of a daemon state directory
//! amjs sweep     [flags]            fault-tolerant parallel grid sweep
//! amjs workload  [flags]            generate a synthetic trace (SWF out)
//! amjs trace explain <file> <job>   reconstruct a job's decision chain
//! ```
//!
//! Run `amjs <command> --help` for the flag table of each command.

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
