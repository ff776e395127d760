//! `--help` of every subcommand, pinned byte for byte.
//!
//! The flag table is the only place a CLI default is written, and
//! `--help` is where it is printed: these digests were recorded from
//! the binary of the commit before the table became typed (this same
//! file, run at that commit), so no flag name, help text or default can
//! drift without this test saying which command moved. A change that
//! alters the CLI surface on purpose re-pins them from the `found:`
//! block, like `simulate_identity.rs`.

use std::process::Command;

use amjs_sim::snapshot::fnv1a;

#[test]
fn help_text_of_every_subcommand_is_pinned() {
    let found: Vec<String> = [
        "simulate", "replay", "sweep", "serve", "workload", "doctor", "trace",
    ]
    .iter()
    .map(|cmd| {
        let out = Command::new(env!("CARGO_BIN_EXE_amjs"))
            .args([cmd, "--help"])
            .output()
            .expect("spawn amjs");
        assert!(out.status.success(), "amjs {cmd} --help failed: {out:?}");
        assert!(out.stderr.is_empty(), "amjs {cmd} --help wrote to stderr");
        format!("{cmd} {:016x}", fnv1a(&out.stdout))
    })
    .collect();
    assert_eq!(found, PINNED, "found:\n{}", found.join("\n"));
}

const PINNED: &[&str] = &[
    "simulate bb4a40757498eafb",
    "replay 780eea680b5d4d8e",
    "sweep c260d2b597394927",
    "serve 7e2ba7f483d41939",
    "workload 6c3d6937b1acc3fc",
    "doctor f72b6a4500cefe49",
    "trace 85b3002badebd426",
];
