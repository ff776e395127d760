//! `--help` of every subcommand, pinned byte for byte.
//!
//! The flag table is the only place a CLI default is written, and
//! `--help` is where it is printed: these digests were recorded from
//! the binary of the commit before the table became typed (this same
//! file, run at that commit), so no flag name, help text or default can
//! drift without this test saying which command moved (`sweep` and
//! `serve` were re-pinned when the sweep's two retry flags and the
//! daemon's slow-op threshold left, `simulate` when its live metrics
//! endpoint, linger and heartbeat flags left, `sweep` again when its
//! three crash-resume flags left: each text is the previous one less
//! those rows; `sweep` again when its deadline, degraded-exit,
//! progress-line and throughput-artefact flags left, its title losing
//! "fault-tolerant " with them, and `serve` when its durability
//! sentence stopped claiming a flush). `amjs --help`, the seventh row,
//! was first pinned when its command list began to be generated from
//! the same summaries as each command's title. A change that alters the
//! CLI surface on purpose re-pins them from the `found:` block, like
//! `simulate_identity.rs`.
//!
//! The same tables are the reference for the docs: every `--flag`
//! README.md, DESIGN.md and EXPERIMENTS.md name must be declared by
//! some `amjs <cmd> --help`, or belong to another program.

use std::collections::BTreeSet;
use std::process::Command;

use amjs_sim::snapshot::fnv1a;

const COMMANDS: &[&str] = &["simulate", "sweep", "serve", "workload", "doctor", "trace"];

/// `amjs <cmd> --help`'s stdout (`amjs --help`'s for an empty `cmd`);
/// it must succeed and be silent on stderr.
fn help(cmd: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_amjs"))
        .args(cmd.split_whitespace().chain(["--help"]))
        .output()
        .expect("spawn amjs");
    assert!(out.status.success(), "amjs {cmd} --help failed: {out:?}");
    assert!(out.stderr.is_empty(), "amjs {cmd} --help wrote to stderr");
    String::from_utf8(out.stdout).expect("help is utf-8")
}

#[test]
fn help_text_of_every_subcommand_is_pinned() {
    let found: Vec<String> = COMMANDS
        .iter()
        .map(|cmd| format!("{cmd} {:016x}", fnv1a(help(cmd).as_bytes())))
        .chain([format!("amjs {:016x}", fnv1a(help("").as_bytes()))])
        .collect();
    assert_eq!(found, PINNED, "found:\n{}", found.join("\n"));
}

/// Flags the docs name that belong to other programs: cargo's, and the
/// `ablation_serve_load` bench binary's `--fast`.
const OTHER_PROGRAMS: &[&str] = &[
    "--bin",
    "--check",
    "--example",
    "--manifest-path",
    "--release",
    "--test",
    "--workspace",
    "--fast",
];

/// Every `--flag` token in `text`: two dashes not preceded by a dash or
/// a word character, then a lowercase letter, then letters, digits and
/// inner dashes.
fn flag_tokens(text: &str) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let word = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-';
    let mut found = BTreeSet::new();
    let mut i = 0;
    while let Some(at) = text[i..].find("--").map(|at| i + at) {
        let start = at + 2;
        let mut end = start;
        while end < bytes.len() && word(bytes[end]) {
            end += 1;
        }
        let lead = at.checked_sub(1).map(|p| bytes[p]);
        let standalone = !lead.is_some_and(|b| b == b'-' || b.is_ascii_alphanumeric());
        if standalone && bytes.get(start).is_some_and(u8::is_ascii_lowercase) {
            found.insert(format!("--{}", text[start..end].trim_end_matches('-')));
        }
        i = end.max(start);
    }
    found
}

#[test]
fn the_docs_name_only_flags_that_exist() {
    let declared: BTreeSet<String> = COMMANDS
        .iter()
        .flat_map(|cmd| {
            help(cmd)
                .lines()
                .filter_map(|line| line.split_whitespace().next())
                .filter(|first| first.starts_with("--"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .chain(OTHER_PROGRAMS.iter().map(|f| f.to_string()))
        .collect();
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let unknown: Vec<String> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .flat_map(|doc| {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).expect("read doc");
            flag_tokens(&text)
                .into_iter()
                .filter(|flag| !declared.contains(flag))
                .map(move |flag| format!("{doc}: {flag}"))
        })
        .collect();
    assert!(
        unknown.is_empty(),
        "no `amjs <cmd> --help` declares:\n{}",
        unknown.join("\n")
    );
}

const PINNED: &[&str] = &[
    "simulate aa66fabb545d40f4",
    "sweep aa94791286cfd3fd",
    "serve 388af8bdb51504a0",
    "workload 6c3d6937b1acc3fc",
    "doctor f72b6a4500cefe49",
    "trace 85b3002badebd426",
    "amjs cbe040807062ab21",
];
