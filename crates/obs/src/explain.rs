//! `trace explain`: reconstruct one job's full decision chain from a
//! JSONL trace file into a human-readable timeline.
//!
//! The chain follows the lifecycle queued → scored → windowed →
//! placed/backfilled (→ killed → retried …) → finished, with each step
//! tagged by its engine event index so it can be cross-referenced with
//! an oracle tag or another trace. Repetitive steps (a job is re-scored every
//! scheduling pass while it waits) are run-length compressed.

use std::fmt::Write as _;

use amjs_sim::SimTime;

use crate::event::{TraceEvent, TraceRecord};

/// Parse a whole JSONL trace. Line numbers in errors are 1-based.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| {
            TraceRecord::from_json_line(line).map_err(|e| format!("line {}: {e}", n + 1))
        })
        .collect()
}

/// Read and parse a trace file.
pub fn read_trace(path: &std::path::Path) -> Result<Vec<TraceRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_trace(&text)
}

/// Records relevant to `job`: directly about it, or window searches
/// that considered it.
pub fn records_for_job(records: &[TraceRecord], job: u64) -> Vec<&TraceRecord> {
    records
        .iter()
        .filter(|r| r.event.job_id() == Some(job) || r.event.window_jobs().contains(&job))
        .collect()
}

fn hms(secs: i64) -> String {
    SimTime::from_secs(secs).to_string()
}

fn describe(ev: &TraceEvent, job: u64) -> String {
    match ev {
        TraceEvent::JobQueued {
            nodes,
            walltime_s,
            resubmit,
            ..
        } => format!(
            "{}: {nodes} nodes, {} walltime",
            if *resubmit { "requeued (retry)" } else { "queued" },
            hms(*walltime_s),
        ),
        TraceEvent::JobScored {
            s_w,
            s_r,
            bf,
            priority,
            ..
        } => format!(
            "scored: S_p = {bf}*{s_w:.4} + {:.4}*{s_r:.4} = {priority:.4} (S_w={s_w:.4}, S_r={s_r:.4})",
            1.0 - bf
        ),
        TraceEvent::WindowChoice(wc) => {
            let pos = wc.jobs.iter().position(|j| *j == job).map(|p| p + 1);
            let mut s = format!(
                "window {} search over {} jobs (priority position {}): ",
                wc.window,
                wc.jobs.len(),
                pos.map_or_else(|| "?".into(), |p| p.to_string()),
            );
            if wc.fast_path {
                let _ = write!(
                    s,
                    "all {} start now in priority order; search skipped",
                    wc.starts_now
                );
            } else {
                let _ = write!(
                    s,
                    "chose order {:?} ({} start now, makespan {}), \
                     searched {} permutations, {} losers recorded",
                    wc.order,
                    wc.starts_now,
                    hms(wc.makespan_s),
                    wc.searched,
                    wc.losers.len(),
                );
            }
            s
        }
        TraceEvent::BackfillDecision {
            accepted, reason, ..
        } => {
            if *accepted {
                format!("backfill accepted ({})", reason.tag())
            } else {
                format!("backfill rejected ({})", reason.tag())
            }
        }
        TraceEvent::JobStarted {
            nodes,
            backfilled,
            wait_s,
            ..
        } => format!(
            "started on {nodes} nodes{} after waiting {}",
            if *backfilled { " via backfill" } else { "" },
            hms(*wait_s),
        ),
        TraceEvent::JobReserved { start_s, .. } => {
            format!("protected reservation: promised start at t={}", hms(*start_s))
        }
        TraceEvent::JobFinished { nodes, ran_s, .. } => {
            format!("finished: released {nodes} nodes after running {}", hms(*ran_s))
        }
        TraceEvent::JobKilled {
            attempt,
            lost_node_s,
            outcome,
            delay_s,
            ..
        } => {
            let mut s = format!(
                "killed by node failure on attempt {attempt} ({lost_node_s} node-s lost) -> {}",
                outcome.tag()
            );
            if *delay_s > 0 {
                let _ = write!(s, " after {}", hms(*delay_s));
            }
            s
        }
        // Not job-scoped; never reaches the timeline filter.
        other => other.tag().to_string(),
    }
}

/// Reconstruct the timeline for `job`.
///
/// Consecutive repetitions of the same step kind (re-scoring on every
/// pass, repeated window searches, repeated backfill rejections) are
/// compressed to first + last + a count.
pub fn explain_job(records: &[TraceRecord], job: u64) -> Result<String, String> {
    let relevant = records_for_job(records, job);
    if relevant.is_empty() {
        return Err(format!(
            "job#{job} does not appear in this trace ({} records scanned)",
            records.len()
        ));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "decision chain for job#{job} ({} steps)",
        relevant.len()
    );
    let _ = writeln!(out, "{}", "-".repeat(72));

    let mut i = 0;
    while i < relevant.len() {
        let rec = relevant[i];
        // Extent of the run of same-kind, same-outcome steps.
        let mut j = i + 1;
        while j < relevant.len() && same_kind(&rec.event, &relevant[j].event) {
            j += 1;
        }
        let line = |r: &TraceRecord| {
            format!(
                "[e{:>8} t={:>10}] {}",
                r.index,
                hms(r.t),
                describe(&r.event, job)
            )
        };
        if j - i <= 2 {
            for r in &relevant[i..j] {
                let _ = writeln!(out, "{}", line(r));
            }
        } else {
            let _ = writeln!(out, "{}", line(rec));
            let _ = writeln!(
                out,
                "{:>24}  ... {} similar steps omitted ...",
                "",
                j - i - 2
            );
            let _ = writeln!(out, "{}", line(relevant[j - 1]));
        }
        i = j;
    }

    let _ = writeln!(out, "{}", "-".repeat(72));
    let _ = writeln!(out, "summary: {}", summarize(&relevant, job));
    Ok(out)
}

/// Two events count as "the same step" for compression purposes when
/// they have the same tag and (for backfill) the same outcome.
fn same_kind(a: &TraceEvent, b: &TraceEvent) -> bool {
    match (a, b) {
        (
            TraceEvent::BackfillDecision {
                accepted: aa,
                reason: ra,
                ..
            },
            TraceEvent::BackfillDecision {
                accepted: ab,
                reason: rb,
                ..
            },
        ) => aa == ab && ra == rb,
        _ => a.tag() == b.tag(),
    }
}

fn summarize(relevant: &[&TraceRecord], job: u64) -> String {
    let count = |tag: &str| relevant.iter().filter(|r| r.event.tag() == tag).count();
    let queued = count("job_queued");
    let scored = count("job_scored");
    let windowed = count("window_choice");
    let killed = count("job_killed");
    let started: Vec<_> = relevant
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::JobStarted { backfilled, .. } => Some(*backfilled),
            _ => None,
        })
        .collect();
    let finished = count("job_finished") > 0;

    let mut s =
        format!("job#{job} queued {queued}x, scored {scored}x, in {windowed} window searches");
    if killed > 0 {
        let _ = write!(s, ", killed {killed}x");
    }
    match started.last() {
        Some(true) => s.push_str(", last start was a backfill"),
        Some(false) => s.push_str(", last start was in queue order"),
        None => s.push_str(", never started"),
    }
    s.push_str(if finished {
        ", finished"
    } else {
        ", did not finish in this trace"
    });
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BackfillReason;

    fn rec(index: u64, t: i64, event: TraceEvent) -> TraceRecord {
        TraceRecord { index, t, event }
    }

    fn sample_trace() -> Vec<TraceRecord> {
        let scored = |i: u64, t: i64| {
            rec(
                i,
                t,
                TraceEvent::JobScored {
                    job: 5,
                    s_w: 0.5,
                    s_r: 0.25,
                    bf: 0.5,
                    priority: 0.375,
                },
            )
        };
        vec![
            rec(
                0,
                0,
                TraceEvent::JobQueued {
                    job: 5,
                    nodes: 64,
                    walltime_s: 3600,
                    resubmit: false,
                },
            ),
            scored(1, 60),
            scored(2, 120),
            scored(3, 180),
            scored(4, 240),
            rec(
                5,
                240,
                TraceEvent::WindowChoice(Box::new(crate::event::WindowChoiceEv {
                    window: 0,
                    jobs: vec![9, 5],
                    order: vec![5, 9],
                    starts_now: 2,
                    makespan_s: 4000,
                    searched: 1,
                    fast_path: false,
                    losers: vec![],
                })),
            ),
            rec(
                6,
                240,
                TraceEvent::JobStarted {
                    job: 5,
                    nodes: 64,
                    backfilled: false,
                    wait_s: 240,
                },
            ),
            rec(
                7,
                3840,
                TraceEvent::JobFinished {
                    job: 5,
                    nodes: 64,
                    ran_s: 3600,
                },
            ),
            // Unrelated job — must not appear.
            rec(
                8,
                4000,
                TraceEvent::JobStarted {
                    job: 9,
                    nodes: 8,
                    backfilled: true,
                    wait_s: 0,
                },
            ),
        ]
    }

    #[test]
    fn filters_by_job_including_window_membership() {
        let trace = sample_trace();
        let mine = records_for_job(&trace, 5);
        assert_eq!(mine.len(), 8); // everything except the job#9 start
        let other = records_for_job(&trace, 9);
        assert_eq!(other.len(), 2); // its own start + the shared window
    }

    #[test]
    fn explains_full_chain_with_compression() {
        let text = explain_job(&sample_trace(), 5).unwrap();
        assert!(text.contains("decision chain for job#5"));
        assert!(text.contains("queued: 64 nodes"));
        // 4 consecutive scored steps compress to first + last + omission.
        assert!(text.contains("similar steps omitted"));
        assert!(text.contains("window 0 search"));
        assert!(text.contains("started on 64 nodes after waiting 0:04:00"));
        assert!(text.contains("finished"));
        assert!(text.contains("scored 4x"));
        assert!(text.contains("last start was in queue order"));
    }

    #[test]
    fn unknown_job_is_an_error() {
        let err = explain_job(&sample_trace(), 777).unwrap_err();
        assert!(err.contains("job#777"));
    }

    #[test]
    fn parse_trace_reports_line_numbers() {
        let good = sample_trace()[0].to_json_line();
        let text = format!("{good}\n\nnot json\n");
        let err = parse_trace(&text).unwrap_err();
        assert!(err.starts_with("line 3:"), "err={err}");
        let ok = parse_trace(&format!("{good}\n")).unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn backfill_rejections_compress_only_same_reason() {
        let reject = |i: u64, reason| {
            rec(
                i,
                0,
                TraceEvent::BackfillDecision {
                    job: 1,
                    accepted: false,
                    reason,
                },
            )
        };
        let trace = vec![
            rec(
                0,
                0,
                TraceEvent::JobQueued {
                    job: 1,
                    nodes: 1,
                    walltime_s: 60,
                    resubmit: false,
                },
            ),
            reject(1, BackfillReason::NoStartNow),
            reject(2, BackfillReason::WouldDelayProtected),
        ];
        let text = explain_job(&trace, 1).unwrap();
        // Different reasons stay as separate lines.
        assert!(text.contains("no-feasible-start-now"));
        assert!(text.contains("would-delay-protected-reservation"));
    }
}
