//! Observability guarantees, end to end:
//!
//! * **zero cost** — attaching no sink leaves every simulation output
//!   byte-identical, and attaching a sink never perturbs the outcome,
//!   across schemes × failure specs;
//! * **determinism** — two same-seed traced runs produce byte-identical
//!   JSONL trace files;
//! * **explain** — the reconstructed decision chain is internally
//!   consistent: score components sum to the recorded priority and
//!   backfill outcomes match their reasons.

use std::cell::RefCell;
use std::rc::Rc;

use amjs::core::failures::{FailureSpec, RepairSpec, RetryPolicy};
use amjs::obs::{explain_job, parse_trace, BackfillReason, JsonlSink, TraceEvent};
use amjs::prelude::*;

/// The policy/failure grid the zero-cost guarantee is checked on.
fn configs() -> Vec<(
    PolicyParams,
    AdaptiveScheme,
    Option<FailureSpec>,
    &'static str,
)> {
    let failures = FailureSpec {
        node_mtbf: SimDuration::from_hours(200),
        repair: RepairSpec::Deterministic(SimDuration::from_hours(1)),
        seed: 9,
    };
    vec![
        (PolicyParams::fcfs(), AdaptiveScheme::none(), None, "fcfs"),
        (
            PolicyParams::new(0.5, 2),
            AdaptiveScheme::none(),
            None,
            "balanced",
        ),
        (
            PolicyParams::new(0.25, 4),
            AdaptiveScheme::two_d(1000.0),
            None,
            "adaptive-2d",
        ),
        (
            PolicyParams::new(0.5, 2),
            AdaptiveScheme::none(),
            Some(failures),
            "balanced+failures",
        ),
    ]
}

fn builder(
    policy: PolicyParams,
    scheme: AdaptiveScheme,
    failures: Option<FailureSpec>,
) -> SimulationBuilder<FlatCluster> {
    let jobs = WorkloadSpec::small_test().generate(42);
    SimulationBuilder::new(FlatCluster::new(640), jobs)
        .policy(policy)
        .adaptive(scheme)
        .failures(failures)
        .retry_policy(RetryPolicy {
            max_attempts: Some(4),
            backoff_base: SimDuration::from_mins(5),
        })
}

fn fingerprint(out: &SimulationOutcome) -> (String, Vec<amjs::core::runner::JobOutcome>, u64, u64) {
    (
        out.summary.csv_row(),
        out.per_job.clone(),
        out.scheduler_passes,
        out.backfilled_starts,
    )
}

/// Sinks disabled ⇒ `run()` and `run_observed(disabled)` are the same
/// code path; sinks enabled ⇒ the outcome is still byte-identical.
/// Checked across schemes × failure specs.
#[test]
fn tracing_never_perturbs_the_outcome() {
    for (policy, scheme, failures, name) in configs() {
        let plain = builder(policy, scheme.clone(), failures).run();
        let disabled = builder(policy, scheme.clone(), failures)
            .run_observed(Observer::disabled())
            .0;

        let sink = Rc::new(RefCell::new(VecSink::new()));
        let obs = Observer::disabled().with_sink(sink.clone());
        let (traced, _obs) = builder(policy, scheme, failures).run_observed(obs);

        assert_eq!(fingerprint(&plain), fingerprint(&disabled), "{name}");
        assert_eq!(fingerprint(&plain), fingerprint(&traced), "{name}");
        assert!(
            !sink.borrow().records.is_empty(),
            "{name}: traced run recorded nothing"
        );
    }
}

/// Trace records carry non-decreasing engine event indices (the
/// correlation key with oracle tags and other traces), and the failure
/// lifecycle shows up when failures are injected.
#[test]
fn trace_indices_are_monotonic_and_lifecycle_complete() {
    let (_, scheme, failures, _) = configs().remove(3);
    let sink = Rc::new(RefCell::new(VecSink::new()));
    let obs = Observer::disabled().with_sink(sink.clone());
    let (out, _obs) = builder(PolicyParams::new(0.5, 2), scheme, failures).run_observed(obs);

    let records = &sink.borrow().records;
    for pair in records.windows(2) {
        assert!(pair[0].index <= pair[1].index, "indices went backwards");
    }
    let count = |tag: &str| records.iter().filter(|r| r.event.tag() == tag).count();
    assert_eq!(
        count("job_queued"),
        out.summary.jobs_completed + count("job_killed")
    );
    assert_eq!(count("job_finished"), out.summary.jobs_completed);
    assert!(count("node_failed") > 0, "no failures traced");
    assert_eq!(count("node_failed"), count("node_repaired"));
}

/// Two same-seed traced runs produce byte-identical JSONL.
#[test]
fn same_seed_traces_are_byte_identical() {
    let trace_bytes = || {
        let sink = Rc::new(RefCell::new(VecSink::new()));
        let obs = Observer::disabled().with_sink(sink.clone());
        let _ = builder(PolicyParams::new(0.5, 2), AdaptiveScheme::none(), None).run_observed(obs);
        let mut text = String::new();
        for rec in &sink.borrow().records {
            text.push_str(&rec.to_json_line());
            text.push('\n');
        }
        text
    };
    let a = trace_bytes();
    let b = trace_bytes();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed traces differ");
    // And the JSONL round-trips.
    let parsed = parse_trace(&a).unwrap();
    assert_eq!(parsed.len(), a.lines().count());
}

/// The JSONL file sink writes the same bytes as the in-memory records.
#[test]
fn jsonl_sink_matches_in_memory_records() {
    let vec_sink = Rc::new(RefCell::new(VecSink::new()));
    let file_sink = Rc::new(RefCell::new(JsonlSink::new(Vec::<u8>::new())));
    let obs = Observer::disabled().with_sink(vec_sink.clone());
    let _ = builder(PolicyParams::fcfs(), AdaptiveScheme::none(), None).run_observed(obs);
    let obs = Observer::disabled().with_sink(file_sink.clone());
    let _ = builder(PolicyParams::fcfs(), AdaptiveScheme::none(), None).run_observed(obs);
    assert_eq!(
        file_sink.borrow().written(),
        vec_sink.borrow().records.len() as u64
    );
}

/// Golden consistency of the explain pipeline on the quickstart
/// workload: every recorded score satisfies eq. 3
/// (`S_p = BF·S_w + (1−BF)·S_r`), every backfill outcome matches its
/// reason, and the reconstructed timeline mentions the right steps.
#[test]
fn explain_reconstructs_consistent_decision_chains() {
    let sink = Rc::new(RefCell::new(VecSink::new()));
    let obs = Observer::disabled().with_sink(sink.clone());
    let (out, _obs) =
        builder(PolicyParams::new(0.5, 2), AdaptiveScheme::none(), None).run_observed(obs);

    let records = sink.borrow().records.clone();
    let mut scored = 0usize;
    for rec in &records {
        match &rec.event {
            TraceEvent::JobScored {
                s_w,
                s_r,
                bf,
                priority,
                ..
            } => {
                scored += 1;
                let recomputed = bf * s_w + (1.0 - bf) * s_r;
                assert!(
                    (recomputed - priority).abs() < 1e-9,
                    "score components {s_w}/{s_r}/{bf} do not sum to {priority}"
                );
                // Paper scores live on a 0–100 scale (eqs. 1–2).
                assert!((0.0..=100.0).contains(s_w) && (0.0..=100.0).contains(s_r));
            }
            TraceEvent::BackfillDecision {
                accepted, reason, ..
            } => {
                // An accepted backfill always fits now; rejections never
                // carry the accepting reason.
                assert_eq!(*accepted, *reason == BackfillReason::FitsNow);
            }
            _ => {}
        }
    }
    assert!(scored > 0, "no scores traced under balanced ordering");

    // Explain a job that was backfilled and one that was not.
    let backfilled = out.per_job.iter().find(|r| r.backfilled);
    let queued = out.per_job.iter().find(|r| !r.backfilled).unwrap();
    for (rec, via_backfill) in [(queued, false)]
        .into_iter()
        .chain(backfilled.map(|r| (r, true)))
    {
        let text = explain_job(&records, rec.id.0).unwrap();
        assert!(text.contains(&format!("decision chain for job#{}", rec.id.0)));
        assert!(text.contains("queued:"), "missing queue step:\n{text}");
        assert!(text.contains("started on"), "missing start step:\n{text}");
        assert!(text.contains("finished"), "missing finish step:\n{text}");
        if via_backfill {
            assert!(
                text.contains("via backfill") && text.contains("last start was a backfill"),
                "backfill not reflected:\n{text}"
            );
        }
    }

    // A job id that never existed is a clean error.
    assert!(explain_job(&records, 10_000_000).is_err());
}
