//! The snapshot codec's contracts, which the serve daemon's crash
//! recovery stands on.
//!
//! The strongest one: a [`LiveScheduler`] stepped to any point, encoded
//! and decoded, and drained produces a **byte-identical**
//! `SimulationOutcome` (summary CSV row, per-job records, sampled
//! series) to the uninterrupted batch run, across seeds × adaptive
//! schemes × failure specs, on both machine types, with the runtime
//! invariant oracle enabled. On top of that: corrupt snapshot files are
//! rejected by checksum and the store falls back to the previous one
//! with a diagnostic, a decode keeps the run's fingerprint and event
//! index, and a payload decoded as the wrong machine type is an error.

use std::fs;
use std::path::PathBuf;

use amjs::prelude::*;
use amjs_core::failures::{CorrelationSpec, DomainSpec, FailureSpec, RepairSpec, RetryPolicy};
use amjs_core::live::peek_platform;
use amjs_core::LiveScheduler;
use amjs_sim::snapshot::SnapshotStore;
use amjs_sim::Snapshot;

/// A fresh scratch directory under the system temp dir.
fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amjs-persist-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Everything the user can observe from an outcome, as one string.
/// Equal strings ⇒ byte-identical summary, per-job records, and series
/// (Rust's `{:?}` for f64 prints the shortest round-trip repr, so equal
/// text means bit-equal floats).
fn outcome_digest(out: &SimulationOutcome) -> String {
    let series = [
        &out.queue_depth,
        &out.util_instant,
        &out.util_1h,
        &out.bf_series,
        &out.window_series,
        &out.availability,
        &out.down_nodes,
    ];
    format!(
        "{}\n{:?}\n{}\npasses={} backfilled={} interrupted={}",
        out.summary.csv_row(),
        out.per_job,
        amjs::metrics::series::to_csv(&series),
        out.scheduler_passes,
        out.backfilled_starts,
        out.interrupted_jobs,
    )
}

/// One configuration point of the test grid.
#[derive(Clone, Copy)]
struct Case {
    seed: u64,
    adaptive: bool,
    failures: bool,
}

impl Case {
    fn label(&self) -> String {
        format!(
            "seed{}-{}-{}",
            self.seed,
            if self.adaptive { "2d" } else { "static" },
            if self.failures { "faulty" } else { "clean" }
        )
    }

    /// The case on a 512-node flat machine.
    fn builder(&self) -> SimulationBuilder<FlatCluster> {
        let domains = DomainSpec {
            midplane_nodes: 64,
            midplanes_per_rack: 2,
            racks_per_power_domain: 2,
        };
        self.configure(FlatCluster::new(512), 1, domains, 400)
    }

    /// The case on a 4096-node BG/P (eight 512-node midplanes) with
    /// partition-sized jobs, so failures drain whole midplanes and
    /// cascade across racks and power domains.
    fn bgp_builder(&self) -> SimulationBuilder<BgpCluster> {
        let domains = DomainSpec {
            midplane_nodes: 512,
            midplanes_per_rack: 2,
            racks_per_power_domain: 2,
        };
        self.configure(BgpCluster::new(8, 512), 8, domains, 3200)
    }

    fn configure<P: Platform>(
        &self,
        platform: P,
        scale: u32,
        domains: DomainSpec,
        node_mtbf_hours: i64,
    ) -> SimulationBuilder<P> {
        let mut spec = WorkloadSpec::small_test();
        spec.span = SimDuration::from_hours(6);
        let mut jobs = spec.generate(self.seed);
        assert!(!jobs.is_empty());
        for j in &mut jobs {
            j.nodes *= scale;
        }
        let mut b = SimulationBuilder::new(platform, jobs)
            .policy(PolicyParams::new(0.5, 2))
            .backfill(BackfillMode::Easy)
            .oracle(true)
            .label(self.label());
        if self.adaptive {
            b = b.adaptive(AdaptiveScheme::two_d(400.0));
        }
        if self.failures {
            b = b
                .failures(Some(FailureSpec {
                    node_mtbf: SimDuration::from_hours(node_mtbf_hours),
                    repair: RepairSpec::LogNormal {
                        mean: SimDuration::from_hours(1),
                        sigma: 0.8,
                    },
                    seed: self.seed ^ 0xFA11,
                }))
                .retry_policy(RetryPolicy {
                    max_attempts: Some(4),
                    backoff_base: SimDuration::from_mins(5),
                })
                .correlated_failures(Some(CorrelationSpec {
                    cascade_prob: 0.4,
                    domains,
                    burst: amjs_core::failures::BurstModel::Weibull { shape: 0.7 },
                }));
        }
        b
    }

    fn grid() -> Vec<Case> {
        let mut cases = Vec::new();
        for seed in [11, 29] {
            for adaptive in [false, true] {
                for failures in [false, true] {
                    cases.push(Case {
                        seed,
                        adaptive,
                        failures,
                    });
                }
            }
        }
        cases
    }
}

/// The simulated times at a quarter, half and three quarters of the
/// way to the run's last job end: every one precedes the last event.
fn slice_points(out: &SimulationOutcome) -> Vec<SimTime> {
    let last = out.per_job.iter().map(|j| j.end.as_secs()).max().unwrap();
    (1..=3).map(|q| SimTime::from_secs(last * q / 4)).collect()
}

/// Step a live scheduler through `slice_points`, replacing it at each
/// one by the decode of its own encoding, then drain it: the outcome
/// must be the uninterrupted batch run's, byte for byte. Returns that
/// run's outcome.
fn assert_decoded_run_matches<P: Platform + Snapshot>(
    builder: impl Fn() -> SimulationBuilder<P>,
    label: &str,
) -> SimulationOutcome {
    let baseline = builder().run();
    let mut live = LiveScheduler::from_builder(builder());
    for t in slice_points(&baseline) {
        live.advance_to(t);
        let before = live.state_hash();
        live = LiveScheduler::decode(&live.encode())
            .unwrap_or_else(|e| panic!("{label}: decode at {t:?} failed: {e}"));
        assert_eq!(
            live.state_hash(),
            before,
            "{label}: decode at {t:?} moved the state"
        );
    }
    assert_eq!(
        outcome_digest(&live.drain_into_outcome()),
        outcome_digest(&baseline),
        "{label}: the decoded scheduler diverged from the uninterrupted run"
    );
    baseline
}

/// The codec's central property, on the flat machine: state decoded at
/// any point evolves exactly as the state that was encoded.
#[test]
fn a_decoded_flat_scheduler_finishes_the_uninterrupted_run() {
    for case in Case::grid() {
        assert_decoded_run_matches(|| case.builder(), &case.label());
    }
}

/// The same on the partitioned machine, where failures drain whole
/// midplanes and cascade through the failure-domain tree.
#[test]
fn a_decoded_bgp_scheduler_finishes_the_uninterrupted_run() {
    let mut interrupted = 0;
    for case in Case::grid() {
        interrupted +=
            assert_decoded_run_matches(|| case.bgp_builder(), &case.label()).interrupted_jobs;
    }
    assert!(interrupted > 0, "no midplane failure hit a running job");
}

/// Corrupt and truncated snapshots are detected by checksum and the
/// store falls back to the previous snapshot with a diagnostic; when
/// nothing valid remains the error names every rejected file.
#[test]
fn corrupt_snapshots_fall_back_with_diagnostics() {
    let case = Case {
        seed: 3,
        adaptive: false,
        failures: false,
    };
    let dir = tempdir("corrupt");
    let baseline = case.builder().run();
    let store = SnapshotStore::new(&dir, 3);
    let mut live = LiveScheduler::from_builder(case.builder());
    store.write(0, &live.encode()).unwrap();
    for t in slice_points(&baseline) {
        live.advance_to(t);
        store.write(live.event_index(), &live.encode()).unwrap();
    }
    let baseline = outcome_digest(&baseline);
    let finish = |payload: &[u8]| {
        let live = LiveScheduler::<FlatCluster>::decode(payload).unwrap();
        outcome_digest(&live.drain_into_outcome())
    };

    let snaps = store.list().unwrap();
    assert!(snaps.len() >= 3, "{snaps:?}");
    let (newest_index, newest) = snaps.last().unwrap().clone();

    // Bit-flip the newest snapshot: loading the latest must reject it
    // (checksum) and fall back, still reproducing the run.
    let mut raw = fs::read(&newest).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x10;
    fs::write(&newest, &raw).unwrap();
    let mut diags = Vec::new();
    let (index, payload, _) = store
        .load_latest(u64::MAX, |d| diags.push(d.to_string()))
        .unwrap();
    assert!(index < newest_index);
    assert_eq!(finish(&payload), baseline);
    assert!(
        diags.iter().any(|d| d.contains("rejecting snapshot")),
        "fallback must be loud, got {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.contains("falling back")),
        "{diags:?}"
    );

    // Truncation is equally fatal for a single file...
    let (_, second) = snaps[snaps.len() - 2].clone();
    let raw = fs::read(&second).unwrap();
    fs::write(&second, &raw[..raw.len() / 3]).unwrap();
    let (index, payload, _) = store.load_latest(u64::MAX, |_| {}).unwrap();
    assert!(index < snaps[snaps.len() - 2].0);
    assert_eq!(finish(&payload), baseline);

    // ...and once every snapshot is damaged, loading refuses with an
    // error that names the rejected files.
    for (_, path) in &snaps {
        let raw = fs::read(path).unwrap();
        if raw.len() > 40 {
            fs::write(path, &raw[..40]).unwrap();
        }
    }
    let err = store.load_latest(u64::MAX, |_| {}).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("snapshot-") && msg.contains(".snap"),
        "error should name the rejected files: {msg}"
    );

    fs::remove_dir_all(&dir).unwrap();
}

/// A decode keeps the run's fingerprint (what recovery checks a WAL
/// and a snapshot against) and its event index; another seed is
/// another run, with another fingerprint.
#[test]
fn fingerprint_and_event_index_survive_a_decode() {
    let case = Case {
        seed: 5,
        adaptive: true,
        failures: true,
    };
    let baseline = case.builder().run();
    let mut live = LiveScheduler::from_builder(case.builder());
    live.advance_to(slice_points(&baseline)[1]);
    assert!(live.event_index() > 0);
    let decoded = LiveScheduler::<FlatCluster>::decode(&live.encode()).unwrap();
    assert_eq!(decoded.fingerprint(), live.fingerprint());
    assert_eq!(decoded.event_index(), live.event_index());
    assert_eq!(decoded.now(), live.now());

    let other = Case { seed: 6, ..case };
    assert_ne!(
        LiveScheduler::from_builder(other.builder()).fingerprint(),
        live.fingerprint()
    );
}

/// A caller picks the machine type from `peek_platform`; decoding as
/// the other type is an error, never a panic.
#[test]
fn a_payload_is_refused_by_the_wrong_platform_type() {
    let case = Case {
        seed: 7,
        adaptive: false,
        failures: true,
    };
    let baseline = case.builder().run();
    let mut live = LiveScheduler::from_builder(case.builder());
    live.advance_to(slice_points(&baseline)[0]);
    let payload = live.encode();
    assert_eq!(peek_platform(&payload).unwrap(), "flat");
    assert!(LiveScheduler::<BgpCluster>::decode(&payload).is_err());
}
