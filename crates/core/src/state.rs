//! The event loop's state, and its one field listing.
//!
//! [`Runner`] is `live` ([`LiveState`]: what the next decision reads) +
//! `history` ([`History`]: what only the final report reads) + `config`
//! ([`RunConfig`]: fixed at genesis) + transient caches. The types are
//! here with the codec that writes them — split by growth into a
//! bounded head and append-only columns — and the per-event
//! `state_hash`; the loop that moves them is [`crate::runner`].
//! DESIGN.md §10 has the field-by-field table.

use std::collections::HashMap;

use amjs_metrics::{
    DomainDowntime, FairnessTracker, LossOfCapacity, TimeSeries, UtilizationTracker, WaitStats,
};
use amjs_platform::Platform;
use amjs_sim::{SimDuration, SimTime};
use amjs_workload::{Job, JobId};

use crate::adaptive::AdaptiveScheme;
use crate::estimates::EstimateAdjuster;
use crate::failures::{FailureProcess, RetryPolicy};
use crate::runner::{Ev, JobOutcome, Runner, Running};
use crate::scheduler::Scheduler;

/// Run-level facts that live outside the event loop but are needed to
/// finish — or resume — a run identically: the summary label, the
/// oversized-job count (decided at load), whether the invariant oracle
/// runs, and the failure seed (for replay tags).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RunMeta {
    pub(crate) label: String,
    pub(crate) skipped_oversized: usize,
    pub(crate) oracle_enabled: bool,
    pub(crate) failure_seed: Option<u64>,
}

impl amjs_sim::Snapshot for RunMeta {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        w.put_str(&self.label);
        w.put_usize(self.skipped_oversized);
        w.put_bool(self.oracle_enabled);
        self.failure_seed.encode(w);
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        use amjs_sim::Snapshot;
        Ok(RunMeta {
            label: r.get_str()?,
            skipped_oversized: r.get_usize()?,
            oracle_enabled: r.get_bool()?,
            failure_seed: Snapshot::decode(r)?,
        })
    }
}

/// A reservation the scheduler handed to an EASY-protected queue head:
/// the job must still be startable at `start` once the pass's backfill
/// admissions are on the machine.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Promise {
    pub(crate) id: JobId,
    pub(crate) nodes: u32,
    pub(crate) walltime: SimDuration,
    pub(crate) start: SimTime,
}

/// What the next decision reads — the half of the event-loop state a
/// what-if fork clones and `state_hash` covers (DESIGN.md §10 has the
/// field-by-field table).
#[derive(Clone)]
pub(crate) struct LiveState<P: Platform> {
    pub(crate) platform: P,
    pub(crate) jobs: Vec<Job>,
    pub(crate) scheduler: Scheduler,
    /// Waiting jobs as trace indices, in submission order.
    pub(crate) queue: Vec<usize>,
    pub(crate) running: HashMap<JobId, Running>,
    /// EASY reservations promised by the most recent scheduling pass,
    /// for the oracle's backfill-protection check.
    pub(crate) promised: Vec<Promise>,
    /// When the most recent scheduling pass ran. The protection check
    /// only applies at that instant — later events legitimately reshape
    /// the plan (walltime overruns, new failures) before the next pass.
    pub(crate) last_pass_time: Option<SimTime>,
    /// Per-user walltime-accuracy model (planning estimates).
    pub(crate) estimates: EstimateAdjuster,
    pub(crate) failure_process: Option<FailureProcess>,
    /// Integral of the busy level; the W tuner and the sampler read its
    /// trailing averages.
    pub(crate) util: UtilizationTracker,
    /// Integral of the out-of-service node level ("busy" = down), the
    /// downtime denominator correction for utilization and LoC.
    pub(crate) down_track: UtilizationTracker,
    /// Fair start of every job submitted and not yet started, taken out
    /// at its first start: bounded by the queue, in a fork too.
    pub(crate) fair_starts: HashMap<JobId, SimTime>,
    pub(crate) remaining_submits: usize,
    /// Backoff re-submissions scheduled but not yet delivered (keeps
    /// the failure/tick processes alive while jobs are off-queue).
    pub(crate) pending_resubmits: usize,
    /// Jobs dropped after exhausting [`RetryPolicy::max_attempts`].
    pub(crate) abandoned_jobs: usize,
    /// Jobs completed: `per_job.len()`, except in a fork, whose history
    /// starts empty.
    pub(crate) finished: usize,
    pub(crate) scheduler_passes: u64,
    pub(crate) backfilled_starts: u64,
    pub(crate) interrupted_jobs: u64,
    pub(crate) lost_node_secs: f64,
    /// Next attempt number per interrupted job.
    pub(crate) generations: HashMap<JobId, u32>,
    /// Failures suffered so far, per job (drives the retry policy).
    pub(crate) failure_counts: HashMap<JobId, u32>,
    pub(crate) last_end: SimTime,
}

/// What only the final report reads. A fork starts from
/// [`History::new`], exactly as a run does.
pub(crate) struct History {
    pub(crate) wait: WaitStats,
    pub(crate) fairness: FairnessTracker,
    pub(crate) loc: LossOfCapacity,
    pub(crate) queue_depth: TimeSeries,
    pub(crate) util_instant: TimeSeries,
    pub(crate) util_1h: TimeSeries,
    pub(crate) util_10h: TimeSeries,
    pub(crate) util_24h: TimeSeries,
    pub(crate) bf_series: TimeSeries,
    pub(crate) window_series: TimeSeries,
    pub(crate) availability: TimeSeries,
    /// Out-of-service node count at each check point.
    pub(crate) down_nodes: TimeSeries,
    /// Per-domain fault and downtime accounting.
    pub(crate) domain_downtime: DomainDowntime,
    pub(crate) per_job: Vec<JobOutcome>,
}

impl History {
    /// The empty history of a machine of `total_nodes`, with room for
    /// `jobs` outcome records.
    pub(crate) fn new(total_nodes: u32, jobs: usize) -> Self {
        History {
            wait: WaitStats::new(),
            fairness: FairnessTracker::new(SimDuration::from_secs(60)),
            loc: LossOfCapacity::new(total_nodes),
            queue_depth: TimeSeries::new("queue_depth_mins"),
            util_instant: TimeSeries::new("util_instant"),
            util_1h: TimeSeries::new("util_1h"),
            util_10h: TimeSeries::new("util_10h"),
            util_24h: TimeSeries::new("util_24h"),
            bf_series: TimeSeries::new("balance_factor"),
            window_series: TimeSeries::new("window_size"),
            availability: TimeSeries::new("availability"),
            down_nodes: amjs_metrics::domains::down_nodes_series(),
            domain_downtime: DomainDowntime::new(),
            per_job: Vec::with_capacity(jobs),
        }
    }
}

/// Fixed at genesis: covered by the run fingerprint, not by `state_hash`.
#[derive(Clone)]
pub(crate) struct RunConfig {
    pub(crate) adaptive: AdaptiveScheme,
    pub(crate) sample_interval: SimDuration,
    pub(crate) retry: RetryPolicy,
}

// ---------------------------------------------------------------------------
// Snapshot codecs for the event-loop state.
//
// HashMaps and HashSets are written in canonical (sorted-key) order so
// identical states encode to identical bytes. `Platform` deliberately
// has no `Snapshot` supertrait (test doubles implement `Platform`
// alone); the bound appears only here and on the persistence entry
// points.
// ---------------------------------------------------------------------------

impl amjs_sim::Snapshot for Ev {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        match *self {
            Ev::Submit(idx) => {
                w.put_u8(0);
                w.put_usize(idx);
            }
            Ev::Finish(id, gen) => {
                w.put_u8(1);
                id.encode(w);
                w.put_u32(gen);
            }
            Ev::Fail => w.put_u8(2),
            Ev::Repair(node) => {
                w.put_u8(3);
                w.put_u32(node);
            }
            Ev::Resubmit(idx) => {
                w.put_u8(4);
                w.put_usize(idx);
            }
            Ev::Tick => w.put_u8(5),
        }
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        use amjs_sim::Snapshot;
        match r.get_u8()? {
            0 => Ok(Ev::Submit(r.get_usize()?)),
            1 => Ok(Ev::Finish(Snapshot::decode(r)?, r.get_u32()?)),
            2 => Ok(Ev::Fail),
            3 => Ok(Ev::Repair(r.get_u32()?)),
            4 => Ok(Ev::Resubmit(r.get_usize()?)),
            5 => Ok(Ev::Tick),
            tag => Err(amjs_sim::SnapError::BadTag {
                context: "Ev",
                tag: tag.into(),
            }),
        }
    }
}

impl amjs_sim::Snapshot for Running {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        self.alloc.encode(w);
        w.put_usize(self.trace_idx);
        self.start.encode(w);
        self.expected_end.encode(w);
        w.put_bool(self.backfilled);
        w.put_u32(self.gen);
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        use amjs_sim::Snapshot;
        Ok(Running {
            alloc: Snapshot::decode(r)?,
            trace_idx: r.get_usize()?,
            start: Snapshot::decode(r)?,
            expected_end: Snapshot::decode(r)?,
            backfilled: r.get_bool()?,
            gen: r.get_u32()?,
        })
    }
}

impl amjs_sim::Snapshot for Promise {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        self.id.encode(w);
        w.put_u32(self.nodes);
        self.walltime.encode(w);
        self.start.encode(w);
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        use amjs_sim::Snapshot;
        Ok(Promise {
            id: Snapshot::decode(r)?,
            nodes: r.get_u32()?,
            walltime: Snapshot::decode(r)?,
            start: Snapshot::decode(r)?,
        })
    }
}

impl amjs_sim::Snapshot for JobOutcome {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        self.id.encode(w);
        self.submit.encode(w);
        self.start.encode(w);
        self.end.encode(w);
        w.put_u32(self.nodes);
        w.put_u32(self.user);
        w.put_bool(self.backfilled);
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        use amjs_sim::Snapshot;
        Ok(JobOutcome {
            id: Snapshot::decode(r)?,
            submit: Snapshot::decode(r)?,
            start: Snapshot::decode(r)?,
            end: Snapshot::decode(r)?,
            nodes: r.get_u32()?,
            user: r.get_u32()?,
            backfilled: r.get_bool()?,
        })
    }
}

/// Encode a map as the `Vec<(K, V)>` of its entries in sorted-key
/// order — the same bytes — sorting references rather than cloning the
/// values.
fn encode_sorted<K, V>(map: &HashMap<K, V>, w: &mut amjs_sim::SnapWriter)
where
    K: Ord + Copy + amjs_sim::Snapshot,
    V: amjs_sim::Snapshot,
{
    let mut entries: Vec<(K, &V)> = map.iter().map(|(&k, v)| (k, v)).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    w.put_usize(entries.len());
    for (k, v) in entries {
        k.encode(w);
        v.encode(w);
    }
}

impl<P: Platform + amjs_sim::Snapshot> Runner<P> {
    /// The one field listing of file format v4. Every field is either
    /// bounded — it goes to the head — or a column: a vector only ever
    /// pushed to, of which the head gets the length and the frame the
    /// elements past the writer's cursor. Here, in `decode_columns`'
    /// literals and in `state_hash` the halves are taken apart without a
    /// `..`, so a new field compiles in none of them until each says
    /// where it goes.
    pub(crate) fn encode_columns(&self, w: &mut amjs_sim::ColumnWriter<'_>) {
        use amjs_sim::Snapshot;
        let LiveState {
            platform,
            jobs,
            scheduler,
            queue,
            running,
            promised,
            last_pass_time,
            estimates,
            failure_process,
            util,
            down_track,
            fair_starts,
            remaining_submits,
            pending_resubmits,
            abandoned_jobs,
            finished,
            scheduler_passes,
            backfilled_starts,
            interrupted_jobs,
            lost_node_secs,
            generations,
            failure_counts,
            last_end,
        } = &self.live;
        let History {
            wait,
            fairness,
            loc,
            queue_depth,
            util_instant,
            util_1h,
            util_10h,
            util_24h,
            bf_series,
            window_series,
            availability,
            down_nodes,
            domain_downtime,
            per_job,
        } = &self.history;
        let RunConfig {
            adaptive,
            sample_interval,
            retry,
        } = &self.config;
        // `finished` travels as `per_job`'s length; a fork, where the
        // two differ, has no history worth a snapshot.
        assert_eq!(*finished, per_job.len(), "a fork is not encodable");
        platform.encode(w.head);
        w.column(jobs);
        scheduler.encode(w.head);
        adaptive.encode(w.head);
        queue.encode(w.head);
        encode_sorted(running, w.head);
        wait.encode_columns(w);
        fairness.encode_columns(w);
        encode_sorted(fair_starts, w.head);
        // Format byte: `false` meant "no fair-start drain", which no
        // build can honour any more (decode refuses it).
        w.head.put_bool(true);
        loc.encode(w.head);
        util.encode_columns(w);
        queue_depth.encode_columns(w);
        util_instant.encode_columns(w);
        util_1h.encode_columns(w);
        util_10h.encode_columns(w);
        util_24h.encode_columns(w);
        bf_series.encode_columns(w);
        window_series.encode_columns(w);
        availability.encode_columns(w);
        down_nodes.encode_columns(w);
        domain_downtime.encode(w.head);
        promised.encode(w.head);
        last_pass_time.encode(w.head);
        down_track.encode_columns(w);
        w.column(per_job);
        sample_interval.encode(w.head);
        w.head.put_usize(*remaining_submits);
        w.head.put_u64(*scheduler_passes);
        w.head.put_u64(*backfilled_starts);
        w.head.put_u64(*interrupted_jobs);
        w.head.put_usize(*abandoned_jobs);
        w.head.put_usize(*pending_resubmits);
        w.head.put_f64(*lost_node_secs);
        encode_sorted(generations, w.head);
        encode_sorted(failure_counts, w.head);
        retry.encode(w.head);
        estimates.encode(w.head);
        failure_process.encode(w.head);
        last_end.encode(w.head);
    }

    /// Read back a head and the frames it counts, in the listing's
    /// order.
    pub(crate) fn decode_columns(
        r: &mut amjs_sim::ColumnReader<'_>,
    ) -> Result<Self, amjs_sim::SnapError> {
        use amjs_sim::Snapshot;
        let platform: P = Snapshot::decode(&mut r.head)?;
        let jobs: Vec<Job> = r.column()?;
        let scheduler = Snapshot::decode(&mut r.head)?;
        let adaptive = Snapshot::decode(&mut r.head)?;
        let queue: Vec<usize> = Snapshot::decode(&mut r.head)?;
        let running_entries: Vec<(JobId, Running)> = Snapshot::decode(&mut r.head)?;
        let wait = WaitStats::decode_columns(r)?;
        let fairness = FairnessTracker::decode_columns(r)?;
        let fair_starts: Vec<(JobId, SimTime)> = Snapshot::decode(&mut r.head)?;
        if !r.head.get_bool()? {
            let why = "taken with the fair-start drain switched off, an option since removed";
            return Err(amjs_sim::SnapError::Malformed(why.to_string()));
        }
        let loc = Snapshot::decode(&mut r.head)?;
        let util = UtilizationTracker::decode_columns(r)?;
        let queue_depth = TimeSeries::decode_columns(r)?;
        let util_instant = TimeSeries::decode_columns(r)?;
        let util_1h = TimeSeries::decode_columns(r)?;
        let util_10h = TimeSeries::decode_columns(r)?;
        let util_24h = TimeSeries::decode_columns(r)?;
        let bf_series = TimeSeries::decode_columns(r)?;
        let window_series = TimeSeries::decode_columns(r)?;
        let availability = TimeSeries::decode_columns(r)?;
        let down_nodes = TimeSeries::decode_columns(r)?;
        let domain_downtime = Snapshot::decode(&mut r.head)?;
        let promised = Snapshot::decode(&mut r.head)?;
        let last_pass_time = Snapshot::decode(&mut r.head)?;
        let down_track = UtilizationTracker::decode_columns(r)?;
        let per_job: Vec<JobOutcome> = r.column()?;
        let sample_interval = Snapshot::decode(&mut r.head)?;
        let remaining_submits = r.head.get_usize()?;
        let scheduler_passes = r.head.get_u64()?;
        let backfilled_starts = r.head.get_u64()?;
        let interrupted_jobs = r.head.get_u64()?;
        let abandoned_jobs = r.head.get_usize()?;
        let pending_resubmits = r.head.get_usize()?;
        let lost_node_secs = r.head.get_f64()?;
        let generations: Vec<(JobId, u32)> = Snapshot::decode(&mut r.head)?;
        let failure_counts: Vec<(JobId, u32)> = Snapshot::decode(&mut r.head)?;
        let retry = Snapshot::decode(&mut r.head)?;
        let estimates = Snapshot::decode(&mut r.head)?;
        let failure_process = Snapshot::decode(&mut r.head)?;
        let last_end = Snapshot::decode(&mut r.head)?;

        // Index sanity: a decoded queue or running set referring past
        // the trace would panic deep inside the event loop; reject it
        // here with a diagnosable error instead.
        let n = jobs.len();
        if let Some(&bad) = queue.iter().find(|&&i| i >= n) {
            return Err(amjs_sim::SnapError::Malformed(format!(
                "queued trace index {bad} out of bounds ({n} jobs)"
            )));
        }
        if let Some((id, run)) = running_entries.iter().find(|(_, r)| r.trace_idx >= n) {
            return Err(amjs_sim::SnapError::Malformed(format!(
                "running job {id} trace index {} out of bounds ({n} jobs)",
                run.trace_idx
            )));
        }

        let live = LiveState {
            platform,
            jobs,
            scheduler,
            queue,
            running: running_entries.into_iter().collect(),
            promised,
            last_pass_time,
            estimates,
            failure_process,
            util,
            down_track,
            fair_starts: fair_starts.into_iter().collect(),
            remaining_submits,
            pending_resubmits,
            abandoned_jobs,
            finished: per_job.len(),
            scheduler_passes,
            backfilled_starts,
            interrupted_jobs,
            lost_node_secs,
            generations: generations.into_iter().collect(),
            failure_counts: failure_counts.into_iter().collect(),
            last_end,
        };
        let history = History {
            wait,
            fairness,
            loc,
            queue_depth,
            util_instant,
            util_1h,
            util_10h,
            util_24h,
            bf_series,
            window_series,
            availability,
            down_nodes,
            domain_downtime,
            per_job,
        };
        let config = RunConfig {
            adaptive,
            sample_interval,
            retry,
        };
        Ok(Runner::cold(live, history, config))
    }
}

impl<P: Platform + amjs_sim::Snapshot> amjs_sim::StateHash for Runner<P> {
    /// FNV-1a over [`Runner::hash_image`].
    fn state_hash(&self) -> u64 {
        let mut w = amjs_sim::SnapWriter::new();
        self.hash_image(&mut w);
        amjs_sim::snapshot::fnv1a(w.as_bytes())
    }
}

impl<P: Platform + amjs_sim::Snapshot> Runner<P> {
    /// What `state_hash` digests: the live state, plus three history
    /// lengths (DESIGN.md §10 says why each field is in or out).
    pub(crate) fn hash_image(&self, w: &mut amjs_sim::SnapWriter) {
        use amjs_sim::Snapshot;
        let LiveState {
            platform,
            jobs: _, // append-only: genesis jobs are in the fingerprint, admitted ones in the WAL
            scheduler,
            queue,
            running,
            promised,
            last_pass_time,
            estimates,
            failure_process,
            util: _, // every step is a busy level of the platform, hashed when it was current
            down_track: _, // likewise, of the platform's down set
            fair_starts: _, // read only to write a fairness record, never by a decision
            remaining_submits,
            pending_resubmits,
            abandoned_jobs,
            finished,
            scheduler_passes,
            backfilled_starts,
            interrupted_jobs,
            lost_node_secs,
            generations,
            failure_counts,
            last_end,
        } = &self.live;
        // History is hashed by length only; its bytes are the snapshot
        // round-trip tests' to prove.
        let History {
            wait,
            fairness: _,
            loc: _,
            queue_depth: _,
            util_instant: _,
            util_1h: _,
            util_10h: _,
            util_24h: _,
            bf_series: _,
            window_series: _,
            availability: _,
            down_nodes: _,
            domain_downtime: _,
            per_job: _, // its length is `finished`
        } = &self.history;
        platform.encode(w);
        queue.encode(w);
        encode_sorted(running, w);
        promised.encode(w);
        last_pass_time.encode(w);
        scheduler.encode(w);
        estimates.encode(w);
        failure_process.encode(w);
        w.put_usize(*remaining_submits);
        w.put_usize(*pending_resubmits);
        w.put_usize(*abandoned_jobs);
        w.put_u64(*scheduler_passes);
        w.put_u64(*backfilled_starts);
        w.put_u64(*interrupted_jobs);
        w.put_f64(*lost_node_secs);
        w.put_usize(*finished);
        // Twice: the second used to be the length of a set of the same
        // job ids, and every pinned hash has it mixed in.
        w.put_usize(wait.count());
        w.put_usize(wait.count());
        encode_sorted(generations, w);
        encode_sorted(failure_counts, w);
        // The length of `saved_progress`, empty in every pinned hash.
        w.put_usize(0);
        last_end.encode(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimates::EstimatePolicy;
    use crate::runner::{PreparedRun, SimulationBuilder};
    use amjs_obs::Observer;
    use amjs_platform::FlatCluster;
    use amjs_sim::EventQueue;
    use amjs_workload::WorkloadSpec;

    fn small_jobs(seed: u64) -> Vec<Job> {
        WorkloadSpec::small_test().generate(seed)
    }

    /// Handle the next `n` events, as the engine would without an oracle.
    fn handle_events(world: &mut Runner<FlatCluster>, queue: &mut EventQueue<Ev>, n: usize) {
        for _ in 0..n {
            let e = queue.pop().expect("the run has at least n events");
            world.step(e.time, e.payload, queue, &mut Observer::disabled());
        }
    }

    /// `world`'s head and its one frame from cursor zero.
    fn encoded(world: &Runner<FlatCluster>) -> (Vec<u8>, Vec<u8>) {
        use amjs_sim::{ColumnWriter, Columns, SnapWriter};
        let (mut head, mut frame) = (SnapWriter::new(), SnapWriter::new());
        let since = Columns::default();
        world.encode_columns(&mut ColumnWriter::new(&mut head, &mut frame, &since));
        (head.into_bytes(), frame.into_bytes())
    }

    fn decoded(head: &[u8], frame: &[u8]) -> Result<Runner<FlatCluster>, amjs_sim::SnapError> {
        Runner::decode_columns(&mut amjs_sim::ColumnReader::new(head, &[frame]))
    }

    #[test]
    fn a_snapshot_with_the_fair_start_byte_cleared_is_malformed() {
        use amjs_sim::{ColumnWriter, Columns, SnapError, SnapWriter, Snapshot};
        let world = SimulationBuilder::new(FlatCluster::new(512), small_jobs(11))
            .prepare()
            .world;
        // The byte follows the fair starts in the head: encode up to there.
        let (mut prefix, mut frame) = (SnapWriter::new(), SnapWriter::new());
        let since = Columns::default();
        let mut w = ColumnWriter::new(&mut prefix, &mut frame, &since);
        world.live.platform.encode(w.head);
        w.column(&world.live.jobs);
        world.live.scheduler.encode(w.head);
        world.config.adaptive.encode(w.head);
        world.live.queue.encode(w.head);
        encode_sorted(&world.live.running, w.head);
        world.history.wait.encode_columns(&mut w);
        world.history.fairness.encode_columns(&mut w);
        encode_sorted(&world.live.fair_starts, w.head);
        let (mut head, frame) = encoded(&world);
        let at = prefix.len();
        assert_eq!(head[at], 1);
        head[at] = 0;
        let err = decoded(&head, &frame).err();
        assert!(matches!(&err, Some(SnapError::Malformed(m)) if m.contains("fair-start drain")));
    }

    #[test]
    fn a_head_whose_column_counts_disagree_with_its_frames_is_malformed() {
        use amjs_sim::SnapError;
        let PreparedRun {
            mut world,
            mut queue,
            ..
        } = SimulationBuilder::new(FlatCluster::new(512), small_jobs(11)).prepare();
        let (_, genesis_frame) = encoded(&world);
        handle_events(&mut world, &mut queue, 40);
        let (head, frame) = encoded(&world);
        assert!(decoded(&head, &frame).is_ok());
        // A head beside the frame of another moment: the trace is all
        // there, the history columns are short.
        let err = decoded(&head, &genesis_frame).err();
        assert!(
            matches!(&err, Some(SnapError::Malformed(m)) if m.contains("but the head counts")),
            "{err:?}"
        );
    }

    /// The other direction of the destructure in `state_hash`: a field
    /// it names must actually reach the digest.
    #[test]
    fn every_hashed_live_field_moves_the_state_hash() {
        use crate::failures::{FailureSpec, RepairSpec};
        use amjs_sim::StateHash;
        let PreparedRun {
            mut world,
            mut queue,
            ..
        } = SimulationBuilder::new(FlatCluster::new(512), small_jobs(11))
            .failures(Some(FailureSpec {
                node_mtbf: SimDuration::from_hours(240),
                repair: RepairSpec::Deterministic(SimDuration::from_mins(30)),
                seed: 5,
            }))
            .estimate_policy(EstimatePolicy::user_adaptive())
            .prepare();
        handle_events(&mut world, &mut queue, 40);
        let base = world.state_hash();
        let (head, frame) = encoded(&world);

        type Mutation = fn(&mut LiveState<FlatCluster>);
        let mutations: [(&str, Mutation); 19] = [
            ("platform", |l| {
                l.platform.allocate(1);
            }),
            ("scheduler", |l| l.scheduler.policy.window += 1),
            ("queue", |l| l.queue.push(0)),
            ("running", |l| {
                l.running.values_mut().for_each(|r| r.gen += 1)
            }),
            ("promised", |l| {
                l.promised.push(Promise {
                    id: JobId(0),
                    nodes: 1,
                    walltime: SimDuration::from_hours(1),
                    start: SimTime::ZERO,
                })
            }),
            ("last_pass_time", |l| l.last_pass_time = Some(SimTime::MAX)),
            ("estimates", |l| {
                l.estimates
                    .observe(0, SimDuration::from_hours(9), SimDuration::from_secs(1))
            }),
            ("failure_process", |l| {
                l.failure_process.as_mut().unwrap().draw_fault();
            }),
            ("remaining_submits", |l| l.remaining_submits += 1),
            ("pending_resubmits", |l| l.pending_resubmits += 1),
            ("abandoned_jobs", |l| l.abandoned_jobs += 1),
            ("finished", |l| l.finished += 1),
            ("scheduler_passes", |l| l.scheduler_passes += 1),
            ("backfilled_starts", |l| l.backfilled_starts += 1),
            ("interrupted_jobs", |l| l.interrupted_jobs += 1),
            ("lost_node_secs", |l| l.lost_node_secs += 1.0),
            ("generations", |l| {
                l.generations.insert(JobId(0), 9);
            }),
            ("failure_counts", |l| {
                l.failure_counts.insert(JobId(0), 9);
            }),
            ("last_end", |l| l.last_end = SimTime::MAX),
        ];
        for (field, mutate) in mutations {
            let mut copy = decoded(&head, &frame).unwrap();
            assert_eq!(copy.state_hash(), base, "decode moved the hash");
            assert!(!copy.live.running.is_empty(), "nothing running to mutate");
            mutate(&mut copy.live);
            assert_ne!(copy.state_hash(), base, "`{field}` does not reach the hash");
        }
    }
}
