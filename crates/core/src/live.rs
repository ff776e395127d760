//! Live (externally-driven) scheduling: the engine loop stepped by
//! injected events instead of owned by the sim.
//!
//! A batch run ([`crate::SimulationBuilder::run`]) knows its whole trace
//! up front: `prepare` seeds every `Submit` event, the engine drains the
//! queue, `finish_run` asserts the world is empty. A *live* scheduler is
//! the same world and the same event loop with that ownership inverted —
//! an external driver (the `amjs serve` daemon, a test harness, a future
//! resource-manager plugin) admits jobs as they arrive, advances
//! simulated time to track a real clock, and queries state between
//! steps. Nothing in the scheduling core changes: score, window search,
//! backfill, tuning, failure injection, and the PR-2 invariants all run
//! exactly as in batch mode, which is what makes the live process a
//! digital twin rather than a reimplementation.
//!
//! Durability is snapshot-shaped: [`LiveScheduler::encode`] writes the
//! run-state snapshot codec (column frames, then the META/WORLD/QUEUE head)
//! plus one trailing LIVE section for the driver-side facts (job-id
//! allocator, live clock). Decoding a payload restores a scheduler that
//! evolves byte-identically to the original — the property the serve
//! daemon's crash recovery is built on; the daemon's rotating snapshots
//! are [`LiveScheduler::encode_since`] deltas of the same listing.
//! `WHATIF` speculation does not go through the codec:
//! [`LiveScheduler::fork`] copies the live half of the state in memory
//! and leaves the history behind.

use amjs_platform::Platform;
use amjs_sim::{
    ColumnWriter, Columns, Engine, EventQueue, SimDuration, SimTime, SnapError, SnapReader,
    SnapWriter, Snapshot, StateHash,
};
use amjs_workload::{Job, JobId};

use crate::persist::{self, SnapshotHeader};
use crate::runner::{
    finish_run, Ev, InvariantOracle, JobOutcome, PreparedRun, Runner, SimulationBuilder,
    SimulationOutcome,
};
use crate::state::{LiveState, RunConfig, RunMeta};

/// Section tag for the live-mode trailer appended after the
/// META/WORLD/QUEUE sections (1–3; 5 is `persist`'s column frame).
const SEC_LIVE: u32 = 4;

/// Why a submission was refused at admission time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The request can never be placed on this machine; queueing it
    /// would strand it forever.
    TooLarge {
        /// Rounded allocation the request maps to.
        nodes: u32,
        /// Installed machine capacity.
        capacity: u32,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::TooLarge { nodes, capacity } => {
                write!(f, "job needs {nodes} nodes, machine has {capacity}")
            }
        }
    }
}

/// Where a job is in its lifecycle, as seen between engine steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the scheduler queue at this 0-based position.
    Queued {
        /// Position in the wait queue (0 = head).
        position: usize,
    },
    /// Currently allocated and running.
    Running {
        /// When this attempt started.
        start: SimTime,
        /// `start + walltime` — the scheduler's planned end.
        expected_end: SimTime,
    },
    /// Finished; the record is final.
    Finished {
        /// Actual start time.
        start: SimTime,
        /// Actual end time.
        end: SimTime,
    },
    /// Admitted (possibly in retry backoff after a node failure) but not
    /// currently queued or running — it will reappear as the clock
    /// advances.
    Pending,
    /// Never admitted, or canceled/abandoned and forgotten.
    Unknown,
}

/// The answer to a `WHATIF` query: when would this queued job start?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WhatIfAnswer {
    /// The job already started (live state, no speculation needed).
    AlreadyStarted(SimTime),
    /// Speculative fast-forward saw the job start at this time.
    PredictedStart(SimTime),
    /// The speculative sim ran to the horizon without the job starting.
    NoStartWithin(SimDuration),
    /// The job is not known to the scheduler.
    UnknownJob,
}

/// Instantaneous live-state counters and signals, for dashboards and
/// `STATS`-style replies. All derived from the world between steps —
/// cheap to produce, safe to call at any cadence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LiveStateStats {
    /// Jobs waiting in the scheduler queue.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Jobs finished since genesis.
    pub finished: usize,
    /// Jobs abandoned (canceled, or retry budget exhausted).
    pub abandoned: usize,
    /// Jobs in failure-retry backoff.
    pub in_backoff: usize,
    /// Jobs admitted whose `Submit` event has not yet been handled.
    pub unsubmitted: usize,
    /// Aggregate queue demand in minutes (paper's queue-depth signal).
    pub queue_depth_mins: f64,
    /// Instantaneous utilization of available capacity.
    pub util_instant: f64,
    /// Trailing 1 h utilization.
    pub util_1h: f64,
    /// Trailing 10 h utilization.
    pub util_10h: f64,
    /// Trailing 24 h utilization.
    pub util_24h: f64,
    /// Nodes currently out of service.
    pub down_nodes: u64,
    /// The `(BF, W)` policy currently in force (moves when the adaptive
    /// tuner is active).
    pub policy: crate::PolicyParams,
}

/// A scheduler stepped by injected events on an external clock.
///
/// Constructed from a [`SimulationBuilder`] (usually with an empty
/// trace), the scheduler interleaves three kinds of calls, all
/// single-threaded by design — concurrency belongs to the daemon layer:
///
/// - **mutations**: [`submit`](Self::submit), [`cancel`](Self::cancel),
///   [`advance_to`](Self::advance_to);
/// - **queries**: [`status`](Self::status), [`stats`](Self::stats),
///   [`whatif_start`](Self::whatif_start) (speculation runs on a
///   [`fork`](Self::fork); live state is never touched);
/// - **durability**: [`encode`](Self::encode) / [`decode`](Self::decode)
///   round-trip the complete state byte-identically.
pub struct LiveScheduler<P: Platform + Snapshot> {
    world: Runner<P>,
    queue: EventQueue<Ev>,
    meta: RunMeta,
    fingerprint: u64,
    /// Global engine event index (continues across encode/decode).
    event_index: u64,
    /// The live clock: the latest `advance_to` horizon. Admissions are
    /// stamped at this time.
    now: SimTime,
    /// Allocator for externally-submitted job ids.
    next_job_id: u64,
}

impl<P: Platform + Snapshot> LiveScheduler<P> {
    /// Build a live scheduler from a configured builder. Any jobs on the
    /// builder become a pre-seeded trace (their `Submit` events fire as
    /// time advances); an empty trace is the common daemon case.
    pub fn from_builder(builder: SimulationBuilder<P>) -> Self {
        let PreparedRun { world, queue, meta } = builder.prepare();
        let fingerprint = persist::run_fingerprint(&world, &queue, &meta);
        let next_job_id = world
            .live
            .trace_jobs()
            .iter()
            .map(|j| j.id.0 + 1)
            .max()
            .unwrap_or(0);
        LiveScheduler {
            world,
            queue,
            meta,
            fingerprint,
            event_index: 0,
            now: SimTime::ZERO,
            next_job_id,
        }
    }

    /// The live clock (latest `advance_to` horizon).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Global engine event index: how many events have been handled
    /// since genesis, across encode/decode cycles.
    pub fn event_index(&self) -> u64 {
        self.event_index
    }

    /// The run fingerprint (FNV-1a over genesis state) — stamps this
    /// scheduler's snapshots and WALs so recovery refuses foreign state.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Digest of the live state (machine occupancy, queue, running set,
    /// RNG cursors, counters) — the recovery proof compares this across
    /// a crash/restore boundary.
    pub fn state_hash(&self) -> u64 {
        self.world.state_hash()
    }

    /// Short platform name tag (`"flat"`, `"bgp"`).
    pub fn platform_name(&self) -> &'static str {
        self.world.live.platform_name()
    }

    /// Handle all events up to and including simulated time `t`, leaving
    /// later events queued. Returns the number of events handled. The
    /// clock is monotonic: `t` must not precede the current
    /// [`now`](Self::now).
    ///
    /// # Panics
    /// Panics on clock regression, or (when the invariant oracle is
    /// enabled) on any invariant violation — same contract as batch runs.
    pub fn advance_to(&mut self, t: SimTime) -> u64 {
        assert!(
            t >= self.now,
            "live clock regression: advance_to({t:?}) after {:?}",
            self.now
        );
        let engine = Engine::new().with_horizon(t).starting_at(self.event_index);
        let stats = if self.meta.oracle_enabled {
            let mut oracle = InvariantOracle {
                failure_seed: self.meta.failure_seed,
            };
            engine.run_with_oracle(&mut self.world, &mut self.queue, &mut oracle)
        } else {
            engine.run(&mut self.world, &mut self.queue)
        };
        self.event_index += stats.events_processed;
        self.now = t;
        stats.events_processed
    }

    /// Admit a job now. Walltime and runtime are clamped by
    /// [`Job::new`]; a request larger than the machine is refused
    /// outright. The returned id is this scheduler's handle for
    /// `STATUS`/`CANCEL`/`WHATIF`.
    ///
    /// The `Submit` event is scheduled at [`now`](Self::now) and handled
    /// on the next [`advance_to`](Self::advance_to) — admission is
    /// deliberately not a scheduling pass, so a burst of submissions
    /// coalesces into one pass when time next moves.
    pub fn submit(
        &mut self,
        nodes: u32,
        walltime: SimDuration,
        runtime: Option<SimDuration>,
        user: u32,
    ) -> Result<JobId, SubmitError> {
        if !self.world.live.fits_machine(nodes.max(1)) {
            return Err(SubmitError::TooLarge {
                nodes: nodes.max(1),
                capacity: self.world.live.machine_capacity(),
            });
        }
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;
        // In live mode the runtime is unknown at submission; the twin
        // plans with the estimate (runtime = walltime) unless told
        // otherwise.
        let job = Job::new(
            id,
            self.now,
            nodes,
            walltime,
            runtime.unwrap_or(walltime),
            user,
        );
        self.world.admit_job(self.now, job, &mut self.queue);
        Ok(id)
    }

    /// Cancel a *queued* job. Returns `true` when the job was removed
    /// from the wait queue (it is accounted as abandoned); `false` when
    /// it is not cancelable — running, finished, or unknown. Killing a
    /// running job is a different operation (it releases nodes and
    /// triggers retry policy) and is deliberately not exposed here.
    pub fn cancel(&mut self, id: JobId) -> bool {
        self.world.cancel_queued(id)
    }

    /// Where `id` is in its lifecycle right now.
    pub fn status(&self, id: JobId) -> JobStatus {
        if let Some(position) = self.world.live.queue_position(id) {
            return JobStatus::Queued { position };
        }
        if let Some((start, expected_end)) = self.world.live.running_span(id) {
            return JobStatus::Running {
                start,
                expected_end,
            };
        }
        if let Some(o) = self.world.outcome_of(id) {
            return JobStatus::Finished {
                start: o.start,
                end: o.end,
            };
        }
        // Admitted but not yet queued/running/finished: either the
        // `Submit` event has not fired yet, or the job is in retry
        // backoff (`Resubmit` pending). Canceled and abandoned jobs
        // have no pending event and fall through to `Unknown`.
        let pending = self.queue.iter().any(|e| match e.payload {
            Ev::Submit(i) | Ev::Resubmit(i) => self.world.live.trace_jobs()[i].id == id,
            _ => false,
        });
        if pending {
            return JobStatus::Pending;
        }
        JobStatus::Unknown
    }

    /// The finished-job record for `id`, if it completed.
    pub fn outcome(&self, id: JobId) -> Option<&JobOutcome> {
        self.world.outcome_of(id)
    }

    /// Instantaneous counters and signals for dashboards.
    pub fn stats(&self) -> LiveStateStats {
        let (queued, running, finished, abandoned, in_backoff, unsubmitted) =
            self.world.live.occupancy();
        let (queue_depth_mins, util_instant, util_1h, util_10h, util_24h, down_nodes) =
            self.world.live.live_signals(self.now);
        LiveStateStats {
            queued,
            running,
            finished,
            abandoned,
            in_backoff,
            unsubmitted,
            queue_depth_mins,
            util_instant,
            util_1h,
            util_10h,
            util_24h,
            down_nodes,
            policy: self.world.live.current_policy(),
        }
    }

    /// Run the PR-2 invariant suite over the live state, returning the
    /// first violation as a message. The daemon calls this on a cadence
    /// even when the per-event oracle is off.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.world.live.check_invariants(self.now)
    }

    /// Answer "when would this job start?": from [`status`](Self::status)
    /// if the job has started or is unknown, otherwise by fast-forwarding
    /// a [`fork`](Self::fork) up to `horizon` ahead, optionally under a
    /// pinned `(BF, W)` policy override (adaptive tuning is disabled in
    /// the fork so the answer is about exactly that policy). Live state
    /// is never touched. Always `Ok`: a fork cannot fail, but the pinned
    /// benchmark matches on the `Result`.
    pub fn whatif_start(
        &self,
        id: JobId,
        bf: Option<f64>,
        window: Option<usize>,
        horizon: SimDuration,
    ) -> Result<WhatIfAnswer, SnapError> {
        Ok(self
            .settled_whatif(id)
            .unwrap_or_else(|| self.fork().speculate_start(id, bf, window, horizon)))
    }

    /// The what-if answers that need no speculation: the job has already
    /// started, or is not known. `None` means "fork and look".
    pub fn settled_whatif(&self, id: JobId) -> Option<WhatIfAnswer> {
        match self.status(id) {
            JobStatus::Running { start, .. } | JobStatus::Finished { start, .. } => {
                Some(WhatIfAnswer::AlreadyStarted(start))
            }
            JobStatus::Unknown => Some(WhatIfAnswer::UnknownJob),
            JobStatus::Queued { .. } | JobStatus::Pending => None,
        }
    }

    /// Copy what the next decision reads — machine, queue, running set,
    /// pending events, clock — and none of the history. The copy is
    /// `Send`: make it where the scheduler lives, speculate elsewhere.
    pub fn fork(&self) -> LiveFork<P> {
        let (live, config) = self.world.fork_state();
        LiveFork {
            live,
            config,
            queue: self.queue.clone(),
            meta: self.meta.clone(),
            fingerprint: self.fingerprint,
            event_index: self.event_index,
            now: self.now,
            next_job_id: self.next_job_id,
        }
    }

    /// The mutating half of [`whatif_start`](Self::whatif_start): run
    /// the speculation *on this instance*, consuming its future.
    pub fn speculate_start(
        &mut self,
        id: JobId,
        bf: Option<f64>,
        window: Option<usize>,
        horizon: SimDuration,
    ) -> WhatIfAnswer {
        if let Some(answer) = self.settled_whatif(id) {
            return answer;
        }
        // Pin the policy even without overrides: the question is "when,
        // under this policy", not "when, if the tuner drifts".
        self.world.pin_policy(bf, window);
        let deadline = self.now.saturating_add(horizon);
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.advance_to(t);
                    if let Some((start, _)) = self.world.live.running_span(id) {
                        return WhatIfAnswer::PredictedStart(start);
                    }
                    if let Some(o) = self.world.outcome_of(id) {
                        return WhatIfAnswer::PredictedStart(o.start);
                    }
                }
                _ => return WhatIfAnswer::NoStartWithin(horizon),
            }
        }
    }

    /// Serialize the complete live state, self-contained: one frame of
    /// every column from zero, then the head — the run-state snapshot
    /// sections (META/WORLD/QUEUE) plus a LIVE trailer (id allocator,
    /// live clock). [`decode`](Self::decode) restores a scheduler that
    /// evolves byte-identically.
    pub fn encode(&self) -> Vec<u8> {
        persist::full_payload(|w| self.encode_columns(w))
    }

    /// The two halves of [`encode`](Self::encode) apart, the frame
    /// carrying only what the columns gained since the cursor `since`:
    /// `(head, frame, cursor of this state)`. The head is a few KB
    /// whatever the script's length; heads and frames taken in a chain
    /// of cursors decode through [`decode_parts`](Self::decode_parts).
    pub fn encode_since(&self, since: &Columns) -> (Vec<u8>, Vec<u8>, Columns) {
        let (mut head, mut frame) = (SnapWriter::new(), SnapWriter::new());
        let mut w = ColumnWriter::new(&mut head, &mut frame, since);
        self.encode_columns(&mut w);
        let next = w.finish();
        (head.into_bytes(), frame.into_bytes(), next)
    }

    fn encode_columns(&self, w: &mut ColumnWriter<'_>) {
        persist::encode_state(
            &self.world,
            &self.queue,
            self.fingerprint,
            self.event_index,
            self.now,
            &self.meta,
            w,
        );
        w.head.section(SEC_LIVE, |w| {
            w.put_u64(self.next_job_id);
            self.now.encode(w);
        });
    }

    /// Restore a scheduler from [`encode`](Self::encode) bytes. The
    /// caller dispatches on [`peek_platform`] to pick the concrete `P`.
    pub fn decode(payload: &[u8]) -> Result<Self, SnapError> {
        let (frames, head) = persist::split_payload(payload)?;
        Ok(Self::decode_parts(head, &frames)?.0)
    }

    /// Restore a scheduler from a head and every frame written since
    /// the columns were empty, oldest first; also returns the cursor the
    /// next [`encode_since`](Self::encode_since) continues from. A head
    /// whose column counts are not exactly what the frames hold is
    /// [`SnapError::Malformed`].
    pub fn decode_parts(head: &[u8], frames: &[&[u8]]) -> Result<(Self, Columns), SnapError> {
        let mut r = SnapReader::new(head);
        let (header, world, queue, columns) = persist::decode_state_from::<P>(&mut r, frames)?;
        let (next_job_id, now) = r.section(SEC_LIVE, |r| {
            let next_job_id = r.get_u64()?;
            let now = Snapshot::decode(r)?;
            Ok((next_job_id, now))
        })?;
        let SnapshotHeader {
            fingerprint,
            event_index,
            meta,
            ..
        } = header;
        let sched = LiveScheduler {
            world,
            queue,
            meta,
            fingerprint,
            event_index,
            now,
            next_job_id,
        };
        Ok((sched, columns))
    }

    /// Drain the live scheduler into a batch-style
    /// [`SimulationOutcome`]: advance until every admitted job has
    /// finished (or the failure-retry policy abandoned it), then run the
    /// same summary tail as a batch run. Consumes the scheduler — this
    /// is the `SHUTDOWN --report` path and the test bridge to batch
    /// equivalence.
    pub fn drain_into_outcome(mut self) -> SimulationOutcome {
        while let Some(t) = self.queue.peek_time() {
            self.advance_to(t);
        }
        let end = self.now;
        finish_run(self.world, end, self.meta)
    }
}

/// A [`LiveScheduler::fork`]: the live half of a scheduler's state, with
/// no observer in it, so it can cross to a worker thread. There it
/// becomes a scheduler in the state a decode of the parent's snapshot
/// would be in — observer off, caches cold — minus the history: a job
/// that finished before the fork is unknown to it (ask the parent's
/// [`LiveScheduler::settled_whatif`] first, as `whatif_start` does).
pub struct LiveFork<P: Platform + Snapshot> {
    live: LiveState<P>,
    config: RunConfig,
    queue: EventQueue<Ev>,
    meta: RunMeta,
    fingerprint: u64,
    event_index: u64,
    now: SimTime,
    next_job_id: u64,
}

impl<P: Platform + Snapshot> LiveFork<P> {
    /// [`LiveScheduler::speculate_start`] on the forked state.
    pub fn speculate_start(
        self,
        id: JobId,
        bf: Option<f64>,
        window: Option<usize>,
        horizon: SimDuration,
    ) -> WhatIfAnswer {
        let mut sched = LiveScheduler {
            world: Runner::from_fork(self.live, self.config),
            queue: self.queue,
            meta: self.meta,
            fingerprint: self.fingerprint,
            event_index: self.event_index,
            now: self.now,
            next_job_id: self.next_job_id,
        };
        sched.speculate_start(id, bf, window, horizon)
    }
}

/// Read the platform name tag (`"flat"`, `"bgp"`) from an encoded
/// payload without decoding the world — the typed-dispatch hook for
/// resuming a daemon from a snapshot file.
pub fn peek_platform(payload: &[u8]) -> Result<String, SnapError> {
    Ok(persist::peek_header(payload)?.platform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyParams;
    use amjs_platform::FlatCluster;
    use amjs_workload::WorkloadSpec;

    fn mins(m: i64) -> SimDuration {
        SimDuration::from_mins(m)
    }

    fn builder(nodes: u32) -> SimulationBuilder<FlatCluster> {
        SimulationBuilder::new(FlatCluster::new(nodes), Vec::new())
            .policy(PolicyParams::new(0.5, 4))
    }

    #[test]
    fn submit_runs_and_finishes() {
        let mut live = LiveScheduler::from_builder(builder(64));
        let id = live.submit(16, mins(30), Some(mins(10)), 1).unwrap();
        assert_eq!(live.status(id), JobStatus::Pending);
        live.advance_to(SimTime::ZERO + mins(1));
        assert!(matches!(live.status(id), JobStatus::Running { .. }));
        live.advance_to(SimTime::ZERO + mins(60));
        match live.status(id) {
            JobStatus::Finished { start, end } => {
                assert_eq!(end - start, mins(10));
            }
            s => panic!("expected finished, got {s:?}"),
        }
        live.check_invariants().unwrap();
    }

    #[test]
    fn admission_into_idle_world_revives_event_chains() {
        let mut live = LiveScheduler::from_builder(builder(64));
        // First job: runs and drains completely — the tick chain dies.
        let a = live.submit(8, mins(10), Some(mins(5)), 1).unwrap();
        live.advance_to(SimTime::ZERO + SimDuration::from_hours(2));
        assert!(matches!(live.status(a), JobStatus::Finished { .. }));
        assert!(live.queue.is_empty(), "idle world should have no events");
        // Second job admitted into the now-idle world must still run.
        let b = live.submit(8, mins(10), Some(mins(5)), 2).unwrap();
        live.advance_to(SimTime::ZERO + SimDuration::from_hours(4));
        assert!(matches!(live.status(b), JobStatus::Finished { .. }));
        live.check_invariants().unwrap();
    }

    #[test]
    fn no_duplicate_tick_chain_on_back_to_back_submits() {
        let mut live = LiveScheduler::from_builder(builder(64));
        live.submit(8, mins(10), None, 1).unwrap();
        live.submit(8, mins(10), None, 2).unwrap();
        let ticks = live
            .queue
            .iter()
            .filter(|e| matches!(e.payload, Ev::Tick))
            .count();
        assert_eq!(ticks, 1, "one tick chain, not one per admission");
    }

    #[test]
    fn live_replay_of_trace_matches_batch_run() {
        let jobs = WorkloadSpec::small_test().generate(0xA11CE);
        let machine = 1024;

        let batch = SimulationBuilder::new(FlatCluster::new(machine), jobs.clone())
            .policy(PolicyParams::new(0.5, 4))
            .run();

        let mut live = LiveScheduler::from_builder(
            SimulationBuilder::new(FlatCluster::new(machine), Vec::new())
                .policy(PolicyParams::new(0.5, 4)),
        );
        for job in &jobs {
            if live.now() < job.submit {
                live.advance_to(job.submit);
            }
            live.submit(job.nodes, job.walltime, Some(job.runtime), job.user)
                .unwrap();
        }
        let outcome = live.drain_into_outcome();

        // Same jobs, same order, same times — identical schedule. (Tick
        // phases differ, but sampling doesn't influence decisions.)
        assert_eq!(outcome.per_job, batch.per_job);
        assert_eq!(outcome.summary.avg_wait_mins, batch.summary.avg_wait_mins);
        // The phase-shifted final tick moves the makespan endpoint by up
        // to one sample interval, so utilization only matches to ~1e-3.
        assert!(
            (outcome.summary.avg_utilization - batch.summary.avg_utilization).abs() < 1e-2,
            "live {} vs batch {}",
            outcome.summary.avg_utilization,
            batch.summary.avg_utilization
        );
    }

    #[test]
    fn cancel_only_removes_queued_jobs() {
        let mut live = LiveScheduler::from_builder(builder(16));
        // Fill the machine so the second job queues.
        let a = live.submit(16, mins(60), None, 1).unwrap();
        let b = live.submit(16, mins(60), None, 2).unwrap();
        live.advance_to(SimTime::ZERO + mins(1));
        assert!(matches!(live.status(a), JobStatus::Running { .. }));
        assert!(matches!(live.status(b), JobStatus::Queued { .. }));
        assert!(!live.cancel(a), "running jobs are not cancelable");
        assert!(live.cancel(b));
        assert_eq!(live.status(b), JobStatus::Unknown);
        assert!(!live.cancel(b), "double cancel is a no-op");
        live.check_invariants().unwrap();
        assert_eq!(live.stats().abandoned, 1);
    }

    #[test]
    fn oversized_submission_is_refused() {
        let mut live = LiveScheduler::from_builder(builder(64));
        let err = live.submit(65, mins(10), None, 1).unwrap_err();
        assert!(matches!(err, SubmitError::TooLarge { .. }));
        assert_eq!(live.stats().unsubmitted, 0);
    }

    #[test]
    fn encode_decode_round_trips_and_evolves_identically() {
        let mut live = LiveScheduler::from_builder(builder(128));
        for u in 0..6 {
            live.submit(32, mins(45), Some(mins(20)), u).unwrap();
        }
        live.advance_to(SimTime::ZERO + mins(10));

        let bytes = live.encode();
        let mut restored = LiveScheduler::<FlatCluster>::decode(&bytes).unwrap();
        assert_eq!(restored.encode(), bytes, "re-encode is byte-identical");
        assert_eq!(restored.state_hash(), live.state_hash());
        assert_eq!(restored.event_index(), live.event_index());

        // Both copies must evolve identically, including new admissions
        // (the id allocator is part of the codec).
        let t = SimTime::ZERO + mins(30);
        let id1 = live.submit(16, mins(15), None, 9).unwrap();
        let id2 = restored.submit(16, mins(15), None, 9).unwrap();
        assert_eq!(id1, id2);
        live.advance_to(t);
        restored.advance_to(t);
        assert_eq!(restored.state_hash(), live.state_hash());
        assert_eq!(restored.encode(), live.encode());
    }

    #[test]
    fn whatif_predicts_start_without_touching_live_state() {
        let mut live = LiveScheduler::from_builder(builder(16));
        let a = live.submit(16, mins(60), Some(mins(60)), 1).unwrap();
        let b = live.submit(16, mins(30), None, 2).unwrap();
        live.advance_to(SimTime::ZERO + mins(1));
        assert!(matches!(live.status(b), JobStatus::Queued { .. }));

        let before = live.encode();
        // b can only start when a's walltime expires (t = 1min + 60min
        // from a's start at 1min → starts at ~61min).
        let predicted = live
            .whatif_start(b, None, None, SimDuration::from_hours(12))
            .unwrap();
        match predicted {
            WhatIfAnswer::PredictedStart(t) => {
                assert!(
                    t >= SimTime::ZERO + mins(60),
                    "b starts after a ends, got {t:?}"
                );
            }
            ans => panic!("expected a predicted start, got {ans:?}"),
        }
        // A horizon past the end of time saturates instead of wrapping
        // the deadline negative (which answered NOSTART at once).
        assert_eq!(
            live.whatif_start(b, None, None, SimDuration::MAX).unwrap(),
            predicted
        );
        // a is running (its Submit fired at t=0): whatif reports the
        // actual start, no speculation.
        assert_eq!(
            live.whatif_start(a, None, None, mins(5)).unwrap(),
            WhatIfAnswer::AlreadyStarted(SimTime::ZERO)
        );
        // An unknown id answers cleanly.
        assert_eq!(
            live.whatif_start(JobId(999), None, None, mins(5)).unwrap(),
            WhatIfAnswer::UnknownJob
        );
        // A too-short horizon answers NoStartWithin.
        assert_eq!(
            live.whatif_start(b, None, None, mins(2)).unwrap(),
            WhatIfAnswer::NoStartWithin(mins(2))
        );
        assert_eq!(
            live.encode(),
            before,
            "speculation must not touch live state"
        );
    }

    #[test]
    fn peek_platform_reads_tag_without_world_decode() {
        let live = LiveScheduler::from_builder(builder(8));
        assert_eq!(peek_platform(&live.encode()).unwrap(), "flat");
    }
}
