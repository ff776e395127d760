//! Workload definitions and the seeded command scripts they replay.
//!
//! Every workload is one script: month `m` is the canonical Intrepid
//! month perturbed by the seed (see [`Workload::month_jobs`]), shifted by
//! `m` × 30 days and turned into protocol commands in arrival order. The `lib-*` workloads apply the
//! commands to an in-process [`LiveScheduler`]; the `serve-*` workloads
//! send the same lines to a daemon. Month 0 is the untimed warm-up.

use amjs_core::live::{JobStatus, LiveScheduler};
use amjs_core::scheduler::BackfillMode;
use amjs_core::{PolicyParams, SimulationBuilder};
use amjs_platform::Platform;
use amjs_serve::Command;
use amjs_sim::rng::{split_seed, Xoshiro256};
use amjs_sim::{SimDuration, SimTime, Snapshot};
use amjs_workload::{Job, JobId, WorkloadSpec};

/// Horizon every scripted `WHATIF` speculates over, seconds.
pub const WHATIF_HORIZON_SECS: i64 = 86_400;
const MONTH_SECS: i64 = 30 * 24 * 3600;
/// Seed of the trace every existing number in `results/` uses.
const CANONICAL_SEED: u64 = 42;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Machine {
    /// Intrepid's partitioned Blue Gene/P (`PartitionPlan` underneath).
    Bgp,
    /// 40,960 interchangeable nodes (`FlatPlan` underneath).
    Flat,
}

/// One benchmark workload; `name` is its key in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub machine: Machine,
    pub load_factor: f64,
    pub window: usize,
    /// Measured months (the warm-up month 0 comes on top).
    pub months: usize,
    /// Replay over TCP against an in-process daemon.
    pub serve: bool,
    /// Interleave STATUS/STATS/WHATIF/CANCEL/HASH with the writes.
    pub reads: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lib-month",
        machine: Machine::Bgp,
        load_factor: 1.0,
        window: 2,
        // Six, not two: with two the p99 step falls into one of two modes
        // 15 % apart depending on the seed; over six it stays within 5 %.
        months: 6,
        serve: false,
        reads: false,
    },
    Workload {
        name: "lib-window",
        machine: Machine::Flat,
        load_factor: 1.5,
        window: 4,
        months: 1,
        serve: false,
        reads: false,
    },
    Workload {
        name: "serve-write",
        machine: Machine::Bgp,
        load_factor: 1.0,
        window: 2,
        months: 1,
        serve: true,
        reads: false,
    },
    Workload {
        name: "serve-readmix",
        machine: Machine::Bgp,
        load_factor: 1.0,
        window: 2,
        months: 1,
        serve: true,
        reads: true,
    },
];

impl Workload {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec::intrepid_month().with_load_factor(self.load_factor)
    }

    /// Month `m`'s trace for `seed`, shifted to its place on the clock:
    /// the canonical month `generate(42 + m)` — the trace every number
    /// in `results/` was taken on — with each arrival moved by up to
    /// ±30 s (order kept) and each job's user re-drawn from `seed`.
    ///
    /// Freshly generated months are not comparable: the heavy-tailed
    /// sizes and walltimes make one month cost 38 k and the next 60 k
    /// commands per second to replay, which would drown any bound this
    /// benchmark could set. The perturbation gives every seed its own
    /// input, schedule and state hashes while the month's shape stays.
    pub fn month_jobs(&self, seed: u64, m: usize) -> Vec<Job> {
        let spec = self.spec();
        let mut jobs = spec.generate(CANONICAL_SEED + m as u64);
        let mut rng = Xoshiro256::seed_from_u64(split_seed(seed, m as u64));
        let users = spec.users as u64;
        let mut clock = 0;
        for j in &mut jobs {
            clock = (j.submit.as_secs() + rng.next_range_inclusive(-30, 30)).max(clock);
            j.submit = SimTime::from_secs(clock + m as i64 * MONTH_SECS);
            j.user = rng.next_below(users) as u32;
        }
        jobs
    }

    /// The paper's scheduler configuration: EASY backfill (one protected
    /// reservation, depth 16), fair-start metric on.
    pub fn builder<P: Platform>(&self, platform: P, jobs: Vec<Job>) -> SimulationBuilder<P> {
        SimulationBuilder::new(platform, jobs)
            .policy(PolicyParams::new(0.5, self.window))
            .backfill(BackfillMode::Easy)
            .easy_protected(Some(1))
            .backfill_depth(Some(16))
            .label(self.name)
    }

    pub fn scheduler<P: Platform + Snapshot>(&self, platform: P) -> LiveScheduler<P> {
        LiveScheduler::from_builder(self.builder(platform, Vec::new()))
    }
}

/// A command script plus what its one-time reference replay produced.
pub struct Script {
    pub cmds: Vec<Command>,
    /// `cmds[..warm]` is the warm-up month.
    pub warm: usize,
    /// `state_hash()` after the last command.
    pub final_hash: u64,
    /// `event_index()` at the end of the warm-up and of the script.
    pub events_warm: u64,
    pub events_end: u64,
    /// `drain_into_outcome().summary.csv_row()` of the reference replay.
    pub summary_row: String,
}

/// Apply one script command to an in-process scheduler; `false` is the
/// in-process equivalent of a reply that does not start with `OK`.
pub fn apply<P: Platform + Snapshot>(sched: &mut LiveScheduler<P>, cmd: &Command) -> bool {
    match cmd {
        Command::Advance(secs) => {
            let target = sched.now() + SimDuration::from_secs(*secs);
            std::hint::black_box(sched.advance_to(target));
            true
        }
        Command::Submit {
            nodes,
            wall_secs,
            run_secs,
            user,
        } => sched
            .submit(
                *nodes,
                SimDuration::from_secs(*wall_secs),
                run_secs.map(SimDuration::from_secs),
                *user,
            )
            .is_ok(),
        Command::Status(id) => sched.status(JobId(*id)) != JobStatus::Unknown,
        Command::Stats => {
            std::hint::black_box(sched.stats());
            true
        }
        Command::Hash => {
            std::hint::black_box(sched.state_hash());
            true
        }
        Command::Cancel(id) => sched.cancel(JobId(*id)),
        Command::WhatIf {
            job,
            bf,
            window,
            horizon_secs,
        } => {
            let horizon = SimDuration::from_secs(horizon_secs.unwrap_or(WHATIF_HORIZON_SECS));
            matches!(
                sched.whatif_start(JobId(*job), *bf, *window, horizon),
                Ok(ans) if ans != amjs_core::live::WhatIfAnswer::UnknownJob
            )
        }
        other => panic!("not a script command: {other:?}"),
    }
}

/// A script under construction, replayed on a reference scheduler as
/// it grows.
struct Replay<P: Platform + Snapshot> {
    sched: LiveScheduler<P>,
    cmds: Vec<Command>,
}

impl<P: Platform + Snapshot> Replay<P> {
    fn push(&mut self, cmd: Command) {
        assert!(
            apply(&mut self.sched, &cmd),
            "reference replay refused {cmd:?}"
        );
        self.cmds.push(cmd);
    }

    fn status(&self, id: u64) -> JobStatus {
        self.sched.status(JobId(id))
    }
}

/// Build the script for `w` and `seed`. The reference replay picks read
/// targets that exist (a canceled job answers `ERR unknown job`, and a
/// job can only be canceled while queued), so that no scripted
/// operation fails, and it yields the hash every repetition must
/// reproduce.
pub fn build<P: Platform + Snapshot>(w: &Workload, seed: u64, platform: P) -> Script {
    let mut r = Replay {
        sched: w.scheduler(platform),
        cmds: Vec::new(),
    };
    let mut clock = SimTime::ZERO;
    let mut next_id = 0u64;
    let (mut warm, mut events_warm) = (0, 0);
    for m in 0..=w.months {
        if m == 1 {
            warm = r.cmds.len();
            events_warm = r.sched.event_index();
        }
        for job in w.month_jobs(seed, m) {
            if job.submit > clock {
                r.push(Command::Advance((job.submit - clock).as_secs()));
                clock = job.submit;
            }
            let id = next_id;
            next_id += 1;
            r.push(Command::Submit {
                nodes: job.nodes,
                wall_secs: job.walltime.as_secs(),
                run_secs: Some(job.runtime.as_secs()),
                user: job.user,
            });
            if !w.reads || m == 0 {
                continue;
            }
            for target in [id, id / 2, id.saturating_sub(10)] {
                let known = r.status(target) != JobStatus::Unknown;
                r.push(Command::Status(if known { target } else { id }));
            }
            r.push(Command::Stats);
            if id.is_multiple_of(16) {
                r.push(Command::WhatIf {
                    job: id,
                    bf: None,
                    window: None,
                    horizon_secs: Some(WHATIF_HORIZON_SECS),
                });
            }
            if id.is_multiple_of(32) {
                let queued = (id.saturating_sub(64)..id)
                    .rev()
                    .find(|&c| matches!(r.status(c), JobStatus::Queued { .. }));
                if let Some(victim) = queued {
                    r.push(Command::Cancel(victim));
                }
            }
            if id.is_multiple_of(64) {
                r.push(Command::Hash);
            }
        }
    }
    Script {
        warm,
        final_hash: r.sched.state_hash(),
        events_warm,
        events_end: r.sched.event_index(),
        cmds: r.cmds,
        summary_row: r.sched.drain_into_outcome().summary.csv_row(),
    }
}
