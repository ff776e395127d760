//! The structured decision-event taxonomy and its JSONL codec.
//!
//! One [`TraceRecord`] is emitted per observable decision. Every record
//! carries the engine event index (`i`) of the event being handled when
//! the decision was made, so a trace line correlates exactly with the
//! oracle's `(seed, event_index)` tags and with the same line of another
//! trace, plus the simulated time (`t`, whole seconds). Nothing in a record derives
//! from wall-clock state: same seed ⇒ byte-identical trace.

use crate::json::{Json, ObjWriter};

/// One trace line: which engine event it belongs to, when (simulated
/// seconds), and what was decided.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Global engine event index (what oracle tags carry).
    pub index: u64,
    /// Simulated time, whole seconds since the epoch.
    pub t: i64,
    /// The decision itself.
    pub event: TraceEvent,
}

/// A losing (or pruned) permutation considered by the window search.
#[derive(Clone, Debug, PartialEq)]
pub struct LosingPerm {
    /// Job ids in the order this permutation would start them.
    pub order: Vec<u64>,
    /// How many of them could start immediately.
    pub starts_now: u64,
    /// Window makespan in seconds; `None` when the search pruned the
    /// permutation before completing it.
    pub makespan_s: Option<i64>,
}

/// Why a backfill candidate was accepted or rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackfillReason {
    /// Accepted: the job fits on idle nodes right now without touching
    /// any protected reservation.
    FitsNow,
    /// Rejected: no placement lets the job start at the current time.
    NoStartNow,
    /// Rejected: starting it now would push back a protected
    /// reservation (EASY promise conflict under time-flexible
    /// protection).
    WouldDelayProtected,
}

impl BackfillReason {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            BackfillReason::FitsNow => "fits-now",
            BackfillReason::NoStartNow => "no-feasible-start-now",
            BackfillReason::WouldDelayProtected => "would-delay-protected-reservation",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "fits-now" => Some(BackfillReason::FitsNow),
            "no-feasible-start-now" => Some(BackfillReason::NoStartNow),
            "would-delay-protected-reservation" => Some(BackfillReason::WouldDelayProtected),
            _ => None,
        }
    }
}

/// What happened to a killed job's retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryOutcome {
    /// Requeued immediately.
    Requeued,
    /// Requeued after a backoff delay.
    Backoff,
    /// Retry budget exhausted; the job was abandoned.
    Abandoned,
}

impl RetryOutcome {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            RetryOutcome::Requeued => "requeued",
            RetryOutcome::Backoff => "backoff",
            RetryOutcome::Abandoned => "abandoned",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "requeued" => Some(RetryOutcome::Requeued),
            "backoff" => Some(RetryOutcome::Backoff),
            "abandoned" => Some(RetryOutcome::Abandoned),
            _ => None,
        }
    }
}

/// Payload of [`TraceEvent::WindowChoice`]: the outcome of the
/// window-of-W permutation search for one window. Boxed so the rare,
/// Vec-heavy record does not inflate the size of every hot-path record
/// (`job_scored` / `backfill` dominate traces ~50:1).
#[derive(Clone, Debug, PartialEq)]
pub struct WindowChoiceEv {
    /// Window position within the pass (0 = head of queue).
    pub window: u64,
    /// Job ids in the window, in priority order.
    pub jobs: Vec<u64>,
    /// Job ids in the start order the search chose.
    pub order: Vec<u64>,
    /// Jobs of the chosen order that start immediately.
    pub starts_now: u64,
    /// Chosen order's window makespan, seconds.
    pub makespan_s: i64,
    /// Permutations examined (excluding the identity).
    pub searched: u64,
    /// True when every window job already started now under the
    /// priority order, so the search was skipped.
    pub fast_path: bool,
    /// The losing permutations (complete ones carry a makespan;
    /// pruned ones do not).
    pub losers: Vec<LosingPerm>,
}

/// Payload of [`TraceEvent::TunerTransition`]: an adaptive tuner
/// changed a policy parameter — the Table-I tuple inputs and the action
/// taken. Boxed for the same size reason as [`WindowChoiceEv`].
#[derive(Clone, Debug, PartialEq)]
pub struct TunerTransitionEv {
    /// Tunable target `T` (`"balance_factor"` / `"window"`).
    pub tunable: String,
    /// Monitored metric `M`.
    pub metric: String,
    /// Observed metric value.
    pub value: f64,
    /// Threshold `Th`.
    pub threshold: f64,
    /// Step `Δ`.
    pub step: f64,
    /// Clamp interval `Ci` lower bound.
    pub lo: f64,
    /// Clamp interval `Ci` upper bound.
    pub hi: f64,
    /// Direction taken (`"plus"` / `"minus"`).
    pub dir: String,
    /// Balance factor before the step.
    pub bf_before: f64,
    /// Balance factor after the step.
    pub bf_after: f64,
    /// Window size before the step.
    pub window_before: u64,
    /// Window size after the step.
    pub window_after: u64,
}

/// Payload of [`TraceEvent::MetricsSample`]: a periodic monitor sample
/// — the paper's §III-C signals. Boxed for the same size reason as
/// [`WindowChoiceEv`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSampleEv {
    /// Aggregate queue demand, node-minutes (×10⁶ in the figures).
    pub queue_depth_mins: f64,
    /// Instant utilization.
    pub util_instant: f64,
    /// Trailing 1-hour utilization.
    pub util_1h: f64,
    /// Trailing 10-hour utilization.
    pub util_10h: f64,
    /// Trailing 24-hour utilization.
    pub util_24h: f64,
    /// Nodes currently down.
    pub down_nodes: u64,
    /// Jobs running.
    pub running: u64,
    /// Jobs waiting.
    pub waiting: u64,
}

/// Every decision the scheduler, tuners, and node-lifecycle layer can
/// record. Field units are seconds (`*_s`) or the paper's natural units
/// (scores in `[0,1]`, utilization as a fraction).
///
/// The three payload-heavy, rarely-emitted variants are boxed to keep
/// `size_of::<TraceEvent>()` small: the hot-path records (`job_scored`,
/// `backfill`) outnumber them ~50:1 in a real trace, and every emitted
/// record is memcpy'd into the attached sink.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A job entered the wait queue (fresh submit or retry resubmit).
    JobQueued {
        /// Job id.
        job: u64,
        /// Requested nodes.
        nodes: u32,
        /// Requested walltime, seconds.
        walltime_s: i64,
        /// True when this is a retry resubmission, not the first submit.
        resubmit: bool,
    },
    /// Balanced-priority score breakdown (paper eqs. 1–3) computed for
    /// a queued job during a scheduling pass.
    JobScored {
        /// Job id.
        job: u64,
        /// Waiting score `S_w` (eq. 1).
        s_w: f64,
        /// Runtime/walltime score `S_r` (eq. 2).
        s_r: f64,
        /// Balance factor in effect.
        bf: f64,
        /// Combined priority `S_p = BF·S_w + (1−BF)·S_r` (eq. 3).
        priority: f64,
    },
    /// Outcome of the window-of-W permutation search for one window.
    WindowChoice(Box<WindowChoiceEv>),
    /// A backfill candidate was accepted or rejected, and why.
    BackfillDecision {
        /// Job id.
        job: u64,
        /// True when the job was started by backfill.
        accepted: bool,
        /// The reason.
        reason: BackfillReason,
    },
    /// A job began running.
    JobStarted {
        /// Job id.
        job: u64,
        /// Allocated nodes.
        nodes: u32,
        /// True when backfilled ahead of its queue position.
        backfilled: bool,
        /// Time spent waiting since first submit, seconds.
        wait_s: i64,
    },
    /// A job received a protected future reservation (EASY promise /
    /// conservative plan slot).
    JobReserved {
        /// Job id.
        job: u64,
        /// Promised start time, seconds since epoch.
        start_s: i64,
    },
    /// A job finished normally.
    JobFinished {
        /// Job id.
        job: u64,
        /// Nodes released.
        nodes: u32,
        /// Actual running time of this attempt, seconds.
        ran_s: i64,
    },
    /// A running job was killed by a node failure.
    JobKilled {
        /// Job id.
        job: u64,
        /// 1-based attempt number that was killed.
        attempt: u32,
        /// Node-seconds of work lost (nodes × the attempt's run time).
        lost_node_s: i64,
        /// What the retry policy decided.
        outcome: RetryOutcome,
        /// Backoff delay before resubmit, seconds (0 unless
        /// `outcome == Backoff`).
        delay_s: i64,
    },
    /// A node went down.
    NodeFailed {
        /// Node index.
        node: u64,
    },
    /// A node came back up.
    NodeRepaired {
        /// Node index.
        node: u64,
    },
    /// An adaptive tuner changed a policy parameter — the Table-I tuple
    /// inputs and the action taken.
    TunerTransition(Box<TunerTransitionEv>),
    /// A dynP-style switch rule changed the queue ordering policy.
    OrderingSwitch {
        /// Queue length that triggered the rule.
        queue_len: u64,
        /// Ordering now in effect (e.g. `"balanced"`, `"lf"`, `"xf"`).
        ordering: String,
    },
    /// Periodic monitor sample — the paper's §III-C signals.
    MetricsSample(Box<MetricsSampleEv>),
}

impl TraceEvent {
    /// Stable wire tag for the `e` field.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::JobQueued { .. } => "job_queued",
            TraceEvent::JobScored { .. } => "job_scored",
            TraceEvent::WindowChoice(..) => "window_choice",
            TraceEvent::BackfillDecision { .. } => "backfill",
            TraceEvent::JobStarted { .. } => "job_started",
            TraceEvent::JobReserved { .. } => "job_reserved",
            TraceEvent::JobFinished { .. } => "job_finished",
            TraceEvent::JobKilled { .. } => "job_killed",
            TraceEvent::NodeFailed { .. } => "node_failed",
            TraceEvent::NodeRepaired { .. } => "node_repaired",
            TraceEvent::TunerTransition(..) => "tuner_transition",
            TraceEvent::OrderingSwitch { .. } => "ordering_switch",
            TraceEvent::MetricsSample(..) => "metrics_sample",
        }
    }

    /// The single job this event is about, when it is about one.
    pub fn job_id(&self) -> Option<u64> {
        match self {
            TraceEvent::JobQueued { job, .. }
            | TraceEvent::JobScored { job, .. }
            | TraceEvent::BackfillDecision { job, .. }
            | TraceEvent::JobStarted { job, .. }
            | TraceEvent::JobReserved { job, .. }
            | TraceEvent::JobFinished { job, .. }
            | TraceEvent::JobKilled { job, .. } => Some(*job),
            _ => None,
        }
    }

    /// Job ids a [`TraceEvent::WindowChoice`] covers (empty otherwise).
    pub fn window_jobs(&self) -> &[u64] {
        match self {
            TraceEvent::WindowChoice(wc) => &wc.jobs,
            _ => &[],
        }
    }
}

impl TraceRecord {
    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = ObjWriter::new();
        w.u64("i", self.index)
            .i64("t", self.t)
            .str("e", self.event.tag());
        match &self.event {
            TraceEvent::JobQueued {
                job,
                nodes,
                walltime_s,
                resubmit,
            } => {
                w.u64("job", *job)
                    .u64("nodes", *nodes as u64)
                    .i64("walltime_s", *walltime_s)
                    .bool("resubmit", *resubmit);
            }
            TraceEvent::JobScored {
                job,
                s_w,
                s_r,
                bf,
                priority,
            } => {
                w.u64("job", *job)
                    .f64("s_w", *s_w)
                    .f64("s_r", *s_r)
                    .f64("bf", *bf)
                    .f64("priority", *priority);
            }
            TraceEvent::WindowChoice(wc) => {
                w.u64("window", wc.window)
                    .u64_arr("jobs", &wc.jobs)
                    .u64_arr("order", &wc.order)
                    .u64("starts_now", wc.starts_now)
                    .i64("makespan_s", wc.makespan_s)
                    .u64("searched", wc.searched)
                    .bool("fast_path", wc.fast_path);
                let mut arr = String::from("[");
                for (i, l) in wc.losers.iter().enumerate() {
                    if i > 0 {
                        arr.push(',');
                    }
                    let mut lw = ObjWriter::new();
                    lw.u64_arr("order", &l.order)
                        .u64("starts_now", l.starts_now);
                    match l.makespan_s {
                        Some(m) => lw.i64("makespan_s", m),
                        None => lw.raw("makespan_s", "null"),
                    };
                    arr.push_str(&lw.finish());
                }
                arr.push(']');
                w.raw("losers", &arr);
            }
            TraceEvent::BackfillDecision {
                job,
                accepted,
                reason,
            } => {
                w.u64("job", *job)
                    .bool("accepted", *accepted)
                    .str("reason", reason.tag());
            }
            TraceEvent::JobStarted {
                job,
                nodes,
                backfilled,
                wait_s,
            } => {
                w.u64("job", *job)
                    .u64("nodes", *nodes as u64)
                    .bool("backfilled", *backfilled)
                    .i64("wait_s", *wait_s);
            }
            TraceEvent::JobReserved { job, start_s } => {
                w.u64("job", *job).i64("start_s", *start_s);
            }
            TraceEvent::JobFinished { job, nodes, ran_s } => {
                w.u64("job", *job)
                    .u64("nodes", *nodes as u64)
                    .i64("ran_s", *ran_s);
            }
            TraceEvent::JobKilled {
                job,
                attempt,
                lost_node_s,
                outcome,
                delay_s,
            } => {
                w.u64("job", *job)
                    .u64("attempt", *attempt as u64)
                    .i64("lost_node_s", *lost_node_s)
                    .str("outcome", outcome.tag())
                    .i64("delay_s", *delay_s);
            }
            TraceEvent::NodeFailed { node } => {
                w.u64("node", *node);
            }
            TraceEvent::NodeRepaired { node } => {
                w.u64("node", *node);
            }
            TraceEvent::TunerTransition(tt) => {
                w.str("tunable", &tt.tunable)
                    .str("metric", &tt.metric)
                    .f64("value", tt.value)
                    .f64("threshold", tt.threshold)
                    .f64("step", tt.step)
                    .f64("lo", tt.lo)
                    .f64("hi", tt.hi)
                    .str("dir", &tt.dir)
                    .f64("bf_before", tt.bf_before)
                    .f64("bf_after", tt.bf_after)
                    .u64("window_before", tt.window_before)
                    .u64("window_after", tt.window_after);
            }
            TraceEvent::OrderingSwitch {
                queue_len,
                ordering,
            } => {
                w.u64("queue_len", *queue_len).str("ordering", ordering);
            }
            TraceEvent::MetricsSample(ms) => {
                w.f64("queue_depth_mins", ms.queue_depth_mins)
                    .f64("util_instant", ms.util_instant)
                    .f64("util_1h", ms.util_1h)
                    .f64("util_10h", ms.util_10h)
                    .f64("util_24h", ms.util_24h)
                    .u64("down_nodes", ms.down_nodes)
                    .u64("running", ms.running)
                    .u64("waiting", ms.waiting);
            }
        }
        w.finish()
    }

    /// Parse one JSONL line back into a record.
    pub fn from_json_line(line: &str) -> Result<TraceRecord, String> {
        let v = crate::json::parse(line)?;
        TraceRecord::from_json(&v)
    }

    /// Decode from an already-parsed JSON object.
    pub fn from_json(v: &Json) -> Result<TraceRecord, String> {
        let index = field_u64(v, "i")?;
        let t = field_i64(v, "t")?;
        let tag = v
            .get("e")
            .and_then(Json::as_str)
            .ok_or("missing event tag \"e\"")?;
        let event = match tag {
            "job_queued" => TraceEvent::JobQueued {
                job: field_u64(v, "job")?,
                nodes: field_u64(v, "nodes")? as u32,
                walltime_s: field_i64(v, "walltime_s")?,
                resubmit: field_bool(v, "resubmit")?,
            },
            "job_scored" => TraceEvent::JobScored {
                job: field_u64(v, "job")?,
                s_w: field_f64(v, "s_w")?,
                s_r: field_f64(v, "s_r")?,
                bf: field_f64(v, "bf")?,
                priority: field_f64(v, "priority")?,
            },
            "window_choice" => TraceEvent::WindowChoice(Box::new(WindowChoiceEv {
                window: field_u64(v, "window")?,
                jobs: field_u64_arr(v, "jobs")?,
                order: field_u64_arr(v, "order")?,
                starts_now: field_u64(v, "starts_now")?,
                makespan_s: field_i64(v, "makespan_s")?,
                searched: field_u64(v, "searched")?,
                fast_path: field_bool(v, "fast_path")?,
                losers: {
                    let arr = v
                        .get("losers")
                        .and_then(Json::as_arr)
                        .ok_or("missing losers")?;
                    arr.iter()
                        .map(|l| {
                            Ok(LosingPerm {
                                order: field_u64_arr(l, "order")?,
                                starts_now: field_u64(l, "starts_now")?,
                                makespan_s: match l.get("makespan_s") {
                                    Some(Json::Null) | None => None,
                                    Some(m) => Some(m.as_i64().ok_or("bad loser makespan")?),
                                },
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?
                },
            })),
            "backfill" => TraceEvent::BackfillDecision {
                job: field_u64(v, "job")?,
                accepted: field_bool(v, "accepted")?,
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .and_then(BackfillReason::from_tag)
                    .ok_or("bad backfill reason")?,
            },
            "job_started" => TraceEvent::JobStarted {
                job: field_u64(v, "job")?,
                nodes: field_u64(v, "nodes")? as u32,
                backfilled: field_bool(v, "backfilled")?,
                wait_s: field_i64(v, "wait_s")?,
            },
            "job_reserved" => TraceEvent::JobReserved {
                job: field_u64(v, "job")?,
                start_s: field_i64(v, "start_s")?,
            },
            "job_finished" => TraceEvent::JobFinished {
                job: field_u64(v, "job")?,
                nodes: field_u64(v, "nodes")? as u32,
                ran_s: field_i64(v, "ran_s")?,
            },
            "job_killed" => TraceEvent::JobKilled {
                job: field_u64(v, "job")?,
                attempt: field_u64(v, "attempt")? as u32,
                lost_node_s: field_i64(v, "lost_node_s")?,
                outcome: v
                    .get("outcome")
                    .and_then(Json::as_str)
                    .and_then(RetryOutcome::from_tag)
                    .ok_or("bad retry outcome")?,
                delay_s: field_i64(v, "delay_s")?,
            },
            "node_failed" => TraceEvent::NodeFailed {
                node: field_u64(v, "node")?,
            },
            "node_repaired" => TraceEvent::NodeRepaired {
                node: field_u64(v, "node")?,
            },
            "tuner_transition" => TraceEvent::TunerTransition(Box::new(TunerTransitionEv {
                tunable: field_str(v, "tunable")?,
                metric: field_str(v, "metric")?,
                value: field_f64(v, "value")?,
                threshold: field_f64(v, "threshold")?,
                step: field_f64(v, "step")?,
                lo: field_f64(v, "lo")?,
                hi: field_f64(v, "hi")?,
                dir: field_str(v, "dir")?,
                bf_before: field_f64(v, "bf_before")?,
                bf_after: field_f64(v, "bf_after")?,
                window_before: field_u64(v, "window_before")?,
                window_after: field_u64(v, "window_after")?,
            })),
            "ordering_switch" => TraceEvent::OrderingSwitch {
                queue_len: field_u64(v, "queue_len")?,
                ordering: field_str(v, "ordering")?,
            },
            "metrics_sample" => TraceEvent::MetricsSample(Box::new(MetricsSampleEv {
                queue_depth_mins: field_f64(v, "queue_depth_mins")?,
                util_instant: field_f64(v, "util_instant")?,
                util_1h: field_f64(v, "util_1h")?,
                util_10h: field_f64(v, "util_10h")?,
                util_24h: field_f64(v, "util_24h")?,
                down_nodes: field_u64(v, "down_nodes")?,
                running: field_u64(v, "running")?,
                waiting: field_u64(v, "waiting")?,
            })),
            other => return Err(format!("unknown event tag {other:?}")),
        };
        Ok(TraceRecord { index, t, event })
    }
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/invalid field {key:?}"))
}

fn field_i64(v: &Json, key: &str) -> Result<i64, String> {
    v.get(key)
        .and_then(Json::as_i64)
        .ok_or_else(|| format!("missing/invalid field {key:?}"))
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing/invalid field {key:?}"))
}

fn field_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing/invalid field {key:?}"))
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing/invalid field {key:?}"))
}

fn field_u64_arr(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing/invalid field {key:?}"))?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("bad element in {key:?}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(event: TraceEvent) {
        let rec = TraceRecord {
            index: 12,
            t: 3600,
            event,
        };
        let line = rec.to_json_line();
        let back = TraceRecord::from_json_line(&line).unwrap();
        assert_eq!(back, rec, "line was: {line}");
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(TraceEvent::JobQueued {
            job: 5,
            nodes: 64,
            walltime_s: 7200,
            resubmit: true,
        });
        round_trip(TraceEvent::JobScored {
            job: 5,
            s_w: 0.25,
            s_r: 1.0,
            bf: 0.5,
            priority: 0.625,
        });
        round_trip(TraceEvent::WindowChoice(Box::new(WindowChoiceEv {
            window: 0,
            jobs: vec![5, 9, 2],
            order: vec![9, 5, 2],
            starts_now: 2,
            makespan_s: 9000,
            searched: 5,
            fast_path: false,
            losers: vec![
                LosingPerm {
                    order: vec![5, 9, 2],
                    starts_now: 1,
                    makespan_s: Some(9600),
                },
                LosingPerm {
                    order: vec![2, 9, 5],
                    starts_now: 1,
                    makespan_s: None,
                },
            ],
        })));
        round_trip(TraceEvent::BackfillDecision {
            job: 7,
            accepted: false,
            reason: BackfillReason::WouldDelayProtected,
        });
        round_trip(TraceEvent::JobStarted {
            job: 7,
            nodes: 32,
            backfilled: true,
            wait_s: 600,
        });
        round_trip(TraceEvent::JobReserved {
            job: 3,
            start_s: 7200,
        });
        round_trip(TraceEvent::JobFinished {
            job: 3,
            nodes: 128,
            ran_s: 3000,
        });
        round_trip(TraceEvent::JobKilled {
            job: 3,
            attempt: 2,
            lost_node_s: 4096,
            outcome: RetryOutcome::Backoff,
            delay_s: 300,
        });
        round_trip(TraceEvent::NodeFailed { node: 17 });
        round_trip(TraceEvent::NodeRepaired { node: 17 });
        round_trip(TraceEvent::TunerTransition(Box::new(TunerTransitionEv {
            tunable: "balance_factor".into(),
            metric: "queue_depth_mins".into(),
            value: 1.5e6,
            threshold: 1.0e6,
            step: 0.5,
            lo: 0.5,
            hi: 1.0,
            dir: "minus".into(),
            bf_before: 1.0,
            bf_after: 0.5,
            window_before: 1,
            window_after: 1,
        })));
        round_trip(TraceEvent::OrderingSwitch {
            queue_len: 42,
            ordering: "lf".into(),
        });
        round_trip(TraceEvent::MetricsSample(Box::new(MetricsSampleEv {
            queue_depth_mins: 123.0,
            util_instant: 0.9,
            util_1h: 0.85,
            util_10h: 0.8,
            util_24h: 0.75,
            down_nodes: 3,
            running: 17,
            waiting: 4,
        })));
    }

    #[test]
    fn tag_and_job_id_accessors() {
        let ev = TraceEvent::JobStarted {
            job: 9,
            nodes: 1,
            backfilled: false,
            wait_s: 0,
        };
        assert_eq!(ev.tag(), "job_started");
        assert_eq!(ev.job_id(), Some(9));
        let ev = TraceEvent::NodeFailed { node: 1 };
        assert_eq!(ev.job_id(), None);
        let ev = TraceEvent::WindowChoice(Box::new(WindowChoiceEv {
            window: 0,
            jobs: vec![1, 2],
            order: vec![1, 2],
            starts_now: 2,
            makespan_s: 0,
            searched: 0,
            fast_path: true,
            losers: vec![],
        }));
        assert_eq!(ev.window_jobs(), &[1, 2]);
    }

    #[test]
    fn unknown_tag_is_an_error() {
        assert!(TraceRecord::from_json_line(r#"{"i":0,"t":0,"e":"nope"}"#).is_err());
    }
}
