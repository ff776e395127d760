//! Dirty-score caching for the scheduling hot path (ISSUE 9).
//!
//! Every event triggers a scheduling pass, and the pass's steps 1–4
//! re-score and re-sort the whole waiting queue from scratch. Between
//! passes, though, the queue barely changes: one arrival, one start, a
//! handful of backfills. [`PassCache`] keeps the sorted queue alive
//! across passes and repairs it incrementally, so a pass pays for what
//! changed, not for what didn't.
//!
//! ## Resolution tiers
//!
//! [`PassCache::resolve`] picks the cheapest tier that is *provably*
//! byte-identical to the from-scratch sort:
//!
//! * **Hit** — nothing to recompute. Either the cache was already
//!   resolved at this very instant and nothing was pushed or removed
//!   since (the fair-start drain's [`PassCache::presort`] ahead of the
//!   pass that follows a submission), or the policy's order does not
//!   depend on `now` ([`static_order`]): pending arrivals binary-insert
//!   into the cached order and nothing else moves. `Balanced `BF = 1``
//!   qualifies because eq. 1's waiting score is monotone in submission
//!   time, so
//!   its sorted order *is* `(submit, id)` — even under floating-point
//!   key collisions, whose ties break to submission order anyway.
//!   `LargestFirst` likewise (walltime seconds are exact in `f64`).
//! * **Repair** — time-varying keys (`Balanced` with `0 ≤ BF < 1`,
//!   `ExpansionFactor`): every entry is dirty by construction (the
//!   scores move with `now`), so keys are recomputed for the cached
//!   jobs plus any pending arrivals and the list is re-sorted. The
//!   adaptive sort runs over an almost-sorted sequence, and the
//!   rebuild-allocation (queue filter + per-job estimate lookups) is
//!   skipped entirely. Identity holds because non-NaN keys plus the
//!   `(submit, id)` tie-break form a strict total order: *any* sort
//!   produces the unique sorted sequence the legacy path produced.
//!   `Balanced`BF = 0`` lands here, not in the static tier: two
//!   distinct walltimes can round to colliding `f64` scores, and the
//!   legacy tie-break then consults `(submit, id)` — which a static
//!   walltime comparator would get wrong.
//! * **Miss** — cache invalid (failure/repair changed the placeable-job
//!   filter, adaptive estimates moved, a snapshot was restored), the
//!   policy changed (tuner transition), or a key came out NaN
//!   (`ExpansionFactor` with zero wait over zero walltime — the legacy
//!   comparator is not total there, so its stable sort must be replayed
//!   on the exact legacy input order): rebuild from the runner's queue
//!   and sort from scratch.
//!
//! In debug builds every resolution is differentially checked against a
//! fresh rebuild + sort — the whole test suite doubles as a continuous
//! byte-identity oracle for the cache.

use std::cmp::Ordering;

use amjs_sim::SimTime;
use amjs_workload::JobId;

use crate::policy::QueuePolicy;
use crate::scheduler::QueuedJob;
use crate::score::{balanced_priority, QueueExtremes};

/// Counters exposing how often each resolution tier and each reuse of
/// an earlier plan fired. `hits + repairs + misses` is the number of
/// scheduling passes that saw a non-empty queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassCacheStats {
    /// Static-order insertions, and passes that reused a resolve made
    /// at the same instant (cheapest tier).
    pub hits: u64,
    /// Key-recompute repairs of a still-valid cache.
    pub repairs: u64,
    /// Full rebuilds.
    pub misses: u64,
    /// Fair-start drains built from a fresh base plan.
    pub drains_fresh: u64,
    /// Fair-start drains that resumed the previous submission's plan.
    pub drains_resumed: u64,
    /// Placements those resumed drains did not have to redo.
    pub drain_placements_reused: u64,
    /// Passes answered from the previous pass's decision.
    pub passes_memoized: u64,
    /// Window permutation searches run ([`crate::window::WindowStats`],
    /// summed over the passes that were not memoized).
    pub window_searches: u64,
    /// Earliest-start evaluations inside them: speculative commits,
    /// leaf queries and floor queries.
    pub window_placements: u64,
    /// Searches that ended at the root: the identity met both bounds
    /// (the all-start-now fast path included).
    pub window_bound_exits: u64,
    /// Windows the passes' window stop left unplanned
    /// ([`crate::window::WindowStats::unplanned`]).
    pub windows_unplanned: u64,
}

/// How a [`PassCache::resolve`] call satisfied the pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Pending arrivals inserted into a static order.
    Hit,
    /// Keys recomputed and the order repaired in place.
    Repair,
    /// Full rebuild from the runner's queue.
    Miss,
}

/// The cached sorted queue (see module docs).
#[derive(Clone, Debug, Default)]
pub struct PassCache {
    valid: bool,
    policy: Option<QueuePolicy>,
    sorted: Vec<QueuedJob>,
    pending: Vec<QueuedJob>,
    /// When `sorted` was last resolved, while it is still exactly what a
    /// resolve at that instant would produce: any push, removal or
    /// invalidation since clears it. (Removal too — taking out the job
    /// with the longest wait or an extreme walltime moves
    /// [`QueueExtremes`], which can reorder the jobs that stay.)
    resolved_at: Option<SimTime>,
    /// Tier counters.
    pub stats: PassCacheStats,
}

impl PassCache {
    /// Drop everything; the next [`PassCache::resolve`] rebuilds.
    /// Called whenever an input the cache cannot track changes: the
    /// machine's down set (it gates which jobs are placeable at all),
    /// adaptive walltime estimates, a restored snapshot.
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.resolved_at = None;
        self.sorted.clear();
        self.pending.clear();
    }

    /// A job entered the waiting queue (with its *planning* walltime,
    /// exactly as the rebuild would see it).
    pub fn note_push(&mut self, job: QueuedJob) {
        self.resolved_at = None;
        if self.valid {
            self.pending.push(job);
        }
    }

    /// A job left the waiting queue (started, backfilled, canceled).
    /// Removing an id the cache never saw invalidates it — the caller's
    /// bookkeeping and the cache disagree, and a rebuild is the safe
    /// answer (this legitimately happens for jobs the placeable filter
    /// held out, e.g. a cancel of a job larger than the live machine).
    pub fn note_remove(&mut self, id: JobId) {
        self.resolved_at = None;
        if !self.valid {
            return;
        }
        if let Some(p) = self.pending.iter().position(|j| j.id == id) {
            self.pending.remove(p);
        } else if let Some(p) = self.sorted.iter().position(|j| j.id == id) {
            self.sorted.remove(p);
        } else {
            self.invalidate();
        }
    }

    /// The sorted queue as of the last [`PassCache::resolve`].
    pub fn sorted(&self) -> &[QueuedJob] {
        &self.sorted
    }

    /// Bring the cache up to date for a pass at `now` under `policy`;
    /// `rebuild` produces the queue exactly as the legacy path would
    /// (filtered, planning walltimes applied), in queue order.
    pub fn resolve(
        &mut self,
        now: SimTime,
        policy: QueuePolicy,
        rebuild: impl Fn() -> Vec<QueuedJob>,
    ) -> CacheOutcome {
        let outcome = self.presort(now, policy, rebuild);
        match outcome {
            CacheOutcome::Hit => self.stats.hits += 1,
            CacheOutcome::Repair => self.stats.repairs += 1,
            CacheOutcome::Miss => self.stats.misses += 1,
        }
        outcome
    }

    /// [`PassCache::resolve`] for a caller that is not a scheduling pass
    /// (the fair-start drain ahead of one): the same work, not counted.
    /// The pass that follows at the same instant, with nothing pushed or
    /// removed in between, then costs a [`CacheOutcome::Hit`].
    pub fn presort(
        &mut self,
        now: SimTime,
        policy: QueuePolicy,
        rebuild: impl Fn() -> Vec<QueuedJob>,
    ) -> CacheOutcome {
        let outcome = if self.resolved_at == Some(now) && self.policy == Some(policy) {
            CacheOutcome::Hit
        } else {
            self.resolve_inner(now, policy, &rebuild)
        };
        self.resolved_at = Some(now);
        // Continuous differential oracle: every debug-build resolve —
        // the same-instant shortcut included — proves the incremental
        // order byte-identical to the from-scratch one.
        #[cfg(debug_assertions)]
        {
            let mut expect = rebuild();
            policy.sort(&mut expect, now);
            debug_assert_eq!(
                expect, self.sorted,
                "pass cache diverged from the from-scratch sort ({outcome:?})"
            );
        }
        outcome
    }

    fn resolve_inner(
        &mut self,
        now: SimTime,
        policy: QueuePolicy,
        rebuild: &impl Fn() -> Vec<QueuedJob>,
    ) -> CacheOutcome {
        if !self.valid || self.policy != Some(policy) {
            return self.rebuild_from(now, policy, rebuild);
        }
        if static_order(&policy).is_some() {
            for job in std::mem::take(&mut self.pending) {
                let pos = self
                    .sorted
                    .partition_point(|a| static_cmp(&policy, a, &job) == Ordering::Less);
                self.sorted.insert(pos, job);
            }
            return CacheOutcome::Hit;
        }
        // Time-varying keys: everything is dirty; recompute and repair.
        self.sorted.append(&mut self.pending);
        let Some(extremes) = QueueExtremes::of(&self.sorted, now) else {
            return CacheOutcome::Repair; // empty queue
        };
        let key = |job: &QueuedJob| -> f64 {
            match policy {
                QueuePolicy::Balanced { balance_factor } => {
                    balanced_priority(job, now, balance_factor, &extremes)
                }
                QueuePolicy::LargestFirst => unreachable!("LargestFirst is static"),
                QueuePolicy::ExpansionFactor => {
                    let wait = (now - job.submit).max_zero().as_secs() as f64;
                    let wall = job.walltime.as_secs() as f64;
                    (wait + wall) / wall
                }
            }
        };
        let mut keyed: Vec<(f64, QueuedJob)> = std::mem::take(&mut self.sorted)
            .into_iter()
            .map(|j| (key(&j), j))
            .collect();
        if keyed.iter().any(|(k, _)| k.is_nan()) {
            // A NaN key makes the legacy comparator non-total, so its
            // stable sort's result depends on the input order — only a
            // replay on the true queue order reproduces it.
            return self.rebuild_from(now, policy, rebuild);
        }
        // Non-NaN keys + (submit, id) tie-break form a strict total
        // order: this adaptive sort lands on the identical sequence the
        // legacy from-scratch sort produces.
        keyed.sort_by(|(ka, a), (kb, b)| {
            kb.partial_cmp(ka)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.submit.cmp(&b.submit))
                .then_with(|| a.id.cmp(&b.id))
        });
        self.sorted = keyed.into_iter().map(|(_, j)| j).collect();
        CacheOutcome::Repair
    }

    fn rebuild_from(
        &mut self,
        now: SimTime,
        policy: QueuePolicy,
        rebuild: &impl Fn() -> Vec<QueuedJob>,
    ) -> CacheOutcome {
        self.sorted = rebuild();
        policy.sort(&mut self.sorted, now);
        self.pending.clear();
        self.policy = Some(policy);
        self.valid = true;
        CacheOutcome::Miss
    }
}

/// `Some(())` when `policy`'s sorted order is independent of `now` (see
/// module docs for why `Balanced `BF = 0`` does NOT qualify).
fn static_order(policy: &QueuePolicy) -> Option<()> {
    match policy {
        QueuePolicy::Balanced { balance_factor } if *balance_factor == 1.0 => Some(()),
        QueuePolicy::LargestFirst => Some(()),
        _ => None,
    }
}

/// The static policy's total order (only called when [`static_order`]
/// says it exists).
fn static_cmp(policy: &QueuePolicy, a: &QueuedJob, b: &QueuedJob) -> Ordering {
    match policy {
        // BF = 1: priority is the waiting score alone, monotone in
        // submission time; ties (including f64 collisions) break to
        // (submit, id) — which is this very order.
        QueuePolicy::Balanced { .. } => a.submit.cmp(&b.submit).then_with(|| a.id.cmp(&b.id)),
        QueuePolicy::LargestFirst => b
            .walltime
            .cmp(&a.walltime)
            .then_with(|| a.submit.cmp(&b.submit))
            .then_with(|| a.id.cmp(&b.id)),
        QueuePolicy::ExpansionFactor => unreachable!("ExpansionFactor is not static"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amjs_sim::rng::Xoshiro256;
    use amjs_sim::SimDuration;

    fn qj(id: u64, submit: i64, nodes: u32, wall: i64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            nodes,
            walltime: SimDuration::from_secs(wall),
        }
    }

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Drive a cache and the from-scratch path through the same random
    /// push/remove stream and assert identical sorted sequences at every
    /// pass, for each policy tier.
    fn differential(policy: QueuePolicy, seed: u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut queue: Vec<QueuedJob> = Vec::new();
        let mut cache = PassCache::default();
        let mut next_id = 0u64;
        for step in 0..400i64 {
            let now = t(step * 37);
            if !queue.is_empty() && rng.next_bool(0.4) {
                let victim = rng.next_below(queue.len() as u64) as usize;
                let id = queue[victim].id;
                queue.remove(victim);
                cache.note_remove(id);
            }
            if rng.next_bool(0.7) {
                let job = qj(
                    next_id,
                    step * 37 - rng.next_below(500) as i64,
                    1 + rng.next_below(64) as u32,
                    // Zero walltimes exercise the NaN fallback under
                    // ExpansionFactor.
                    rng.next_below(5000) as i64,
                );
                next_id += 1;
                queue.push(job.clone());
                cache.note_push(job);
            }
            if rng.next_bool(0.05) {
                cache.invalidate();
            }
            cache.resolve(now, policy, || queue.clone());
            let mut expect = queue.clone();
            policy.sort(&mut expect, now);
            assert_eq!(expect, cache.sorted(), "step {step}");
        }
        let s = cache.stats;
        assert_eq!(s.hits + s.repairs + s.misses, 400);
    }

    #[test]
    fn static_fcfs_tier_matches_from_scratch() {
        differential(
            QueuePolicy::Balanced {
                balance_factor: 1.0,
            },
            1,
        );
    }

    #[test]
    fn static_largest_first_tier_matches_from_scratch() {
        differential(QueuePolicy::LargestFirst, 2);
    }

    #[test]
    fn repair_tier_matches_from_scratch_balanced() {
        differential(
            QueuePolicy::Balanced {
                balance_factor: 0.5,
            },
            3,
        );
        differential(
            QueuePolicy::Balanced {
                balance_factor: 0.0,
            },
            4,
        );
    }

    #[test]
    fn nan_fallback_matches_from_scratch_expansion_factor() {
        differential(QueuePolicy::ExpansionFactor, 5);
    }

    #[test]
    fn policy_change_forces_miss() {
        let mut cache = PassCache::default();
        let queue = vec![qj(0, 0, 1, 100), qj(1, 5, 1, 50)];
        let fcfs = QueuePolicy::Balanced {
            balance_factor: 1.0,
        };
        assert_eq!(
            cache.resolve(t(10), fcfs, || queue.clone()),
            CacheOutcome::Miss
        );
        assert_eq!(
            cache.resolve(t(20), fcfs, || queue.clone()),
            CacheOutcome::Hit
        );
        // A tuner transition to a different BF must rebuild, not repair.
        let sjf_ish = QueuePolicy::Balanced {
            balance_factor: 0.3,
        };
        assert_eq!(
            cache.resolve(t(30), sjf_ish, || queue.clone()),
            CacheOutcome::Miss
        );
        assert_eq!(
            cache.resolve(t(40), sjf_ish, || queue.clone()),
            CacheOutcome::Repair
        );
    }

    /// Regression: a resolve reused at the same instant must not survive
    /// a removal. Taking out the longest-waiting job halves `wait_max`,
    /// which doubles every waiting score and reorders the jobs that stay
    /// (a prototype of the shortcut missed this and only one pinned
    /// benchmark digest noticed).
    #[test]
    fn same_instant_resolve_does_not_survive_removing_the_extreme_job() {
        let policy = QueuePolicy::Balanced {
            balance_factor: 0.5,
        };
        // At t=1000: X has waited longest; A long wait + longest
        // walltime; B fresh and shortish; D holds the walltime minimum.
        let (x, a, b, d) = (
            qj(0, 0, 1, 600),
            qj(1, 400, 1, 1000),
            qj(2, 990, 1, 400),
            qj(3, 995, 1, 200),
        );
        let mut queue = vec![x, a.clone(), b.clone(), d];
        let mut cache = PassCache::default();
        cache.resolve(t(1000), policy, || queue.clone());
        let rank = |c: &PassCache, j: &QueuedJob| c.sorted().iter().position(|s| s == j).unwrap();
        assert!(rank(&cache, &b) < rank(&cache, &a), "B outranks A beside X");
        // Nothing changed: the second resolve at this instant is free.
        assert_eq!(
            cache.resolve(t(1000), policy, || queue.clone()),
            CacheOutcome::Hit
        );

        queue.remove(0);
        cache.note_remove(JobId(0));
        assert_eq!(
            cache.resolve(t(1000), policy, || queue.clone()),
            CacheOutcome::Repair
        );
        let mut expect = queue.clone();
        policy.sort(&mut expect, t(1000));
        assert_eq!(expect, cache.sorted());
        assert!(
            rank(&cache, &a) < rank(&cache, &b),
            "without X, A outranks B"
        );
    }

    #[test]
    fn presort_is_not_counted_and_makes_the_pass_a_hit() {
        let policy = QueuePolicy::Balanced {
            balance_factor: 0.5,
        };
        let queue = vec![qj(0, 0, 1, 100), qj(1, 5, 1, 50)];
        let mut cache = PassCache::default();
        cache.presort(t(10), policy, || queue.clone());
        assert_eq!(cache.stats, PassCacheStats::default());
        assert_eq!(
            cache.resolve(t(10), policy, || queue.clone()),
            CacheOutcome::Hit
        );
        // A push in between, or a later instant, pays for the repair.
        cache.presort(t(20), policy, || queue.clone());
        cache.note_push(qj(2, 20, 1, 70));
        let grown = [queue.clone(), vec![qj(2, 20, 1, 70)]].concat();
        assert_eq!(
            cache.resolve(t(20), policy, || grown.clone()),
            CacheOutcome::Repair
        );
        assert_eq!(
            cache.resolve(t(30), policy, || grown.clone()),
            CacheOutcome::Repair
        );
        assert_eq!((cache.stats.hits, cache.stats.repairs), (1, 2));
    }

    #[test]
    fn unknown_removal_invalidates() {
        let mut cache = PassCache::default();
        let queue = vec![qj(0, 0, 1, 100)];
        let fcfs = QueuePolicy::Balanced {
            balance_factor: 1.0,
        };
        cache.resolve(t(0), fcfs, || queue.clone());
        cache.note_remove(JobId(999));
        assert_eq!(
            cache.resolve(t(1), fcfs, || queue.clone()),
            CacheOutcome::Miss
        );
    }
}
