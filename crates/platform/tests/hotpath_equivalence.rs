//! Property tests for the plan and mask layers: the word-level mask
//! walks and the memoized plan profiles must agree with naive
//! counterparts on every answer, across thousands of seeded random
//! scripts.
//!
//! Two layers are exercised:
//!
//! * [`UnitMask`] word-parallel range ops vs the bit-at-a-time naive
//!   variants (the bitset buddy allocator's primitive layer);
//! * [`FlatPlan`]/[`PartitionPlan`] queries (their forward walks over
//!   memoized base profiles and overlay timelines) vs [`NaivePlan`], a
//!   test-side plan that rescans one commitment list per query, under
//!   adversarial op mixes including `mark_down`-style outages.

mod naive_plan;

use amjs_platform::mask::{self, UnitMask};
use amjs_platform::plan::{FlatPlan, PartitionPlan, Plan, PlanToken};
use amjs_platform::Nodes;
use amjs_sim::rng::Xoshiro256;
use amjs_sim::{SimDuration, SimTime};
use naive_plan::{NaivePlan, NaiveToken};

const UNITS: u16 = 80; // Intrepid: 80 midplanes

/// Debug builds run the short count; release runs the long one.
fn cases(debug: u64, release: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// Word-level mask ops agree with the naive bit loops on 2000 seeded
/// scripts of mixed range edits and buddy-block queries, both through
/// [`UnitMask`] and through the word-slice helpers on rows of 1, 2, 10
/// and 16 words (the `k >= 64` whole-word block path included).
#[test]
fn mask_word_ops_match_naive_on_random_scripts() {
    let mut rng = Xoshiro256::seed_from_u64(0x5eed_5a5c);
    for case in 0..2000 {
        // 40, 80, 640 and 1 024 units: 1, 2, 10 and 16 words.
        let units: u16 = [40, UNITS, 640, 1024][case % 4];
        let words = (units as usize).div_ceil(64);
        let mut fast = UnitMask::empty();
        let mut row = vec![0u64; words];
        let mut naive = UnitMask::empty();
        for _op in 0..24 {
            let start = rng.next_below(units as u64) as u16;
            let len = 1 + rng.next_below((units - start) as u64) as u16;
            let (first, end) = (start as usize, (start + len) as usize);
            match rng.next_below(3) {
                0 => {
                    fast.set_range(start, len);
                    mask::set_bits(&mut row, first, end);
                    naive.set_range_naive(start, len);
                }
                1 => {
                    fast.clear_range(start, len);
                    mask::clear_bits(&mut row, first, end);
                    naive.clear_range_naive(start, len);
                }
                _ => {
                    let mut other = UnitMask::empty();
                    other.set_range_naive(start, len);
                    fast.or_with(&other);
                    mask::or_bits(&mut row, &other.words()[..words]);
                    for u in start..start + len {
                        naive.set_range_naive(u, 1);
                    }
                }
            }
            assert_eq!(fast, naive, "masks diverged after an edit");
            assert_eq!(row, naive.words()[..words], "rows diverged after an edit");
            assert_eq!(
                fast.range_is_clear(start, len),
                naive.range_is_clear_naive(start, len)
            );
            assert_eq!(
                fast.range_is_set(start, len),
                naive.range_is_set_naive(start, len)
            );
            // Buddy queries at every power-of-two block size.
            let mut k = 1u16;
            while k <= units {
                let expected = naive.first_clear_aligned_block_naive(k, units);
                assert_eq!(
                    fast.first_clear_aligned_block(k, units),
                    expected,
                    "buddy scan diverged at k={k}"
                );
                assert_eq!(
                    mask::first_clear_aligned(&row, k, units),
                    expected,
                    "row buddy scan diverged at k={k}, {units} units"
                );
                k *= 2;
            }
        }
    }
}

/// One random plan op: the same action is applied to the fast and the
/// naive plan, and every query answer must match. `draw` picks each
/// op's duration and start (or lower bound) from the plan's `now`.
fn drive_plans<P: Plan>(
    mut fast: P,
    mut reference: NaivePlan,
    seed: u64,
    ops: usize,
    draw: impl Fn(&mut Xoshiro256, SimTime) -> (SimDuration, SimTime),
) {
    assert_eq!(fast.now(), reference.now());
    assert_eq!(fast.total_nodes(), reference.total_nodes());
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let now = fast.now();
    let total = fast.total_nodes();
    // Token pairs (fast, reference) of live commitments, newest last.
    // Rollback is LIFO-only, deactivation is position-free.
    let mut live: Vec<(PlanToken, NaiveToken)> = Vec::new();

    for _op in 0..ops {
        let nodes = 1 + rng.next_below(total as u64) as Nodes;
        let (dur, not_before) = draw(&mut rng, now);
        match rng.next_below(8) {
            // Queries (most of the mix: they are what must agree).
            0..=2 => {
                assert_eq!(
                    fast.rounded_size(nodes),
                    reference.rounded_size(nodes),
                    "rounded_size diverged (seed {seed})"
                );
                assert_eq!(
                    fast.can_place_at(nodes, not_before, dur),
                    reference.can_place_at(nodes, not_before, dur),
                    "can_place_at diverged (seed {seed})"
                );
            }
            3..=4 => {
                assert_eq!(
                    fast.earliest_start(nodes, dur, not_before),
                    reference.earliest_start(nodes, dur, not_before),
                    "earliest_start diverged (seed {seed})"
                );
            }
            // Grow: place at the shared earliest feasible start.
            5..=6 => {
                let a = fast.place_earliest(nodes, dur, not_before);
                let b = reference.place_earliest(nodes, dur, not_before);
                match (a, b) {
                    (Some((ta, tok_a)), Some((tb, tok_b))) => {
                        assert_eq!(ta, tb, "placement start diverged (seed {seed})");
                        assert_eq!(
                            fast.hint_of(&tok_a),
                            reference.hint_of(&tok_b),
                            "placement hint diverged (seed {seed})"
                        );
                        live.push((tok_a, tok_b));
                    }
                    (None, None) => {}
                    _ => panic!("placement feasibility diverged (seed {seed})"),
                }
            }
            // Shrink: LIFO rollback or deactivate a random live token
            // (the mark_down / job-finish shape: capacity returns).
            _ => {
                if live.is_empty() {
                    continue;
                }
                if rng.next_bool(0.5) {
                    let (tok_a, tok_b) = live.pop().expect("non-empty checked");
                    fast.rollback(tok_a);
                    reference.rollback(tok_b);
                } else {
                    let i = rng.next_below(live.len() as u64) as usize;
                    let (tok_a, tok_b) = live.remove(i);
                    // The commitments above the deactivated one stay in
                    // the plan, so no older token is LIFO-poppable any
                    // more: retire the whole rollback pool (the
                    // commitments themselves stay placed).
                    live.clear();
                    fast.deactivate(tok_a);
                    reference.deactivate(tok_b);
                }
            }
        }
    }
}

/// Durations and lower bounds on a 30-minute grid from `now`, so base
/// ends, overlay starts and ends, and window ends coincide; one lower
/// bound in seven lies before `now`.
fn half_hour_grained(rng: &mut Xoshiro256, now: SimTime) -> (SimDuration, SimTime) {
    let step = SimDuration::from_mins(30);
    let dur = step * (1 + rng.next_below(20) as i64);
    (dur, now + step * (rng.next_below(28) as i64 - 4))
}

/// The forward walk against [`NaivePlan`], on machines with some nodes
/// out of service (requests beyond in-service capacity answer
/// `SimTime::MAX`/`None` on both paths) and on long scripts whose
/// deactivations leave voided commitments and stale breakpoints.
#[test]
fn flat_plan_fast_path_matches_reference() {
    let mut rng = Xoshiro256::seed_from_u64(0xf1a7);
    let step = SimDuration::from_mins(30);
    for case in 0..cases(150, 5_000) {
        let now = SimTime::from_secs(rng.next_below(100_000) as i64);
        // A random base load: running jobs with staggered releases.
        let base: Vec<(Nodes, SimTime)> = (0..rng.next_below(6))
            .map(|_| {
                (
                    1 + rng.next_below(256) as Nodes,
                    now + step * (1 + rng.next_below(10) as i64),
                )
            })
            .collect();
        let down = if rng.next_bool(0.3) {
            1 + rng.next_below(512) as Nodes
        } else {
            0
        };
        let ops = if case % 5 == 0 { 240 } else { 40 };
        drive_plans(
            FlatPlan::new(now, 1024, &base).with_down(down),
            NaivePlan::flat(now, 1024, down, &base),
            0xf1a7_0000 + case,
            ops,
            half_hour_grained,
        );
    }
}

/// The partitioned forward walk against [`NaivePlan`] at three machine
/// widths: 80 midplanes (2 words, not a multiple of 64), Intrepid at
/// 64-node granularity (640 units, 10 words) and a full 1 024-unit
/// [`UnitMask`] (16 words). Half-hour-grained draws make ends coincide
/// and put some lower bounds before `now`.
#[test]
fn partition_plan_fast_path_matches_reference() {
    let mut rng = Xoshiro256::seed_from_u64(0xb67);
    let step = SimDuration::from_mins(30);
    for case in 0..cases(150, 5_000) {
        let (units, nodes_per_unit): (u16, Nodes) =
            [(UNITS, 512), (640, 64), (1024, 40)][case as usize % 3];
        let now = SimTime::from_secs(rng.next_below(100_000) as i64);
        // Random non-overlapping running blocks on the unit line.
        let max_len = (units / 10) as u64;
        let mut base: Vec<(u16, u16, SimTime)> = Vec::new();
        let mut cursor = 0u16;
        while cursor < units && base.len() < 5 {
            let len = 1 + rng.next_below(max_len) as u16;
            if cursor + len > units {
                break;
            }
            if rng.next_bool(0.5) {
                base.push((cursor, len, now + step * (1 + rng.next_below(10) as i64)));
            }
            cursor += len;
        }
        let mut down = UnitMask::empty();
        if rng.next_bool(0.3) {
            // Mid-life outage shape: some units out of service.
            let down_at = rng.next_below(units as u64) as u16;
            let down_len = 1 + rng.next_below(max_len / 2) as u16;
            down = UnitMask::block(down_at, down_len.min(units - down_at));
        }
        let ops = if case % 5 == 0 { 240 } else { 40 };
        drive_plans(
            PartitionPlan::new(now, units, nodes_per_unit, &base).with_down(down),
            NaivePlan::blocks(now, units, nodes_per_unit, down, &base),
            0xb67_0000 + case,
            ops,
            half_hour_grained,
        );
    }
}
