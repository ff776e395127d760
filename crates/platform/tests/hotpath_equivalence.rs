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
//!   adversarial op mixes including `mark_down`-style outages — on new
//!   plans, and on used plans that a base was copied or rebuilt into.

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

/// One random plan op: the same action is applied to every fast plan
/// and to the naive one, and every query answer must match, the
/// commitment counts included. `draw` picks each op's duration and start
/// (or lower bound) from the plan's `now`.
fn drive_plans<P: Plan>(
    mut fast: Vec<P>,
    mut reference: NaivePlan,
    seed: u64,
    ops: usize,
    draw: impl Fn(&mut Xoshiro256, SimTime) -> (SimDuration, SimTime),
) {
    for plan in &fast {
        assert_eq!(plan.now(), reference.now());
        assert_eq!(plan.total_nodes(), reference.total_nodes());
    }
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let now = reference.now();
    let total = reference.total_nodes();
    // Tokens (one per fast plan, then the reference's) of live
    // commitments, newest last. Rollback is LIFO-only, deactivation is
    // position-free.
    let mut live: Vec<(Vec<PlanToken>, NaiveToken)> = Vec::new();

    for _op in 0..ops {
        let nodes = 1 + rng.next_below(total as u64) as Nodes;
        let (dur, not_before) = draw(&mut rng, now);
        match rng.next_below(8) {
            // Queries (most of the mix: they are what must agree).
            0..=2 => {
                for plan in &fast {
                    assert_eq!(
                        plan.rounded_size(nodes),
                        reference.rounded_size(nodes),
                        "rounded_size diverged (seed {seed})"
                    );
                    assert_eq!(
                        plan.can_place_at(nodes, not_before, dur),
                        reference.can_place_at(nodes, not_before, dur),
                        "can_place_at diverged (seed {seed})"
                    );
                }
            }
            3..=4 => {
                let expected = reference.earliest_start(nodes, dur, not_before);
                for plan in &fast {
                    assert_eq!(
                        plan.earliest_start(nodes, dur, not_before),
                        expected,
                        "earliest_start diverged (seed {seed})"
                    );
                }
            }
            // Grow: place at the shared earliest feasible start.
            5..=6 => {
                let b = reference.place_earliest(nodes, dur, not_before);
                let mut tokens = Vec::new();
                for plan in &mut fast {
                    match (plan.place_earliest(nodes, dur, not_before), &b) {
                        (Some((ta, tok_a)), Some((tb, tok_b))) => {
                            assert_eq!(ta, *tb, "placement start diverged (seed {seed})");
                            assert_eq!(
                                plan.hint_of(&tok_a),
                                reference.hint_of(tok_b),
                                "placement hint diverged (seed {seed})"
                            );
                            tokens.push(tok_a);
                        }
                        (None, None) => {}
                        _ => panic!("placement feasibility diverged (seed {seed})"),
                    }
                }
                if let Some((_, tok_b)) = b {
                    live.push((tokens, tok_b));
                }
            }
            // Shrink: LIFO rollback or deactivate a random live token
            // (the mark_down / job-finish shape: capacity returns).
            _ => {
                if live.is_empty() {
                    continue;
                }
                if rng.next_bool(0.5) {
                    let (tokens, tok_b) = live.pop().expect("non-empty checked");
                    for (plan, tok_a) in fast.iter_mut().zip(tokens) {
                        plan.rollback(tok_a);
                    }
                    reference.rollback(tok_b);
                } else {
                    let i = rng.next_below(live.len() as u64) as usize;
                    let (tokens, tok_b) = live.remove(i);
                    // The commitments above the deactivated one stay in
                    // the plan, so no older token is LIFO-poppable any
                    // more: retire the whole rollback pool (the
                    // commitments themselves stay placed).
                    live.clear();
                    for (plan, tok_a) in fast.iter_mut().zip(tokens) {
                        plan.deactivate(tok_a);
                    }
                    reference.deactivate(tok_b);
                }
            }
        }
        let count = fast[0].commitment_count();
        for plan in &fast {
            assert_eq!(
                plan.commitment_count(),
                count,
                "commitment counts diverged (seed {seed})"
            );
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

/// A random flat base at `now`: running jobs with staggered releases on
/// 1 024 nodes, with some nodes out of service in three cases of ten.
fn random_flat(rng: &mut Xoshiro256) -> (SimTime, Vec<(Nodes, SimTime)>, Nodes) {
    let step = SimDuration::from_mins(30);
    let now = SimTime::from_secs(rng.next_below(100_000) as i64);
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
    (now, base, down)
}

/// A random partitioned base at `now` on `units` units: non-overlapping
/// running blocks, and in three cases of ten a run of units out of
/// service (the mid-life outage shape).
fn random_blocks(
    rng: &mut Xoshiro256,
    units: u16,
) -> (SimTime, Vec<(u16, u16, SimTime)>, UnitMask) {
    let step = SimDuration::from_mins(30);
    let now = SimTime::from_secs(rng.next_below(100_000) as i64);
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
        let down_at = rng.next_below(units as u64) as u16;
        let down_len = 1 + rng.next_below(max_len / 2) as u16;
        down = UnitMask::block(down_at, down_len.min(units - down_at));
    }
    (now, base, down)
}

/// Machine widths of the partitioned tests: 80 midplanes (2 words, not a
/// multiple of 64), Intrepid at 64-node granularity (640 units, 10
/// words) and a full 1 024-unit [`UnitMask`] (16 words).
const WIDTHS: [(u16, Nodes); 3] = [(UNITS, 512), (640, 64), (1024, 40)];

/// The forward walk against [`NaivePlan`], on machines with some nodes
/// out of service (requests beyond in-service capacity answer
/// `SimTime::MAX`/`None` on both paths) and on long scripts whose
/// deactivations leave voided commitments and stale breakpoints.
#[test]
fn flat_plan_fast_path_matches_reference() {
    let mut rng = Xoshiro256::seed_from_u64(0xf1a7);
    for case in 0..cases(150, 5_000) {
        let (now, base, down) = random_flat(&mut rng);
        let ops = if case % 5 == 0 { 240 } else { 40 };
        drive_plans(
            vec![FlatPlan::new(now, 1024, &base).with_down(down)],
            NaivePlan::flat(now, 1024, down, &base),
            0xf1a7_0000 + case,
            ops,
            half_hour_grained,
        );
    }
}

/// The partitioned forward walk against [`NaivePlan`] at the three
/// [`WIDTHS`]. Half-hour-grained draws make ends coincide and put some
/// lower bounds before `now`.
#[test]
fn partition_plan_fast_path_matches_reference() {
    let mut rng = Xoshiro256::seed_from_u64(0xb67);
    for case in 0..cases(150, 5_000) {
        let (units, nodes_per_unit) = WIDTHS[case as usize % 3];
        let (now, base, down) = random_blocks(&mut rng, units);
        let ops = if case % 5 == 0 { 240 } else { 40 };
        drive_plans(
            vec![PartitionPlan::new(now, units, nodes_per_unit, &base).with_down(down)],
            NaivePlan::blocks(now, units, nodes_per_unit, down, &base),
            0xb67_0000 + case,
            ops,
            half_hour_grained,
        );
    }
}

/// Run a short script on `plan`: placements, a rollback and a
/// deactivation, so that it holds overlay segments, stale breakpoints,
/// pool rows and a voided commitment.
fn scribble<P: Plan>(rng: &mut Xoshiro256, plan: &mut P) {
    let now = plan.now();
    let total = plan.total_nodes() as u64;
    let mut tokens = Vec::new();
    for _ in 0..1 + rng.next_below(12) {
        let (dur, not_before) = half_hour_grained(rng, now);
        let nodes = 1 + rng.next_below(total) as Nodes;
        if let Some((_, token)) = plan.place_earliest(nodes, dur, not_before) {
            tokens.push(token);
        }
    }
    if let Some(token) = tokens.pop() {
        plan.rollback(token);
    }
    if !tokens.is_empty() {
        let i = rng.next_below(tokens.len() as u64) as usize;
        plan.deactivate(tokens.swap_remove(i));
    }
}

/// A flat plan that has lived: another base, outage and script.
fn used_flat(rng: &mut Xoshiro256) -> FlatPlan {
    let (now, base, down) = random_flat(rng);
    let total = [64, 1024, 4096][rng.next_below(3) as usize];
    let mut plan = FlatPlan::new(now, total, &base).with_down(down.min(total));
    scribble(rng, &mut plan);
    plan
}

/// A partitioned plan that has lived, at any of the [`WIDTHS`].
fn used_blocks(rng: &mut Xoshiro256) -> PartitionPlan {
    let (units, nodes_per_unit) = WIDTHS[rng.next_below(3) as usize];
    let (now, base, down) = random_blocks(rng, units);
    let mut plan = PartitionPlan::new(now, units, nodes_per_unit, &base).with_down(down);
    scribble(rng, &mut plan);
    plan
}

/// The two ways a kept plan is reused — `clone_from` of a base into the
/// plan a pass worked in, and a base rebuilt in place — on flat plans
/// that have lived: both must answer every query of a script as a fresh
/// plan and [`NaivePlan`] do. A field either leaves unreset shows here.
#[test]
fn flat_plan_reuse_matches_a_fresh_plan() {
    let mut rng = Xoshiro256::seed_from_u64(0xf1a7_2e05);
    for case in 0..cases(150, 5_000) {
        let (now, base, down) = random_flat(&mut rng);
        let fresh = FlatPlan::new(now, 1024, &base).with_down(down);
        let mut copied = used_flat(&mut rng);
        copied.clone_from(&fresh);
        let mut rebuilt = used_flat(&mut rng);
        rebuilt.rebuild(now, 1024, down, base.iter().copied());
        let ops = if case % 5 == 0 { 240 } else { 40 };
        drive_plans(
            vec![fresh, copied, rebuilt],
            NaivePlan::flat(now, 1024, down, &base),
            0xf1a7_2e05_0000 + case,
            ops,
            half_hour_grained,
        );
    }
}

/// [`flat_plan_reuse_matches_a_fresh_plan`] on partitioned plans, each
/// reused plan last built at any of the [`WIDTHS`] (so its rows may be
/// wider or narrower than the new machine's).
#[test]
fn partition_plan_reuse_matches_a_fresh_plan() {
    let mut rng = Xoshiro256::seed_from_u64(0xb67_2e05);
    for case in 0..cases(150, 5_000) {
        let (units, nodes_per_unit) = WIDTHS[case as usize % 3];
        let (now, base, down) = random_blocks(&mut rng, units);
        let fresh = PartitionPlan::new(now, units, nodes_per_unit, &base).with_down(down);
        let mut copied = used_blocks(&mut rng);
        copied.clone_from(&fresh);
        let mut rebuilt = used_blocks(&mut rng);
        rebuilt.rebuild(now, units, nodes_per_unit, &down, base.iter().copied());
        let ops = if case % 5 == 0 { 240 } else { 40 };
        drive_plans(
            vec![fresh, copied, rebuilt],
            NaivePlan::blocks(now, units, nodes_per_unit, down, &base),
            0xb67_2e05_0000 + case,
            ops,
            half_hour_grained,
        );
    }
}
