//! Per-layer probes: each layer (= crate) timed from the benchmark's side
//! of a public call. Fixed iteration counts, best-of rounds.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use amjs_core::LiveScheduler;
use amjs_obs::expo::shared_stats;
use amjs_obs::{Histogram, Observer, Profiler};
use amjs_platform::mask::UnitMask;
use amjs_platform::{BgpCluster, FlatCluster, Plan, Platform};
use amjs_serve::telemetry::verb_name;
use amjs_serve::wal::WalWriter;
use amjs_serve::{read_frame, read_wal, write_frame, Command};
use amjs_sim::{EventQueue, SimDuration, SimTime, Snapshot, SnapshotStore};

use crate::drive::{lib_rep, restore_serve, serve_rep, Floors};
use crate::report::{metric, pct_ns, Metric};
use crate::script::{self, Script, Workload};

/// Best of `n` timings of `f`, seconds.
fn best_secs(n: usize, mut f: impl FnMut()) -> f64 {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

/// Best over `rounds` of the time per call of `op` across `iters` calls, ns.
fn per_call_ns(rounds: usize, iters: u64, mut op: impl FnMut(u64)) -> f64 {
    best_secs(rounds, || (0..iters).for_each(&mut op)) * 1e9 / iters as f64
}

fn mops(ns_per_call: f64) -> f64 {
    1e3 / ns_per_call
}

/// Half-fill `p` with a spread of job sizes; returns the live
/// allocations' release times, staggered over the next day.
fn half_fill<P: Platform>(p: &mut P) -> Vec<(amjs_platform::AllocationId, SimTime)> {
    let mut live = Vec::new();
    let mut i = 0i64;
    while p.idle_nodes() > p.total_nodes() / 2 {
        let nodes = 512 << (i % 3);
        match p.allocate(nodes) {
            Some(id) => live.push((id, SimTime::from_secs(600 + (i * 3571) % 86_400))),
            None => break,
        }
        i += 1;
    }
    live
}

/// `Platform::plan` plus `place_earliest` for a 16-job queue on a
/// half-busy machine — what one scheduling pass asks of the plan layer.
fn plan_place_ns<P: Platform>(mut p: P, rounds: usize, iters: u64) -> f64 {
    let live = half_fill(&mut p);
    let release = |id| {
        live.iter()
            .find(|(a, _)| *a == id)
            .map_or(SimTime::ZERO, |(_, t)| *t)
    };
    per_call_ns(rounds, iters, |_| {
        let mut plan = p.plan(SimTime::ZERO, &release);
        for j in 0..16i64 {
            let nodes = 512 << (j % 5);
            let placed =
                plan.place_earliest(nodes, SimDuration::from_secs(1800 + 900 * j), SimTime::ZERO);
            std::hint::black_box(&placed);
        }
    })
}

/// Probes that need no workload state: the same code runs for every
/// workload, so a row that moves here moved because its layer did.
pub fn micro(script: &Script, out_dir: &Path, quick: bool) -> Vec<Metric> {
    let scale = if quick { 20 } else { 1 };
    let rounds = if quick { 2 } else { 5 };
    let mut rows = Vec::new();
    let mut row = |name: &str, value: f64, n: u64| rows.push(metric(name, value, n as usize));

    // amjs-sim: schedule + pop on a queue holding ~1k pending events.
    let n = 1_000_000 / scale;
    let mut queue = EventQueue::<u64>::new();
    for i in 0..1024 {
        queue.schedule(SimTime::from_secs(i * 7), i as u64);
    }
    let cycle = per_call_ns(rounds, n, |i| {
        let next = queue.pop().expect("queue never drains");
        let delay = 1 + (i * 2_654_435_761 % 7200) as i64;
        queue.schedule(next.time + SimDuration::from_secs(delay), i);
    });
    row("sim.event_queue_mops", mops(cycle), n);

    // amjs-platform: word-level mask walks on the Intrepid-shaped mask.
    let mut m = UnitMask::empty();
    let set = per_call_ns(rounds, n, |i| m.set_range((i % 73) as u16, 8));
    row("platform.mask.set_range_mops", mops(set), n);
    let mut m = UnitMask::empty();
    m.set_range(0, 40);
    let scan = per_call_ns(rounds, n, |i| {
        std::hint::black_box(m.first_clear_aligned_block(1 << (i % 4), 80));
    });
    row("platform.mask.first_clear_block_mops", mops(scan), n);

    let n = 200_000 / scale;
    let mut bgp = BgpCluster::intrepid();
    half_fill(&mut bgp);
    let alloc = per_call_ns(rounds, n, |i| {
        let id = bgp
            .allocate(512 << (i % 4))
            .expect("half the machine is free");
        bgp.release(id);
    });
    row("platform.bgp.alloc_release_us", alloc / 1e3, n);

    let n = 20_000 / scale;
    let part = plan_place_ns(BgpCluster::intrepid(), rounds, n);
    row("platform.partition_plan.place_us", part / 1e3, n);
    let flat = plan_place_ns(FlatCluster::new(40_960), rounds, n);
    row("platform.flat_plan.place_us", flat / 1e3, n);

    // amjs-obs: one observation per served request, two per mutation.
    let n = 1_000_000 / scale;
    let mut hist = Histogram::latency();
    let observe = per_call_ns(rounds, n, |i| hist.observe(1e-6 * (1 + i % 5000) as f64));
    row("obs.hist.observe_ns", observe, n);

    // amjs-serve: codec and framing on in-memory buffers.
    let cmds: Vec<&Command> = script.cmds.iter().rev().take(256).collect();
    let lines: Vec<String> = cmds.iter().map(|c| c.render()).collect();
    let render = per_call_ns(rounds, n, |i| {
        std::hint::black_box(cmds[i as usize % cmds.len()].render());
    });
    row("serve.proto.render_ns", render, n);
    let parse = per_call_ns(rounds, n, |i| {
        std::hint::black_box(Command::parse(&lines[i as usize % lines.len()]).is_ok());
    });
    row("serve.proto.parse_ns", parse, n);
    let mut buf = Vec::with_capacity(128);
    let write = per_call_ns(rounds, n, |i| {
        buf.clear();
        write_frame(&mut buf, lines[i as usize % lines.len()].as_bytes()).expect("write to a Vec");
    });
    row("serve.frame.write_ns", write, n);
    let read = per_call_ns(rounds, n, |_| {
        std::hint::black_box(read_frame(&mut buf.as_slice()).is_ok());
    });
    row("serve.frame.read_ns", read, n);

    // The WAL append the engine pays before every mutation's ACK.
    let n = 20_000 / scale;
    let wal_path = out_dir.join("probe.wal");
    let append = (0..rounds)
        .map(|_| {
            let mut wal = WalWriter::create(&wal_path, 7, 0).expect("create the probe wal");
            per_call_ns(1, n, |i| {
                wal.append(0, i as i64, i, &lines[i as usize % lines.len()])
                    .expect("append to the probe wal");
            })
        })
        .fold(f64::MAX, f64::min);
    row("serve.wal.append_us", append / 1e3, n);
    rows
}

/// Rows read off a scheduler in its end state: the snapshot codec the
/// daemon's rotation, its `WHATIF` forks and `restore_s` all go through.
fn snapshot_rows<P: Platform + Snapshot>(
    sched: &LiveScheduler<P>,
    out_dir: &Path,
    quick: bool,
) -> Vec<Metric> {
    let n = if quick { 3 } else { 15 };
    let payload = sched.encode();
    let encode = best_secs(n, || {
        std::hint::black_box(sched.encode());
    });
    let decode = best_secs(n, || {
        std::hint::black_box(LiveScheduler::<P>::decode(&payload).is_ok());
    });
    let dir = out_dir.join("probe-snapshots");
    std::fs::create_dir_all(&dir).expect("create the probe snapshot dir");
    let store = SnapshotStore::new(&dir, 3);
    let mut index = 0;
    let write = best_secs(n, || {
        index += 1;
        store
            .write(index, &payload)
            .expect("write a probe snapshot");
    });
    vec![
        metric("sim.snapshot.encode_us", encode * 1e6, n),
        metric("sim.snapshot.decode_us", decode * 1e6, n),
        metric("sim.snapshot.bytes", payload.len() as f64, 1),
        metric("sim.snapshot.store_write_us", write * 1e6, n),
    ]
}

/// Batch rows: `SimulationBuilder::run` of month 0 (the number
/// `results/BENCH_hotpath.json` reports), and the program's own
/// `Profiler` spans for the same run through `run_observed`.
fn batch_rows<P: Platform>(w: &Workload, seed: u64, make: fn() -> P, quick: bool) -> Vec<Metric> {
    let jobs = w.month_jobs(seed, 0);
    let reps = if quick { 1 } else { 3 };
    let mut passes = 0;
    let run_s = best_secs(reps, || {
        passes = w.builder(make(), jobs.clone()).run().scheduler_passes;
    });

    let prof = Rc::new(RefCell::new(Profiler::new()));
    let t = Instant::now();
    let (out, _) = w
        .builder(make(), jobs)
        .run_observed(Observer::disabled().with_profiler(prof.clone()));
    let observed_s = t.elapsed().as_secs_f64();
    assert_eq!(out.scheduler_passes, passes, "profiling changed the run");
    let prof = prof.borrow();
    // Span paths are "outer/inner"; the leaf names are unique.
    let span = |leaf: &str| {
        prof.spans()
            .iter()
            .find(|(path, _)| path.rsplit('/').next() == Some(leaf))
            .map_or((0.0, 0), |(_, s)| (s.total.as_secs_f64() * 1e3, s.count))
    };
    let mut rows = vec![
        metric("core.passes", passes as f64, 1),
        metric("core.passes_per_s", passes as f64 / run_s, reps),
        metric("core.run_ms", run_s * 1e3, reps),
        metric("core.span.run_observed_ms", observed_s * 1e3, 1),
        metric(
            "obs.profiler.overhead_pct",
            (observed_s / run_s - 1.0) * 100.0,
            1,
        ),
    ];
    for leaf in [
        "schedule_pass",
        "score_sort",
        "plan_build",
        "window_search",
        "backfill_pass",
        "fair_start",
    ] {
        let (ms, count) = span(leaf);
        rows.push(metric(&format!("core.span.{leaf}_ms"), ms, count as usize));
    }
    rows.push(metric(
        "core.span.fair_start_count",
        span("fair_start").1 as f64,
        1,
    ));
    for (tier, leaf) in [
        ("hit", "score_cache_hit"),
        ("repair", "score_cache_repair"),
        ("miss", "score_cache_miss"),
    ] {
        rows.push(metric(
            &format!("core.cache.{tier}_passes"),
            span(leaf).1 as f64,
            1,
        ));
    }
    rows
}

/// WAL rows read off a finished daemon's state dir.
fn wal_rows(dir: &Path, quick: bool) -> Vec<Metric> {
    let path = dir.join("commands.wal");
    let bytes = std::fs::metadata(&path).expect("stat the wal").len();
    let n = if quick { 1 } else { 5 };
    let mut records = 0;
    let read_s = (0..n)
        .map(|_| {
            let t = Instant::now();
            let wal = read_wal(&path, None).expect("read the wal back");
            let s = t.elapsed().as_secs_f64();
            records = wal.records.len();
            s
        })
        .fold(f64::MAX, f64::min);
    vec![
        metric("serve.wal.records", records as f64, 1),
        metric(
            "serve.wal.bytes_per_cmd",
            bytes as f64 / records.max(1) as f64,
            records,
        ),
        metric("serve.wal.read_mb_per_s", bytes as f64 / 1e6 / read_s, n),
    ]
}

/// The per-layer rows that come from replaying the read-mix variant of
/// `w`'s configuration (one measured month) in process and against a
/// daemon. Every workload reports every row, so a reader can set `serve.*`
/// beside `core.*` for the same machine and policy.
pub fn replay_rows<P: Platform + Snapshot + 'static>(
    w: &Workload,
    seed: u64,
    make: fn() -> P,
    out: &Path,
    quick: bool,
) -> Vec<Metric> {
    let pw = &Workload {
        months: 1,
        reads: true,
        ..*w
    };
    let ps = &script::build(pw, seed, make());
    let mut rows = core_rows(pw, ps, seed, make, out, quick);
    rows.extend(batch_rows(w, seed, make, quick));
    rows.extend(serve_rows(
        pw,
        ps,
        seed,
        make,
        &out.join("probe-state"),
        quick,
    ));
    rows
}

/// p50, p99 and count of one verb's measured-phase floors.
fn verb_floor(floors: &Floors, verb: &str) -> (f64, f64, usize) {
    let v = floors.of_verb(verb);
    (pct_ns(&v, 0.50), pct_ns(&v, 0.99), v.len())
}

/// `amjs-core` and `amjs-sim`: the script replayed in process.
fn core_rows<P: Platform + Snapshot>(
    pw: &Workload,
    ps: &Script,
    seed: u64,
    make: fn() -> P,
    out: &Path,
    quick: bool,
) -> Vec<Metric> {
    let mut floors = Floors::new(ps);
    let mut end = None;
    for _ in 0..if quick { 1 } else { 3 } {
        let (rep, sched) = lib_rep(pw, ps, seed, make, &mut None);
        floors.add(&rep);
        end = Some(sched);
    }
    let steps = floors.of_verb("ADVANCE");
    let step_s = steps.iter().sum::<u64>() as f64 / 1e9;
    let events = (ps.events_end - ps.events_warm) as f64;
    let mut rows = vec![
        metric("sim.events_per_s", events / step_s, steps.len()),
        metric(
            "core.advance_us_p50",
            pct_ns(&steps, 0.50) / 1e3,
            steps.len(),
        ),
    ];
    for (name, verb, per_unit) in [
        ("core.submit_ns", "SUBMIT", 1.0),
        ("core.status_ns", "STATUS", 1.0),
        ("core.stats_us", "STATS", 1e3),
        ("core.state_hash_us", "HASH", 1e3),
        ("core.whatif_us_p50", "WHATIF", 1e3),
    ] {
        let (p50, _, n) = verb_floor(&floors, verb);
        rows.push(metric(name, p50 / per_unit, n));
    }
    let end = end.expect("the in-process replay ran");
    rows.extend(snapshot_rows(&end, out, quick));
    rows
}

/// `amjs-serve`: the script replayed over the wire. Plain repetitions
/// give the client-side floors; one more, with the daemon publishing its
/// own histograms (which costs it time), gives the engine-side means.
fn serve_rows<P: Platform + Snapshot + 'static>(
    pw: &Workload,
    ps: &Script,
    seed: u64,
    make: fn() -> P,
    dir: &Path,
    quick: bool,
) -> Vec<Metric> {
    let mut floors = Floors::new(ps);
    for _ in 0..if quick { 1 } else { 2 } {
        floors.add(&serve_rep(pw, ps, seed, make, dir, None, &mut None));
    }
    let mut ping = floors.ping_floor.clone();
    ping.sort_unstable();
    let mut rows = vec![metric(
        "serve.ping_us_p50",
        pct_ns(&ping, 0.50) / 1e3,
        ping.len(),
    )];
    for (p50_name, p99_name, verb) in [
        ("serve.submit_us_p50", Some("serve.submit_us_p99"), "SUBMIT"),
        ("serve.whatif_us_p50", Some("serve.whatif_us_p99"), "WHATIF"),
        ("serve.advance_us_p50", None, "ADVANCE"),
        ("serve.status_us_p50", None, "STATUS"),
        ("serve.stats_us_p50", None, "STATS"),
        ("serve.cancel_us_p50", None, "CANCEL"),
        ("serve.hash_us_p50", None, "HASH"),
    ] {
        let (p50, p99, n) = verb_floor(&floors, verb);
        rows.push(metric(p50_name, p50 / 1e3, n));
        if let Some(name) = p99_name {
            rows.push(metric(name, p99 / 1e3, n));
        }
    }

    let stats = shared_stats();
    let rep = serve_rep(pw, ps, seed, make, dir, Some(stats.clone()), &mut None);
    assert_eq!(
        rep.final_hash, ps.final_hash,
        "the stats repetition diverged"
    );
    let report = rep.report.expect("serve repetitions carry a report");
    let engine_mean = |family: &str, verb: Option<&str>| {
        let stats = stats.lock().expect("daemon stats lock");
        (stats.hists.iter())
            .find(|h| h.name == family && h.label.as_ref().map(|(_, v)| v.as_str()) == verb)
            .and_then(|h| h.hist.mean().map(|m| (m, h.hist.count() as usize)))
            .unwrap_or((0.0, 0))
    };
    let mut engine_submit_us = 0.0;
    for (name, family, verb, per_second) in [
        (
            "serve.engine.submit_us_mean",
            "serve_request_latency_seconds",
            Some("submit"),
            1e6,
        ),
        (
            "serve.engine.advance_us_mean",
            "serve_request_latency_seconds",
            Some("advance"),
            1e6,
        ),
        (
            "serve.engine.wal_append_us_mean",
            "serve_wal_append_seconds",
            None,
            1e6,
        ),
        (
            "serve.engine.snapshot_write_ms_mean",
            "serve_snapshot_write_seconds",
            None,
            1e3,
        ),
    ] {
        let (mean, n) = engine_mean(family, verb);
        rows.push(metric(name, mean * per_second, n));
        if verb == Some("submit") {
            engine_submit_us = mean * per_second;
        }
    }
    // The residual compares like with like: the client's mean over the
    // same repetition, warm-up included, that the daemon's histogram saw.
    let client_submits: Vec<u64> = (ps.cmds.iter().zip(&rep.lat_ns))
        .filter(|(c, _)| verb_name(c) == "SUBMIT")
        .map(|(_, &ns)| ns)
        .collect();
    let client_submit_us =
        client_submits.iter().sum::<u64>() as f64 / client_submits.len() as f64 / 1e3;
    rows.push(metric(
        "serve.residual.submit_us",
        client_submit_us - engine_submit_us,
        client_submits.len(),
    ));
    rows.push(metric(
        "serve.snapshots_written",
        report.snapshots_written as f64,
        1,
    ));

    rows.extend(wal_rows(dir, quick));
    let recovers: Vec<(f64, u64)> = (0..if quick { 1 } else { 3 })
        .map(|_| {
            let (s, replayed, _) = restore_serve::<P>(dir);
            (s, replayed)
        })
        .collect();
    let best = recovers.iter().map(|r| r.0).fold(f64::MAX, f64::min);
    rows.push(metric(
        "serve.recover.replay_cmds_per_s",
        recovers[0].1 as f64 / best,
        recovers.len(),
    ));
    rows
}
