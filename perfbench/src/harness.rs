//! The measurement loop shared by every workload, and the metrics it
//! reports.
//!
//! An untraced run repeats the workload's main arm until `--seconds` have
//! passed and reports medians of the end-to-end metrics. A traced run
//! rotates the main arm with spans and allocation counting on, the same arm
//! with them off, and the workload's A/B arms, and reports the per-layer
//! metrics. Every repetition is checked against the first one.
//!
//! Host times are reported in calibrated seconds. A shared virtual machine
//! changes speed by tens of percent over minutes, so a fixed `std`-only
//! loop ([`calibrate`]) is timed between repetitions, and each repetition's
//! host times are scaled by `CAL_REF_S` over the mean of the calibration
//! times on either side of it: seconds on a host that runs the loop in
//! `CAL_REF_S`.

use crate::checks::Checks;
use crate::spans::{self, Spans};
use crate::stats::median;
use crate::{alloc, host};
use charm_core::{RunSummary, Runtime};
use std::time::Instant;

/// Fewest repetitions of each arm, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Steps of the calibration loop, and the time they take on the reference
/// host that calibrated seconds refer to (a 2-core Xeon VM takes 11-21 ms).
const CAL_STEPS: u64 = 200_000;
const CAL_REF_S: f64 = 0.015;

/// Disk checkpoint round trips after the loop: one checks the state
/// survives; a traced run times three.
const DISK_ROUND_TRIPS: [usize; 2] = [1, 3];

/// A variant of one workload's inputs. Every arm must produce the same
/// simulated result; only host time may differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The workload as defined.
    Main,
    /// The same inputs on the sequential engine (`threads = 1`).
    Seq,
    /// Replay recording off.
    NoRecord,
    /// Summary tracing off.
    NoTrace,
}

/// Simulated (virtual-time) results of one repetition. They depend only on
/// the inputs, so every repetition and arm must agree exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    pub end_s: f64,
    pub p50_s: f64,
    pub p99_s: f64,
    pub done_frac: f64,
}

/// One measured repetition.
pub struct Rep {
    /// Host seconds before the first `run*` call.
    pub setup_s: f64,
    /// Host seconds inside `run*` (`RunSummary::wall_time_s`).
    pub run_s: f64,
    pub summary: RunSummary,
    pub parallel: bool,
    /// Engine shards that ran (1 when sequential).
    pub shards: usize,
    /// Folded final PUP state digest.
    pub digest: u64,
    pub sim: Sim,
    /// Chares covered by the digest, and host ns `state_digest` took.
    pub chares: usize,
    pub digest_ns: u64,
    /// `Strategy::assign` calls and objects they were given.
    pub lb_calls: u64,
    pub lb_objs: u64,
    pub migrations: u64,
    /// Bytes of the last committed in-memory checkpoint.
    pub ckpt_bytes: u64,
    /// Entries in the replay log (0 when not recording).
    pub log_execs: u64,
}

/// Layer figures a workload measures after the loop.
#[derive(Debug, Default)]
pub struct Extras {
    pub rlog_bytes: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub verify_s: f64,
}

pub trait Workload {
    /// Arms a traced run alternates with the main arm.
    fn ab_arms(&self) -> &'static [Arm];
    /// Arms an untraced run executes once after the loop, for their checks.
    fn check_arms(&self) -> &'static [Arm] {
        &[]
    }
    /// Run one repetition of `arm`; returns it and the runtime it ran on.
    fn rep(&mut self, arm: Arm, spans: &Spans, checks: &mut Checks) -> (Rep, Runtime);
    /// Time runtime construction and array inserts apart, as spans
    /// `setup.build` and `setup.insert`, when the main arm cannot.
    fn setup_probe(&mut self, _spans: &Spans) -> bool {
        false
    }
    /// Checks and layer figures after the loop, once peak memory has been
    /// read.
    fn finish(&mut self, _spans: &Spans, _checks: &mut Checks, _extras: &mut Extras) {}
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

struct Done {
    arm: Arm,
    traced: bool,
    run_id: u32,
    alloc: (u64, u64),
    /// `CAL_REF_S` over the calibration time around this repetition.
    speed: f64,
    rep: Rep,
}

/// What one run of the benchmark produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    pub spans: Spans,
    /// Share of CPU ticks stolen by the hypervisor during the run.
    pub steal: f64,
    /// Median host seconds of the calibration loop during the run.
    pub calib_s: f64,
}

/// Measure `w` for `seconds`.
pub fn measure(w: &mut dyn Workload, label: &str, seconds: f64, trace: bool) -> Outcome {
    let ticks0 = host::cpu_ticks();
    let mut checks = Checks::default();
    let spans = if trace { Spans::on() } else { Spans::off() };
    let mut rotation = vec![(Arm::Main, trace)];
    if trace {
        rotation.push((Arm::Main, false));
        rotation.extend(w.ab_arms().iter().map(|&a| (a, false)));
    }

    let mut done: Vec<Done> = Vec::new();
    let mut last_rt: Option<Runtime> = None;
    let mut run_id = 0u32;
    let mut cal = vec![calibrate()];
    let start = Instant::now();
    loop {
        for &(arm, traced) in &rotation {
            // Free the previous runtime before building the next, so peak
            // memory is one workload's.
            drop(last_rt.take());
            let sp = if traced { spans.clone() } else { Spans::off() };
            sp.set_run(run_id);
            alloc::set_counting(traced);
            let a0 = alloc::snapshot();
            let (rep, rt) = w.rep(arm, &sp, &mut checks);
            let a1 = alloc::snapshot();
            alloc::set_counting(false);
            cal.push(calibrate());
            check_rep(&mut checks, label, arm, &rep, done.first().map(|d| &d.rep));
            done.push(Done {
                arm,
                traced,
                run_id,
                alloc: (a1.0 - a0.0, a1.1 - a0.1),
                speed: 2.0 * CAL_REF_S / (cal[cal.len() - 2] + cal[cal.len() - 1]),
                rep,
            });
            last_rt = Some(rt);
            run_id += 1;
        }
        if trace {
            spans.set_run(run_id);
            if w.setup_probe(&spans) {
                run_id += 1;
            }
        }
        let reps = done.len() / rotation.len();
        if start.elapsed().as_secs_f64() >= seconds && reps >= MIN_REPS {
            break;
        }
    }
    let peak_rss = charm_machine::rss::peak_rss_bytes().unwrap_or(0);

    if !trace {
        for &arm in w.check_arms() {
            drop(last_rt.take());
            let (rep, rt) = w.rep(arm, &Spans::off(), &mut checks);
            check_rep(&mut checks, label, arm, &rep, done.first().map(|d| &d.rep));
            last_rt = Some(rt);
        }
    }
    let mut rt = last_rt.expect("at least one repetition ran");
    let trips = DISK_ROUND_TRIPS[usize::from(trace)];
    let (ckpt_s, restore_s) = disk_round_trips(&mut rt, label, trips, &spans, &mut checks);
    drop(rt);
    let mut extras = Extras::default();
    w.finish(&spans, &mut checks, &mut extras);
    let steal = host::steal_frac(ticks0, host::cpu_ticks());
    let calib_s = median(&cal);

    let main: Vec<&Done> = done
        .iter()
        .filter(|d| d.arm == Arm::Main && d.traced == trace)
        .collect();
    let first = &main[0].rep;
    let metrics = if !trace {
        vec![
            m(
                "setup_s",
                "s",
                median(
                    &main
                        .iter()
                        .map(|d| d.rep.setup_s * d.speed)
                        .collect::<Vec<_>>(),
                ),
            ),
            m(
                "run_s",
                "s",
                median(
                    &main
                        .iter()
                        .map(|d| d.rep.run_s * d.speed)
                        .collect::<Vec<_>>(),
                ),
            ),
            m("peak_rss_mib", "MiB", peak_rss as f64 / (1u64 << 20) as f64),
            m("sim_end_s", "virtual_s", first.sim.end_s),
            m("sim_p50_s", "virtual_s", first.sim.p50_s),
            m("sim_p99_s", "virtual_s", first.sim.p99_s),
            m("sim_done_frac", "ratio", first.sim.done_frac),
            m("check_pass_frac", "ratio", checks.pass_frac()),
        ]
    } else {
        let all = spans.spans();
        let traced: Vec<&Done> = done
            .iter()
            .filter(|d| d.arm == Arm::Main && d.traced)
            .collect();
        let med_run = |arm: Arm, tr: bool| {
            median(
                &done
                    .iter()
                    .filter(|d| d.arm == arm && d.traced == tr)
                    .map(|d| d.rep.run_s * d.speed)
                    .collect::<Vec<_>>(),
            )
        };
        let per =
            |f: &dyn Fn(&Done) -> f64| median(&traced.iter().map(|d| f(d)).collect::<Vec<_>>());
        let untraced_main = med_run(Arm::Main, false);
        let ratio_to = |arm: Arm| {
            if w.ab_arms().contains(&arm) {
                untraced_main / med_run(arm, false)
            } else {
                0.0
            }
        };
        let s = &first.summary;
        let ev = s.events.max(1) as f64;
        let kev = ev / 1e3;
        let run_s = per(&|d| d.rep.run_s * d.speed);
        let lb_calls = first.lb_calls as f64;
        vec![
            m(
                "core.runtime.self_s",
                "s",
                per(&|d| (d.rep.run_s - child_ns(&all, d.run_id) as f64 / 1e9) * d.speed),
            ),
            m("core.runtime.events_per_s", "1/s", s.events as f64 / run_s),
            m(
                "core.runtime.ns_per_entry",
                "ns",
                run_s * 1e9 / s.entries.max(1) as f64,
            ),
            m("core.runtime.events", "count", s.events as f64),
            m("core.runtime.entries", "count", s.entries as f64),
            m("core.runtime.messages", "count", s.messages as f64),
            m(
                "machine.queue_ops_per_event",
                "ratio",
                s.queue_ops as f64 / ev,
            ),
            m("machine.net_bytes", "B", s.bytes as f64),
            m(
                "core.arena.bypass_per_event",
                "ratio",
                s.alloc_bypass as f64 / ev,
            ),
            m("core.arena.bytes_per_event", "B", s.arena_bytes as f64 / ev),
            m(
                "alloc.calls_per_event",
                "ratio",
                per(&|d| d.alloc.0 as f64) / ev,
            ),
            m(
                "alloc.bytes_per_event",
                "B",
                per(&|d| d.alloc.1 as f64) / ev,
            ),
            m(
                "core.parallel.went_parallel",
                "flag",
                f64::from(u8::from(first.parallel)),
            ),
            m(
                "core.parallel.waits_per_kevent",
                "1/kevent",
                per(&|d| d.rep.summary.barriers_waited as f64) / kev,
            ),
            m(
                "core.parallel.elided_per_kevent",
                "1/kevent",
                per(&|d| d.rep.summary.barriers_elided as f64) / kev,
            ),
            m(
                "core.parallel.windows_per_kevent",
                "1/kevent",
                per(&|d| d.rep.summary.windows_executed as f64) / kev,
            ),
            m(
                "core.parallel.avg_window_ns",
                "virtual_ns",
                per(&|d| d.rep.summary.avg_window_width),
            ),
            m(
                "core.parallel.speedup_vs_seq",
                "x",
                if w.ab_arms().contains(&Arm::Seq) {
                    med_run(Arm::Seq, false) / untraced_main
                } else {
                    0.0
                },
            ),
            m("lb.rounds", "count", lb_calls),
            m(
                "lb.assign_s",
                "s",
                per(&|d| spans::total_ns(&all, d.run_id, "lb.assign") as f64 / 1e9 * d.speed),
            ),
            m(
                "lb.objs_per_round",
                "count",
                if lb_calls > 0.0 {
                    first.lb_objs as f64 / lb_calls
                } else {
                    0.0
                },
            ),
            m("lb.migrations", "count", first.migrations as f64),
            m(
                "pup.ns_per_chare",
                "ns",
                per(&|d| d.rep.digest_ns as f64 / d.rep.chares.max(1) as f64),
            ),
            m("core.ft.ckpt_bytes", "B", first.ckpt_bytes as f64),
            m("core.ft.disk_ckpt_s", "s", ckpt_s),
            m("core.ft.disk_restore_s", "s", restore_s),
            m("core.replay.record_overhead", "x", ratio_to(Arm::NoRecord)),
            m("core.replay.log_execs", "count", first.log_execs as f64),
            m("replay.rlog_bytes", "B", extras.rlog_bytes),
            m("replay.save_s", "s", extras.save_s),
            m("replay.load_s", "s", extras.load_s),
            m("replay.verify_s", "s", extras.verify_s),
            m("core.trace.overhead", "x", ratio_to(Arm::NoTrace)),
            m("core.trace.dropped", "count", s.trace_dropped as f64),
            m("setup.build_s", "s", span_median(&all, "setup.build")),
            m("setup.insert_s", "s", span_median(&all, "setup.insert")),
            m(
                "harness.trace_overhead",
                "x",
                med_run(Arm::Main, true) / untraced_main,
            ),
            m("host.steal_frac", "ratio", steal),
            m("host.calib_s", "s", calib_s),
        ]
    };
    Outcome {
        metrics,
        checks,
        spans,
        steal,
        calib_s,
    }
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Host ns that child spans (`lb.assign`) cover inside the span holding a
/// repetition's `run*` call: `core.run`, or the `app.*` call that runs
/// internally.
fn child_ns(all: &[spans::Span], run: u32) -> u64 {
    all.iter()
        .find(|s| {
            s.run == run
                && s.parent.is_none()
                && (s.name == "core.run" || s.name.starts_with("app."))
        })
        .map_or(0, |s| s.dur_ns() - spans::self_time_ns(all, s.id))
}

/// Median duration in seconds of every span called `name` (0 when none).
fn span_median(all: &[spans::Span], name: &str) -> f64 {
    let v: Vec<f64> = all
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect();
    median(&v)
}

/// Time a fixed `std`-only workload — a priority queue and a hash map, the
/// structures a discrete-event loop lives on — as a gauge of host speed.
fn calibrate() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    const KEYS: u64 = 4096;
    let t0 = Instant::now();
    let mut heap = BinaryHeap::with_capacity(KEYS as usize);
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(KEYS as usize);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lcg = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x
    };
    for k in 0..KEYS {
        heap.push(Reverse(lcg() >> 20));
        map.insert(k, lcg());
    }
    let mut acc = 0u64;
    for i in 0..CAL_STEPS {
        let r = lcg();
        let Reverse(t) = heap.pop().expect("the heap never empties");
        heap.push(Reverse(t + (r >> 44)));
        let v = map.insert(i % KEYS, r).unwrap_or(0);
        acc = acc.wrapping_add(t ^ v);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Compare a repetition with the first one and check its counters.
fn check_rep(checks: &mut Checks, label: &str, arm: Arm, rep: &Rep, first: Option<&Rep>) {
    checks.summary_invariants(
        &format!("{label}/{arm:?}"),
        &rep.summary,
        rep.parallel,
        rep.shards,
    );
    let Some(f) = first else { return };
    checks.check(rep.digest == f.digest, || {
        format!(
            "{label}/{arm:?}: final state digest {:#x} differs from {:#x}",
            rep.digest, f.digest
        )
    });
    checks.check(rep.sim == f.sim, || {
        format!(
            "{label}/{arm:?}: simulated results {:?} differ from {:?}",
            rep.sim, f.sim
        )
    });
    let exact = |s: &RunSummary| (s.events, s.entries, s.messages, s.bytes);
    checks.check(exact(&rep.summary) == exact(&f.summary), || {
        format!(
            "{label}/{arm:?}: (events, entries, messages, bytes) {:?} differ from {:?}",
            exact(&rep.summary),
            exact(&f.summary)
        )
    });
}

/// Write the final state to disk and restore it, checking that the state
/// digest survives; returns median host seconds of checkpoint and restore.
fn disk_round_trips(
    rt: &mut Runtime,
    label: &str,
    trips: usize,
    spans: &Spans,
    checks: &mut Checks,
) -> (f64, f64) {
    let dir = crate::out_dir();
    let path = dir.join(format!("ckpt-{}.bin", std::process::id()));
    let (mut ck, mut rs) = (Vec::new(), Vec::new());
    let before = fold_digest(&rt.state_digest());
    for _ in 0..trips {
        let t = Instant::now();
        let wrote = spans.span("core.ft.checkpoint_to_disk", || {
            rt.checkpoint_to_disk(&path)
        });
        ck.push(t.elapsed().as_secs_f64());
        if !checks.check(wrote.is_ok(), || {
            format!("{label}: checkpoint_to_disk failed: {wrote:?}")
        }) {
            break;
        }
        let t = Instant::now();
        let read = spans.span("core.ft.restore_from_disk", || rt.restore_from_disk(&path));
        rs.push(t.elapsed().as_secs_f64());
        checks.check(read.is_ok(), || {
            format!("{label}: restore_from_disk failed: {read:?}")
        });
        let after = fold_digest(&rt.state_digest());
        checks.check(after == before, || {
            format!("{label}: disk round trip changed the state digest {before:#x} -> {after:#x}")
        });
    }
    let _ = std::fs::remove_file(&path);
    (median(&ck), median(&rs))
}

/// Fold per-chare state digests into one order-sensitive FNV-1a value.
pub fn fold_digest(pairs: &[(charm_core::ObjId, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (obj, d) in pairs {
        for v in [obj.ix.stable_hash(), *d] {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}
