//! Parallel-engine determinism property: for every mini-app, seed,
//! worker-thread count, and synchronization scheme (adaptive per-shard-pair
//! lookahead vs the `global_window` lockstep fallback), the sharded engine
//! must produce results **byte-identical** to the sequential scheduler —
//! same final PUP state digests, same Chrome-trace JSON, same step timings,
//! and (separately) the same PUP-packed replay log bytes.
//!
//! The thread counts >1 additionally assert `last_run_parallel()`, so a
//! silent fallback to the sequential path cannot make this test vacuous.
//! The `global_window` knob is A/B'd the same way `classic_hotpath` is in
//! `hotpath_regression`: both engines answer identically, so the knob may
//! only ever change wall-clock time and window counters.

use charm_core::machine::{presets, MachineConfig};
use charm_core::{Runtime, TraceConfig};

const SEEDS: [u64; 2] = [42, 9001];
const THREADS: [usize; 3] = [1, 2, 4];

/// Everything we demand be identical across thread counts.
struct Fingerprint {
    digests: Vec<(charm_core::ObjId, u64)>,
    trace_json: String,
    step_times: Vec<f64>,
    went_parallel: bool,
}

fn fingerprint(mut rt: Runtime, step_times: Vec<f64>) -> Fingerprint {
    Fingerprint {
        digests: rt.state_digest(),
        trace_json: rt
            .trace_chrome_json()
            .expect("tracing was enabled for this run"),
        step_times,
        went_parallel: rt.last_run_parallel(),
    }
}

fn check_matrix(app: &str, run: impl Fn(u64, usize, bool) -> Fingerprint) {
    for seed in SEEDS {
        let base = run(seed, 1, false);
        assert!(
            !base.went_parallel,
            "{app} seed {seed}: threads=1 must use the sequential engine"
        );
        assert!(
            !base.digests.is_empty(),
            "{app} seed {seed}: no live chares to digest — test is vacuous"
        );
        for threads in THREADS.iter().copied().filter(|&t| t > 1) {
            for global_window in [false, true] {
                let scheme = if global_window { "lockstep" } else { "adaptive" };
                let par = run(seed, threads, global_window);
                assert!(
                    par.went_parallel,
                    "{app} seed {seed} threads {threads} ({scheme}): engine silently fell back to sequential"
                );
                assert_eq!(
                    base.digests, par.digests,
                    "{app} seed {seed} threads {threads} ({scheme}): final PUP digests diverged"
                );
                assert_eq!(
                    base.step_times, par.step_times,
                    "{app} seed {seed} threads {threads} ({scheme}): step timings diverged"
                );
                if base.trace_json != par.trace_json {
                    // Locate the first differing line for a readable failure.
                    let (a, b) = (&base.trace_json, &par.trace_json);
                    let diff = a
                        .lines()
                        .zip(b.lines())
                        .enumerate()
                        .find(|(_, (x, y))| x != y);
                    panic!(
                        "{app} seed {seed} threads {threads} ({scheme}): Chrome traces diverged at {:?}",
                        diff.map(|(i, (x, y))| format!("line {i}: {x} vs {y}"))
                    );
                }
            }
        }
    }
}

#[test]
fn stencil_parallel_matches_sequential() {
    check_matrix("stencil", |seed, threads, global_window| {
        let mut cfg =
            charm_apps::stencil::StencilConfig::cloud_4k(presets::cloud(8), 2);
        cfg.grid = 512;
        cfg.steps = 6;
        cfg.seed = seed;
        cfg.threads = threads;
        cfg.global_window = global_window;
        cfg.trace = Some(TraceConfig::default());
        let (run, rt) = charm_apps::stencil::run_with_runtime(cfg);
        fingerprint(rt, run.step_times)
    });
}

#[test]
fn leanmd_parallel_matches_sequential() {
    check_matrix("leanmd", |seed, threads, global_window| {
        let cfg = charm_apps::leanmd::LeanMdConfig {
            machine: MachineConfig::homogeneous(8),
            cells_per_dim: 3,
            atoms_per_cell: 40,
            steps: 4,
            seed,
            threads,
            global_window,
            trace: Some(TraceConfig::default()),
            ..Default::default()
        };
        let (run, rt) = charm_apps::leanmd::run_with_runtime(cfg);
        fingerprint(rt, run.step_times)
    });
}

/// Satellite: the tracer's per-entry profile must account for *exactly* the
/// busy time the scheduler billed, even when four shard tracers were merged.
#[test]
fn parallel_tracer_accounts_for_all_busy_time() {
    let cfg = charm_apps::leanmd::LeanMdConfig {
        machine: MachineConfig::homogeneous(8),
        cells_per_dim: 3,
        atoms_per_cell: 40,
        steps: 4,
        threads: 4,
        trace: Some(TraceConfig::default()),
        ..Default::default()
    };
    let (_run, rt) = charm_apps::leanmd::run_with_runtime(cfg);
    assert!(rt.last_run_parallel(), "run did not take the parallel path");
    let tr = rt.tracer().expect("tracing was enabled");
    let busy: charm_core::SimTime = (0..rt.num_pes()).map(|pe| rt.pe_busy_time(pe)).sum();
    assert!(busy > charm_core::SimTime::ZERO);
    assert_eq!(
        tr.total_entry_time(),
        busy,
        "merged shard profiles must bill every busy nanosecond exactly once"
    );
}

/// Satellite: ring-overflow drop counts survive the shard merge — a tiny
/// per-track ring must report the same per-track drops whether one scheduler
/// or four shard workers produced the records.
#[test]
fn parallel_tracer_merges_ring_drops() {
    let run = |threads: usize| {
        let cfg = charm_apps::leanmd::LeanMdConfig {
            machine: MachineConfig::homogeneous(8),
            cells_per_dim: 3,
            atoms_per_cell: 40,
            steps: 4,
            threads,
            trace: Some(TraceConfig {
                log_capacity: 8,
                ..Default::default()
            }),
            ..Default::default()
        };
        let (_run, rt) = charm_apps::leanmd::run_with_runtime(cfg);
        assert_eq!(rt.last_run_parallel(), threads > 1);
        let tr = rt.tracer().expect("tracing was enabled");
        (tr.dropped_events(), tr.dropped_by_track())
    };
    let (seq_dropped, seq_by_track) = run(1);
    let (par_dropped, par_by_track) = run(4);
    assert!(seq_dropped > 0, "rings never overflowed — drop test is vacuous");
    assert_eq!(seq_dropped, par_dropped);
    assert_eq!(seq_by_track, par_by_track);
}

#[test]
fn pdes_parallel_matches_sequential() {
    check_matrix("pdes", |seed, threads, global_window| {
        let cfg = charm_apps::pdes::PdesConfig {
            machine: MachineConfig::homogeneous(8),
            lps_per_pe: 16,
            initial_events_per_lp: 8,
            windows: 6,
            seed,
            threads,
            global_window,
            trace: Some(TraceConfig::default()),
            ..Default::default()
        };
        let (run, rt) = charm_apps::pdes::run_with_runtime(cfg);
        // PDES reports rates, not per-step times; fold the scalar results in.
        fingerprint(rt, vec![run.time_s, run.events_executed as f64, run.repolls as f64])
    });
}

/// Satellite: the PUP-packed replay log — executed entries in order, with
/// timings, digests, and message routing — must be byte-identical whether
/// it was recorded by the sequential scheduler, the adaptive sharded
/// engine, or the global-window lockstep fallback. Recording here uses no
/// periodic digest points (`ReplayConfig::default()`), which is exactly
/// the configuration where the adaptive scheme is eligible.
#[test]
fn replay_log_bytes_identical_across_engines() {
    let record = |threads: usize, global_window: bool| -> Vec<u8> {
        let cfg = charm_apps::leanmd::LeanMdConfig {
            machine: MachineConfig::homogeneous(8),
            cells_per_dim: 3,
            atoms_per_cell: 40,
            steps: 4,
            threads,
            global_window,
            record: Some(charm_core::ReplayConfig::default()),
            ..Default::default()
        };
        let (_run, mut rt) = charm_apps::leanmd::run_with_runtime(cfg);
        assert_eq!(
            rt.last_run_parallel(),
            threads > 1,
            "threads {threads}: unexpected engine selection"
        );
        let mut log = rt.take_replay_log().expect("recording was enabled");
        charm_pup::to_bytes(&mut log)
    };
    let seq = record(1, false);
    assert!(!seq.is_empty());
    for threads in [2usize, 4] {
        for global_window in [false, true] {
            let scheme = if global_window { "lockstep" } else { "adaptive" };
            assert_eq!(
                seq,
                record(threads, global_window),
                "threads {threads} ({scheme}): .rlog bytes diverged from sequential"
            );
        }
    }
}

/// Satellite: shard event queues are merged back into `queue_ops`, so the
/// counter keeps its invariant (every processed event was pushed and
/// popped at least once) after a parallel run.
#[test]
fn parallel_queue_ops_cover_every_event() {
    for threads in [2usize, 4] {
        let cfg = charm_apps::leanmd::LeanMdConfig {
            machine: MachineConfig::homogeneous(8),
            cells_per_dim: 3,
            atoms_per_cell: 40,
            steps: 4,
            threads,
            ..Default::default()
        };
        let (_run, rt) = charm_apps::leanmd::run_with_runtime(cfg);
        assert!(rt.last_run_parallel(), "threads {threads}: run did not go parallel");
        let s = rt.summary();
        assert!(s.events > 0);
        assert!(
            s.queue_ops >= s.events,
            "threads {threads}: queue_ops {} below events {}",
            s.queue_ops,
            s.events
        );
    }
}

/// Zero-work ping-pong partner: the pure scheduler stressor.
#[derive(Default)]
struct Ping {
    count: u64,
    limit: u64,
    peer: i64,
}

impl charm_pup::Pup for Ping {
    fn pup(&mut self, p: &mut charm_pup::Puper) {
        charm_pup::pup_all!(p; self.count, self.limit, self.peer);
    }
}

impl charm_core::Chare for Ping {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut charm_core::Ctx<'_>) {
        self.count += 1;
        if self.count < self.limit {
            let arr = charm_core::ArrayProxy::<Ping>::from_id(ctx.my_id().array);
            ctx.send(arr, charm_core::Ix::i1(self.peer), 0u8);
        }
    }
}

/// `pairs` ping-pong pairs on 8 PEs, each pair split across two PEs.
fn ping_pipe(pairs: usize, limit: u64, threads: usize) -> Runtime {
    let pes = 8;
    let mut rt = Runtime::homogeneous(pes);
    rt.set_parallel_threads(threads);
    let arr = rt.create_array::<Ping>("ping");
    for k in 0..pairs {
        let (a, b) = ((2 * k) as i64, (2 * k + 1) as i64);
        let ping = |peer| Ping {
            count: 0,
            limit,
            peer,
        };
        rt.insert(arr, charm_core::Ix::i1(a), ping(b), Some((2 * k) % pes));
        rt.insert(arr, charm_core::Ix::i1(b), ping(a), Some((2 * k + 1) % pes));
    }
    for k in 0..pairs {
        rt.send(arr, charm_core::Ix::i1((2 * k) as i64), 0u8);
    }
    rt.run();
    rt
}

/// Satellite: a shard that drains publishes an unbounded clock at the end
/// of the run; the window counters must count α-cells only up to its last
/// real event, not up to `u64::MAX`.
#[test]
fn window_counters_stay_within_the_run() {
    let win = charm_core::machine::NetworkModel::new(MachineConfig::homogeneous(8).network, 0)
        .min_remote_delay()
        .0
        .max(1);
    let mut seq = ping_pipe(32, 500, 1);
    let seq_s = seq.summary();
    assert_eq!(seq_s.barriers_elided, 0);
    for threads in [2usize, 4] {
        let mut rt = ping_pipe(32, 500, threads);
        assert!(rt.last_run_parallel(), "threads {threads}: run did not go parallel");
        assert_eq!(rt.state_digest(), seq.state_digest());
        let s = rt.summary();
        assert_eq!(s.end_time, seq_s.end_time);
        let cells = s.end_time.0 / win + 1;
        assert!(
            s.barriers_elided <= cells * threads as u64,
            "threads {threads}: barriers_elided {} exceeds {cells} cells x {threads} shards",
            s.barriers_elided
        );
        assert!(
            s.avg_window_width <= s.end_time.0 as f64,
            "threads {threads}: avg_window_width {} exceeds end_time {}",
            s.avg_window_width,
            s.end_time.0
        );
    }
}
