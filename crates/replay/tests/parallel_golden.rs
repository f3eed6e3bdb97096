//! Parallel-engine golden replay: re-record the hot-path workloads with the
//! sharded engine (`--threads 2` and `4`) and demand the resulting `.rlog`
//! is **byte-identical** to the committed goldens, which were recorded by
//! the sequential scheduler. This pins the strongest claim the parallel
//! engine makes: not just same final state, but the same executed entries
//! in the same order with the same timings, digests, and message routing.
//!
//! There is deliberately no blessing path here — if these diverge, the
//! parallel engine is wrong (or `hotpath_regression` needs a re-bless
//! first, after which these must again match with no further action).

use charm_apps::{leanmd, pdes, stencil};
use charm_core::ReplayConfig;
use charm_machine::presets;
use charm_replay::{load, save, verify};
use std::path::PathBuf;

fn golden_path(app: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{app}.rlog"))
}

fn check(app: &str, threads: usize, mut rt: charm_core::Runtime) {
    assert!(
        rt.last_run_parallel(),
        "{app} threads {threads}: engine silently fell back to sequential; \
         this golden comparison would only repeat hotpath_regression"
    );
    let mut log = rt.take_replay_log().expect("recording on");
    log.app = app.to_string();
    let golden = load(&golden_path(app)).expect("golden log exists (hotpath_regression blesses)");
    let report = verify(&golden, &log);
    assert!(
        report.ok(),
        "{app} threads {threads}: parallel recording diverged from sequential golden:\n{report}"
    );

    let tmp = std::env::temp_dir().join(format!(
        "charm_pargold_{app}_{threads}_{}.rlog",
        std::process::id()
    ));
    save(&log, &tmp).unwrap();
    let fresh = std::fs::read(&tmp).unwrap();
    let _ = std::fs::remove_file(&tmp);
    let golden_bytes = std::fs::read(golden_path(app)).unwrap();
    assert_eq!(
        fresh, golden_bytes,
        "{app} threads {threads}: parallel .rlog is not byte-identical to the sequential golden"
    );
}

fn stencil_rt(threads: usize, digest_every: u64) -> charm_core::Runtime {
    let mut cfg = stencil::StencilConfig::cloud_4k(presets::cloud(8), 2);
    cfg.steps = 5;
    cfg.record = Some(ReplayConfig::with_digest_every(digest_every));
    cfg.threads = threads;
    stencil::run_with_runtime(cfg).1
}

fn leanmd_rt(threads: usize, digest_every: u64) -> charm_core::Runtime {
    let cfg = leanmd::LeanMdConfig {
        cells_per_dim: 3,
        atoms_per_cell: 20,
        steps: 3,
        record: Some(ReplayConfig::with_digest_every(digest_every)),
        threads,
        ..Default::default()
    };
    leanmd::run_with_runtime(cfg).1
}

fn pdes_rt(threads: usize, digest_every: u64) -> charm_core::Runtime {
    let cfg = pdes::PdesConfig {
        machine: charm_core::MachineConfig::homogeneous(8),
        lps_per_pe: 8,
        initial_events_per_lp: 8,
        windows: 4,
        record: Some(ReplayConfig::with_digest_every(digest_every)),
        threads,
        ..Default::default()
    };
    pdes::run_with_runtime(cfg).1
}

#[test]
fn stencil_parallel_recording_matches_golden() {
    for threads in [2, 4] {
        check("stencil", threads, stencil_rt(threads, 64));
    }
}

#[test]
fn leanmd_parallel_recording_matches_golden() {
    for threads in [2, 4] {
        check("leanmd", threads, leanmd_rt(threads, 128));
    }
}

#[test]
fn pdes_parallel_recording_matches_golden() {
    for threads in [2, 4] {
        check("pdes", threads, pdes_rt(threads, 256));
    }
}

/// The golden stencil configuration on a 512×512 grid: same traffic, but
/// each state digest PUPs 1/64 of the 4k grid, so a digest point at every
/// window boundary stays cheap in a debug build.
fn small_stencil_rt(threads: usize, digest_every: u64) -> charm_core::Runtime {
    let mut cfg = stencil::StencilConfig::cloud_4k(presets::cloud(8), 2);
    cfg.grid = 512;
    cfg.steps = 5;
    cfg.record = Some(ReplayConfig::with_digest_every(digest_every));
    cfg.threads = threads;
    stencil::run_with_runtime(cfg).1
}

/// Digest points under real concurrency: each app records periodic state
/// digests every 1, 7 and 64 executed entries on 2, 4 and 8 worker
/// threads, and the packed log must equal the same configuration recorded
/// sequentially. `digest_every = 1` puts a point at every window boundary,
/// so every shard stops at every occupied α-cell: the most pressure the
/// digest hold can take.
#[test]
fn digest_points_match_sequential_under_concurrency() {
    type AppRt = fn(usize, u64) -> charm_core::Runtime;
    let apps: [(&str, AppRt); 3] = [
        ("stencil", small_stencil_rt),
        ("leanmd", leanmd_rt),
        ("pdes", pdes_rt),
    ];
    let rlog = |mut rt: charm_core::Runtime| {
        let mut log = rt.take_replay_log().expect("recording on");
        (log.state_points.len(), charm_pup::to_bytes(&mut log))
    };
    for (app, run) in apps {
        for every in [1, 7, 64] {
            let seq = run(1, every);
            assert!(!seq.last_run_parallel());
            let (points, seq) = rlog(seq);
            assert!(
                points > 1,
                "{app} digest_every {every}: {points} digest point(s)"
            );
            for threads in [2, 4, 8] {
                let par = run(threads, every);
                assert!(
                    par.last_run_parallel(),
                    "{app} digest_every {every} threads {threads}: fell back to sequential"
                );
                assert!(
                    rlog(par).1 == seq,
                    "{app} digest_every {every} threads {threads}: .rlog bytes diverged from sequential"
                );
            }
        }
    }
}
