//! overhead_bench — Task-Bench-style METG measurement of per-task runtime
//! overhead, per instrumentation configuration.
//!
//! "Quantifying Overheads in Charm++ and HPX using Task Bench" measures a
//! runtime's *minimum effective task granularity* (METG): the smallest task
//! at which the runtime still achieves a target efficiency (50% in the
//! paper). For an overhead-additive runtime the METG(50%) is exactly the
//! runtime's own per-task overhead — efficiency hits 50% when the real work
//! per task equals the overhead per task. This engine simulates task *work*
//! (declared nanoseconds advance virtual time, not the host clock), so the
//! per-task host overhead is directly observable: run a zero-work message
//! storm and divide wall time by tasks executed. That number **is** the
//! METG curve point, and we sweep it along the axis that actually moves it
//! here — task *density* (tasks per PE per virtual timestep), which sets
//! event-queue bucket depth and batch-amortization behavior.
//!
//! Each instrumentation configuration (tracing off / summary-only /
//! streaming sink / replay recording) is swept separately, so the cost of
//! observability is a recorded per-configuration curve instead of folklore.
//!
//! Writes `BENCH_overhead.json` at the repo root. `--smoke` runs a ~1 s
//! subset and self-checks without rewriting the JSON.
//!
//! Caveat (recorded in the JSON): CI hosts for this repo are typically
//! 1-core VMs with significant steal-time noise; absolute ns/task moves
//! ±30% between runs. Each point keeps the faster of two same-seed runs
//! (digest-checked), the same discipline as `engine_bench`.

use charm_core::{ArrayProxy, Chare, Ctx, Ix, MachineConfig, ReplayConfig, Runtime};
use charm_core::{CountingSink, TraceConfig};
use charm_pup::{Pup, Puper};
use std::fmt::Write as _;
use std::time::Instant;

const PES: usize = 8;

/// A zero-work relay: every delivery immediately forwards one hop to the
/// next chare (one PE over), until the hop budget is spent. Nothing but
/// envelopes, routing, queues, and instrumentation on the clock.
#[derive(Default)]
struct Relay {
    ring: i64,
    hops_left: u64,
    fired: u64,
}

impl Pup for Relay {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.ring, self.hops_left, self.fired);
    }
}

impl Chare for Relay {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        self.fired += 1;
        if self.hops_left > 0 {
            self.hops_left -= 1;
            let me = match ctx.my_index() {
                Ix::I1(i) => i,
                other => panic!("unexpected index {other:?}"),
            };
            let arr = ArrayProxy::<Relay>::from_id(ctx.my_id().array);
            ctx.send(arr, Ix::i1((me + 1) % self.ring), 0u8);
        }
    }
}

/// Which instrumentation arms are on for a sweep.
#[derive(Clone, Copy)]
struct BenchConfig {
    name: &'static str,
    tracing: &'static str, // "off" | "summary" | "stream"
    recording: bool,
}

const CONFIGS: &[BenchConfig] = &[
    BenchConfig { name: "baseline", tracing: "off", recording: false },
    BenchConfig { name: "trace_summary", tracing: "summary", recording: false },
    BenchConfig { name: "trace_stream", tracing: "stream", recording: false },
    BenchConfig { name: "record", tracing: "off", recording: true },
];

/// One sweep point: `density` rings per PE, each walking `hops` hops, all
/// rings in lockstep so every virtual timestep carries `density` tasks per
/// PE. Returns (tasks executed, final-state digest).
fn run_point(cfg: BenchConfig, density: usize, hops: u64) -> (u64, u64) {
    let mut b = Runtime::builder(MachineConfig::homogeneous(PES));
    match cfg.tracing {
        "off" => {}
        "summary" => b = b.tracing(TraceConfig::summary_only()),
        "stream" => {
            b = b
                .tracing(TraceConfig::summary_only())
                .trace_sink(Box::new(CountingSink::new()));
        }
        other => panic!("unknown tracing arm {other}"),
    }
    if cfg.recording {
        b = b.record(ReplayConfig::with_digest_every(1 << 20));
    }
    let mut rt = b.build();
    let arr = rt.create_array::<Relay>("relay");
    let n = (density * PES) as i64;
    for i in 0..n {
        rt.insert(
            arr,
            Ix::i1(i),
            Relay { ring: n, hops_left: hops, fired: 0 },
            Some(i as usize % PES),
        );
    }
    for i in 0..n {
        rt.send(arr, Ix::i1(i), 0u8);
    }
    let s = rt.run();
    let mut digest: u64 = 0xcbf29ce484222325;
    for (obj, d) in rt.state_digest() {
        for b in (obj.ix.stable_hash() ^ d).to_le_bytes() {
            digest = (digest ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    (s.entries, digest)
}

struct Point {
    density: usize,
    tasks: u64,
    wall_s: f64,
    ns_per_task: f64,
}

/// Sweep one config across densities at a roughly fixed total task count.
/// Each point: best-of-two same-seed runs, digests must agree.
fn sweep(cfg: BenchConfig, densities: &[usize], total_tasks: u64) -> Vec<Point> {
    let mut out = Vec::new();
    for &d in densities {
        let chares = (d * PES) as u64;
        let hops = (total_tasks / chares).max(4);
        let t0 = Instant::now();
        let (tasks1, dig1) = run_point(cfg, d, hops);
        let w1 = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (tasks2, dig2) = run_point(cfg, d, hops);
        let w2 = t1.elapsed().as_secs_f64();
        assert_eq!(dig1, dig2, "{}: same-seed digest diverged at density {d}", cfg.name);
        assert_eq!(tasks1, tasks2, "{}: task counts diverged at density {d}", cfg.name);
        let wall = w1.min(w2).max(1e-9);
        out.push(Point {
            density: d,
            tasks: tasks1,
            wall_s: wall,
            ns_per_task: wall * 1e9 / tasks1 as f64,
        });
    }
    out
}

fn write_json(results: &[(BenchConfig, Vec<Point>)]) -> std::io::Result<std::path::PathBuf> {
    let root = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => std::path::PathBuf::from(m).join("../.."),
        Err(_) => std::path::PathBuf::from("."),
    };
    let path = root.join("BENCH_overhead.json");
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let baseline_metg = results
        .iter()
        .find(|(c, _)| c.name == "baseline")
        .map(|(_, pts)| metg(pts))
        .expect("baseline config present");
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"overhead\",");
    let _ = writeln!(j, "  \"mode\": \"full\",");
    let _ = writeln!(
        j,
        "  \"note\": \"Task-Bench-style METG: ns_per_task is host overhead per zero-work task; for an overhead-additive runtime this equals METG at 50% efficiency. Swept over task density (tasks/PE/timestep). host_cores is the measuring host's core count; on shared VMs with steal-time noise each point keeps the faster of two digest-checked runs, and absolute numbers still move ~±30% run to run.\","
    );
    let _ = writeln!(j, "  \"host_cores\": {host_cores},");
    let _ = writeln!(j, "  \"pes\": {PES},");
    let _ = writeln!(j, "  \"configs\": [");
    for (i, (cfg, pts)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let m = metg(pts);
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"name\": \"{}\",", cfg.name);
        let _ = writeln!(j, "      \"tracing\": \"{}\",", cfg.tracing);
        let _ = writeln!(j, "      \"recording\": {},", cfg.recording);
        let _ = writeln!(j, "      \"points\": [");
        for (k, p) in pts.iter().enumerate() {
            let pc = if k + 1 < pts.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "        {{\"tasks_per_pe_per_step\": {}, \"tasks\": {}, \"wall_s\": {:.6}, \"ns_per_task\": {:.1}}}{pc}",
                p.density, p.tasks, p.wall_s, p.ns_per_task
            );
        }
        let _ = writeln!(j, "      ],");
        let _ = writeln!(j, "      \"metg_50_ns\": {:.1},", m);
        let _ = writeln!(j, "      \"overhead_vs_baseline\": {:.3}", m / baseline_metg);
        let _ = writeln!(j, "    }}{comma}");
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    std::fs::write(&path, j)?;
    Ok(path)
}

/// METG(50%) of a swept config: the best (smallest) per-task overhead the
/// runtime reaches across the density sweep.
fn metg(pts: &[Point]) -> f64 {
    pts.iter().map(|p| p.ns_per_task).fold(f64::INFINITY, f64::min)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (densities, total): (&[usize], u64) =
        if smoke { (&[1, 16], 40_000) } else { (&[1, 4, 16, 64], 400_000) };

    println!("== runtime overhead (METG) per instrumentation config");
    println!(
        "  {:<14} {:>8} {:>9} {:>9} {:>12}",
        "config", "density", "tasks", "wall_s", "ns/task"
    );
    let mut results = Vec::new();
    for &cfg in CONFIGS {
        let pts = sweep(cfg, densities, total);
        for p in &pts {
            println!(
                "  {:<14} {:>8} {:>9} {:>9.3} {:>12.1}",
                cfg.name, p.density, p.tasks, p.wall_s, p.ns_per_task
            );
        }
        println!("  {:<14} METG(50%) = {:.0} ns/task", cfg.name, metg(&pts));
        results.push((cfg, pts));
    }

    // Self-checks, smoke and full alike: every arm measured, sane numbers.
    assert!(results.len() >= 3, "need >= 3 instrumentation configs");
    for (cfg, pts) in &results {
        assert_eq!(pts.len(), densities.len(), "{}: missing sweep points", cfg.name);
        for p in pts {
            assert!(p.ns_per_task.is_finite() && p.ns_per_task > 0.0);
            assert!(p.tasks > 0);
        }
    }

    if smoke {
        println!("smoke ok: {} configs × {} densities", results.len(), densities.len());
    } else {
        let path = write_json(&results).expect("write BENCH_overhead.json");
        println!("wrote {}", path.display());
    }
}
