//! The four workloads. Each drives the program only through its public API
//! and derives its inputs from the `--seed` argument.
//!
//! - `pingpipe`: zero-work chare pairs ping-ponging on 8 PEs, sequential
//!   engine — the engine hot path and nothing else.
//! - `leanmd-2t`: LeanMD on the sharded engine with two threads — shard
//!   synchronization and real entry bodies.
//! - `kv-observed`: charm-kv with LB, checkpoints, replay recording and
//!   summary tracing on — every observation and migration layer.
//! - `stencil-wide`: stencil2d with one chare per PE on 16,384 PEs — setup
//!   and per-PE memory at width, on the hash side of the location cache.

use crate::checks::Checks;
use crate::harness::{fold_digest, Arm, Extras, Rep, Sim, Workload};
use crate::spans::Spans;
use crate::stats::{median, quantile};
use charm_apps::{kv, leanmd, stencil};
use charm_core::{
    ArrayProxy, Chare, Ctx, Ix, LbStats, LogHist, ReplayConfig, ReplayLog, Runtime, SimTime,
    Strategy, TraceConfig,
};
use charm_machine::{presets, MachineConfig};
use charm_pup::{Pup, Puper};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The workload names `--workload` accepts.
pub const NAMES: [&str; 4] = ["pingpipe", "leanmd-2t", "kv-observed", "stencil-wide"];

/// Build the named workload from `seed`.
pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "pingpipe" => Box::new(PingPipe::new(seed)),
        "leanmd-2t" => Box::new(LeanMd::new(seed)),
        "kv-observed" => Box::new(KvObserved::new(seed)),
        "stencil-wide" => Box::new(StencilWide { seed }),
        _ => return None,
    })
}

/// SplitMix64: the benchmark's own input generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fill the fields every workload reads the same way from a finished
/// runtime.
fn rep_from(rt: &mut Runtime, spans: &Spans, setup_s: f64, sim: Sim, threads: usize) -> Rep {
    let summary = rt.summary();
    // The final `state_digest` walk is timed as the PUP layer.
    let t = Instant::now();
    let pairs = spans.span("pup.state_digest", || rt.state_digest());
    let digest_ns = t.elapsed().as_nanos() as u64;
    let parallel = rt.last_run_parallel();
    Rep {
        setup_s,
        run_s: summary.wall_time_s,
        parallel,
        shards: if parallel {
            threads.min(rt.num_pes())
        } else {
            1
        },
        summary,
        digest: fold_digest(&pairs),
        sim,
        chares: pairs.len(),
        digest_ns,
        lb_calls: 0,
        lb_objs: 0,
        migrations: rt.lb_rounds().iter().map(|r| r.migrations as u64).sum(),
        ckpt_bytes: rt.mem_checkpoint().map_or(0, |c| c.total_bytes() as u64),
        log_execs: 0,
    }
}

/// Virtual-time percentiles of per-step durations, and the completed share.
fn step_sim(end: SimTime, steps: &[f64], wanted: u64) -> Sim {
    Sim {
        end_s: end.as_secs_f64(),
        p50_s: median(steps),
        p99_s: quantile(steps, 0.99),
        done_frac: steps.len() as f64 / wanted.max(1) as f64,
    }
}

// ---------------------------------------------------------------------------
// pingpipe
// ---------------------------------------------------------------------------

const PP_PES: usize = 8;
const PP_PAIRS: usize = 64;
/// Messages each end of a pair receives at most; a pair exchanges about
/// twice this.
const PP_HOPS: u64 = 3_000;

/// One end of a zero-work ping-pong pair.
#[derive(Default)]
struct Ping {
    count: u64,
    limit: u64,
    peer: i64,
    last_ns: u64,
}

impl Pup for Ping {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.count, self.limit, self.peer, self.last_ns);
    }
}

impl Chare for Ping {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        self.count += 1;
        self.last_ns = ctx.now().0;
        if self.count < self.limit {
            let arr = ArrayProxy::<Ping>::from_id(ctx.my_id().array);
            ctx.send(arr, Ix::i1(self.peer), 0u8);
        }
    }
}

struct PingPipe {
    /// PE of each chare (two per pair).
    pe: Vec<usize>,
    /// Message budget of each pair; the total is fixed, the split is seeded.
    limit: Vec<u64>,
}

impl PingPipe {
    fn new(seed: u64) -> Self {
        let mut rng = Rng(seed);
        // First ends: a seeded permutation of balanced slots. Second ends
        // sit 1..=7 PEs further on, so every pair crosses the network and
        // every PE still hosts the same number of chares.
        let mut first: Vec<usize> = (0..PP_PAIRS).map(|i| i % PP_PES).collect();
        for i in (1..first.len()).rev() {
            first.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let mut seen = [0usize; PP_PES];
        let mut pe = Vec::with_capacity(2 * PP_PAIRS);
        for &a in &first {
            let shift = 1 + seen[a] % (PP_PES - 1);
            seen[a] += 1;
            pe.extend([a, (a + shift) % PP_PES]);
        }
        // Budgets PP_HOPS ± up to 2%, in +d/-d pairs so the total is fixed.
        let mut limit = Vec::with_capacity(PP_PAIRS);
        for _ in 0..PP_PAIRS / 2 {
            let d = (rng.unit() * PP_HOPS as f64 * 0.02) as u64;
            limit.extend([PP_HOPS + d, PP_HOPS - d]);
        }
        PingPipe { pe, limit }
    }
}

impl Workload for PingPipe {
    fn ab_arms(&self) -> &'static [Arm] {
        &[]
    }

    fn rep(&mut self, _arm: Arm, spans: &Spans, checks: &mut Checks) -> (Rep, Runtime) {
        let t0 = Instant::now();
        let mut rt = spans.span("setup.build", || {
            Runtime::builder(MachineConfig::homogeneous(PP_PES)).build()
        });
        let arr = spans.span("setup.insert", || {
            let arr = rt.create_array::<Ping>("ping");
            for (k, &limit) in self.limit.iter().enumerate() {
                let (a, b) = (2 * k as i64, 2 * k as i64 + 1);
                rt.insert(
                    arr,
                    Ix::i1(a),
                    Ping {
                        limit,
                        peer: b,
                        ..Ping::default()
                    },
                    Some(self.pe[a as usize]),
                );
                rt.insert(
                    arr,
                    Ix::i1(b),
                    Ping {
                        limit,
                        peer: a,
                        ..Ping::default()
                    },
                    Some(self.pe[b as usize]),
                );
            }
            arr
        });
        spans.span("setup.send", || {
            for k in 0..self.limit.len() {
                rt.send(arr, Ix::i1(2 * k as i64), 0u8);
            }
        });
        let setup_s = t0.elapsed().as_secs_f64();
        let summary = spans.span("core.run", || rt.run());

        // Per pair: virtual ns per hop, and whether every message arrived.
        let (mut hop_s, mut delivered, mut wanted) = (Vec::new(), 0u64, 0u64);
        for (k, &limit) in self.limit.iter().enumerate() {
            let ends: Vec<(u64, u64)> = (0..2)
                .map(|e| {
                    rt.inspect(arr, &Ix::i1(2 * k as i64 + e), |p: &Ping| {
                        (p.count, p.last_ns)
                    })
                    .unwrap_or((0, 0))
                })
                .collect();
            let got = ends[0].0 + ends[1].0;
            delivered += got;
            wanted += 2 * limit - 1;
            hop_s.push(ends[0].1.max(ends[1].1) as f64 / 1e9 / got.max(1) as f64);
        }
        checks.check(delivered == wanted, || {
            format!("pingpipe: {delivered} of {wanted} messages delivered")
        });
        let sim = Sim {
            end_s: summary.end_time.as_secs_f64(),
            p50_s: median(&hop_s),
            p99_s: quantile(&hop_s, 0.99),
            done_frac: delivered as f64 / wanted as f64,
        };
        (rep_from(&mut rt, spans, setup_s, sim, 1), rt)
    }
}

// ---------------------------------------------------------------------------
// leanmd-2t
// ---------------------------------------------------------------------------

const LMD_PES: usize = 8;
const LMD_STEPS: u64 = 120;
const LMD_THREADS: usize = 2;

struct LeanMd {
    seed: u64,
    /// Blob drift per step: moves the density peak, so the seed changes
    /// which cells carry the load at each step.
    drift: f64,
    /// PE speed, ±1% around the default machine's: scales every modeled
    /// compute time without changing the work the host does.
    flops_per_sec: f64,
}

impl LeanMd {
    fn new(seed: u64) -> Self {
        let mut rng = Rng(seed);
        let drift = 0.004 + 0.002 * rng.unit();
        let flops_per_sec =
            MachineConfig::homogeneous(LMD_PES).flops_per_sec * (0.99 + 0.02 * rng.unit());
        LeanMd {
            seed,
            drift,
            flops_per_sec,
        }
    }
}

impl Workload for LeanMd {
    fn ab_arms(&self) -> &'static [Arm] {
        &[Arm::Seq]
    }

    fn check_arms(&self) -> &'static [Arm] {
        &[Arm::Seq]
    }

    fn rep(&mut self, arm: Arm, spans: &Spans, checks: &mut Checks) -> (Rep, Runtime) {
        let threads = if arm == Arm::Seq { 1 } else { LMD_THREADS };
        let mut machine = MachineConfig::homogeneous(LMD_PES);
        machine.flops_per_sec = self.flops_per_sec;
        let cfg = leanmd::LeanMdConfig {
            machine,
            steps: LMD_STEPS,
            threads,
            drift_per_step: self.drift,
            seed: self.seed,
            ..Default::default()
        };
        let t0 = Instant::now();
        let (run, mut rt) = spans.span("app.leanmd", || leanmd::run_with_runtime(cfg));
        let call_s = t0.elapsed().as_secs_f64();
        checks.check(run.unrecoverable.is_none(), || {
            format!("leanmd-2t: {:?}", run.unrecoverable)
        });
        let sim = step_sim(rt.now(), &run.step_durations(), LMD_STEPS);
        let wall = rt.summary().wall_time_s;
        (rep_from(&mut rt, spans, call_s - wall, sim, threads), rt)
    }
}

// ---------------------------------------------------------------------------
// kv-observed
// ---------------------------------------------------------------------------

const KV_PES: usize = 8;
const KV_REQUESTS_PER_CLIENT: u64 = 4_000;
const KV_THREADS: usize = 2;

/// Counts what the balancer was asked to decide.
#[derive(Debug, Default)]
pub struct LbTally {
    pub calls: u64,
    pub objs: u64,
}

/// A `Strategy` that times `assign` as an `lb.assign` span and delegates
/// everything, including the modeled decision cost, so the simulated run
/// is unchanged.
pub struct TimedStrategy {
    inner: Box<dyn Strategy>,
    spans: Spans,
    tally: Arc<Mutex<LbTally>>,
}

impl TimedStrategy {
    pub fn new(inner: Box<dyn Strategy>, spans: Spans, tally: Arc<Mutex<LbTally>>) -> Self {
        TimedStrategy {
            inner,
            spans,
            tally,
        }
    }
}

impl Strategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>> {
        {
            let mut t = self.tally.lock().expect("lb tally poisoned");
            t.calls += 1;
            t.objs += stats.objs.len() as u64;
        }
        let inner = &mut self.inner;
        self.spans.span("lb.assign", || inner.assign(stats))
    }

    fn is_distributed(&self) -> bool {
        self.inner.is_distributed()
    }

    fn decision_cost(&self, num_objs: usize, num_pes: usize) -> f64 {
        self.inner.decision_cost(num_objs, num_pes)
    }
}

/// The kv-observed service configuration for `seed` and `arm`, with
/// `strategy` as its balancer.
pub fn kv_config(
    seed: u64,
    arm: Arm,
    requests_per_client: u64,
    strategy: Box<dyn Strategy>,
) -> kv::KvConfig {
    let mut c = kv::KvConfig::service(presets::cloud(KV_PES), requests_per_client);
    c.seed = seed;
    c.zipf_s = 1.2;
    c.strategy = Some(strategy);
    c.lb_period = Some(SimTime::from_millis(10));
    c.auto_ckpt = Some(SimTime::from_millis(25));
    c.record = (arm != Arm::NoRecord).then(ReplayConfig::default);
    c.trace = (arm != Arm::NoTrace).then(TraceConfig::summary_only);
    c.threads = if arm == Arm::Seq { 1 } else { KV_THREADS };
    c
}

/// Simulated results of a kv run.
fn kv_sim(run: &kv::KvRun, end: SimTime, issued: u64) -> Sim {
    Sim {
        end_s: end.as_secs_f64(),
        p50_s: hist_quantile(&run.latency, 0.5) / 1e9,
        p99_s: hist_quantile(&run.latency, 0.99) / 1e9,
        done_frac: run.acked as f64 / issued as f64,
    }
}

/// The `q`-quantile of a latency histogram, interpolated linearly by rank
/// inside the bucket that holds it. `LogHist::quantile` (behind
/// `KvRun::p50_s`) returns the bucket's lower edge, which moves in 12.5%
/// steps as inputs change; the interpolated value moves smoothly.
fn hist_quantile(h: &LogHist, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let mut seen = 0u64;
    for (i, &c) in h.counts().iter().enumerate() {
        if c > 0 && seen + c >= rank {
            let lo = LogHist::bucket_lo(i) as f64;
            let hi = if i + 1 < LogHist::num_buckets() {
                LogHist::bucket_lo(i + 1) as f64
            } else {
                lo
            };
            return lo + (hi - lo) * (rank - seen) as f64 / c as f64;
        }
        seen += c;
    }
    0.0
}

struct KvObserved {
    seed: u64,
    store_digest: Option<u64>,
}

impl KvObserved {
    fn new(seed: u64) -> Self {
        KvObserved {
            seed,
            store_digest: None,
        }
    }

    /// Run `arm` once and check its outputs; returns the repetition, its
    /// runtime and its replay recording (`None` when not recording).
    fn run(
        &mut self,
        arm: Arm,
        spans: &Spans,
        checks: &mut Checks,
    ) -> (Rep, Runtime, Option<ReplayLog>) {
        let tally = Arc::new(Mutex::new(LbTally::default()));
        let strategy =
            TimedStrategy::new(Box::new(charm_lb::GreedyLb), spans.clone(), tally.clone());
        let cfg = kv_config(self.seed, arm, KV_REQUESTS_PER_CLIENT, Box::new(strategy));
        let issued = cfg.clients as u64 * cfg.requests_per_client;
        let t0 = Instant::now();
        let (run, mut rt) = spans.span("app.kv", || kv::run_with_runtime(cfg));
        let call_s = t0.elapsed().as_secs_f64();

        checks.check(run.unrecoverable.is_none(), || {
            format!("kv-observed: {:?}", run.unrecoverable)
        });
        let acked = kv::verify_acked_puts(&rt);
        checks.check(acked.is_ok(), || format!("kv-observed: {acked:?}"));
        let first = *self.store_digest.get_or_insert(run.store_digest);
        checks.check(run.store_digest == first, || {
            format!(
                "kv-observed/{arm:?}: store digest {:#x} differs from {first:#x}",
                run.store_digest
            )
        });

        let wall = rt.summary().wall_time_s;
        let sim = kv_sim(&run, rt.now(), issued);
        let mut rep = rep_from(&mut rt, spans, call_s - wall, sim, KV_THREADS);
        let t = tally.lock().expect("lb tally poisoned");
        (rep.lb_calls, rep.lb_objs) = (t.calls, t.objs);
        let log = spans.span("core.replay.take_replay_log", || rt.take_replay_log());
        rep.log_execs = log.as_ref().map_or(0, |l| l.execs.len() as u64);
        (rep, rt, log)
    }
}

impl Workload for KvObserved {
    fn ab_arms(&self) -> &'static [Arm] {
        &[Arm::NoRecord, Arm::NoTrace, Arm::Seq]
    }

    /// Recordings are dropped at once, so peak memory is the workload's own.
    fn rep(&mut self, arm: Arm, spans: &Spans, checks: &mut Checks) -> (Rep, Runtime) {
        let (rep, rt, _log) = self.run(arm, spans, checks);
        (rep, rt)
    }

    /// Record the main arm twice more, after peak memory has been read, and
    /// check that the two recordings agree and that one survives a save and
    /// load.
    fn finish(&mut self, spans: &Spans, checks: &mut Checks, extras: &mut Extras) {
        let mut record = || {
            let (_, rt, log) = self.run(Arm::Main, &Spans::off(), checks);
            drop(rt);
            log
        };
        let (Some(a), Some(b)) = (record(), record()) else {
            checks.check(false, || {
                "kv-observed: the main arm made no recording".into()
            });
            return;
        };
        let t = Instant::now();
        let same = spans.span("replay.verify", || charm_replay::verify(&a, &b));
        extras.verify_s = t.elapsed().as_secs_f64();
        checks.check(same.ok(), || {
            format!("kv-observed: two recordings differ: {same}")
        });
        drop(b);

        let path = crate::out_dir().join(format!("kv-{}.rlog", std::process::id()));
        let t = Instant::now();
        let saved = spans.span("replay.save", || charm_replay::save(&a, &path));
        extras.save_s = t.elapsed().as_secs_f64();
        if checks.check(saved.is_ok(), || {
            format!("kv-observed: replay save failed: {saved:?}")
        }) {
            extras.rlog_bytes = std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64);
            let t = Instant::now();
            let loaded = spans.span("replay.load", || charm_replay::load(&path));
            extras.load_s = t.elapsed().as_secs_f64();
            let ok = loaded
                .as_ref()
                .is_ok_and(|l| charm_replay::verify(&a, l).ok());
            checks.check(ok, || {
                "kv-observed: saved recording does not load back identical".into()
            });
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------------
// stencil-wide
// ---------------------------------------------------------------------------

/// 128², far above the 256-PE dense/hash location-cache split.
const ST_PES: usize = 16_384;
const ST_STEPS: u64 = 3;

/// An empty chare for the setup probe.
#[derive(Default)]
struct Slot;

impl Pup for Slot {
    fn pup(&mut self, _p: &mut Puper) {}
}

impl Chare for Slot {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, _ctx: &mut Ctx<'_>) {}
}

/// The seed is the runtime seed, which draws the cloud network's ±15%
/// per-message jitter.
struct StencilWide {
    seed: u64,
}

impl Workload for StencilWide {
    fn ab_arms(&self) -> &'static [Arm] {
        &[]
    }

    fn rep(&mut self, _arm: Arm, spans: &Spans, checks: &mut Checks) -> (Rep, Runtime) {
        let mut cfg = stencil::StencilConfig::cloud_4k(presets::cloud(ST_PES), 1);
        cfg.steps = ST_STEPS;
        cfg.seed = self.seed;
        let t0 = Instant::now();
        let (run, mut rt) = spans.span("app.stencil", || stencil::run_with_runtime(cfg));
        let call_s = t0.elapsed().as_secs_f64();
        checks.check(rt.num_pes() > 256, || {
            format!("stencil-wide: only {} PEs", rt.num_pes())
        });
        let sim = step_sim(rt.now(), &run.step_durations(), ST_STEPS);
        let wall = rt.summary().wall_time_s;
        (rep_from(&mut rt, spans, call_s - wall, sim, 1), rt)
    }

    /// `stencil::run_with_runtime` builds internally, so build and insert
    /// are timed on a probe of the same width with one empty chare per PE.
    fn setup_probe(&mut self, spans: &Spans) -> bool {
        let mut rt = spans.span("setup.build", || {
            Runtime::builder(presets::cloud(ST_PES)).build()
        });
        spans.span("setup.insert", || {
            let arr = rt.create_array::<Slot>("slots");
            for pe in 0..ST_PES {
                rt.insert(arr, Ix::i1(pe as i64), Slot, Some(pe));
            }
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_wrapper_leaves_the_simulation_unchanged() {
        let run = |wrap: bool| {
            let greedy: Box<dyn Strategy> = Box::new(charm_lb::GreedyLb);
            let tally = Arc::new(Mutex::new(LbTally::default()));
            let s: Box<dyn Strategy> = if wrap {
                Box::new(TimedStrategy::new(greedy, Spans::on(), tally.clone()))
            } else {
                greedy
            };
            let cfg = kv_config(5, Arm::NoRecord, 150, s);
            let issued = cfg.clients as u64 * cfg.requests_per_client;
            let (run, rt) = kv::run_with_runtime(cfg);
            let calls = tally.lock().unwrap().calls;
            (
                kv_sim(&run, rt.now(), issued),
                run.state_digest,
                run.lb_rounds,
                calls,
            )
        };
        let (bare, wrapped) = (run(false), run(true));
        assert!(wrapped.2 > 0, "the balancer never ran: the test is vacuous");
        assert_eq!(
            wrapped.3 as usize, wrapped.2,
            "every LB round goes through assign"
        );
        assert_eq!((bare.0, bare.1, bare.2), (wrapped.0, wrapped.1, wrapped.2));
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_the_bucket() {
        let mut h = LogHist::new();
        assert_eq!(hist_quantile(&h, 0.5), 0.0);
        // 1024..1152 fill exactly one bucket, [1024, 1152).
        for v in 1024..1152 {
            h.add(v);
        }
        let (lo, hi) = (1024.0, 1152.0);
        assert_eq!(
            h.quantile(0.5) as f64,
            lo,
            "the plain estimate is the bucket's lower edge"
        );
        let mid = hist_quantile(&h, 0.5);
        assert!(mid > lo && mid < hi, "{mid}");
        assert!((mid - 1088.0).abs() <= 1.0, "{mid}");
        assert_eq!(hist_quantile(&h, 1.0), hi);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let (a, b, c) = (PingPipe::new(1), PingPipe::new(1), PingPipe::new(2));
        assert_eq!((&a.pe, &a.limit), (&b.pe, &b.limit));
        assert_ne!(a.pe, c.pe);
        for p in [&a, &c] {
            assert!(
                p.pe.chunks(2).all(|e| e[0] != e[1]),
                "every pair crosses PEs"
            );
            assert_eq!(p.limit.iter().sum::<u64>(), PP_HOPS * PP_PAIRS as u64);
            for pe in 0..PP_PES {
                assert_eq!(
                    p.pe.iter().filter(|&&x| x == pe).count(),
                    2 * PP_PAIRS / PP_PES
                );
            }
        }
        assert_eq!(LeanMd::new(3).drift, LeanMd::new(3).drift);
        assert_ne!(LeanMd::new(3).flops_per_sec, LeanMd::new(4).flops_per_sec);
    }
}
