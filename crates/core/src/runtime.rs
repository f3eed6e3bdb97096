//! The runtime system: message-driven scheduling over the simulated
//! machine, location management, collectives, quiescence detection, and the
//! AtSync load-balancing protocol. Fault tolerance, power management, and
//! malleability extend [`Runtime`] from sibling modules.

use crate::array::{AnyArray, ArrayId, ArrayProxy, ArrayStore, ObjId, Payload};
use crate::chare::{Callback, Chare, RedOp, RedValue, SysEvent};
use crate::ctrl::{ControlRegistry, ControlValues};
use crate::ctx::{Action, Ctx};
use crate::ft::{MemCheckpoint, PendingCkpt};
use crate::lbframework::{LbRound, LbStats, LbTrigger, ObjStat, Strategy};
use crate::power::DvfsScheme;
use crate::replay::{sys_event_digest, PerturbConfig, Recorder, ReplayConfig, ReplayLog};
use crate::trace::{EntryKind, TraceConfig, TraceEventKind, Tracer};
use charm_machine::thermal::ThermalModel;
use charm_machine::{EventQueue, MachineConfig, NetworkModel, PrioQueue, SimTime};
use fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Fixed per-message envelope overhead added to every payload's wire size.
pub const ENVELOPE_BYTES: usize = 40;

/// Event keys are `(slot << KEY_SLOT_SHIFT) | counter`: the producer slot
/// in the high bits, a per-slot monotonic counter in the low 40. Because a
/// shard owns exactly the slots of its PEs, shards allocate keys with no
/// coordination and the combined key space is identical to sequential.
pub(crate) const KEY_SLOT_SHIFT: u32 = 40;
/// Key-slot offset (past `num_pes`) for host-side sends before/between runs.
pub(crate) const SLOT_HOST: usize = 0;
/// Key-slot offset for events produced while folding reductions.
pub(crate) const SLOT_RED: usize = 1;
/// Key-slot offset for runtime-system events (failures, DVFS, checkpoints…).
pub(crate) const SLOT_RTS: usize = 2;

/// Largest machine (simulated PEs) that gets dense location-cache lanes.
/// A dense lane costs memory proportional to the highest cached slot
/// (up to ~512 KB per source PE per array) — a clear win on bench-sized
/// machines, but at 128K–1M PEs it would dominate the engine's otherwise
/// O(PE) footprint, so bigger machines keep the entry-proportional spill
/// map for every cached location. Representation-only: lookups return
/// identical results either way.
pub(crate) const LOC_CACHE_DENSE_MAX_PES: usize = 256;

/// Jitter-token salts distinguishing the several delay draws one event can
/// make (location-query round trips, tree hops, forwards). Same convention
/// as the DAG re-simulator's edge tokens.
pub(crate) const TOKEN_RTT_REQ: u64 = 1 << 62;
pub(crate) const TOKEN_RTT_RESP: u64 = 2 << 62;
pub(crate) const TOKEN_AUX: u64 = 3 << 62;

/// A buffered reduction contribution, folded at window boundaries.
pub(crate) struct ContribRec {
    /// Dispatch time of the entry method that contributed — the fold sorts
    /// by `(merge_t, merge_key)` to reproduce sequential combine order.
    pub merge_t: u64,
    /// Dispatch key of the contributing entry (see [`Envelope::rec_id`]).
    pub merge_key: u64,
    /// When the contributing entry completed (the contribution's own time).
    pub at: SimTime,
    pub array: ArrayId,
    pub tag: u32,
    pub value: RedValue,
    pub op: RedOp,
    pub cb: Callback,
    /// Critical-path end (ns) and chain of the contributing entry, when the
    /// analyzer is on (always `(0, None)` in shard mode — the analyzer
    /// forces the sequential engine).
    pub cp_end: u64,
    pub cp_node: Option<std::sync::Arc<crate::trace::CpNode>>,
}

/// A metric sample tagged with its producer's dispatch order so parallel
/// shards can merge samples back into sequential order.
pub(crate) struct MetricSample {
    pub dispatch: (u64, u64),
    pub name: String,
    pub at_secs: f64,
    pub value: f64,
}

/// How an array maps indices to *home PEs* — the PEs responsible for
/// tracking element locations (§II-D: "Several default schemes are provided
/// … Programmers can also define their own scheme").
#[derive(Clone, Copy)]
pub enum HomeMap {
    /// Stable hash of the index over the live PEs (the default).
    Hash,
    /// Contiguous blocks for 1-D indices: `ix · P / total`. Indices outside
    /// `0..total` (or non-1-D indices) fall back to hashing.
    Blocked {
        /// Expected number of 1-D elements.
        total: u64,
    },
    /// A user-defined scheme: `(index, live_pes) -> pe`.
    Custom(fn(&crate::Ix, usize) -> usize),
}

impl std::fmt::Debug for HomeMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HomeMap::Hash => write!(f, "HomeMap::Hash"),
            HomeMap::Blocked { total } => write!(f, "HomeMap::Blocked({total})"),
            HomeMap::Custom(_) => write!(f, "HomeMap::Custom(..)"),
        }
    }
}

/// Simulator events. Bulky payloads (envelopes, migration data) are boxed
/// so the event heap sifts pointer-sized entries, not 100-byte structs —
/// the allocation happens once at message creation and the box is reused
/// through every re-route, forward, limbo park, and queue hop.
pub(crate) enum Ev {
    /// A message arrives at a PE's scheduler queue.
    Deliver { pe: usize, env: Box<Envelope> },
    /// The PE finishes its current entry method.
    PeFree { pe: usize },
    /// A PE blocked by a global operation re-checks its queue.
    PeRetry { pe: usize },
    /// A migrating chare's data arrives at its new PE.
    MigrateArrive(Box<MigrateArrive>),
    /// Periodic temperature sampling / DVFS control.
    DvfsTick,
    /// A node crashes, killing every PE in its range (the `pe` names any PE
    /// on the failing node).
    NodeFail { pe: usize },
    /// The in-flight double in-memory checkpoint finishes replicating and
    /// becomes the recovery point.
    CkptCommit,
    /// Automatic periodic checkpoint tick.
    AutoCkpt,
    /// Malleable reconfiguration to a new PE count (§III-D).
    Reconfigure { to: usize },
    /// An RTS-scheduled load-balancing round (cloud/thermal triggers).
    RtsLb,
    /// Elastic-controller sampling/decision tick.
    ElasticTick,
    /// A spot preemption was announced: the node containing `pe` will be
    /// reclaimed at `deadline` (the matching [`Ev::NodeFail`] is already
    /// scheduled there).
    PreemptWarn { pe: usize, deadline: SimTime },
}

/// A migrating chare's serialized state en route to its new PE.
pub(crate) struct MigrateArrive {
    pub dst: ObjId,
    pub to_pe: usize,
    pub from_pe: usize,
    pub bytes: Vec<u8>,
}

/// A message (or system event) in flight or queued.
pub(crate) struct Envelope {
    pub dst: ObjId,
    pub payload: Payload,
    pub bytes: usize,
    pub prio: i64,
    pub src_pe: usize,
    /// Runtime-wide message key, assigned at creation. Always allocated
    /// (recording on or off) so enabling the recorder cannot shift any
    /// other deterministic state. Doubles as the event-heap tie-break for
    /// the delivery event, which is what makes the parallel engine's
    /// cross-shard merge order identical to sequential dispatch order.
    pub rec_id: u64,
    /// The chare whose entry method produced this message (`None` for host
    /// sends and runtime-origin events). Carried on the envelope — rather
    /// than recovered through the recorder's origin map — so a shard can
    /// attribute a message that was produced on a different shard.
    pub src_obj: Option<ObjId>,
    /// Critical-path provenance: the dependency chain ending at the send
    /// that produced this message. Only populated when the tracer's
    /// critical-path analyzer is on (sequential engine); `None` otherwise,
    /// so the common path stays allocation-free.
    pub cp: Option<Box<crate::trace::CpMsg>>,
}

/// Per-PE scheduler state.
///
/// `pending` orders envelopes by `(prio, arrival)`: the pushes into any one
/// PE's queue carry globally monotone sequence numbers (the `messages`
/// counter), so the FIFO-within-priority [`PrioQueue`] reproduces the old
/// `BinaryHeap<(prio, seq)>` pop order exactly, in O(1) per operation.
pub(crate) struct PeState {
    pub(crate) pending: PrioQueue<Box<Envelope>>,
    pub(crate) busy: bool,
    pub(crate) alive: bool,
    /// PEs blocked by a global operation (LB, checkpoint, reconfigure)
    /// may not start new work before this time.
    pub(crate) blocked_until: SimTime,
    pub(crate) busy_time: SimTime,
    pub(crate) msgs_executed: u64,
    pub(crate) current: Option<(ObjId, SimTime, EntryKind)>,
}

impl PeState {
    pub(crate) fn new() -> Self {
        PeState {
            pending: PrioQueue::new(),
            busy: false,
            alive: true,
            blocked_until: SimTime::ZERO,
            busy_time: SimTime::ZERO,
            msgs_executed: 0,
            current: None,
        }
    }
}

/// Whether [`Runtime::collect_lb_stats`] resets the measurement windows
/// (`Drain`, at the head of an LB round) or leaves them intact (`Peek`,
/// for trigger logic that only inspects the imbalance).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum StatsMode {
    Peek,
    Drain,
}

pub(crate) struct RedState {
    expected: usize,
    count: usize,
    acc: Option<RedValue>,
    op: RedOp,
    cb: Callback,
    bytes: usize,
    /// Latest-finishing contributor's critical-path `(end_ns, chain)` — the
    /// reduction completes no earlier than its slowest contributor, so the
    /// completion callback chains from it. `(0, None)` when the analyzer is
    /// off.
    cp: (u64, Option<std::sync::Arc<crate::trace::CpNode>>),
}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Final virtual time.
    pub end_time: SimTime,
    /// Events the simulator processed.
    pub events: u64,
    /// Entry methods executed.
    pub entries: u64,
    /// Messages delivered (including forwards).
    pub messages: u64,
    /// Total bytes moved over the network.
    pub bytes: u64,
    /// Mean PE utilization (busy / elapsed) over live PEs.
    pub avg_utilization: f64,
    /// Real (wall-clock) seconds spent inside `run*` calls so far.
    pub wall_time_s: f64,
    /// Simulator throughput: events processed per wall-clock second
    /// (0 when no wall time has accumulated yet).
    pub events_per_sec: f64,
    /// Trace log records shed from ring buffers (0 when tracing is off).
    /// Streamed sinks and summary aggregates never drop.
    pub trace_dropped: u64,
    /// Delivery stats for every installed streaming trace sink.
    pub trace_sinks: Vec<crate::trace::SinkStats>,
    /// Per-entry-method latency SLOs (p50/p99/p999), sorted by total busy
    /// time. Empty when tracing is off.
    pub entry_slos: Vec<crate::trace::EntrySlo>,
    /// Entry executions shed from a capped replay recording
    /// ([`ReplayConfig::max_execs`](crate::ReplayConfig)); 0 when recording
    /// is off or unbounded.
    pub replay_shed_execs: u64,
    /// Message sends shed from a capped replay recording.
    pub replay_shed_sends: u64,
    /// Event-queue and PE-scheduler-queue operations (pushes + pops)
    /// performed so far. Together with `events_per_sec` this separates
    /// "fewer/cheaper queue ops" wins from everything else. Summed over
    /// shards in parallel mode.
    pub queue_ops: u64,
    /// Bytes served from the envelope/payload arena instead of the global
    /// allocator (this thread, since the runtime was built).
    pub arena_bytes: u64,
    /// Global-allocator calls the arena absorbed (pool hits on allocation
    /// plus recycled frees). Zero when built with `classic_hotpath(true)`.
    pub alloc_bypass: u64,
    /// Lookahead windows committed by the engine: every time a drain
    /// horizon advanced (sequential window jumps, parallel per-shard
    /// horizon grants). Summed over shards in parallel mode.
    pub windows_executed: u64,
    /// Blocking synchronizations actually paid: condvar barrier arrivals
    /// in the global-window engine, parked waits in the adaptive engine.
    /// Always 0 for a sequential run.
    pub barriers_waited: u64,
    /// Window edges crossed *without* blocking: horizon advances the
    /// adaptive engine granted from peer clocks alone where the
    /// global-window engine would have paid a barrier. 0 sequentially.
    pub barriers_elided: u64,
    /// Mean committed-horizon advance in ns (total virtual time covered by
    /// windows / `windows_executed`). The global worst case is `win_ns`
    /// (one α cell); adaptive windows should be wider on sparse traffic.
    pub avg_window_width: f64,
}

/// A failure (or cascade) destroyed state that no surviving checkpoint
/// copy covers: the run cannot be rolled back to a consistent snapshot.
///
/// Returned by [`Runtime::run_checked`]; surviving PEs keep draining their
/// work, but lost chares are gone and the result is not trustworthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unrecoverable {
    /// Virtual time of the fatal failure.
    pub at: SimTime,
    /// PEs that died in the fatal event (the whole node range).
    pub failed_pes: Vec<usize>,
    /// Chares whose state was lost outright.
    pub lost_chares: usize,
    /// Why recovery was impossible.
    pub reason: String,
}

impl std::fmt::Display for Unrecoverable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecoverable failure at {:.6}s (PEs {:?}, {} chare(s) lost): {}",
            self.at.as_secs_f64(),
            self.failed_pes,
            self.lost_chares,
            self.reason
        )
    }
}

impl std::error::Error for Unrecoverable {}

/// Configures and constructs a [`Runtime`].
pub struct RuntimeBuilder {
    machine: MachineConfig,
    seed: u64,
    lb: Option<Box<dyn Strategy>>,
    lb_trigger: LbTrigger,
    dvfs: DvfsScheme,
    dvfs_period: SimTime,
    sched_overhead: SimTime,
    max_events: u64,
    location_cache: bool,
    collective_arity: u64,
    track_comm: bool,
    auto_ckpt: Option<SimTime>,
    trace: Option<TraceConfig>,
    trace_sinks: Vec<Box<dyn crate::trace::TraceSink>>,
    record: Option<ReplayConfig>,
    perturb: Option<PerturbConfig>,
    threads: usize,
    elastic: Option<crate::elastic::ElasticConfig>,
    classic_hotpath: bool,
    global_window: bool,
}

impl RuntimeBuilder {
    /// Set the RNG seed for the whole run (defaults to 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Install a load-balancing strategy (AtSync-triggered by default).
    pub fn strategy(mut self, s: Box<dyn Strategy>) -> Self {
        self.lb = Some(s);
        self
    }

    /// Select when load balancing runs.
    pub fn lb_trigger(mut self, t: LbTrigger) -> Self {
        self.lb_trigger = t;
        self
    }

    /// Select the DVFS/temperature scheme (requires a thermal model on the
    /// machine to have any effect).
    pub fn dvfs(mut self, scheme: DvfsScheme) -> Self {
        self.dvfs = scheme;
        self
    }

    /// Temperature sampling / DVFS control period (default 1 s).
    pub fn dvfs_period(mut self, p: SimTime) -> Self {
        self.dvfs_period = p;
        self
    }

    /// Per-entry scheduling overhead (default 250 ns).
    pub fn sched_overhead(mut self, t: SimTime) -> Self {
        self.sched_overhead = t;
        self
    }

    /// Safety cap on processed events (default `u64::MAX`).
    pub fn max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Enable/disable per-PE location caching (§II-D). With caching off,
    /// every remote send pays the home-PE query round trip — the ablation
    /// that shows why the paper's protocol caches.
    pub fn location_cache(mut self, enabled: bool) -> Self {
        self.location_cache = enabled;
        self
    }

    /// Branching factor of the spanning trees used by broadcasts,
    /// reductions, barriers, and quiescence waves (default 2).
    pub fn collective_arity(mut self, k: u64) -> Self {
        assert!(k >= 2, "spanning trees need arity >= 2");
        self.collective_arity = k;
        self
    }

    /// Record object-to-object communication volumes and hand them to the
    /// balancer ([`LbStats::comm`]) — required by comm-aware strategies.
    pub fn track_comm(mut self, enabled: bool) -> Self {
        self.track_comm = enabled;
        self
    }

    /// Enable the Projections-lite tracing subsystem (see
    /// [`crate::trace`]): bounded per-PE event logs plus always-cheap
    /// summary aggregates. Off by default — when off, no events are
    /// recorded and the per-message hooks reduce to a branch on `None`.
    pub fn tracing(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Install a streaming [`TraceSink`](crate::trace::TraceSink): every
    /// traced record is fanned out to it as it is produced, so full event
    /// logs flow to disk instead of accumulating in memory. Requires
    /// [`RuntimeBuilder::tracing`]; forces the sequential engine. Call
    /// [`Runtime::finish_trace`] after the run to flush and finalize.
    pub fn trace_sink(mut self, sink: Box<dyn crate::trace::TraceSink>) -> Self {
        self.trace_sinks.push(sink);
        self
    }

    /// Record a causal replay log (see [`crate::replay`]): one record per
    /// executed entry with its consumed-message PUP digest and produced
    /// sends, plus periodic chare-state digest points. Retrieve the log
    /// with [`Runtime::take_replay_log`] after the run. Off by default —
    /// when off, the per-message hooks reduce to a branch on `None`.
    pub fn record(mut self, cfg: ReplayConfig) -> Self {
        self.record = Some(cfg);
        self
    }

    /// Perturb the delivery schedule with seeded, causally-valid extra
    /// delays (see [`PerturbConfig`]). Combine with [`RuntimeBuilder::record`]
    /// and diff the logs to hunt message races.
    pub fn perturb(mut self, cfg: PerturbConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.prob),
            "perturbation probability must be in [0, 1]"
        );
        self.perturb = Some(cfg);
        self
    }

    /// Install the closed-loop elastic controller: sample utilization every
    /// `cfg.cadence` of virtual time and let `cfg.policy` issue shrink or
    /// expand decisions through the malleability path. Decisions are pure
    /// functions of simulation state, so controlled runs replay
    /// bit-identically. Sequential-only: runs fall back to one worker.
    pub fn elastic(mut self, cfg: crate::elastic::ElasticConfig) -> Self {
        self.elastic = Some(cfg);
        self
    }

    /// Take a double in-memory checkpoint automatically every `interval`
    /// of virtual time (§III-B). Ticks re-arm only while application work
    /// is outstanding, so the run still terminates when the job drains.
    pub fn auto_checkpoint(mut self, interval: SimTime) -> Self {
        assert!(interval > SimTime::ZERO, "checkpoint interval must be positive");
        self.auto_ckpt = Some(interval);
        self
    }

    /// Number of OS worker threads for the parallel execution mode
    /// (default: [`crate::default_threads`], itself 1 unless overridden).
    /// With `n > 1`, deadline-free runs that use only parallel-safe
    /// features shard the PEs across `n` workers; results are byte-
    /// identical to sequential execution. Runs that use sequential-only
    /// features (fault injection, DVFS, perturbation, …) silently fall
    /// back to the sequential engine.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Run on the pre-overhaul hot path: the classic `BinaryHeap` event
    /// queue and plain global-allocator boxing instead of the calendar
    /// queue + arena recycling. Ordering and results are identical by
    /// contract — this knob exists so regression tests (and bisection) can
    /// A/B the two hot paths against the same golden recordings.
    pub fn classic_hotpath(mut self, classic: bool) -> Self {
        self.classic_hotpath = classic;
        self
    }

    /// Run parallel workers on the PR-5-era global-window engine: every
    /// shard drains the same α-sized window and synchronizes at a full
    /// condvar barrier per window edge, instead of the adaptive per-shard
    /// horizons with elided barriers. Results are byte-identical by
    /// contract — the knob exists so regression tests (and bisection) can
    /// A/B the two synchronization cores against the same goldens, exactly
    /// like [`classic_hotpath`](Self::classic_hotpath) does for the event
    /// queue. No effect on sequential runs.
    pub fn global_window(mut self, global: bool) -> Self {
        self.global_window = global;
        self
    }

    /// Construct the runtime.
    pub fn build(self) -> Runtime {
        let n = self.machine.num_pes;
        // Slot-partitioned event keys: one counter per PE plus the three
        // runtime slots (host, reductions, RTS). See [`Runtime::fresh_key`].
        let mut keys = vec![0u64; n + 3];
        let rts = n + SLOT_RTS;
        let rts_key = |keys: &mut Vec<u64>| {
            let k = ((rts as u64) << KEY_SLOT_SHIFT) | keys[rts];
            keys[rts] += 1;
            k
        };
        // Pre-size for a few in-flight events per PE; saves the first
        // handful of heap reallocations on every run.
        let mut events = if self.classic_hotpath {
            EventQueue::heap_backed_with_capacity(8 * n)
        } else {
            EventQueue::with_capacity(8 * n)
        };
        // Schedule injected failures and the DVFS sampler. A preemption
        // becomes visible at its announcement time (warning before the
        // kill); its warn key is allocated before its kill key, so a
        // zero-warning announcement still pops before the kill on ties.
        for f in self.machine.failures.events() {
            if let charm_machine::FailureKind::Preemption { .. } = f.kind {
                let k = rts_key(&mut keys);
                events.push_keyed(
                    f.visible_at(),
                    k,
                    Ev::PreemptWarn {
                        pe: f.pe,
                        deadline: f.time,
                    },
                );
            }
            let k = rts_key(&mut keys);
            events.push_keyed(f.time, k, Ev::NodeFail { pe: f.pe });
        }
        let thermal = self
            .machine
            .thermal
            .as_ref()
            .map(|cfg| ThermalModel::new(cfg.clone(), self.machine.num_chips()));
        if thermal.is_some() {
            let k = rts_key(&mut keys);
            events.push_keyed(self.dvfs_period, k, Ev::DvfsTick);
        }
        if let Some(interval) = self.auto_ckpt {
            let k = rts_key(&mut keys);
            events.push_keyed(interval, k, Ev::AutoCkpt);
        }
        let elastic = self.elastic.map(|cfg| {
            let k = rts_key(&mut keys);
            events.push_keyed(cfg.cadence, k, Ev::ElasticTick);
            crate::elastic::ElasticCtl::new(cfg, n)
        });
        let net = NetworkModel::new(self.machine.network.clone(), self.seed);
        let net_min_remote = net.min_remote_delay().0;
        let num_chips = self.machine.num_chips();
        let rngs = (0..n)
            .map(|pe| StdRng::seed_from_u64(self.seed ^ (pe as u64).wrapping_mul(0x9E3779B97F4A7C15)))
            .collect();
        assert!(
            self.trace_sinks.is_empty() || self.trace.is_some(),
            "trace_sink requires tracing to be enabled"
        );
        let tracer = self.trace.map(|cfg| {
            let mut tr = Tracer::new(cfg, n);
            for sink in self.trace_sinks {
                tr.add_sink(sink);
            }
            tr
        });
        let recorder = self.record.map(Recorder::new);
        let perturb = self.perturb.map(|cfg| {
            let rng = StdRng::seed_from_u64(cfg.seed ^ 0x0070_6572_7475_7262); // "perturb"
            (cfg, rng)
        });
        Runtime {
            machine: self.machine,
            net,
            now: SimTime::ZERO,
            events,
            pes: (0..n).map(|_| PeState::new()).collect(),
            live_pes: n,
            stores: Vec::new(),
            home_maps: Vec::new(),
            array_names: FxHashMap::default(),
            rngs,
            ctrl: ControlRegistry::new(),
            ctrl_snapshot: ControlValues::default(),
            loc_cache: vec![
                crate::array::LocCache::with_dense(n <= LOC_CACHE_DENSE_MAX_PES);
                n
            ],
            limbo: FxHashMap::default(),
            reductions: FxHashMap::default(),
            qd: None,
            inflight: 0,
            queued: 0,
            busy_pes: 0,
            lb: self.lb,
            lb_trigger: self.lb_trigger,
            at_sync_seen: 0,
            lb_rounds: Vec::new(),
            mem_ckpt: None,
            ckpt_pending: None,
            copy_missing: FxHashMap::default(),
            auto_ckpt_interval: self.auto_ckpt,
            unrecoverable: None,
            elastic,
            retired: vec![false; n],
            degraded: None,
            thermal,
            dvfs: self.dvfs,
            dvfs_period: self.dvfs_period,
            last_rts_lb: SimTime::ZERO,
            chip_busy: vec![SimTime::ZERO; num_chips],
            sched_overhead: self.sched_overhead,
            metrics: FxHashMap::default(),
            entries: 0,
            messages: 0,
            bytes_moved: 0,
            events_processed: 0,
            wall_run: std::time::Duration::ZERO,
            action_scratch: Vec::new(),
            exit_requested: false,
            max_events: self.max_events,
            seed: self.seed,
            location_cache: self.location_cache,
            collective_arity: self.collective_arity,
            track_comm: self.track_comm,
            comm: FxHashMap::default(),
            tracer,
            cur_cp: None,
            cp_carry: None,
            recorder,
            perturb,
            keys,
            cur_slot: n + SLOT_HOST,
            cur_dispatch: (0, 0),
            pending_contribs: Vec::new(),
            cur_win_end: SimTime::ZERO,
            win_ns: net_min_remote.max(1),
            last_digest_seq: 0,
            par: None,
            threads: self.threads,
            metrics_buf: Vec::new(),
            last_run_parallel: false,
            reconfig_overhead_shrink: SimTime::from_secs_f64(2.0),
            reconfig_overhead_expand: SimTime::from_secs_f64(6.5),
            arena_enabled: !self.classic_hotpath,
            arena_base: crate::arena::stats(),
            entry_name_cache: FxHashMap::default(),
            shard_queue_ops: 0,
            global_window: self.global_window,
            sync_windows: 0,
            sync_width_ns: 0,
            sync_waits: 0,
            sync_elided: 0,
            cb_log: None,
        }
    }
}

/// The charm-rs runtime: one instance simulates one parallel job.
pub struct Runtime {
    pub(crate) machine: MachineConfig,
    pub(crate) net: NetworkModel,
    pub(crate) now: SimTime,
    pub(crate) events: EventQueue<Ev>,
    pub(crate) pes: Vec<PeState>,
    /// PEs currently participating (≤ machine.num_pes under shrink).
    pub(crate) live_pes: usize,
    pub(crate) stores: Vec<Box<dyn AnyArray>>,
    /// Per-array home-mapping scheme (parallel to `stores`).
    pub(crate) home_maps: Vec<HomeMap>,
    pub(crate) array_names: FxHashMap<String, ArrayId>,
    pub(crate) rngs: Vec<StdRng>,
    pub(crate) ctrl: ControlRegistry,
    pub(crate) ctrl_snapshot: ControlValues,
    /// Per-PE location caches: ObjId → (pe, epoch). Looked up once per
    /// send on the routing hot path; dense indices bypass hashing entirely
    /// (see [`crate::array::LocCache`]).
    pub(crate) loc_cache: Vec<crate::array::LocCache>,
    /// Messages for not-yet-existing elements (dynamic insertion races,
    /// in-transit migrations). Envelopes stay boxed so parking and
    /// re-routing move a pointer, not the ~120-byte payload.
    #[allow(clippy::vec_box)]
    pub(crate) limbo: FxHashMap<ObjId, Vec<Box<Envelope>>>,
    pub(crate) reductions: FxHashMap<(ArrayId, u32), RedState>,
    pub(crate) qd: Option<Callback>,
    /// Deliver/MigrateArrive events in flight.
    pub(crate) inflight: u64,
    /// Envelopes sitting in PE queues.
    pub(crate) queued: u64,
    pub(crate) busy_pes: usize,
    pub(crate) lb: Option<Box<dyn Strategy>>,
    pub(crate) lb_trigger: LbTrigger,
    pub(crate) at_sync_seen: usize,
    pub(crate) lb_rounds: Vec<LbRound>,
    pub(crate) mem_ckpt: Option<MemCheckpoint>,
    /// A checkpoint whose buddy replication is still in flight; it becomes
    /// `mem_ckpt` only when the matching [`Ev::CkptCommit`] fires. A failure
    /// before then aborts it (rollback uses the previous `mem_ckpt`).
    pub(crate) ckpt_pending: Option<PendingCkpt>,
    /// PEs whose held checkpoint copies are invalid until the given time
    /// (the restart protocol is still re-replicating them). A failure that
    /// lands inside such a window widens the effective dead set.
    pub(crate) copy_missing: FxHashMap<usize, SimTime>,
    /// Automatic checkpoint period, when enabled.
    pub(crate) auto_ckpt_interval: Option<SimTime>,
    /// Set (once, sticky) when a failure destroys state beyond recovery.
    pub(crate) unrecoverable: Option<Unrecoverable>,
    /// The elastic controller, when installed ([`RuntimeBuilder::elastic`]).
    pub(crate) elastic: Option<crate::elastic::ElasticCtl>,
    /// PEs permanently reclaimed by the platform (spot preemptions). A
    /// retired PE is never revived by restart or expand.
    pub(crate) retired: Vec<bool>,
    /// Set (once, sticky) when alive capacity fell through the floor; the
    /// run still completes, with a [`crate::elastic::Degraded`] outcome.
    pub(crate) degraded: Option<crate::elastic::Degraded>,
    pub(crate) thermal: Option<ThermalModel>,
    pub(crate) dvfs: DvfsScheme,
    pub(crate) dvfs_period: SimTime,
    /// Last time an RTS-triggered (non-AtSync) LB round ran.
    pub(crate) last_rts_lb: SimTime,
    /// Busy time per chip accumulated since the last DVFS tick.
    pub(crate) chip_busy: Vec<SimTime>,
    pub(crate) sched_overhead: SimTime,
    pub(crate) metrics: FxHashMap<String, Vec<(f64, f64)>>,
    pub(crate) entries: u64,
    pub(crate) messages: u64,
    pub(crate) bytes_moved: u64,
    pub(crate) events_processed: u64,
    /// Wall-clock time accumulated inside `run*` calls (not virtual time).
    pub(crate) wall_run: std::time::Duration,
    /// Reusable buffer for the actions a `Ctx` collects during one entry
    /// method — saves a heap allocation per executed message.
    pub(crate) action_scratch: Vec<Action>,
    pub(crate) exit_requested: bool,
    pub(crate) max_events: u64,
    pub(crate) seed: u64,
    /// Location caching enabled? (ablation toggle; default true)
    pub(crate) location_cache: bool,
    /// Spanning-tree branching factor for collectives.
    pub(crate) collective_arity: u64,
    /// Record obj→obj communication for the LB?
    pub(crate) track_comm: bool,
    /// Aggregated obj→obj bytes since the last LB round (when tracked).
    pub(crate) comm: FxHashMap<(ObjId, ObjId), u64>,
    /// Projections-lite tracing, when enabled ([`RuntimeBuilder::tracing`]).
    pub(crate) tracer: Option<Tracer>,
    /// Critical-path node of the entry method currently executing (set for
    /// the span of `apply_actions`, so its sends inherit the chain). Only
    /// ever `Some` when the tracer's critical-path analyzer is on.
    pub(crate) cur_cp: Option<std::sync::Arc<crate::trace::CpNode>>,
    /// `(end_ns, chain)` of the latest-finishing contributor of a completed
    /// reduction, set around the completion-callback delivery so the
    /// callback's critical path chains through the reduction.
    pub(crate) cp_carry: Option<(u64, Option<std::sync::Arc<crate::trace::CpNode>>)>,
    /// Replay recording, when enabled ([`RuntimeBuilder::record`]).
    pub(crate) recorder: Option<Recorder>,
    /// Schedule perturbation, when enabled ([`RuntimeBuilder::perturb`]).
    pub(crate) perturb: Option<(PerturbConfig, StdRng)>,
    /// Slot-partitioned event-key counters: index `pe` for events produced
    /// while dispatching on that PE, then [`SLOT_HOST`]/[`SLOT_RED`]/
    /// [`SLOT_RTS`] offsets past `num_pes`. Partitioning by producer is what
    /// lets each parallel shard allocate keys independently yet identically
    /// to the sequential run (see [`Runtime::fresh_key`]).
    pub(crate) keys: Vec<u64>,
    /// Which key slot new events are charged to right now; maintained by
    /// [`Runtime::dispatch`], the host APIs, and the reduction fold.
    pub(crate) cur_slot: usize,
    /// `(time_ns, key)` of the event currently being dispatched — the
    /// global total order used to tag contributions, metrics, and replay
    /// records so shards can merge them back in sequential order.
    pub(crate) cur_dispatch: (u64, u64),
    /// Reduction contributions buffered since the last window boundary;
    /// folded in deterministic `(dispatch time, dispatch key)` order at the
    /// boundary (identically in sequential and parallel mode).
    pub(crate) pending_contribs: Vec<ContribRec>,
    /// End of the conservative lookahead window currently executing.
    pub(crate) cur_win_end: SimTime,
    /// Window quantum: the minimum cross-PE network latency (α) in ns.
    pub(crate) win_ns: u64,
    /// Recorder exec count at the last emitted state-digest point.
    pub(crate) last_digest_seq: u64,
    /// Present iff this runtime is one shard of a parallel run.
    pub(crate) par: Option<Box<crate::parallel::ParShard>>,
    /// Worker threads requested for deadline-free runs (1 = sequential).
    pub(crate) threads: usize,
    /// Metric samples tagged with their dispatch order, buffered in shard
    /// mode and merged deterministically at the end of a parallel run.
    pub(crate) metrics_buf: Vec<MetricSample>,
    /// Did the most recent `run_until` actually execute in parallel?
    pub(crate) last_run_parallel: bool,
    /// Modeled process tear-down/reconnect cost on shrink (paper: 2.7 s).
    pub reconfig_overhead_shrink: SimTime,
    /// Modeled process start-up/reconnect cost on expand (paper: 7.2 s).
    pub reconfig_overhead_expand: SimTime,
    /// Recycle envelopes and payload boxes through [`crate::arena`]
    /// (default on; [`RuntimeBuilder::classic_hotpath`] turns it off).
    pub(crate) arena_enabled: bool,
    /// This thread's arena counters when the runtime was built; `summary()`
    /// reports the delta.
    pub(crate) arena_base: crate::arena::ArenaStats,
    /// The recorder's interned entry-name index per (array, entry kind):
    /// the `array::kind` name is formatted and interned once per pair
    /// instead of looked up by string on every recorded execution. Valid
    /// for the recorder it was filled from; cleared whenever that
    /// recorder's name table is rebuilt.
    pub(crate) entry_name_cache: FxHashMap<(u32, &'static str), u32>,
    /// Event-queue operations performed by parallel shards' own queues,
    /// carried into [`RunSummary::queue_ops`] when the shards merge back.
    pub(crate) shard_queue_ops: u64,
    /// Force parallel workers onto the global-window (full-barrier) engine
    /// ([`RuntimeBuilder::global_window`]); A/B fallback for the adaptive
    /// per-shard-pair lookahead core.
    pub(crate) global_window: bool,
    /// Lookahead windows committed (drain-horizon advances) — see
    /// [`RunSummary::windows_executed`].
    pub(crate) sync_windows: u64,
    /// Total committed-horizon advance in ns, for `avg_window_width`.
    pub(crate) sync_width_ns: u64,
    /// Blocking waits paid (barrier arrivals / parked waits).
    pub(crate) sync_waits: u64,
    /// Window edges crossed without blocking (adaptive engine only).
    pub(crate) sync_elided: u64,
    /// When `Some`, [`Runtime::deliver_sys_tree`] logs every scheduled
    /// delivery time into it. The adaptive parallel folder arms this
    /// around reduction folds to learn which α-cells hold completion
    /// callbacks (its soft-rendezvous points); `None` everywhere else.
    pub(crate) cb_log: Option<Vec<u64>>,
}

impl Runtime {
    /// Start building a runtime for `machine`.
    pub fn builder(machine: MachineConfig) -> RuntimeBuilder {
        RuntimeBuilder {
            machine,
            seed: 42,
            lb: None,
            lb_trigger: LbTrigger::AtSync,
            dvfs: DvfsScheme::Off,
            dvfs_period: SimTime::from_secs(1),
            sched_overhead: SimTime::from_nanos(250),
            max_events: u64::MAX,
            location_cache: true,
            collective_arity: 2,
            track_comm: false,
            auto_ckpt: None,
            trace: None,
            trace_sinks: Vec::new(),
            record: None,
            perturb: None,
            threads: crate::parallel::default_threads(),
            elastic: None,
            classic_hotpath: false,
            global_window: false,
        }
    }

    /// Shorthand: a runtime on a homogeneous machine with default settings.
    pub fn homogeneous(num_pes: usize) -> Runtime {
        Runtime::builder(MachineConfig::homogeneous(num_pes)).build()
    }

    // ----- array management -------------------------------------------------

    /// Create (register) a chare array. The name is the stable identity used
    /// by disk checkpoints.
    pub fn create_array<C: Chare>(&mut self, name: &str) -> ArrayProxy<C> {
        assert!(
            !self.array_names.contains_key(name),
            "array '{name}' already exists"
        );
        let id = ArrayId(self.stores.len() as u32);
        self.stores.push(Box::new(ArrayStore::<C>::new(id, name)));
        self.home_maps.push(HomeMap::Hash);
        self.array_names.insert(name.to_string(), id);
        if let Some(tr) = self.tracer.as_mut() {
            tr.register_array(id, name);
        }
        ArrayProxy::new(id)
    }

    /// Install a home-mapping scheme for an array (before inserting
    /// elements). The default is [`HomeMap::Hash`].
    pub fn set_home_map<C: Chare>(&mut self, proxy: ArrayProxy<C>, map: HomeMap) {
        self.home_maps[proxy.id.0 as usize] = map;
    }

    /// Opt an array into AtSync load balancing (its elements both call
    /// `at_sync` and are migratable by the balancer).
    pub fn set_at_sync<C: Chare>(&mut self, proxy: ArrayProxy<C>, enabled: bool) {
        self.stores[proxy.id.0 as usize].set_uses_at_sync(enabled);
    }

    /// Insert an element at an explicit PE, or at its hashed home PE when
    /// `pe` is `None`.
    pub fn insert<C: Chare>(&mut self, proxy: ArrayProxy<C>, ix: crate::Ix, chare: C, pe: Option<usize>) {
        let pe = pe.unwrap_or_else(|| self.home_pe(proxy.id, &ix));
        assert!(pe < self.live_pes, "insert at dead/absent PE {pe}");
        self.stores[proxy.id.0 as usize].insert_boxed(ix, pe, Box::new(chare));
    }

    /// Number of elements in an array.
    pub fn array_len(&self, id: ArrayId) -> usize {
        self.stores[id.0 as usize].len()
    }

    /// Sorted indices of an array's current elements.
    pub fn array_indices(&self, id: ArrayId) -> Vec<crate::Ix> {
        self.stores[id.0 as usize].indices()
    }

    /// PE currently hosting an element.
    pub fn element_pe(&self, id: ArrayId, ix: &crate::Ix) -> Option<usize> {
        self.stores[id.0 as usize].element_pe(ix)
    }

    /// Look up an array id by name (for checkpoint restore paths).
    pub fn array_id(&self, name: &str) -> Option<ArrayId> {
        self.array_names.get(name).copied()
    }

    /// Host-side inspection of a chare's state (read-only). Returns `None`
    /// if the element doesn't exist. Useful for extracting results after a
    /// run and for tests; entry methods cannot use this (they only see
    /// their own chare), so it does not break the isolation model.
    pub fn inspect<C: Chare, R>(
        &self,
        proxy: ArrayProxy<C>,
        ix: &crate::Ix,
        f: impl FnOnce(&C) -> R,
    ) -> Option<R> {
        let store = self.stores[proxy.id.0 as usize]
            .as_any()
            .downcast_ref::<ArrayStore<C>>()
            .expect("proxy type matches store type");
        store.peek(ix).map(f)
    }

    // ----- host-side sends --------------------------------------------------

    /// Send a message into the system from the host program (arrives after
    /// one network latency). This is how a `main` kicks off execution.
    pub fn send<C: Chare>(&mut self, proxy: ArrayProxy<C>, ix: crate::Ix, mut msg: C::Msg) {
        let bytes = charm_pup::packed_size(&mut msg) + ENVELOPE_BYTES;
        self.cur_slot = self.host_slot();
        let rec_id = self.fresh_rec_id();
        if let Some(r) = &mut self.recorder {
            r.note_origin(rec_id); // external origin: no current exec
        }
        let env = self.alloc_env(Envelope {
            dst: ObjId {
                array: proxy.id,
                ix,
            },
            payload: Payload::User(Box::new(msg)),
            bytes,
            prio: 0,
            src_pe: 0,
            rec_id,
            src_obj: None,
            cp: None,
        });
        self.route_and_schedule(env, self.now);
    }

    /// Broadcast a message to every element of an array from the host.
    ///
    /// The wire size is computed once (the clones are PUP-identical), not
    /// once per element — on a large array the sizing pass used to dominate
    /// the host-side cost. Each element still receives its own point-to-
    /// point delivery; see [`broadcast_tree`](Self::broadcast_tree) for the
    /// spanning-tree collective.
    pub fn broadcast<C: Chare>(&mut self, proxy: ArrayProxy<C>, mut msg: C::Msg)
    where
        C::Msg: Clone,
    {
        let bytes = charm_pup::packed_size(&mut msg) + ENVELOPE_BYTES;
        self.cur_slot = self.host_slot();
        let targets = self.stores[proxy.id.0 as usize].indices();
        for ix in targets {
            let rec_id = self.fresh_rec_id();
            if let Some(r) = &mut self.recorder {
                r.note_origin(rec_id);
            }
            let env = self.alloc_env(Envelope {
                dst: ObjId {
                    array: proxy.id,
                    ix,
                },
                payload: Payload::User(Box::new(msg.clone())),
                bytes,
                prio: 0,
                src_pe: 0,
                rec_id,
                src_obj: None,
                cp: None,
            });
            self.route_and_schedule(env, self.now);
        }
    }

    /// Broadcast through the `collective_arity`-ary spanning tree, matching
    /// the Charm++ collective: every element receives the message exactly
    /// once, after `tree_depth()` small-message hops rather than after one
    /// independent point-to-point delivery per element. Opt-in because the
    /// tree adds latency for tiny arrays; throughput-bound fan-outs should
    /// prefer it.
    pub fn broadcast_tree<C: Chare>(&mut self, proxy: ArrayProxy<C>, mut msg: C::Msg)
    where
        C::Msg: Clone,
    {
        let bytes = charm_pup::packed_size(&mut msg) + ENVELOPE_BYTES;
        let array = proxy.id;
        self.cur_slot = self.host_slot();
        // Identical tree-cost model to chare-initiated broadcasts
        // (`do_broadcast`): each tree level adds one message latency.
        let depth = self.tree_depth();
        let level_cost = self
            .net
            .delay(0, 1.min(self.live_pes - 1), bytes, (array.0 as u64) ^ TOKEN_AUX);
        let tree_delay = SimTime(level_cost.0 * depth);
        let targets = self.stores[array.0 as usize].indices();
        for ix in targets {
            let dst = ObjId { array, ix };
            let Some(pe) = self.stores[array.0 as usize].element_pe(&ix) else {
                continue;
            };
            let rec_id = self.fresh_rec_id();
            if let Some(r) = &mut self.recorder {
                r.note_origin(rec_id);
                r.on_routed(rec_id, bytes, 0, pe, depth, 0);
            }
            let env = self.alloc_env(Envelope {
                dst,
                payload: Payload::User(Box::new(msg.clone())),
                bytes,
                prio: 0,
                src_pe: 0,
                rec_id,
                src_obj: None,
                cp: self.cp_msg(self.now),
            });
            self.bytes_moved += bytes as u64;
            if let Some(tr) = &mut self.tracer {
                tr.on_send(self.now, 0, pe, dst, bytes);
                tr.on_msg_latency(tree_delay);
            }
            self.sched_deliver(self.now + tree_delay, pe, env);
        }
    }

    // ----- clock & introspection ---------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live PEs.
    pub fn num_pes(&self) -> usize {
        self.live_pes
    }

    /// PUP digest of every chare's state, sorted by `(array, ix)` — the
    /// `StateDigest` walk record/replay compares run-to-run. Deterministic:
    /// stores are visited in `ArrayId` order and elements in sorted index
    /// order.
    pub fn state_digest(&mut self) -> Vec<(ObjId, u64)> {
        let mut out = Vec::new();
        for s in self.stores.iter_mut() {
            let id = s.id();
            for ix in s.indices() {
                if let Some(d) = s.digest_element(&ix) {
                    out.push((ObjId { array: id, ix }, d));
                }
            }
        }
        out
    }

    /// Finish recording and take the replay log (once; `None` when
    /// recording was never enabled). Appends the final state digest.
    pub fn take_replay_log(&mut self) -> Option<ReplayLog> {
        self.recorder.as_ref()?;
        let final_digests = self.state_digest();
        let rec = self.recorder.take()?;
        Some(rec.into_log(
            self.machine.name.clone(),
            self.machine.num_pes,
            self.seed,
            self.sched_overhead,
            self.collective_arity,
            self.machine.flops_per_sec,
            self.now,
            final_digests,
        ))
    }

    /// A recorded metric series (`ctx.log_metric`): (seconds, value) pairs.
    pub fn metric(&self, name: &str) -> &[(f64, f64)] {
        self.metrics.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Names of all recorded metrics.
    pub fn metric_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.metrics.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// The run's RNG seed (replays are bit-identical for equal seeds).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Messages parked for not-yet-existing elements (diagnostic). A
    /// steady-state nonzero value usually means a send to a wrong index.
    pub fn limbo_messages(&self) -> Vec<(ObjId, usize)> {
        let mut v: Vec<(ObjId, usize)> = self
            .limbo
            .iter()
            .map(|(k, q)| (*k, q.len()))
            .collect();
        v.sort_by_key(|(k, _)| (k.array, k.ix));
        v
    }

    /// Completed load-balancing rounds.
    pub fn lb_rounds(&self) -> &[LbRound] {
        &self.lb_rounds
    }

    /// Busy time of a PE so far.
    pub fn pe_busy_time(&self, pe: usize) -> SimTime {
        self.pes[pe].busy_time
    }

    /// Control-point registry (register knobs here before running).
    pub fn control_registry(&mut self) -> &mut ControlRegistry {
        &mut self.ctrl
    }

    /// The thermal model, when the machine has one.
    pub fn thermal(&self) -> Option<&ThermalModel> {
        self.thermal.as_ref()
    }

    /// Did the most recent [`Runtime::run_until`] actually execute on the
    /// parallel sharded engine? `false` after a sequential run — including
    /// the silent fallback taken when some feature in use (dynamic
    /// insertion, quiescence detection, thermal/DVFS, comm tracking…)
    /// is sequential-only.
    pub fn last_run_parallel(&self) -> bool {
        self.last_run_parallel
    }

    /// Worker-thread count for subsequent runs (1 = sequential). Builder
    /// equivalent: [`RuntimeBuilder::threads`].
    pub fn set_parallel_threads(&mut self, n: usize) {
        self.threads = n.max(1);
    }

    /// Force the sharded engine onto the global-window lockstep fallback
    /// (the pre-adaptive synchronization scheme). A/B knob: both engines
    /// are byte-identical to sequential, so flipping this may only change
    /// wall-clock time and the window counters, never results.
    pub fn set_global_window(&mut self, on: bool) {
        self.global_window = on;
    }

    /// Schedule a malleable reconfiguration (shrink or expand) at `at`.
    pub fn schedule_reconfigure(&mut self, at: SimTime, to_pes: usize) {
        assert!(to_pes >= 1 && to_pes <= self.machine.num_pes);
        let k = self.fresh_key(self.host_slot());
        self.events.push_keyed(at, k, Ev::Reconfigure { to: to_pes });
    }

    // ----- the event loop ----------------------------------------------------

    /// Run until the event queue drains, a chare calls `exit`, or the event
    /// cap is hit. Returns a summary.
    pub fn run(&mut self) -> RunSummary {
        self.run_until(SimTime::MAX)
    }

    /// Run until virtual time `deadline` (events after it stay queued), a
    /// chare calls `exit`, or the event cap is hit.
    ///
    /// With [`RuntimeBuilder::threads`] > 1 and no deadline, the run is
    /// sharded across OS worker threads when every feature in use is
    /// parallel-safe (see [`Runtime::last_run_parallel`]); results are
    /// byte-identical to sequential execution either way.
    pub fn run_until(&mut self, deadline: SimTime) -> RunSummary {
        if self.threads > 1 && deadline == SimTime::MAX && self.par.is_none() {
            if let Some(plan) = self.parallel_plan() {
                return self.run_parallel(plan);
            }
        }
        self.last_run_parallel = false;
        self.run_seq_until(deadline)
    }

    /// The sequential engine: conservative lookahead windows over one event
    /// heap. Events execute in windows of width `win_ns` (the minimum
    /// cross-PE latency α); reduction folds and state-digest points happen
    /// at window boundaries. Parallel workers run this same loop per shard
    /// (via [`Runtime::drain_window`]) with identical window geometry —
    /// that shared geometry is what makes parallel results byte-identical.
    pub(crate) fn run_seq_until(&mut self, deadline: SimTime) -> RunSummary {
        self.ctrl_snapshot = self.ctrl.snapshot();
        let wall_start = std::time::Instant::now();
        let mut batch: Vec<(u64, Ev)> = Vec::new();
        while self.events_processed < self.max_events {
            let Some(t) = self.events.peek_time() else {
                // Quiet heap, but buffered contributions can still complete
                // a reduction whose callback re-seeds the heap.
                if !self.pending_contribs.is_empty() && !self.exit_requested {
                    self.boundary_work();
                    continue;
                }
                break;
            };
            if t > deadline {
                break;
            }
            if t >= self.cur_win_end {
                // `exit` drains the current window, then stops (parallel
                // shards can't stop mid-window, so sequential must not
                // either).
                if self.exit_requested {
                    break;
                }
                // Idle boundary (no buffered contributions, no digest due):
                // nothing observable happens, so jump the window straight
                // to the one containing `t`. With α-sized windows this is
                // the common case and keeps boundary cost off the hot path.
                if self.pending_contribs.is_empty() && !self.digest_due() {
                    let w = self.win_end_after(t);
                    self.sync_windows += 1;
                    self.sync_width_ns += w.0.saturating_sub(self.cur_win_end.0);
                    self.cur_win_end = w;
                } else {
                    self.boundary_work();
                    // The fold may have scheduled callbacks earlier than
                    // `t`; re-aim the window at the true next event.
                    if let Some(t2) = self.events.peek_time() {
                        let w = self.win_end_after(t2);
                        self.sync_windows += 1;
                        self.sync_width_ns += w.0.saturating_sub(self.cur_win_end.0);
                        self.cur_win_end = w;
                    }
                    continue;
                }
            }
            self.drain_batch_at(t, deadline, &mut batch);
        }
        if deadline != SimTime::MAX && !self.exit_requested {
            self.now = self.now.max(deadline);
        }
        self.wall_run += wall_start.elapsed();
        self.summary()
    }

    /// Pop and dispatch the whole event batch at timestamp `t`. All events
    /// sharing the head timestamp are popped in one batch (one buffer,
    /// reused across timesteps) instead of a peek+pop pair per event, in
    /// ascending key order — the same total `(time, key)` order whether the
    /// events were produced by one shard or by the sequential engine.
    fn drain_batch_at(&mut self, t: SimTime, deadline: SimTime, batch: &mut Vec<(u64, Ev)>) {
        debug_assert!(t >= self.now, "time went backwards");
        debug_assert!(t <= deadline);
        self.now = t;
        self.events.pop_batch_at_seq_into(t, batch);
        let mut drain = batch.drain(..);
        for (key, ev) in drain.by_ref() {
            self.events_processed += 1;
            self.cur_dispatch = (t.0, key);
            self.dispatch(ev);
            self.maybe_detect_quiescence();
            if self.events_processed >= self.max_events {
                break;
            }
        }
        // Event-cap stop mid-batch: unprocessed ties go back under their
        // original keys, so a later resumed run (interop's `clear_exit`)
        // pops them in the exact pre-batch order.
        for (key, ev) in drain {
            self.events.restore(t, key, ev);
        }
    }

    /// Process every queued event strictly before `w_end` (one conservative
    /// window). The parallel worker loop drives this per shard.
    pub(crate) fn drain_window(&mut self, w_end: SimTime, batch: &mut Vec<(u64, Ev)>) {
        while let Some(t) = self.events.peek_time() {
            if t >= w_end {
                break;
            }
            self.drain_batch_at(t, SimTime::MAX, batch);
        }
        self.cur_win_end = w_end;
    }

    /// Window-boundary bookkeeping: fold buffered reduction contributions
    /// and emit a state-digest point when one is due. The boundary sequence
    /// (and thus the fold and digest points) is identical in sequential and
    /// parallel mode.
    /// Is a periodic state-digest point due at the next window boundary?
    fn digest_due(&self) -> bool {
        self.recorder.as_ref().is_some_and(|r| {
            r.cfg
                .digest_every
                .is_some_and(|n| r.execs_len() - self.last_digest_seq >= n)
        })
    }

    pub(crate) fn boundary_work(&mut self) {
        let boundary = self.cur_win_end;
        self.fold_contributions();
        let due = self.recorder.as_ref().and_then(|r| {
            let n = r.cfg.digest_every?;
            let execs = r.execs_len();
            (execs - self.last_digest_seq >= n).then_some(execs)
        });
        if let Some(execs) = due {
            self.last_digest_seq = execs;
            let digests = self.state_digest();
            if let Some(r) = &mut self.recorder {
                r.push_state_point(boundary, digests);
            }
        }
    }

    /// End of the lookahead window containing `t`: the next multiple of
    /// `win_ns` strictly after it.
    pub(crate) fn win_end_after(&self, t: SimTime) -> SimTime {
        let w = self.win_ns;
        SimTime((t.0 / w).saturating_add(1).saturating_mul(w))
    }

    /// Run for `span` more virtual time.
    pub fn run_for(&mut self, span: SimTime) -> RunSummary {
        let deadline = self.now + span;
        self.run_until(deadline)
    }

    /// Like [`run`](Self::run), but surfaces fatal state loss: if any
    /// failure (or cascade) destroyed chare state that no surviving
    /// checkpoint copy covered, the run outcome is [`Unrecoverable`]
    /// instead of a summary that silently omits the lost work.
    pub fn run_checked(&mut self) -> Result<RunSummary, Unrecoverable> {
        self.run_until_checked(SimTime::MAX)
    }

    /// [`run_checked`](Self::run_checked) with a virtual-time budget.
    pub fn run_until_checked(&mut self, deadline: SimTime) -> Result<RunSummary, Unrecoverable> {
        let summary = self.run_until(deadline);
        match &self.unrecoverable {
            Some(u) => Err(u.clone()),
            None => Ok(summary),
        }
    }

    /// The fatal-failure record, if a failure destroyed unrecoverable state.
    pub fn unrecoverable(&self) -> Option<&Unrecoverable> {
        self.unrecoverable.as_ref()
    }

    /// Summary of progress so far.
    pub fn summary(&self) -> RunSummary {
        let elapsed = self.now.as_secs_f64();
        let live = self.live_pes.max(1);
        let util = if elapsed > 0.0 {
            self.pes[..self.live_pes]
                .iter()
                .map(|p| p.busy_time.as_secs_f64() / elapsed)
                .sum::<f64>()
                / live as f64
        } else {
            0.0
        };
        let wall = self.wall_run.as_secs_f64();
        RunSummary {
            end_time: self.now,
            events: self.events_processed,
            entries: self.entries,
            messages: self.messages,
            bytes: self.bytes_moved,
            avg_utilization: util,
            wall_time_s: wall,
            events_per_sec: if wall > 0.0 {
                self.events_processed as f64 / wall
            } else {
                0.0
            },
            trace_dropped: self.tracer.as_ref().map_or(0, |t| t.dropped_events()),
            trace_sinks: self
                .tracer
                .as_ref()
                .map_or_else(Vec::new, |t| t.sink_stats()),
            entry_slos: self.entry_slos(),
            replay_shed_execs: self.recorder.as_ref().map_or(0, |r| r.shed_execs()),
            replay_shed_sends: self.recorder.as_ref().map_or(0, |r| r.shed_sends()),
            queue_ops: self.events.ops()
                + self.shard_queue_ops
                + self.pes.iter().map(|p| p.pending.ops()).sum::<u64>(),
            arena_bytes: crate::arena::stats()
                .bytes_served
                .saturating_sub(self.arena_base.bytes_served),
            alloc_bypass: crate::arena::stats()
                .bypass
                .saturating_sub(self.arena_base.bypass),
            windows_executed: self.sync_windows,
            barriers_waited: self.sync_waits,
            barriers_elided: self.sync_elided,
            avg_window_width: if self.sync_windows > 0 {
                self.sync_width_ns as f64 / self.sync_windows as f64
            } else {
                0.0
            },
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        // Events produced while handling this one are charged to the
        // handling PE's key slot (RTS slot for runtime-system events), so a
        // shard that owns the PE allocates exactly the keys the sequential
        // engine would.
        self.cur_slot = match &ev {
            Ev::Deliver { pe, .. } | Ev::PeFree { pe } | Ev::PeRetry { pe } => *pe,
            Ev::MigrateArrive(m) => m.to_pe,
            _ => self.rts_slot(),
        };
        match ev {
            Ev::Deliver { pe, env } => {
                self.inflight -= 1;
                if !self.pes[pe].alive {
                    // The process is gone. If its chares were evacuated
                    // (graceful shrink) the envelope chases them; if the
                    // element died with the process (crash without
                    // checkpoint), `route_and_schedule` drops it.
                    self.route_and_schedule(env, self.now);
                    return;
                }
                // Idle-PE fast path: nothing queued and nothing running, so
                // the envelope would be heap-pushed and immediately popped.
                // Its `seq` (= pre-increment `messages`) is assigned then
                // discarded on the slow path too, so skipping the priority
                // heap is unobservable — counters, tracing, and execution
                // order are identical.
                let p = &self.pes[pe];
                if !p.busy && p.pending.is_empty() && self.now >= p.blocked_until {
                    self.messages += 1;
                    if let Some(tr) = &mut self.tracer {
                        tr.on_recv(self.now, pe, env.src_pe, env.dst, env.bytes);
                    }
                    // A false return means parked/forwarded; with an empty
                    // queue there is nothing further to start either way.
                    self.execute(pe, env);
                    return;
                }
                self.enqueue_local(pe, env);
                self.try_start(pe);
            }
            Ev::PeFree { pe } => {
                if !self.pes[pe].alive {
                    // The PE died mid-entry; the completion never happens.
                    return;
                }
                let (dst, dur, entry) = self.pes[pe]
                    .current
                    .take()
                    .expect("PeFree without a running entry");
                self.pes[pe].busy = false;
                self.busy_pes -= 1;
                self.pes[pe].busy_time += dur;
                let chip = self.machine.chip_of(pe);
                if chip < self.chip_busy.len() {
                    self.chip_busy[chip] += dur;
                }
                // Entry spans are traced here, at completion — the same
                // place `busy_time` accrues — so traced per-entry totals
                // agree exactly with `pe_busy_time` even when failures or
                // rollbacks cancel in-flight completions.
                if let Some(tr) = &mut self.tracer {
                    tr.on_entry(pe, dst, entry, self.now.saturating_sub(dur), dur);
                }
                self.try_start(pe);
                if let Some(tr) = &mut self.tracer {
                    tr.pe_transition(self.now, pe, self.pes[pe].busy);
                }
            }
            Ev::PeRetry { pe } => {
                self.try_start(pe);
            }
            Ev::MigrateArrive(m) => {
                let MigrateArrive {
                    dst,
                    to_pe,
                    from_pe,
                    bytes,
                } = *m;
                self.inflight -= 1;
                self.stores[dst.array.0 as usize].unpack_insert(dst.ix, to_pe, &bytes);
                // Tell the chare it moved, then flush any messages parked
                // while it was in transit.
                self.deliver_sys(dst, SysEvent::Migrated { from_pe }, self.now);
                self.flush_limbo(dst);
            }
            Ev::DvfsTick => self.on_dvfs_tick(),
            Ev::NodeFail { pe } => self.on_node_failure(pe),
            Ev::CkptCommit => self.on_ckpt_commit(),
            Ev::AutoCkpt => self.on_auto_ckpt(),
            Ev::Reconfigure { to } => self.on_reconfigure(to),
            Ev::RtsLb => self.rts_triggered_lb(),
            Ev::ElasticTick => self.on_elastic_tick(),
            Ev::PreemptWarn { pe, deadline } => self.on_preempt_warn(pe, deadline),
        }
    }

    fn enqueue_local(&mut self, pe: usize, env: Box<Envelope>) {
        // Arrival order within a priority lane is the old `seq` tiebreak:
        // `messages` is bumped once per enqueue, so FIFO-per-lane in the
        // [`PrioQueue`] reproduces the former `(prio, seq)` heap order.
        self.messages += 1;
        self.queued += 1;
        if let Some(tr) = &mut self.tracer {
            tr.on_recv(self.now, pe, env.src_pe, env.dst, env.bytes);
        }
        self.pes[pe].pending.push(env.prio, env);
    }

    /// Begin executing the next queued message on `pe` if it is idle.
    /// Loops (rather than recursing) past messages that only need
    /// re-routing, so deep queues of stale envelopes can't blow the stack.
    fn try_start(&mut self, pe: usize) {
        loop {
            let p = &mut self.pes[pe];
            if p.busy || !p.alive || p.pending.is_empty() {
                return;
            }
            if self.now < p.blocked_until {
                let when = p.blocked_until;
                self.push_ev(when, Ev::PeRetry { pe });
                return;
            }
            let env = p.pending.pop().expect("non-empty");
            self.queued -= 1;
            if self.execute(pe, env) {
                return;
            }
        }
    }

    /// Key-slot index for host-side sends.
    pub(crate) fn host_slot(&self) -> usize {
        self.machine.num_pes + SLOT_HOST
    }

    /// Key-slot index for reduction-fold deliveries.
    pub(crate) fn red_slot(&self) -> usize {
        self.machine.num_pes + SLOT_RED
    }

    /// Key-slot index for runtime-system events.
    pub(crate) fn rts_slot(&self) -> usize {
        self.machine.num_pes + SLOT_RTS
    }

    /// Allocate the next event key in `slot`.
    pub(crate) fn fresh_key(&mut self, slot: usize) -> u64 {
        let k = ((slot as u64) << KEY_SLOT_SHIFT) | self.keys[slot];
        self.keys[slot] += 1;
        debug_assert!(self.keys[slot] < 1 << KEY_SLOT_SHIFT, "key slot overflow");
        k
    }

    /// Allocate a runtime-wide message id (always, so recording is inert),
    /// charged to the current producer slot.
    pub(crate) fn fresh_rec_id(&mut self) -> u64 {
        let slot = self.cur_slot;
        self.fresh_key(slot)
    }

    /// Push a non-delivery event under a fresh key from the current slot.
    pub(crate) fn push_ev(&mut self, t: SimTime, ev: Ev) {
        debug_assert!(!matches!(ev, Ev::Deliver { .. }), "deliveries go through sched_deliver");
        let k = self.fresh_rec_id();
        self.events.push_keyed(t, k, ev);
    }

    /// Box an envelope, recycling a pooled block when the arena is on.
    /// Paired with the `take_box` in [`Runtime::execute`]: together they
    /// make steady-state dispatch free of global-allocator calls.
    #[inline]
    pub(crate) fn alloc_env(&self, env: Envelope) -> Box<Envelope> {
        if self.arena_enabled {
            crate::arena::alloc_box(env)
        } else {
            Box::new(env)
        }
    }

    /// Schedule a message delivery under its envelope key. In shard mode,
    /// deliveries to PEs owned by another shard are buffered in the outbox
    /// and exchanged at the next window barrier; the ingesting shard counts
    /// them in flight.
    pub(crate) fn sched_deliver(&mut self, t: SimTime, pe: usize, env: Box<Envelope>) {
        if let Some(par) = &mut self.par {
            if pe < par.lo || pe >= par.hi {
                let shard = par.shard_of(pe);
                par.outbox[shard].push((t, pe, env));
                return;
            }
        }
        self.inflight += 1;
        let k = env.rec_id;
        self.events.push_keyed(t, k, Ev::Deliver { pe, env });
    }

    /// Execute one envelope on `pe` at `self.now`. Returns false when the
    /// envelope was parked or forwarded instead of executed.
    fn execute(&mut self, pe: usize, env: Box<Envelope>) -> bool {
        let aid = env.dst.array;
        let ix = env.dst.ix;
        let store = &mut self.stores[aid.0 as usize];

        // The element may have moved (stale cache delivered here) or may not
        // exist yet (dynamic insertion / migration in transit).
        match store.locate(&ix) {
            None => {
                assert!(
                    self.par.is_none(),
                    "message for nonexistent element {:?} in parallel mode \
                     (dynamic insertion is sequential-only)",
                    env.dst
                );
                self.limbo.entry(env.dst).or_default().push(env);
                return false;
            }
            Some((actual, epoch)) if actual != pe => {
                // Forward along and update the original sender's cache.
                let delay = self.net.delay(pe, actual, env.bytes, env.rec_id ^ TOKEN_AUX);
                self.loc_cache[env.src_pe].insert(env.dst, (actual, epoch));
                self.bytes_moved += env.bytes as u64;
                self.sched_deliver(self.now + delay, actual, env);
                return false;
            }
            Some(_) => {}
        }

        // The envelope is definitely consumed here: take it apart by value,
        // recycling its heap block into the arena (the per-message free —
        // and the matching alloc at the next send — bypass the global
        // allocator entirely; see `crate::arena`).
        let Envelope {
            dst,
            mut payload,
            bytes,
            prio: _,
            src_pe: _,
            rec_id,
            src_obj,
            cp,
        } = if self.arena_enabled {
            crate::arena::take_box(env)
        } else {
            *env
        };

        let entry_kind = match &payload {
            Payload::User(_) => EntryKind::Message,
            Payload::Sys(ev) => EntryKind::Event(ev.kind_name()),
        };
        // Digest the consumed payload *before* execution moves it into the
        // chare. Only pay the cost when recording. The recorder entry name
        // (`array::kind`) is interned once and its index cached in
        // `entry_name_cache` at use below.
        let rec_consumed = if self.recorder.is_some() {
            Some(match &mut payload {
                Payload::User(boxed) => (store.user_msg_digest(boxed), "on_message"),
                Payload::Sys(ev) => (sys_event_digest(ev), ev.kind_name()),
            })
        } else {
            None
        };
        let mut ctx = Ctx {
            now: self.now,
            pe,
            num_pes: self.live_pes,
            self_id: dst,
            work_units: 0.0,
            // Reuse one buffer across entry executions (allocation-free
            // steady state); returned to the scratch slot below.
            actions: std::mem::take(&mut self.action_scratch),
            rng: &mut self.rngs[pe],
            ctrl: &self.ctrl_snapshot,
            arena: self.arena_enabled,
        };
        let ok = store.execute(&ix, payload, &mut ctx);
        debug_assert!(ok, "element existed a moment ago");
        self.entries += 1;

        let work_units = ctx.work_units;
        let actions = std::mem::take(&mut ctx.actions);
        drop(ctx);

        // Entry duration: declared work at the PE's effective speed, plus
        // scheduling overhead, plus send-side software overhead per message.
        let speed = self.effective_speed(pe);
        let work_time = SimTime::from_secs_f64(work_units / (self.machine.flops_per_sec * speed));
        // Send-side software overhead: a remote send costs the full
        // injection overhead; a same-PE send is a queue push (~an order of
        // magnitude cheaper) — the asymmetry TRAM exploits (§III-F).
        let mut send_cost = SimTime::ZERO;
        let (mut n_remote, mut n_local) = (0u32, 0u32);
        for a in &actions {
            match a {
                Action::Send { dst, .. } => {
                    let local = self.stores[dst.array.0 as usize]
                        .element_pe(&dst.ix)
                        .map(|p| p == pe)
                        .unwrap_or(false);
                    send_cost += if local {
                        n_local += 1;
                        self.net.params().local_delivery
                    } else {
                        n_remote += 1;
                        self.net.send_overhead()
                    };
                }
                Action::Broadcast { .. } => {
                    n_remote += 1;
                    send_cost += self.net.send_overhead();
                }
                _ => {}
            }
        }
        let duration = work_time + self.sched_overhead + send_cost;

        // Instrument the chare's load (reference-speed seconds, so the LB
        // can divide by PE speed itself).
        let ref_load = work_units / self.machine.flops_per_sec;
        self.stores[aid.0 as usize].add_load(&ix, ref_load);

        let end = self.now + duration;
        self.pes[pe].busy = true;
        self.busy_pes += 1;
        self.pes[pe].msgs_executed += 1;
        self.pes[pe].current = Some((dst, duration, entry_kind));
        if let Some(tr) = &mut self.tracer {
            tr.pe_transition(self.now, pe, true);
        }
        self.push_ev(end, Ev::PeFree { pe });

        let dispatch = self.cur_dispatch;
        if let Some((digest, kind)) = rec_consumed {
            // Disjoint-field borrows: the name cache and stores are read
            // while the recorder is borrowed mutably.
            let stores = &self.stores;
            let cache = &mut self.entry_name_cache;
            if let Some(r) = self.recorder.as_mut() {
                r.begin_exec(
                    pe,
                    self.now,
                    duration,
                    dst,
                    |r| {
                        *cache.entry((aid.0, kind)).or_insert_with(|| {
                            r.intern(&format!("{}::{}", stores[aid.0 as usize].name(), kind))
                        })
                    },
                    rec_id,
                    src_obj,
                    digest,
                    bytes,
                    work_units,
                    n_remote,
                    n_local,
                    dispatch,
                );
            }
        }
        // Extend the critical-path chain through this execution; outgoing
        // sends (applied below) inherit the node via `cur_cp`.
        self.cur_cp = match &mut self.tracer {
            Some(tr) => tr.cp_on_exec(pe, dst, entry_kind, self.now, duration, cp),
            None => None,
        };
        let mut actions = actions;
        self.apply_actions(dst, pe, end, &mut actions);
        self.action_scratch = actions;
        self.cur_cp = None;
        if let Some(r) = &mut self.recorder {
            r.end_exec();
        }
        // State-digest points are taken at window boundaries (see
        // `boundary_work`), not here: a mid-window digest would observe a
        // state no parallel schedule can reproduce.
        true
    }

    /// Depth of a `collective_arity`-ary spanning tree over the live PEs.
    pub(crate) fn tree_depth(&self) -> u64 {
        let p = self.live_pes.max(2) as f64;
        p.log(self.collective_arity.max(2) as f64).ceil().max(1.0) as u64
    }

    /// Effective speed of a PE: static heterogeneity × interference × DVFS.
    pub(crate) fn effective_speed(&self, pe: usize) -> f64 {
        let mut s = self.machine.speed.speed_at(pe, self.now);
        if let Some(th) = &self.thermal {
            let chip = self.machine.chip_of(pe);
            if chip < th.num_chips() {
                s *= th.freq_factor(chip);
            }
        }
        s
    }

    /// Critical-path stamp for a message sent at `sent_at`: the current
    /// execution's chain, or a fresh root at the send time (host / RTS
    /// origin). `None` whenever the analyzer is off — the common case.
    pub(crate) fn cp_msg(&self, sent_at: SimTime) -> Option<Box<crate::trace::CpMsg>> {
        if !self.tracer.as_ref().is_some_and(|t| t.cp_enabled()) {
            return None;
        }
        Some(Box::new(crate::trace::CpMsg {
            cp_end: self.cur_cp.as_ref().map_or(sent_at.as_nanos(), |n| n.end_ns),
            from: self.cur_cp.clone(),
            sent_at,
        }))
    }

    pub(crate) fn apply_actions(
        &mut self,
        src: ObjId,
        src_pe: usize,
        at: SimTime,
        actions: &mut Vec<Action>,
    ) {
        for action in actions.drain(..) {
            if self.par.is_some() {
                let unsupported = match &action {
                    Action::AtSync => Some("at_sync"),
                    Action::MigrateMe { .. } => Some("migrate_me"),
                    Action::Insert { .. } => Some("insert"),
                    Action::DestroyMe => Some("destroy_me"),
                    Action::CtrlFeedback { .. } => Some("ctrl_feedback"),
                    Action::MemCheckpoint { .. } => Some("mem_checkpoint"),
                    Action::RequestLb => Some("request_lb"),
                    Action::RequestQuiescence { .. } => Some("request_quiescence"),
                    _ => None,
                };
                if let Some(name) = unsupported {
                    panic!(
                        "`{name}` is sequential-only; run with threads = 1 \
                         (the parallel engine shards chare locations and \
                         cannot move or create elements mid-run)"
                    );
                }
            }
            match action {
                Action::Send {
                    dst,
                    payload,
                    bytes,
                    prio,
                    delay,
                } => {
                    if self.track_comm {
                        *self.comm.entry((src, dst)).or_default() += bytes as u64;
                    }
                    let rec_id = self.fresh_rec_id();
                    if let Some(r) = &mut self.recorder {
                        r.note_origin(rec_id);
                    }
                    let env = self.alloc_env(Envelope {
                        dst,
                        payload: Payload::User(payload),
                        bytes,
                        prio,
                        src_pe,
                        rec_id,
                        src_obj: Some(src),
                        cp: None,
                    });
                    self.route_and_schedule(env, at + delay);
                }
                Action::Broadcast {
                    array,
                    make,
                    bytes,
                    prio,
                } => {
                    self.do_broadcast(array, &*make, bytes, prio, src, src_pe, at);
                }
                Action::Contribute {
                    array,
                    tag,
                    value,
                    op,
                    cb,
                } => self.do_contribute(array, tag, value, op, cb, at),
                Action::AtSync => {
                    self.at_sync_seen += 1;
                    self.check_at_sync(at);
                }
                Action::MigrateMe { to } => self.start_migration(src, to, at),
                Action::Insert {
                    array,
                    ix,
                    chare,
                    pe,
                } => {
                    let pe = pe.unwrap_or_else(|| self.home_pe(array, &ix));
                    let pe = pe.min(self.live_pes - 1);
                    self.stores[array.0 as usize].insert_boxed(ix, pe, chare);
                    let dst = ObjId { array, ix };
                    self.deliver_sys(dst, SysEvent::Inserted, at);
                    self.flush_limbo(dst);
                }
                Action::DestroyMe => {
                    self.stores[src.array.0 as usize].remove_element(&src.ix);
                }
                Action::Exit => self.exit_requested = true,
                Action::Metric { name, value } => {
                    if self.par.is_some() {
                        // Buffered with the producing dispatch order; merged
                        // back into sequential order after the run.
                        self.metrics_buf.push(MetricSample {
                            dispatch: self.cur_dispatch,
                            name,
                            at_secs: at.as_secs_f64(),
                            value,
                        });
                    } else {
                        self.metrics
                            .entry(name)
                            .or_default()
                            .push((at.as_secs_f64(), value));
                    }
                }
                Action::RequestQuiescence { cb } => {
                    assert!(self.qd.is_none(), "concurrent quiescence detections");
                    self.qd = Some(cb);
                }
                Action::CtrlFeedback { objective } => {
                    self.ctrl.observe(objective);
                    self.ctrl_snapshot = self.ctrl.snapshot();
                }
                Action::MemCheckpoint { cb } => self.start_mem_checkpoint(cb, at),
                Action::RequestLb => self.rts_triggered_lb(),
            }
        }
    }

    /// Resolve an envelope's destination through the location-management
    /// protocol (§II-D) and schedule its delivery.
    ///
    /// Cache hit → direct send. Stale cache → the stale PE forwards (cost
    /// modeled in `execute`, which re-routes). Miss → home-PE query round
    /// trip precedes the send.
    pub(crate) fn route_and_schedule(&mut self, mut env: Box<Envelope>, at: SimTime) {
        let src = env.src_pe;
        let dst = env.dst;
        let Some((true_pe, epoch)) = self.locate_global(dst) else {
            assert!(
                self.par.is_none(),
                "send to nonexistent element {dst:?} in parallel mode \
                 (dynamic insertion is sequential-only)"
            );
            self.limbo.entry(dst).or_default().push(env);
            return;
        };
        if !self.pes[true_pe].alive {
            // Element lost with a crashed, unrecovered process.
            return;
        }

        let (target_pe, extra) = if true_pe == src {
            (true_pe, SimTime::ZERO)
        } else if !self.location_cache {
            // Ablation: no caching — every remote send queries the home PE.
            let home = self.home_pe(dst.array, &dst.ix);
            let rtt = self.net.delay(src, home, ENVELOPE_BYTES, env.rec_id ^ TOKEN_RTT_REQ)
                + self.net.delay(home, src, ENVELOPE_BYTES, env.rec_id ^ TOKEN_RTT_RESP);
            (true_pe, rtt)
        } else {
            match self.loc_cache[src].get(&dst) {
                Some((pe, _ep)) => {
                    // Send to the cached PE; if stale, `execute` forwards.
                    (pe, SimTime::ZERO)
                }
                None => {
                    // Query the home PE first: request + response round trip.
                    let home = self.home_pe(dst.array, &dst.ix);
                    let rtt = self.net.delay(src, home, ENVELOPE_BYTES, env.rec_id ^ TOKEN_RTT_REQ)
                        + self.net.delay(home, src, ENVELOPE_BYTES, env.rec_id ^ TOKEN_RTT_RESP);
                    self.loc_cache[src].insert(dst, (true_pe, epoch));
                    (true_pe, rtt)
                }
            }
        };
        let target_pe = if self.pes[target_pe].alive {
            target_pe
        } else {
            true_pe
        };
        let delay = self.net.delay(src, target_pe, env.bytes, env.rec_id);
        self.bytes_moved += env.bytes as u64;
        if env.cp.is_none() {
            env.cp = self.cp_msg(at);
        }
        if let Some(tr) = &mut self.tracer {
            tr.on_send(at, src, target_pe, dst, env.bytes);
        }
        if let Some(r) = &mut self.recorder {
            // A home-PE query round trip was charged iff `extra > 0`; its
            // control messages are envelope-sized.
            let rtt_bytes = if extra > SimTime::ZERO { ENVELOPE_BYTES } else { 0 };
            r.on_routed(env.rec_id, env.bytes, src, target_pe, 0, rtt_bytes);
        }
        // Schedule perturbation: seeded extra delay on user messages only
        // (delays are always causally valid — the network could have been
        // this slow). System events keep their exact timing.
        let jitter = match &mut self.perturb {
            Some((cfg, rng)) if matches!(env.payload, Payload::User(_)) => {
                if rng.gen_bool(cfg.prob) {
                    SimTime(rng.gen_range(0..=cfg.max_extra.0))
                } else {
                    SimTime::ZERO
                }
            }
            _ => SimTime::ZERO,
        };
        if let Some(tr) = &mut self.tracer {
            tr.on_msg_latency(extra + delay + jitter);
        }
        self.sched_deliver(at + extra + delay + jitter, target_pe, env);
    }

    /// Home PE of an index under its array's home map.
    pub(crate) fn home_pe(&self, array: ArrayId, ix: &crate::Ix) -> usize {
        let p = self.live_pes;
        match self.home_maps.get(array.0 as usize).copied().unwrap_or(HomeMap::Hash) {
            HomeMap::Hash => (ix.stable_hash() % p as u64) as usize,
            HomeMap::Blocked { total } => match ix {
                crate::Ix::I1(i) if *i >= 0 && (*i as u64) < total && total > 0 => {
                    ((*i as u64) * p as u64 / total) as usize
                }
                _ => (ix.stable_hash() % p as u64) as usize,
            },
            HomeMap::Custom(f) => f(ix, p).min(p - 1),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn do_broadcast(
        &mut self,
        array: ArrayId,
        make: &dyn Fn() -> Box<dyn std::any::Any + Send>,
        bytes: usize,
        prio: i64,
        src: ObjId,
        src_pe: usize,
        at: SimTime,
    ) {
        // Spanning-tree cost: each level adds one small-message latency; all
        // leaves receive after depth hops (idealized balanced tree).
        let depth = self.tree_depth();
        let level_cost = self
            .net
            .delay(0, 1.min(self.live_pes - 1), bytes, self.cur_dispatch.1 ^ TOKEN_AUX);
        let tree_delay = SimTime(level_cost.0 * depth);
        for (ix, pe) in self.broadcast_targets(array) {
            let dst = ObjId { array, ix };
            let rec_id = self.fresh_rec_id();
            if let Some(r) = &mut self.recorder {
                r.note_origin(rec_id);
                r.on_routed(rec_id, bytes, src_pe, pe, depth, 0);
            }
            let env = self.alloc_env(Envelope {
                dst,
                payload: Payload::User(make()),
                bytes,
                prio,
                src_pe,
                rec_id,
                src_obj: Some(src),
                cp: self.cp_msg(at),
            });
            self.bytes_moved += bytes as u64;
            if let Some(tr) = &mut self.tracer {
                tr.on_send(at, src_pe, pe, dst, bytes);
                tr.on_msg_latency(tree_delay);
            }
            self.sched_deliver(at + tree_delay, pe, env);
        }
    }

    /// Buffer a contribution; reductions fold at window boundaries (in both
    /// engines) so contributions from different shards combine in the exact
    /// order the sequential engine dispatched the contributing entries.
    fn do_contribute(
        &mut self,
        array: ArrayId,
        tag: u32,
        value: RedValue,
        op: RedOp,
        cb: Callback,
        at: SimTime,
    ) {
        self.pending_contribs.push(ContribRec {
            merge_t: self.cur_dispatch.0,
            merge_key: self.cur_dispatch.1,
            at,
            array,
            tag,
            value,
            op,
            cb,
            cp_end: self.cur_cp.as_ref().map_or(0, |n| n.end_ns),
            cp_node: self.cur_cp.clone(),
        });
    }

    /// Fold every buffered contribution in dispatch order. Completion
    /// callbacks allocate keys from the reduction slot, so the callback's
    /// delivery order is reproducible regardless of which shard folds.
    pub(crate) fn fold_contributions(&mut self) {
        if self.pending_contribs.is_empty() {
            return;
        }
        let saved_slot = self.cur_slot;
        self.cur_slot = self.red_slot();
        let mut recs = std::mem::take(&mut self.pending_contribs);
        recs.sort_by_key(|r| (r.merge_t, r.merge_key));
        for rec in recs {
            self.fold_one(rec);
        }
        self.cur_slot = saved_slot;
    }

    fn fold_one(&mut self, rec: ContribRec) {
        let ContribRec {
            merge_t: rec_merge_t,
            merge_key,
            at,
            array,
            tag,
            value,
            op,
            cb,
            cp_end,
            cp_node,
        } = rec;
        let expected = self.array_len_global(array);
        let done = {
            let entry = self
                .reductions
                .entry((array, tag))
                .or_insert_with(|| RedState {
                    expected,
                    count: 0,
                    acc: None,
                    op,
                    cb,
                    bytes: value.wire_size(),
                    cp: (0, None),
                });
            assert_eq!(entry.op, op, "mixed reduction ops for tag {tag}");
            entry.count += 1;
            entry.acc = Some(match entry.acc.take() {
                None => value,
                Some(acc) => entry.op.combine(acc, &value),
            });
            if cp_end >= entry.cp.0 && cp_node.is_some() {
                entry.cp = (cp_end, cp_node);
            }
            entry.count >= entry.expected
        };
        if done {
            let st = self.reductions.remove(&(array, tag)).expect("just there");
            let value = st.acc.expect("at least one contribution");
            // k-ary spanning tree: log_k(P) combine hops of the value size.
            let depth = self.tree_depth();
            let hop = self.net.delay(
                0,
                1.min(self.live_pes - 1),
                st.bytes + ENVELOPE_BYTES,
                merge_key ^ TOKEN_AUX,
            );
            let done = at + SimTime(hop.0 * depth);
            // Attribute the callback sends to the completing contributor's
            // exec (identified by dispatch key — shard-independent), not to
            // whatever exec happens to surround this boundary fold.
            if let Some(r) = &mut self.recorder {
                r.origin_dispatch = Some((rec_merge_t, merge_key));
            }
            // The callback's critical path chains from the latest-finishing
            // contributor (the reduction could not complete before it).
            if st.cp.1.is_some() {
                self.cp_carry = Some((st.cp.0, st.cp.1));
            }
            self.deliver_callback_tree(st.cb, SysEvent::Reduction { tag, value }, done, depth);
            self.cp_carry = None;
            if let Some(r) = &mut self.recorder {
                r.origin_dispatch = None;
            }
        }
    }

    pub(crate) fn deliver_callback(&mut self, cb: Callback, ev: SysEvent, at: SimTime) {
        self.deliver_callback_tree(cb, ev, at, 0);
    }

    /// Like [`Runtime::deliver_callback`], but tags the delivery with the
    /// spanning-tree depth whose latency the caller folded into `at`, so a
    /// recorded what-if replay can re-price the collective on a different
    /// network.
    pub(crate) fn deliver_callback_tree(
        &mut self,
        cb: Callback,
        ev: SysEvent,
        at: SimTime,
        tree_depth: u64,
    ) {
        match cb {
            Callback::ToChare { array, ix } => {
                self.deliver_sys_tree(ObjId { array, ix }, ev, at, tree_depth);
            }
            Callback::BroadcastTo { array } => {
                for (ix, _pe) in self.broadcast_targets(array) {
                    self.deliver_sys_tree(ObjId { array, ix }, ev.clone(), at, tree_depth);
                }
            }
            Callback::Ignore => {}
        }
    }

    /// Deliver a system event to one chare at `at` (local-queue cost only;
    /// collective costs are charged by callers).
    pub(crate) fn deliver_sys(&mut self, dst: ObjId, ev: SysEvent, at: SimTime) {
        self.deliver_sys_tree(dst, ev, at, 0);
    }

    pub(crate) fn deliver_sys_tree(
        &mut self,
        dst: ObjId,
        ev: SysEvent,
        at: SimTime,
        tree_depth: u64,
    ) {
        let Some(pe) = self.element_pe_global(dst) else {
            return;
        };
        let rec_id = self.fresh_rec_id();
        if let Some(r) = &mut self.recorder {
            r.note_origin(rec_id);
            r.on_routed(rec_id, ENVELOPE_BYTES, pe, pe, tree_depth, 0);
        }
        // Reduction-completion callbacks chain from the latest-finishing
        // contributor (`cp_carry`); other system events root a fresh chain
        // at their scheduled time.
        let cp = if self.tracer.as_ref().is_some_and(|t| t.cp_enabled()) {
            Some(Box::new(crate::trace::CpMsg {
                from: self.cp_carry.as_ref().and_then(|(_, n)| n.clone()),
                cp_end: self.cp_carry.as_ref().map_or(at.as_nanos(), |(e, _)| *e),
                sent_at: at,
            }))
        } else {
            None
        };
        let env = self.alloc_env(Envelope {
            dst,
            payload: Payload::Sys(ev),
            bytes: ENVELOPE_BYTES,
            prio: i64::MIN + 1, // system events run promptly
            src_pe: pe,
            rec_id,
            src_obj: None,
            cp,
        });
        let local = self.net.params().local_delivery;
        if let Some(tr) = &mut self.tracer {
            tr.on_msg_latency(local);
        }
        if let Some(log) = &mut self.cb_log {
            log.push((at + local).0);
        }
        self.sched_deliver(at + local, pe, env);
    }

    // ----- location views (sequential store vs. shared parallel table) -------

    /// Locate an element. Sequentially this is the store's live location;
    /// in shard mode it is the run-global location table (locations are
    /// frozen for the duration of a parallel run).
    pub(crate) fn locate_global(&self, obj: ObjId) -> Option<(usize, u32)> {
        match &self.par {
            Some(par) => par.loc.locate(obj),
            None => self.stores[obj.array.0 as usize].locate(&obj.ix),
        }
    }

    /// PE hosting an element (global view; see [`Runtime::locate_global`]).
    pub(crate) fn element_pe_global(&self, obj: ObjId) -> Option<usize> {
        self.locate_global(obj).map(|(pe, _)| pe)
    }

    /// Number of elements in an array (global view).
    pub(crate) fn array_len_global(&self, array: ArrayId) -> usize {
        match &self.par {
            Some(par) => par.loc.array_len(array),
            None => self.stores[array.0 as usize].len(),
        }
    }

    /// Sorted `(index, pe)` pairs of an array's elements (global view).
    pub(crate) fn broadcast_targets(&self, array: ArrayId) -> Vec<(crate::Ix, usize)> {
        match &self.par {
            Some(par) => par.loc.targets(array),
            None => {
                let store = &self.stores[array.0 as usize];
                store
                    .indices()
                    .into_iter()
                    .filter_map(|ix| store.element_pe(&ix).map(|pe| (ix, pe)))
                    .collect()
            }
        }
    }

    fn flush_limbo(&mut self, dst: ObjId) {
        if let Some(envs) = self.limbo.remove(&dst) {
            for env in envs {
                self.route_and_schedule(env, self.now);
            }
        }
    }

    fn start_migration(&mut self, src: ObjId, to: usize, at: SimTime) {
        let store = &mut self.stores[src.array.0 as usize];
        let Some(from_pe) = store.element_pe(&src.ix) else {
            return;
        };
        let to = to.min(self.live_pes - 1);
        if to == from_pe {
            return;
        }
        let bytes = store
            .pack_element(&src.ix)
            .expect("packing an existing element");
        store.remove_element(&src.ix);
        let delay = self.net.delay(
            from_pe,
            to,
            bytes.len() + ENVELOPE_BYTES,
            self.cur_dispatch.1 ^ TOKEN_AUX,
        );
        self.bytes_moved += (bytes.len() + ENVELOPE_BYTES) as u64;
        self.inflight += 1;
        if let Some(tr) = &mut self.tracer {
            tr.rts(at, TraceEventKind::Migration { obj: src, from_pe, to_pe: to });
        }
        self.push_ev(
            at + delay,
            Ev::MigrateArrive(Box::new(MigrateArrive {
                dst: src,
                to_pe: to,
                from_pe,
                bytes,
            })),
        );
    }

    // ----- quiescence ---------------------------------------------------------

    fn maybe_detect_quiescence(&mut self) {
        // Shard counters are shard-local, so quiescence is undetectable from
        // inside a shard; `request_quiescence` is sequential-only anyway.
        if self.qd.is_none() || self.par.is_some() {
            return;
        }
        // `pending_contribs` guard: a buffered (not-yet-folded) reduction is
        // outstanding work even though no message carries it yet.
        if self.inflight == 0
            && self.queued == 0
            && self.busy_pes == 0
            && self.pending_contribs.is_empty()
        {
            let cb = self.qd.take().expect("checked");
            // Two waves of a spanning-tree counting algorithm.
            let depth = self.tree_depth();
            let hop = self.net.delay(
                0,
                1.min(self.live_pes - 1),
                ENVELOPE_BYTES,
                self.cur_dispatch.1 ^ TOKEN_AUX,
            );
            let done = self.now + SimTime(hop.0 * depth * 2);
            self.deliver_callback_tree(cb, SysEvent::QuiescenceDetected, done, depth * 2);
        }
    }

    // ----- AtSync load balancing ----------------------------------------------

    fn at_sync_expected(&self) -> usize {
        self.stores
            .iter()
            .filter(|s| s.uses_at_sync())
            .map(|s| s.len())
            .sum()
    }

    fn check_at_sync(&mut self, at: SimTime) {
        let expected = self.at_sync_expected();
        if expected == 0 || self.at_sync_seen < expected {
            return;
        }
        self.at_sync_seen = 0;
        let skip = match self.lb_trigger {
            LbTrigger::AtSync => false,
            LbTrigger::Adaptive { min_imbalance } => {
                let stats = self.collect_stats_peek();
                stats.imbalance() < min_imbalance
            }
        };
        if skip || self.lb.is_none() {
            // Resume immediately: a barrier's worth of cost only.
            let depth = self.tree_depth();
            let hop = self.net.delay(
                0,
                1.min(self.live_pes - 1),
                ENVELOPE_BYTES,
                self.cur_dispatch.1 ^ TOKEN_AUX,
            );
            let resume = at + SimTime(hop.0 * depth);
            // Loads must still be drained so the next window is fresh.
            for s in self.stores.iter_mut() {
                if s.uses_at_sync() {
                    s.drain_loads();
                }
            }
            self.resume_from_sync(resume);
            return;
        }
        self.run_lb_round(at, true);
    }

    /// Non-destructive stats snapshot (loads not reset) for trigger logic.
    pub(crate) fn collect_stats_peek(&mut self) -> LbStats {
        self.collect_lb_stats(StatsMode::Peek)
    }

    /// The single stats-collection path: both the LB-trigger peek and the
    /// destructive collection at the head of an LB round go through here, so
    /// instrumentation and load-accounting rules can't drift apart.
    ///
    /// `Peek` leaves the load windows intact and skips the communication
    /// journal; `Drain` resets both (the round consumes the window).
    pub(crate) fn collect_lb_stats(&mut self, mode: StatsMode) -> LbStats {
        // Drain the communication journal (if tracked) in a deterministic
        // order and aggregate per-sender totals.
        let (comm, sent_by) = match mode {
            StatsMode::Peek => (Vec::new(), HashMap::new()),
            StatsMode::Drain => {
                let mut comm: Vec<(ObjId, ObjId, u64)> = self
                    .comm
                    .drain()
                    .map(|((a, b), v)| (a, b, v))
                    .collect();
                comm.sort_unstable_by(|x, y| {
                    (x.0.array, x.0.ix, x.1.array, x.1.ix)
                        .cmp(&(y.0.array, y.0.ix, y.1.array, y.1.ix))
                });
                let mut sent_by: HashMap<ObjId, u64> = HashMap::new();
                for (a, _, v) in &comm {
                    *sent_by.entry(*a).or_default() += v;
                }
                (comm, sent_by)
            }
        };

        let mut objs = Vec::new();
        for s in self.stores.iter_mut() {
            if !s.uses_at_sync() {
                continue;
            }
            let id = s.id();
            let drained = s.drain_loads();
            for (ix, pe, load, hint) in &drained {
                let obj = ObjId { array: id, ix: *ix };
                objs.push(ObjStat {
                    id: obj,
                    pe: *pe,
                    load: if *load > 0.0 { *load } else { *hint * 1e-6 },
                    bytes_sent: sent_by.get(&obj).copied().unwrap_or(0),
                    msgs_sent: 0,
                });
            }
            if matches!(mode, StatsMode::Peek) {
                // Put the loads back (peek semantics).
                for (ix, _pe, load, _h) in drained {
                    s.add_load(&ix, load);
                }
            }
        }
        LbStats {
            num_pes: self.live_pes,
            pe_speed: (0..self.live_pes).map(|p| self.effective_speed(p)).collect(),
            bg_load: vec![0.0; self.live_pes],
            objs,
            comm,
        }
    }

    /// Collect stats (destructive), run the strategy, enact migrations, and
    /// (optionally) deliver ResumeFromSync. Charges the modeled cost of the
    /// whole round. Used by AtSync, RTS-triggered (thermal/cloud) LB, and
    /// reconfiguration.
    pub(crate) fn run_lb_round(&mut self, at: SimTime, resume: bool) {
        let stats = self.collect_lb_stats(StatsMode::Drain);
        let imbalance_before = stats.imbalance();

        let Some(lb) = self.lb.as_mut() else {
            if resume {
                self.resume_from_sync(at);
            }
            return;
        };
        let assignment = lb.assign(&stats);
        assert_eq!(assignment.len(), stats.objs.len());
        let strategy_name = lb.name();
        let distributed = lb.is_distributed();
        let decision_work = lb.decision_cost(stats.objs.len(), self.live_pes);
        if let Some(tr) = &mut self.tracer {
            tr.rts(
                at,
                TraceEventKind::LbBegin {
                    strategy: strategy_name,
                    objs: stats.objs.len(),
                },
            );
        }

        // --- modeled cost of the LB round -----------------------------------
        let depth = self.tree_depth();
        let small_hop = self.net.delay(
            0,
            1.min(self.live_pes - 1),
            ENVELOPE_BYTES,
            self.cur_dispatch.1 ^ TOKEN_AUX,
        );
        let stats_bytes = stats.objs.len() * 32;
        let collect_cost = if distributed {
            // Gossip rounds exchange O(1)-size summaries.
            SimTime(small_hop.0 * depth * 2)
        } else {
            // Centralized gather of all stats, then a scatter of decisions.
            let gather = self.net.delay(
                0,
                1.min(self.live_pes - 1),
                stats_bytes,
                self.cur_dispatch.1 ^ TOKEN_AUX,
            );
            SimTime(gather.0 + small_hop.0 * depth * 2)
        };
        let decision_cost = SimTime::from_secs_f64(decision_work / self.machine.flops_per_sec);

        // --- enact migrations -------------------------------------------------
        let mut migrations = 0usize;
        let mut per_pe_out = vec![0usize; self.machine.num_pes];
        let mut new_assignment: Vec<usize> = Vec::with_capacity(stats.objs.len());
        for (obj, new_pe) in stats.objs.iter().zip(&assignment) {
            let target = match new_pe {
                Some(pe) => {
                    assert!(*pe < self.live_pes, "{strategy_name} assigned dead PE {pe}");
                    // Strategies see the live boundary, not liveness holes
                    // left by preemptions; keep the chare put rather than
                    // migrate it onto a dead PE.
                    if self.pes[*pe].alive { *pe } else { obj.pe }
                }
                None => obj.pe,
            };
            new_assignment.push(target);
            if target != obj.pe {
                migrations += 1;
                let store = &mut self.stores[obj.id.array.0 as usize];
                let bytes = store
                    .pack_element(&obj.id.ix)
                    .expect("LB object exists");
                per_pe_out[obj.pe] += bytes.len();
                // Real state round trip: what migration actually does.
                store.remove_element(&obj.id.ix);
                store.unpack_insert(obj.id.ix, target, &bytes);
                self.bytes_moved += bytes.len() as u64;
                if let Some(tr) = &mut self.tracer {
                    tr.rts(
                        at,
                        TraceEventKind::Migration {
                            obj: obj.id,
                            from_pe: obj.pe,
                            to_pe: target,
                        },
                    );
                }
            }
        }
        let max_out = per_pe_out.iter().copied().max().unwrap_or(0);
        let migrate_cost = if max_out > 0 {
            self.net.delay(
                0,
                1.min(self.live_pes - 1),
                max_out,
                self.cur_dispatch.1 ^ TOKEN_AUX,
            )
        } else {
            SimTime::ZERO
        };
        let barrier = SimTime(small_hop.0 * depth);
        let total = collect_cost + decision_cost + migrate_cost + barrier;

        // All PEs pause for the round; idle PEs with queued work must be
        // re-examined when the block lifts.
        let resume_at = at + total;
        for pe in 0..self.live_pes {
            self.pes[pe].blocked_until = self.pes[pe].blocked_until.max(resume_at);
            self.push_ev(resume_at, Ev::PeRetry { pe });
        }

        let imbalance_after = crate::lbframework::imbalance_of(
            &new_assignment,
            &stats.objs.iter().map(|o| o.load).collect::<Vec<_>>(),
            &stats.pe_speed,
            self.live_pes,
        );
        if let Some(tr) = &mut self.tracer {
            tr.rts(
                resume_at,
                TraceEventKind::LbEnd {
                    strategy: strategy_name,
                    migrations,
                    cost: total,
                },
            );
        }
        self.lb_rounds.push(LbRound {
            at: resume_at.as_secs_f64(),
            strategy: strategy_name,
            migrations,
            imbalance_before,
            imbalance_after,
            cost_s: total.as_secs_f64(),
        });

        if resume {
            self.resume_from_sync(resume_at);
        }
    }

    fn resume_from_sync(&mut self, at: SimTime) {
        let arrays: Vec<ArrayId> = self
            .stores
            .iter()
            .filter(|s| s.uses_at_sync())
            .map(|s| s.id())
            .collect();
        for array in arrays {
            for ix in self.stores[array.0 as usize].indices() {
                self.deliver_sys(ObjId { array, ix }, SysEvent::ResumeFromSync, at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ix;
    use charm_pup::Puper;

    /// A chare that counts pings and replies with pongs.
    #[derive(Default)]
    struct Ping {
        count: u64,
        peer: Option<i64>,
        limit: u64,
    }
    impl charm_pup::Pup for Ping {
        fn pup(&mut self, p: &mut Puper) {
            p.p(&mut self.count);
            p.p(&mut self.peer);
            p.p(&mut self.limit);
        }
    }
    #[derive(Default, Clone)]
    struct PingMsg;
    impl charm_pup::Pup for PingMsg {
        fn pup(&mut self, _p: &mut Puper) {}
    }
    impl Chare for Ping {
        type Msg = PingMsg;
        fn on_message(&mut self, _m: PingMsg, ctx: &mut Ctx<'_>) {
            self.count += 1;
            ctx.work(1000.0);
            if self.count < self.limit {
                if let Some(peer) = self.peer {
                    let proxy = ArrayProxy::<Ping>::new(ctx.my_id().array);
                    ctx.send(proxy, Ix::i1(peer), PingMsg);
                }
            } else {
                ctx.exit();
            }
        }
    }

    fn ping_setup(pes: usize) -> (Runtime, ArrayProxy<Ping>) {
        let mut rt = Runtime::homogeneous(pes);
        let arr = rt.create_array::<Ping>("ping");
        rt.insert(
            arr,
            Ix::i1(0),
            Ping {
                count: 0,
                peer: Some(1),
                limit: 10,
            },
            Some(0),
        );
        rt.insert(
            arr,
            Ix::i1(1),
            Ping {
                count: 0,
                peer: Some(0),
                limit: 10,
            },
            Some(pes - 1),
        );
        (rt, arr)
    }

    #[test]
    fn ping_pong_advances_time_and_terminates() {
        let (mut rt, arr) = ping_setup(4);
        rt.send(arr, Ix::i1(0), PingMsg);
        let sum = rt.run();
        assert!(sum.end_time > SimTime::ZERO);
        assert!(sum.entries >= 10, "entries={}", sum.entries);
        assert!(sum.messages >= 10);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut rt, arr) = ping_setup(4);
            rt.send(arr, Ix::i1(0), PingMsg);
            let s = rt.run();
            (s.end_time, s.entries, s.messages, s.bytes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn remote_costs_more_than_local() {
        // Same-PE ping-pong finishes faster than cross-machine.
        let mut local = {
            let mut rt = Runtime::homogeneous(2);
            let arr = rt.create_array::<Ping>("ping");
            rt.insert(arr, Ix::i1(0), Ping { count: 0, peer: Some(1), limit: 10 }, Some(0));
            rt.insert(arr, Ix::i1(1), Ping { count: 0, peer: Some(0), limit: 10 }, Some(0));
            rt.send(arr, Ix::i1(0), PingMsg);
            rt
        };
        let t_local = local.run().end_time;
        let (mut remote, arr) = ping_setup(2);
        remote.send(arr, Ix::i1(0), PingMsg);
        let t_remote = remote.run().end_time;
        assert!(t_remote > t_local, "remote {t_remote} local {t_local}");
    }

    /// Chare that migrates itself to PE 1 on first message and checks state
    /// survives, then exits.
    #[derive(Default)]
    struct Mover {
        payload: Vec<u64>,
        moved: bool,
    }
    impl charm_pup::Pup for Mover {
        fn pup(&mut self, p: &mut Puper) {
            p.p(&mut self.payload);
            p.p(&mut self.moved);
        }
    }
    impl Chare for Mover {
        type Msg = u8;
        fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
            assert!(!self.moved);
            ctx.migrate_me(1);
        }
        fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
            if let SysEvent::Migrated { from_pe } = ev {
                assert_eq!(from_pe, 0);
                assert_eq!(ctx.my_pe(), 1);
                assert_eq!(self.payload, vec![7, 8, 9], "state survives migration");
                self.moved = true;
                ctx.exit();
            }
        }
    }

    #[test]
    fn migration_moves_state() {
        let mut rt = Runtime::homogeneous(2);
        let arr = rt.create_array::<Mover>("mover");
        rt.insert(
            arr,
            Ix::i1(0),
            Mover {
                payload: vec![7, 8, 9],
                moved: false,
            },
            Some(0),
        );
        rt.send(arr, Ix::i1(0), 0u8);
        rt.run();
        assert_eq!(rt.element_pe(arr.id(), &Ix::i1(0)), Some(1));
    }

    /// Reduction test: N contributors sum their indices to a root chare.
    #[derive(Default)]
    struct Summer {
        n: i64,
        is_root: bool,
        got: Option<f64>,
    }
    impl charm_pup::Pup for Summer {
        fn pup(&mut self, p: &mut Puper) {
            p.p(&mut self.n);
            p.p(&mut self.is_root);
        }
    }
    impl Chare for Summer {
        type Msg = u8;
        fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
            let proxy = ArrayProxy::<Summer>::new(ctx.my_id().array);
            ctx.contribute(
                proxy,
                1,
                RedValue::F64(self.n as f64),
                RedOp::Sum,
                Callback::ToChare {
                    array: ctx.my_id().array,
                    ix: Ix::i1(0),
                },
            );
        }
        fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
            if let SysEvent::Reduction { tag, value } = ev {
                assert_eq!(tag, 1);
                assert!(self.is_root);
                self.got = Some(value.as_f64());
                ctx.log_metric("sum", value.as_f64());
                ctx.exit();
            }
        }
    }

    #[test]
    fn reduction_sums_all_contributions() {
        let mut rt = Runtime::homogeneous(4);
        let arr = rt.create_array::<Summer>("sum");
        for i in 0..10 {
            rt.insert(
                arr,
                Ix::i1(i),
                Summer {
                    n: i,
                    is_root: i == 0,
                    got: None,
                },
                None,
            );
        }
        rt.broadcast(arr, 0u8);
        rt.run();
        let m = rt.metric("sum");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, 45.0);
    }

    #[test]
    fn priorities_order_execution() {
        // Two messages delivered at the same instant to a busy PE: the
        // lower-priority-value one must run first.
        #[derive(Default)]
        struct Order {
            seen: Vec<i64>,
        }
        impl charm_pup::Pup for Order {
            fn pup(&mut self, p: &mut Puper) {
                p.p(&mut self.seen);
            }
        }
        impl Chare for Order {
            type Msg = i64;
            fn on_message(&mut self, m: i64, ctx: &mut Ctx<'_>) {
                if m == 100 {
                    // filler: keeps the PE busy while the others queue up
                    ctx.work(1e6);
                    return;
                }
                self.seen.push(m);
                ctx.log_metric("seen", m as f64);
            }
        }
        let mut rt = Runtime::homogeneous(1);
        let arr = rt.create_array::<Order>("order");
        rt.insert(arr, Ix::i1(0), Order::default(), Some(0));
        // Three sends from the host land together; prios 5, -1, 2.
        // Host sends don't let us set prio, so drive via a first message.
        #[derive(Default)]
        struct Driver;
        impl charm_pup::Pup for Driver {
            fn pup(&mut self, _p: &mut Puper) {}
        }
        impl Chare for Driver {
            type Msg = u8;
            fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
                let arr = ArrayProxy::<Order>::new(ArrayId(0));
                // A long filler keeps the PE busy so the prioritized
                // messages are *queued* together before any executes.
                ctx.send_prio(arr, Ix::i1(0), 100, 0);
                ctx.send_prio(arr, Ix::i1(0), 5, 5);
                ctx.send_prio(arr, Ix::i1(0), -1, -1);
                ctx.send_prio(arr, Ix::i1(0), 2, 2);
            }
        }
        let drv = rt.create_array::<Driver>("driver");
        rt.insert(drv, Ix::i1(0), Driver, Some(0));
        rt.send(drv, Ix::i1(0), 0u8);
        rt.run();
        let seen: Vec<f64> = rt.metric("seen").iter().map(|x| x.1).collect();
        assert_eq!(seen, vec![-1.0, 2.0, 5.0]);
    }

    #[test]
    fn quiescence_detected_after_messages_drain() {
        #[derive(Default)]
        struct Q {
            waiting: bool,
        }
        impl charm_pup::Pup for Q {
            fn pup(&mut self, p: &mut Puper) {
                p.p(&mut self.waiting);
            }
        }
        impl Chare for Q {
            type Msg = u8;
            fn on_message(&mut self, m: u8, ctx: &mut Ctx<'_>) {
                if m == 1 {
                    // fan out some work, then request QD
                    let proxy = ArrayProxy::<Q>::new(ctx.my_id().array);
                    for i in 1..5 {
                        ctx.send(proxy, Ix::i1(i), 0u8);
                    }
                    self.waiting = true;
                    ctx.request_quiescence(ctx.cb_self());
                } else {
                    ctx.work(10_000.0);
                }
            }
            fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
                if matches!(ev, SysEvent::QuiescenceDetected) {
                    assert!(self.waiting);
                    ctx.log_metric("qd", 1.0);
                    ctx.exit();
                }
            }
        }
        let mut rt = Runtime::homogeneous(2);
        let arr = rt.create_array::<Q>("q");
        for i in 0..5 {
            rt.insert(arr, Ix::i1(i), Q::default(), None);
        }
        rt.send(arr, Ix::i1(0), 1u8);
        rt.run();
        assert_eq!(rt.metric("qd").len(), 1);
    }

    #[test]
    fn dynamic_insert_receives_parked_messages() {
        #[derive(Default)]
        struct Node {
            hits: u64,
        }
        impl charm_pup::Pup for Node {
            fn pup(&mut self, p: &mut Puper) {
                p.p(&mut self.hits);
            }
        }
        impl Chare for Node {
            type Msg = i64;
            fn on_message(&mut self, m: i64, ctx: &mut Ctx<'_>) {
                let proxy = ArrayProxy::<Node>::new(ctx.my_id().array);
                match m {
                    0 => {
                        // Send to a child that doesn't exist yet, then create it.
                        ctx.send(proxy, Ix::i1(99), 7);
                        ctx.insert(proxy, Ix::i1(99), Node::default(), None);
                    }
                    7 => {
                        self.hits += 1;
                        ctx.log_metric("childhit", 1.0);
                        ctx.exit();
                    }
                    _ => {}
                }
            }
        }
        let mut rt = Runtime::homogeneous(2);
        let arr = rt.create_array::<Node>("nodes");
        rt.insert(arr, Ix::i1(0), Node::default(), Some(0));
        rt.send(arr, Ix::i1(0), 0);
        rt.run();
        assert_eq!(rt.metric("childhit").len(), 1);
    }

    #[test]
    fn work_scales_execution_time() {
        #[derive(Default)]
        struct W;
        impl charm_pup::Pup for W {
            fn pup(&mut self, _p: &mut Puper) {}
        }
        impl Chare for W {
            type Msg = f64;
            fn on_message(&mut self, units: f64, ctx: &mut Ctx<'_>) {
                ctx.work(units);
            }
        }
        let time_for = |units: f64| {
            let mut rt = Runtime::homogeneous(1);
            let arr = rt.create_array::<W>("w");
            rt.insert(arr, Ix::i1(0), W, Some(0));
            rt.send(arr, Ix::i1(0), units);
            rt.run().end_time
        };
        let t1 = time_for(1e6);
        let t2 = time_for(2e6);
        // 1e6 units at 1e9 flops = 1 ms; doubling work adds ~1 ms.
        let delta = (t2 - t1).as_secs_f64();
        assert!((delta - 1e-3).abs() < 1e-4, "delta={delta}");
    }
}
