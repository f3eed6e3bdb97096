//! The parallel multi-worker engine: shard the simulated PEs across OS
//! worker threads, synchronized by conservative lookahead windows.
//!
//! Two synchronization cores share the same sharding, exchange, and merge
//! machinery:
//!
//! * the **adaptive engine** (default): every shard owns an atomic window
//!   clock and publishes its earliest pending virtual time; a shard's next
//!   safe horizon is `min over peers (peer pending + pairwise lookahead)`,
//!   where the pairwise lookahead matrix is the all-pairs closure of the
//!   per-shard-pair minimum network latency computed at plan time. Shards
//!   free-run many windows ahead of each other with no barrier at all;
//!   cross-shard messages flow continuously through per-pair mailboxes
//!   whose floor timestamps keep in-flight work visible to every horizon.
//!   Blocking happens only when a horizon is actually exhausted (parked
//!   wait, counted in [`RunSummary::barriers_waited`]) or when a boundary
//!   obligation — a reduction fold's completion callback, an exit vote —
//!   forces a soft rendezvous at one specific window edge.
//! * the **global-window engine** ([`crate::RuntimeBuilder::global_window`],
//!   and any run that records periodic state digests): all shards drain the
//!   same α-sized window and meet at a full condvar barrier per edge — the
//!   PR-5 core, kept as an A/B fallback against the same goldens.
//!
//! ## How it stays byte-identical to sequential execution
//!
//! The sequential engine already executes in windows of width α (the
//! minimum cross-PE network latency, [`Runtime::win_ns`]): all events with
//! `t < W` run before any window-boundary work (reduction folds, state
//! digests) at `W`. Because every cross-PE message is delayed by at least
//! α, an event executing inside window `[W-α, W)` can only schedule
//! *remote* work at `t ≥ W` — after the boundary. That lookahead is the
//! license to parallelize: shard the PEs, let each worker drain the same
//! window on its own event heap, and exchange cross-shard messages at the
//! barrier. Nothing a shard does inside a window can affect another shard
//! within that window.
//!
//! Determinism then reduces to ordering. Every event carries a globally
//! unique key allocated from its *producer's* key slot
//! ([`Runtime::fresh_key`]): shards own disjoint slots, so they allocate
//! exactly the keys the sequential engine would, with no coordination.
//! Each shard's heap pops in `(time, key)` order — the same total order the
//! sequential heap uses — so merging shard streams by `(time, key)`
//! reproduces the sequential dispatch sequence exactly. Reductions fold at
//! window boundaries in `(dispatch time, dispatch key)` order of their
//! contributing entries, on shard 0, which owns the reduction key slot.
//!
//! Everything observable — chare states, event keys, virtual times, trace
//! buffers, replay logs, metric journals — is merged back in that dispatch
//! order after the run, so `run()` with N workers produces bit-for-bit the
//! state and artifacts of `run()` with one.
//!
//! ## What parallel mode refuses
//!
//! Features that move or create chares mid-run (migration, LB, dynamic
//! insertion), observe global instantaneous state (quiescence detection),
//! or drive RTS machinery from timers (DVFS, auto-checkpointing, injected
//! failures) are sequential-only. [`Runtime::parallel_plan`] detects them
//! up front and falls back to the sequential engine silently; mid-run
//! attempts (e.g. a chare calling `at_sync`) panic with a pointed message.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::array::{AnyArray, ObjId};
use crate::ctrl::ControlRegistry;
use crate::replay::Recorder;
use crate::runtime::{ContribRec, Envelope, Ev, PeState, RunSummary, Runtime, SLOT_HOST};
use crate::trace::Tracer;
use crate::Ix;
use charm_machine::{EventQueue, SimTime};
use fxhash::FxHashMap;

/// Process-wide default for [`crate::RuntimeBuilder::threads`].
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Default worker-thread count new runtimes start with (1 = sequential).
pub fn default_threads() -> usize {
    DEFAULT_THREADS.load(Ordering::Relaxed).max(1)
}

/// Set the process-wide default worker-thread count picked up by
/// [`crate::RuntimeBuilder`]s constructed afterwards. Lets drivers and
/// tests opt whole programs into parallel execution without threading a
/// parameter through every builder call site.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Frozen global element-location table shared by every shard. Locations
/// cannot change during a parallel run (migration and insertion are
/// sequential-only), so one immutable snapshot answers all routing,
/// broadcast-enumeration, and reduction-size queries.
pub(crate) struct LocTable {
    locs: FxHashMap<ObjId, (usize, u32)>,
    /// Element count per array (indexed by array id).
    lens: Vec<usize>,
    /// Sorted `(index, pe)` pairs per array (indexed by array id).
    targets: Vec<Vec<(Ix, usize)>>,
}

impl LocTable {
    pub(crate) fn locate(&self, obj: ObjId) -> Option<(usize, u32)> {
        self.locs.get(&obj).copied()
    }

    pub(crate) fn array_len(&self, array: crate::ArrayId) -> usize {
        self.lens.get(array.0 as usize).copied().unwrap_or(0)
    }

    pub(crate) fn targets(&self, array: crate::ArrayId) -> Vec<(Ix, usize)> {
        self.targets
            .get(array.0 as usize)
            .cloned()
            .unwrap_or_default()
    }
}

/// Per-shard state hung off a shard runtime's `par` field. Its presence is
/// what switches [`Runtime`] internals into shard mode.
pub(crate) struct ParShard {
    /// This shard's index.
    pub(crate) shard: usize,
    /// First PE this shard owns.
    pub(crate) lo: usize,
    /// One past the last PE this shard owns.
    pub(crate) hi: usize,
    /// Every shard's `[lo, hi)` range, for routing outbound deliveries.
    bounds: Arc<Vec<(usize, usize)>>,
    /// The run-global frozen location table.
    pub(crate) loc: Arc<LocTable>,
    /// Cross-shard deliveries produced this window, per destination shard;
    /// moved into the shared exchange at the window barrier.
    pub(crate) outbox: Vec<Vec<(SimTime, usize, Box<Envelope>)>>,
}

impl ParShard {
    /// Which shard owns a PE.
    pub(crate) fn shard_of(&self, pe: usize) -> usize {
        self.bounds
            .iter()
            .position(|&(lo, hi)| pe >= lo && pe < hi)
            .expect("PE outside every shard")
    }
}

/// Everything [`Runtime::run_parallel`] needs that eligibility analysis
/// already computed.
pub(crate) struct ParPlan {
    shards: usize,
    bounds: Vec<(usize, usize)>,
    loc: Arc<LocTable>,
    /// Closed shard-pair lookahead matrix ([`lookahead::close`]).
    dist: Vec<Vec<u64>>,
}

/// Plan-time lookahead computation for the adaptive engine, exposed as
/// pure functions so property tests can drive them with synthetic latency
/// matrices and send schedules.
pub mod lookahead {
    use charm_machine::NetworkModel;

    /// Above this PE count the exact O(n²) pairwise scan is skipped and
    /// every cross-shard pair falls back to the global minimum latency
    /// (the adaptive engine then still elides barriers, it just grants
    /// uniform-width horizons).
    pub const EXACT_PAIR_LIMIT: usize = 4096;

    /// Shard-pair latency floor matrix: `m[a][b]` is the minimum delay (ns)
    /// of any message a shard-`a` PE can send to a shard-`b` PE. Diagonal
    /// entries are `u64::MAX` placeholders for [`close`] to fill with round
    /// trips (intra-shard latency drops out of the lookahead entirely —
    /// that is the point of per-pair horizons).
    pub fn pair_matrix(net: &NetworkModel, bounds: &[(usize, usize)]) -> Vec<Vec<u64>> {
        let k = bounds.len();
        let n = bounds.last().map_or(0, |&(_, hi)| hi);
        let global = net.min_remote_delay().0.max(1);
        let mut m = vec![vec![u64::MAX; k]; k];
        for a in 0..k {
            for b in 0..k {
                if a == b {
                    continue;
                }
                m[a][b] = if n <= EXACT_PAIR_LIMIT {
                    let (alo, ahi) = bounds[a];
                    let (blo, bhi) = bounds[b];
                    let mut best = u64::MAX;
                    for p in alo..ahi {
                        for q in blo..bhi {
                            best = best.min(net.min_pair_delay(p, q).0);
                        }
                    }
                    best.max(global)
                } else {
                    global
                };
            }
        }
        m
    }

    /// All-pairs closure (Floyd–Warshall) of a pair floor matrix: after
    /// closing, `m[a][b]` lower-bounds the arrival of *any* causal chain
    /// that starts from shard `a`'s next pending event and ends with a
    /// delivery into shard `b` — including chains relayed through shards
    /// whose published progress is stale. The diagonal becomes the minimum
    /// round trip, the lookahead a shard holds against its own echoes.
    pub fn close(mut m: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        let k = m.len();
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = u64::MAX;
        }
        for via in 0..k {
            let through: Vec<u64> = m[via].clone();
            for row in m.iter_mut() {
                let d_av = row[via];
                if d_av == u64::MAX {
                    continue;
                }
                for (cur, &tail) in row.iter_mut().zip(&through) {
                    let d = d_av.saturating_add(tail);
                    if d < *cur {
                        *cur = d;
                    }
                }
            }
        }
        m
    }

    /// The horizon the adaptive engine grants shard `me`: every event
    /// strictly before it is safe to execute, because nothing any peer has
    /// pending (`pending[j]`, `u64::MAX` = idle) can reach `me` sooner than
    /// its closed pairwise lookahead.
    pub fn horizon(dist: &[Vec<u64>], pending: &[u64], me: usize) -> u64 {
        let mut b = u64::MAX;
        for (j, &p) in pending.iter().enumerate() {
            b = b.min(p.saturating_add(dist[j][me]));
        }
        b
    }

    /// The global-α reference horizon (what the lockstep engine grants
    /// every shard): the end of the α-cell containing the global minimum
    /// pending time.
    pub fn global_horizon(pending: &[u64], win: u64) -> u64 {
        let t_min = pending.iter().copied().min().unwrap_or(u64::MAX);
        if t_min == u64::MAX {
            return u64::MAX;
        }
        (t_min / win.max(1))
            .saturating_add(1)
            .saturating_mul(win.max(1))
    }

    /// Contiguous shard bounds over `n` PEs, topology-aware: when the
    /// fabric is a torus whose dimensions tile the PE range exactly, shard
    /// cuts snap to the nearest row multiple. A mid-row cut places 1-hop
    /// row neighbours in different shards; a row-aligned cut makes the
    /// closest cross-shard pair a full row apart, widening pairwise α.
    pub fn plan_bounds(n: usize, shards: usize, net: &NetworkModel) -> Vec<(usize, usize)> {
        let mut cuts: Vec<usize> = (0..=shards).map(|s| s * n / shards).collect();
        let p = net.params();
        if let Some(dims) = &p.torus_dims {
            let row = dims.first().copied().unwrap_or(0);
            if row >= 2
                && p.per_hop.0 > 0
                && dims.iter().product::<usize>() == n
                && n / row >= shards
            {
                let snapped: Vec<usize> = cuts
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        if i == 0 || i == shards {
                            c
                        } else {
                            ((c + row / 2) / row) * row
                        }
                    })
                    .collect();
                if snapped.windows(2).all(|w| w[0] < w[1]) {
                    cuts = snapped;
                }
            }
        }
        cuts.windows(2).map(|w| (w[0], w[1])).collect()
    }
}

/// A [`Condvar`] barrier with poisoning: when a worker panics it poisons
/// the barrier instead of leaving the others blocked forever, so the panic
/// (e.g. "at_sync is sequential-only") propagates to the caller promptly.
struct PoisonBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    n: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

/// Marker returned from [`PoisonBarrier::wait`] when another worker died.
struct Poisoned;

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        PoisonBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
            n,
        }
    }

    fn wait(&self) -> Result<(), Poisoned> {
        let mut g = self.state.lock().expect("barrier lock");
        if g.poisoned {
            return Err(Poisoned);
        }
        g.arrived += 1;
        if g.arrived == self.n {
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = g.generation;
        while g.generation == gen && !g.poisoned {
            g = self.cv.wait(g).expect("barrier wait");
        }
        if g.poisoned {
            Err(Poisoned)
        } else {
            Ok(())
        }
    }

    fn poison(&self) {
        self.state.lock().expect("barrier lock").poisoned = true;
        self.cv.notify_all();
    }
}

/// Shared inter-worker exchange for one parallel run.
struct Shared {
    /// `inbox[to][from]`: cross-shard deliveries moved out of `from`'s
    /// outbox at its window barrier, awaiting ingestion by `to`.
    #[allow(clippy::type_complexity)]
    inbox: Vec<Vec<Mutex<Vec<(SimTime, usize, Box<Envelope>)>>>>,
    /// Per shard: earliest pending virtual time (own heap ∪ own outbox) as
    /// of its last publish; `u64::MAX` = nothing pending.
    next_time: Vec<AtomicU64>,
    /// Per shard: entries executed so far (drives digest-point scheduling).
    execs: Vec<AtomicU64>,
    /// Per shard: buffered reduction contributions were published this round.
    has_contribs: Vec<AtomicBool>,
    /// Per shard: a chare requested exit during the last window.
    wants_exit: Vec<AtomicBool>,
    /// Contributions awaiting the boundary fold (consumed by shard 0).
    contrib_slots: Vec<Mutex<Vec<ContribRec>>>,
    /// Per-shard state digests of one due digest point (merged by shard 0).
    digest_slots: Vec<Mutex<Vec<(ObjId, u64)>>>,
    /// Global executed-entry count at the last emitted digest point.
    last_digest: AtomicU64,
    barrier: PoisonBarrier,

    // ----- adaptive engine (barrier-free) --------------------------------
    /// Per shard: window clock — every local event strictly before it has
    /// executed, and its sends/contributions are flushed. Monotone.
    clock: Vec<AtomicU64>,
    /// Per shard: publish/ingest counter; the termination detector's
    /// double scan declares the run drained only if no epoch moved.
    epoch: Vec<AtomicU64>,
    /// `mbox_min[to][from]`: floor timestamp of the un-ingested messages in
    /// `inbox[to][from]` (`u64::MAX` = empty). Written only while holding
    /// the corresponding inbox mutex, so floor and contents never disagree;
    /// keeps in-flight work visible to every horizon even while neither
    /// endpoint's published pending time covers it.
    mbox_min: Vec<Vec<AtomicU64>>,
    /// Floor on the merge time of any reduction contribution the folder
    /// has not folded yet (buffered or still in flight). Horizons stay
    /// below `red_floor + cb_min` so no shard can outrun a completion
    /// callback that has not been scheduled yet.
    red_floor: AtomicU64,
    /// Earliest α-cell end holding an outstanding fold-produced callback
    /// delivery; every horizon caps here until all shards reach it, which
    /// makes callback-driven exits (the apps' only exit pattern) stop the
    /// run at exactly the sequential cell. `u64::MAX` = no obligation.
    cb_hold: AtomicU64,
    /// End of the α-cell in which some shard executed `ctx.exit()` — the
    /// sequential engine stops there; no shard drains a cell past it.
    exit_cut: AtomicU64,
    /// Run-over flag (drained, exit complete, or a worker panicked).
    done: AtomicBool,
    /// Parking lot for horizon-starved shards. Publishes notify only when
    /// `waiters > 0`, keeping the free-run fast path syscall-free.
    park: Mutex<()>,
    park_cv: Condvar,
    waiters: AtomicUsize,
}

impl Shared {
    /// Wake every parked shard (cheap no-op when nobody is parked).
    fn notify(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _g = self.park.lock().expect("park lock");
            self.park_cv.notify_all();
        }
    }

    /// Flag the run as over and wake everyone.
    fn finish(&self) {
        self.done.store(true, Ordering::SeqCst);
        let _g = self.park.lock().expect("park lock");
        self.park_cv.notify_all();
    }
}

impl Runtime {
    /// Decide whether the pending run can execute on the sharded engine,
    /// and build the frozen location table and shard layout if so. `None`
    /// means "fall back to the sequential engine" — always safe, because
    /// both engines produce identical results when both can run.
    pub(crate) fn parallel_plan(&mut self) -> Option<ParPlan> {
        let n = self.machine.num_pes;
        let shards = self.threads.min(n);
        if shards < 2 || n < 2 || self.live_pes != n {
            return None;
        }
        // The conservative window is the minimum cross-PE latency; a
        // zero-latency fabric leaves no lookahead to exploit.
        if self.net.min_remote_delay().0 == 0 {
            return None;
        }
        // External sinks write files in arrival order and the critical-path
        // analyzer chains Arc nodes across sends — both are sequential-only
        // (the silent-fallback contract keeps results byte-identical).
        if self
            .tracer
            .as_ref()
            .is_some_and(|t| t.has_sinks() || t.cp_enabled())
        {
            return None;
        }
        // A capped recording sheds by *global* exec order, which shard
        // recorders don't know; run it sequentially.
        if self
            .recorder
            .as_ref()
            .is_some_and(|r| r.cfg.max_execs.is_some())
        {
            return None;
        }
        if self.thermal.is_some()
            || self.perturb.is_some()
            || self.elastic.is_some()
            || self.qd.is_some()
            || self.ckpt_pending.is_some()
            || self.auto_ckpt_interval.is_some()
            || self.track_comm
            || self.exit_requested
            || self.max_events != u64::MAX
            || !self.limbo.is_empty()
            || !self.pending_contribs.is_empty()
            || self.queued != 0
            || self.busy_pes != 0
        {
            return None;
        }
        if self.pes[..n].iter().any(|p| {
            !p.alive
                || p.busy
                || p.current.is_some()
                || !p.pending.is_empty()
                || p.blocked_until > self.now
        }) {
            return None;
        }
        if self.events.is_empty() {
            return None;
        }
        // The heap must hold only plain deliveries: scheduled failures,
        // DVFS ticks, reconfigurations, LB rounds, and in-flight
        // migrations/checkpoints are all sequential-only machinery.
        let entries = self.events.drain_entries();
        let all_deliver = entries
            .iter()
            .all(|(_, _, ev)| matches!(ev, Ev::Deliver { .. }));
        for (t, k, ev) in entries {
            self.events.push_keyed(t, k, ev);
        }
        if !all_deliver {
            return None;
        }
        // Freeze the location table.
        let mut locs = FxHashMap::default();
        let mut lens = Vec::with_capacity(self.stores.len());
        let mut targets = Vec::with_capacity(self.stores.len());
        for s in &self.stores {
            let id = s.id();
            let mut tv = Vec::new();
            for ix in s.indices() {
                let (pe, ep) = s.locate(&ix)?;
                locs.insert(ObjId { array: id, ix }, (pe, ep));
                tv.push((ix, pe));
            }
            lens.push(s.len());
            targets.push(tv);
        }
        // Stale location-cache entries would need the sequential
        // forwarding path (deliver to the old PE, re-route from there);
        // a shard cannot host that dance for elements it doesn't own.
        for cache in &self.loc_cache {
            for (obj, (pe, ep)) in cache.iter() {
                if locs.get(&obj) != Some(&(pe, ep)) {
                    return None;
                }
            }
        }
        let bounds = lookahead::plan_bounds(n, shards, &self.net);
        let dist = lookahead::close(lookahead::pair_matrix(&self.net, &bounds));
        Some(ParPlan {
            shards,
            bounds,
            loc: Arc::new(LocTable {
                locs,
                lens,
                targets,
            }),
            dist,
        })
    }

    /// Execute a deadline-free run on `plan.shards` worker threads.
    /// Produces bit-identical state and artifacts to [`Runtime::run_seq_until`]
    /// with `deadline == SimTime::MAX`.
    pub(crate) fn run_parallel(&mut self, plan: ParPlan) -> RunSummary {
        let wall_start = std::time::Instant::now();
        let ParPlan {
            shards,
            bounds,
            loc,
            dist,
        } = plan;
        let n = self.machine.num_pes;
        self.ctrl_snapshot = self.ctrl.snapshot();

        // The run's first boundary happens here, exactly as the sequential
        // loop's first iteration would: no contributions can be pending
        // (eligibility), but a state-digest point may be due from before.
        let t0 = self.events.peek_time().expect("plan requires events");
        let w0 = if t0 >= self.cur_win_end {
            self.boundary_work();
            self.win_end_after(t0)
        } else {
            // Resuming inside a partially drained window (a previous
            // deadline-bounded run stopped mid-window): finish it first.
            self.cur_win_end
        };

        let digest_every = self.recorder.as_ref().and_then(|r| r.cfg.digest_every);
        let exec_offset = self.recorder.as_ref().map_or(0, |r| r.execs_len());

        // ----- split ---------------------------------------------------------
        let bounds_arc = Arc::new(bounds.clone());
        let mut shard_events: Vec<Vec<(SimTime, u64, Ev)>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (t, k, ev) in self.events.drain_entries() {
            let Ev::Deliver { pe, env } = ev else {
                unreachable!("plan admitted a non-delivery event");
            };
            let s = bounds
                .iter()
                .position(|&(lo, hi)| pe >= lo && pe < hi)
                .expect("PE in some shard");
            shard_events[s].push((t, k, Ev::Deliver { pe, env }));
        }
        self.inflight = 0; // redistributed to the shards; restored at merge

        let mut reductions_all = Some(std::mem::take(&mut self.reductions));
        let mut shard_rts: Vec<Runtime> = Vec::with_capacity(shards);
        for (s, evs) in shard_events.into_iter().enumerate() {
            let (lo, hi) = bounds[s];
            // Shards inherit the parent's backend choice so a classic-hotpath
            // A/B run is classic end to end.
            let mut events = if self.events.is_heap_backed() {
                EventQueue::heap_backed_with_capacity(evs.len().max(8))
            } else {
                EventQueue::with_capacity(evs.len().max(8))
            };
            for (t, k, ev) in evs {
                events.push_keyed(t, k, ev);
            }
            let inflight = events.len() as u64;
            let mut pes: Vec<PeState> = (0..n).map(|_| PeState::new()).collect();
            for (pe, slot) in pes.iter_mut().enumerate().take(hi).skip(lo) {
                *slot = std::mem::replace(&mut self.pes[pe], PeState::new());
            }
            let stores: Vec<Box<dyn AnyArray>> = self
                .stores
                .iter_mut()
                .map(|st| st.split_off_pes(lo, hi))
                .collect();
            shard_rts.push(Runtime {
                machine: self.machine.clone(),
                net: self.net.fresh_counters_clone(),
                now: self.now,
                events,
                pes,
                live_pes: n,
                stores,
                home_maps: self.home_maps.clone(),
                array_names: self.array_names.clone(),
                rngs: self.rngs.clone(),
                ctrl: ControlRegistry::new(),
                ctrl_snapshot: self.ctrl_snapshot.clone(),
                loc_cache: self.loc_cache.clone(),
                limbo: FxHashMap::default(),
                // Shard 0 owns reduction state: it performs the boundary
                // folds and allocates from the reduction key slot.
                reductions: if s == 0 {
                    reductions_all.take().expect("taken once")
                } else {
                    FxHashMap::default()
                },
                qd: None,
                inflight,
                queued: 0,
                busy_pes: 0,
                lb: None,
                lb_trigger: self.lb_trigger,
                at_sync_seen: 0,
                lb_rounds: Vec::new(),
                mem_ckpt: None,
                ckpt_pending: None,
                copy_missing: FxHashMap::default(),
                auto_ckpt_interval: None,
                unrecoverable: None,
                elastic: None,
                retired: vec![false; n],
                degraded: None,
                thermal: None,
                dvfs: self.dvfs,
                dvfs_period: self.dvfs_period,
                last_rts_lb: self.last_rts_lb,
                chip_busy: vec![SimTime::ZERO; self.chip_busy.len()],
                sched_overhead: self.sched_overhead,
                metrics: FxHashMap::default(),
                entries: 0,
                messages: 0,
                bytes_moved: 0,
                events_processed: 0,
                wall_run: std::time::Duration::ZERO,
                action_scratch: Vec::new(),
                exit_requested: false,
                max_events: u64::MAX,
                seed: self.seed,
                location_cache: self.location_cache,
                collective_arity: self.collective_arity,
                track_comm: false,
                comm: FxHashMap::default(),
                tracer: self
                    .tracer
                    .as_ref()
                    .map(|tr| Tracer::new(tr.config().clone(), n)),
                cur_cp: None,
                cp_carry: None,
                recorder: self.recorder.as_ref().map(|r| Recorder::new(r.cfg.clone())),
                perturb: None,
                keys: self.keys.clone(),
                cur_slot: n + SLOT_HOST,
                cur_dispatch: (0, 0),
                pending_contribs: Vec::new(),
                cur_win_end: w0,
                win_ns: self.win_ns,
                last_digest_seq: 0,
                par: Some(Box::new(ParShard {
                    shard: s,
                    lo,
                    hi,
                    bounds: bounds_arc.clone(),
                    loc: loc.clone(),
                    outbox: (0..shards).map(|_| Vec::new()).collect(),
                })),
                threads: 1,
                metrics_buf: Vec::new(),
                last_run_parallel: false,
                reconfig_overhead_shrink: self.reconfig_overhead_shrink,
                reconfig_overhead_expand: self.reconfig_overhead_expand,
                arena_enabled: self.arena_enabled,
                // Workers recycle through their own thread-local pools; the
                // base snapshot is meaningless across threads, so shard
                // summaries report arena deltas as best-effort only.
                arena_base: crate::arena::ArenaStats::default(),
                entry_name_cache: FxHashMap::default(),
                shard_queue_ops: 0,
                global_window: false,
                sync_windows: 0,
                sync_width_ns: 0,
                sync_waits: 0,
                sync_elided: 0,
                cb_log: None,
            });
        }

        // ----- run -----------------------------------------------------------
        // The adaptive (barrier-free) engine handles every plain run; the
        // lockstep engine remains for runs that record periodic state
        // digests (those need an exact global cut at specific α-cells) and
        // for explicit A/B fallback via `RuntimeBuilder::global_window`.
        let adaptive = digest_every.is_none() && !self.global_window;
        // Lower bound on (completion-callback delivery − contribution merge
        // time): the fold prices log_k(P) tree hops of ≥ α each.
        let cb_min = self.tree_depth().saturating_mul(self.win_ns).max(self.win_ns);
        // All events sit at or after t0, so "everything before t0's cell
        // start has executed" is vacuously true on every shard.
        let w_base = (t0.0 / self.win_ns) * self.win_ns;
        let shared = Shared {
            inbox: (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            next_time: shard_rts
                .iter()
                .map(|rt| AtomicU64::new(rt.events.peek_time().map_or(u64::MAX, |t| t.0)))
                .collect(),
            execs: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            has_contribs: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            wants_exit: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            contrib_slots: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            digest_slots: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            last_digest: AtomicU64::new(self.last_digest_seq),
            barrier: PoisonBarrier::new(shards),
            clock: (0..shards).map(|_| AtomicU64::new(w_base)).collect(),
            epoch: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            mbox_min: (0..shards)
                .map(|_| (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect())
                .collect(),
            red_floor: AtomicU64::new(t0.0),
            cb_hold: AtomicU64::new(u64::MAX),
            exit_cut: AtomicU64::new(u64::MAX),
            done: AtomicBool::new(false),
            park: Mutex::new(()),
            park_cv: Condvar::new(),
            waiters: AtomicUsize::new(0),
        };

        let results: Vec<std::thread::Result<Runtime>> = std::thread::scope(|scope| {
            let shared = &shared;
            let dist = &dist;
            let handles: Vec<_> = shard_rts
                .into_iter()
                .enumerate()
                .map(|(s, rt)| {
                    scope.spawn(move || {
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            if adaptive {
                                worker_adaptive(rt, shared, shards, s, dist, cb_min)
                            } else {
                                worker(rt, shared, shards, s, exec_offset, digest_every)
                            }
                        }));
                        if out.is_err() {
                            shared.barrier.poison();
                            shared.finish();
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread itself never panics"))
                .collect()
        });
        let mut shard_results = Vec::with_capacity(shards);
        let mut panic_payload = None;
        for r in results {
            match r {
                Ok(rt) => shard_results.push(rt),
                Err(p) => panic_payload = Some(p),
            }
        }
        if let Some(p) = panic_payload {
            // Re-raise the worker's panic (e.g. "at_sync is sequential-
            // only") with its original message.
            std::panic::resume_unwind(p);
        }

        // ----- merge ---------------------------------------------------------
        let mut any_exit = false;
        let mut final_now = self.now;
        let mut final_win = self.cur_win_end;
        let mut shard_recorders = Vec::new();
        for mut rt in shard_results {
            let par = rt.par.take().expect("shard mode");
            let (lo, hi) = (par.lo, par.hi);
            for pe in lo..hi {
                self.pes[pe] = std::mem::replace(&mut rt.pes[pe], PeState::new());
                std::mem::swap(&mut self.rngs[pe], &mut rt.rngs[pe]);
                std::mem::swap(&mut self.loc_cache[pe], &mut rt.loc_cache[pe]);
                self.keys[pe] = rt.keys[pe];
            }
            if par.shard == 0 {
                let red = self.red_slot();
                self.keys[red] = rt.keys[red];
                self.reductions = std::mem::take(&mut rt.reductions);
            }
            for (a, st) in rt.stores.drain(..).enumerate() {
                self.stores[a].absorb(st);
            }
            // Any residual outbox items (possible only on an exit break)
            // re-enter the global heap like every other pending delivery.
            for ob in par.outbox {
                for (t, pe, env) in ob {
                    self.inflight += 1;
                    let k = env.rec_id;
                    self.events.push_keyed(t, k, Ev::Deliver { pe, env });
                }
            }
            for (t, k, ev) in rt.events.drain_entries() {
                self.events.push_keyed(t, k, ev);
            }
            self.shard_queue_ops += rt.events.ops();
            self.inflight += rt.inflight;
            self.queued += rt.queued;
            self.busy_pes += rt.busy_pes;
            self.entries += rt.entries;
            self.messages += rt.messages;
            self.bytes_moved += rt.bytes_moved;
            self.events_processed += rt.events_processed;
            self.sync_windows += rt.sync_windows;
            self.sync_width_ns += rt.sync_width_ns;
            self.sync_waits += rt.sync_waits;
            self.sync_elided += rt.sync_elided;
            for (c, b) in self.chip_busy.iter_mut().zip(&rt.chip_busy) {
                *c += *b;
            }
            self.net.absorb_counters(&rt.net);
            self.metrics_buf.append(&mut rt.metrics_buf);
            self.pending_contribs.append(&mut rt.pending_contribs);
            any_exit |= rt.exit_requested;
            final_now = final_now.max(rt.now);
            final_win = final_win.max(rt.cur_win_end);
            if let Some(tr) = rt.tracer.take() {
                self.tracer
                    .as_mut()
                    .expect("split was symmetric")
                    .absorb_shard(tr, lo, hi);
            }
            if let Some(r) = rt.recorder.take() {
                shard_recorders.push(r);
            }
        }
        // Cross-shard deliveries still parked in the exchange (exit break).
        for row in &shared.inbox {
            for cell in row {
                for (t, pe, env) in cell.lock().expect("inbox lock").drain(..) {
                    self.inflight += 1;
                    let k = env.rec_id;
                    self.events.push_keyed(t, k, Ev::Deliver { pe, env });
                }
            }
        }
        // Contributions published but never folded (exit break).
        for slot in &shared.contrib_slots {
            self.pending_contribs
                .append(&mut slot.lock().expect("contrib lock"));
        }
        if let Some(r) = &mut self.recorder {
            r.absorb_shards(shard_recorders);
            // Re-interning renumbered the entry names.
            self.entry_name_cache.clear();
        }
        // Replay the buffered metric samples in global dispatch order — the
        // order the sequential engine would have journaled them. The sort
        // is stable, so samples from one entry keep their program order.
        let mut buf = std::mem::take(&mut self.metrics_buf);
        buf.sort_by_key(|m| m.dispatch);
        for m in buf {
            self.metrics
                .entry(m.name)
                .or_default()
                .push((m.at_secs, m.value));
        }
        self.now = final_now;
        self.cur_win_end = final_win;
        self.exit_requested = any_exit;
        self.last_digest_seq = shared.last_digest.load(Ordering::Relaxed);
        self.last_run_parallel = true;
        self.wall_run += wall_start.elapsed();
        self.summary()
    }
}

/// One worker: repeatedly drain a conservative window on the shard's own
/// heap, then synchronize. Per round:
///
/// 1. **Publish** — compute the shard's earliest pending time (heap head ∪
///    outbox) *before* moving the outbox into the shared exchange, so every
///    in-flight message is counted by exactly one published horizon; post
///    exec counts and contribution/exit flags.
/// 2. **Barrier A**, then every worker reads all published values and
///    derives identical decisions (exit? fold? digest? next window?).
/// 3. **Boundary work** (only if some shard buffered contributions or a
///    digest point is due): shard 0 folds all contributions in dispatch
///    order and emits the merged digest point, then republishes its horizon
///    (folding schedules callbacks). Bracketed by barriers B and C.
/// 4. **Barrier D** ends the read phase — after it, no worker reads the
///    published values again this round, so the next round's publishes
///    cannot race them.
/// 5. **Ingest** cross-shard deliveries and advance to the window after the
///    global minimum time.
///
/// Cross-shard arrivals always land at or after the *end* of the window
/// that produced them (delay ≥ α), so ingesting between barriers — even one
/// round late on a racy interleaving of steps 5 and 1 — can never introduce
/// an event into a window that has already been drained.
fn worker(
    mut rt: Runtime,
    sh: &Shared,
    shards: usize,
    s: usize,
    exec_offset: u64,
    digest_every: Option<u64>,
) -> Runtime {
    let mut batch: Vec<(u64, Ev)> = Vec::new();
    let mut w_end = rt.cur_win_end;
    loop {
        rt.drain_window(w_end, &mut batch);

        // --- publish ---------------------------------------------------------
        let mut local_min = rt.events.peek_time().map_or(u64::MAX, |t| t.0);
        {
            let par = rt.par.as_mut().expect("shard mode");
            for (dst, ob) in par.outbox.iter_mut().enumerate() {
                if ob.is_empty() {
                    continue;
                }
                for (t, _, _) in ob.iter() {
                    local_min = local_min.min(t.0);
                }
                sh.inbox[dst][s].lock().expect("inbox lock").append(ob);
            }
        }
        let contribs_here = !rt.pending_contribs.is_empty();
        if contribs_here {
            sh.contrib_slots[s]
                .lock()
                .expect("contrib lock")
                .append(&mut rt.pending_contribs);
        }
        sh.next_time[s].store(local_min, Ordering::Relaxed);
        sh.execs[s].store(rt.entries, Ordering::Relaxed);
        sh.has_contribs[s].store(contribs_here, Ordering::Relaxed);
        sh.wants_exit[s].store(rt.exit_requested, Ordering::Relaxed);
        rt.sync_waits += 1;
        if sh.barrier.wait().is_err() {
            return rt; // another worker panicked; unwind quietly
        }

        // --- read + decide (identically on every worker) ---------------------
        // A requested exit stops the run at the end of the current window,
        // before any boundary work — the sequential loop's exact rule.
        if (0..shards).any(|i| sh.wants_exit[i].load(Ordering::Relaxed)) {
            return rt;
        }
        let any_contrib = (0..shards).any(|i| sh.has_contribs[i].load(Ordering::Relaxed));
        let total_execs =
            exec_offset + (0..shards).map(|i| sh.execs[i].load(Ordering::Relaxed)).sum::<u64>();
        let digest_due = digest_every
            .is_some_and(|every| total_execs - sh.last_digest.load(Ordering::Relaxed) >= every);
        let mut t_min = (0..shards)
            .map(|i| sh.next_time[i].load(Ordering::Relaxed))
            .min()
            .expect("at least one shard");

        // --- boundary work ---------------------------------------------------
        if any_contrib || digest_due {
            if digest_due {
                let d = rt.state_digest();
                *sh.digest_slots[s].lock().expect("digest lock") = d;
            }
            rt.sync_waits += 1;
            if sh.barrier.wait().is_err() {
                return rt;
            }
            if s == 0 {
                let mut recs = Vec::new();
                for slot in &sh.contrib_slots {
                    recs.append(&mut slot.lock().expect("contrib lock"));
                }
                rt.pending_contribs = recs;
                rt.fold_contributions();
                if digest_due {
                    let mut digests = Vec::new();
                    for slot in &sh.digest_slots {
                        digests.append(&mut slot.lock().expect("digest lock"));
                    }
                    // Global (array, index) order == the order the
                    // sequential `state_digest` enumerates.
                    digests.sort_unstable_by_key(|&(obj, _)| obj);
                    if let Some(r) = &mut rt.recorder {
                        r.push_state_point_at(total_execs, SimTime(w_end.0), digests);
                    }
                    sh.last_digest.store(total_execs, Ordering::Relaxed);
                }
                // Folding scheduled completion callbacks — to this shard's
                // heap and to the outbox. Flush and republish the horizon.
                let mut m = rt.events.peek_time().map_or(u64::MAX, |t| t.0);
                let par = rt.par.as_mut().expect("shard mode");
                for (dst, ob) in par.outbox.iter_mut().enumerate() {
                    if ob.is_empty() {
                        continue;
                    }
                    for (t, _, _) in ob.iter() {
                        m = m.min(t.0);
                    }
                    sh.inbox[dst][0].lock().expect("inbox lock").append(ob);
                }
                sh.next_time[0].store(m, Ordering::Relaxed);
            }
            rt.sync_waits += 1;
            if sh.barrier.wait().is_err() {
                return rt;
            }
            t_min = t_min.min(sh.next_time[0].load(Ordering::Relaxed));
        }

        // --- end of read phase -----------------------------------------------
        rt.sync_waits += 1;
        if sh.barrier.wait().is_err() {
            return rt;
        }
        if t_min == u64::MAX {
            return rt; // globally drained
        }

        // --- ingest + advance ------------------------------------------------
        for from in 0..shards {
            let mut items = sh.inbox[s][from].lock().expect("inbox lock");
            for (t, pe, env) in items.drain(..) {
                rt.inflight += 1;
                let k = env.rec_id;
                rt.events.push_keyed(t, k, Ev::Deliver { pe, env });
            }
        }
        let next = SimTime(
            (t_min / rt.win_ns)
                .saturating_add(1)
                .saturating_mul(rt.win_ns),
        );
        // Window accounting on shard 0 only: all shards advance the same
        // global window, so per-shard counts would just multiply by the
        // shard count.
        if s == 0 {
            rt.sync_windows += 1;
            rt.sync_width_ns += next.0.saturating_sub(w_end.0);
        }
        w_end = next;
    }
}

// ----- the adaptive (barrier-free) engine ------------------------------------

/// How many `yield_now` rounds a starved shard spins before parking on the
/// condvar. On oversubscribed hosts the yield usually *is* the wakeup (it
/// schedules the peer whose publish we are waiting for).
const SPIN_YIELDS: u32 = 8;

/// Backstop for parked shards: horizons can also widen through folder-side
/// state (red_floor, hold lifts) whose publishes could race a registration,
/// so never sleep unbounded.
const PARK_TIMEOUT: std::time::Duration = std::time::Duration::from_micros(500);

fn epoch_sum(sh: &Shared, shards: usize) -> u64 {
    (0..shards)
        .map(|j| sh.epoch[j].load(Ordering::SeqCst))
        .fold(0u64, u64::wrapping_add)
}

/// Flush shard `s`'s outboxes and buffered contributions, then publish its
/// pending time, window clock, and exec count. The order is the adaptive
/// engine's core invariant: *flush before publish*, so any state a peer
/// reads already accounts for everything this shard pushed toward it.
fn publish_adaptive(rt: &mut Runtime, sh: &Shared, s: usize, clock: u64) {
    let par = rt.par.as_mut().expect("shard mode");
    for (dst, ob) in par.outbox.iter_mut().enumerate() {
        if ob.is_empty() {
            continue;
        }
        let mut floor = u64::MAX;
        for (t, _, _) in ob.iter() {
            floor = floor.min(t.0);
        }
        // Floor and contents update under the same lock, so they never
        // disagree; `fetch_min` because the receiver may not have drained
        // our previous batch yet.
        let mut mb = sh.inbox[dst][s].lock().expect("inbox lock");
        sh.mbox_min[dst][s].fetch_min(floor, Ordering::SeqCst);
        mb.append(ob);
    }
    if !rt.pending_contribs.is_empty() {
        let mut slot = sh.contrib_slots[s].lock().expect("contrib lock");
        slot.append(&mut rt.pending_contribs);
        // Flag set under the slot lock: the folder clears it under the
        // same lock, so a concurrent append can never be orphaned.
        sh.has_contribs[s].store(true, Ordering::SeqCst);
    }
    let n = rt.events.peek_time().map_or(u64::MAX, |t| t.0);
    sh.next_time[s].store(n, Ordering::SeqCst);
    sh.clock[s].store(clock, Ordering::SeqCst);
    sh.execs[s].store(rt.entries, Ordering::SeqCst);
    sh.epoch[s].fetch_add(1, Ordering::SeqCst);
    sh.notify();
}

/// Folder-only (shard 0) state for the adaptive engine.
#[derive(Default)]
struct Folder {
    /// Contributions collected from every shard, not yet folded.
    buf: Vec<ContribRec>,
    /// α-cell ends holding outstanding fold-produced callback deliveries,
    /// sorted ascending; `sh.cb_hold` mirrors the front.
    holds: Vec<u64>,
    /// Scratch for the termination detector's epoch double scan.
    epochs: Vec<u64>,
}

/// Fold a batch of contributions on shard 0, registering an α-cell hold for
/// every completion-callback delivery the folds schedule, and flushing
/// cross-shard callbacks immediately. Hold registration *precedes* any
/// `red_floor` advance (the caller's job), so no horizon can widen past a
/// callback cell before the hold is visible.
fn fold_batch(
    rt: &mut Runtime,
    sh: &Shared,
    recs: Vec<ContribRec>,
    win: u64,
    st: &mut Folder,
) -> u64 {
    debug_assert!(rt.pending_contribs.is_empty());
    rt.pending_contribs = recs;
    rt.cb_log = Some(Vec::new());
    rt.fold_contributions();
    let log = rt.cb_log.take().expect("just set");
    let mut fresh = false;
    let mut sched_min = u64::MAX;
    for t in log {
        sched_min = sched_min.min(t);
        let cell = (t / win).saturating_add(1).saturating_mul(win);
        if let Err(i) = st.holds.binary_search(&cell) {
            st.holds.insert(i, cell);
            fresh = true;
        }
    }
    if fresh {
        sh.cb_hold.fetch_min(st.holds[0], Ordering::SeqCst);
    }
    // Completion callbacks for remote shards leave now, not at shard 0's
    // next grant: every horizon already admits them (they sit at or above
    // `red_floor + cb_min`), and the mailbox floors keep them visible.
    let par = rt.par.as_mut().expect("shard mode");
    for (dst, ob) in par.outbox.iter_mut().enumerate() {
        if ob.is_empty() {
            continue;
        }
        let mut floor = u64::MAX;
        for (t, _, _) in ob.iter() {
            floor = floor.min(t.0);
        }
        let mut mb = sh.inbox[dst][0].lock().expect("inbox lock");
        sh.mbox_min[dst][0].fetch_min(floor, Ordering::SeqCst);
        mb.append(ob);
    }
    // Callbacks delivered to shard 0's own heap lower its pending time.
    let n = rt.events.peek_time().map_or(u64::MAX, |t| t.0);
    let prev = sh.next_time[0].load(Ordering::SeqCst);
    if n < prev {
        sh.next_time[0].store(n, Ordering::SeqCst);
    }
    sched_min
}

/// One folder pass (shard 0, every iteration): collect flushed
/// contributions, fold the complete prefix, advance the reduction floor,
/// lift satisfied callback holds, and detect termination.
fn folder_step(rt: &mut Runtime, sh: &Shared, shards: usize, win: u64, st: &mut Folder) {
    // Peer pending times, read BEFORE collecting slots: contributions
    // flush before the pending-time store, so anything not collected below
    // comes from an exec at or after some pending time read here — which
    // makes the derived `red_floor` a true floor on every future callback
    // origin. Same double-read discipline as the worker's horizon scan.
    let mut min_p = u64::MAX;
    for j in 0..shards {
        min_p = min_p.min(sh.next_time[j].load(Ordering::SeqCst));
    }
    for j in 0..shards {
        for from in 0..shards {
            min_p = min_p.min(sh.mbox_min[j][from].load(Ordering::SeqCst));
        }
    }
    for j in 0..shards {
        min_p = min_p.min(sh.next_time[j].load(Ordering::SeqCst));
    }
    // Clocks BEFORE slots: every publish flushes contributions before it
    // stores the clock, so any contribution from below a clock value read
    // here is guaranteed to be sitting in a slot by the time we collect.
    // Reading in the other order races: a shard could flush + advance its
    // clock between our collection and our clock read, and the fold
    // frontier below would run past a contribution we never saw.
    let min_w = (0..shards)
        .map(|j| sh.clock[j].load(Ordering::SeqCst))
        .min()
        .unwrap_or(0);
    // Read the cut AFTER the clocks: an exiting shard stores the cut
    // before publishing the clock that could satisfy a hold at the exit
    // cell, so a lift can never sneak past a just-requested exit.
    let cut = sh.exit_cut.load(Ordering::SeqCst);
    for j in 0..shards {
        if sh.has_contribs[j].load(Ordering::SeqCst) {
            let mut slot = sh.contrib_slots[j].lock().expect("contrib lock");
            st.buf.append(&mut slot);
            sh.has_contribs[j].store(false, Ordering::SeqCst);
        }
    }
    let mut changed = false;

    // Fold every contribution whose merge time is complete: all clocks
    // have passed it (nothing can contribute below a published clock).
    // Under an exit cut, contributions from the exit cell itself stay
    // unfolded — the sequential engine breaks before that boundary.
    let mut frontier = min_w;
    if cut != u64::MAX {
        frontier = frontier.min(cut.saturating_sub(win));
    }
    let mut sched_min = u64::MAX;
    if st.buf.iter().any(|r| r.merge_t < frontier) {
        let mut pre = Vec::new();
        let mut rest = Vec::with_capacity(st.buf.len());
        for r in st.buf.drain(..) {
            if r.merge_t < frontier {
                pre.push(r);
            } else {
                rest.push(r);
            }
        }
        st.buf = rest;
        sched_min = fold_batch(rt, sh, pre, win, st);
        changed = true;
    }

    // Advance the reduction floor: no unfolded or future contribution can
    // sit below min(buffered floor, global pending floor). Monotone, and
    // always AFTER hold registration (see `fold_batch`). `min_p` was read
    // before any fold this pass ran, so it cannot account for the callbacks
    // the fold just scheduled — cap by their minimum delivery time, or an
    // idle between-windows moment (every published time MAX) would advance
    // the floor to MAX and, being monotone, poison every later window.
    let buf_min = st.buf.iter().map(|r| r.merge_t).min().unwrap_or(u64::MAX);
    let floor = buf_min.min(min_p).min(sched_min);
    if floor > sh.red_floor.load(Ordering::SeqCst) {
        sh.red_floor.store(floor, Ordering::SeqCst);
        changed = true;
    }

    // Lift holds every shard has reached. If the callback requested exit,
    // the cut was published before the satisfying clock, so the read
    // order above guarantees `cut` already bounds every horizon here.
    while let Some(&h) = st.holds.first() {
        if min_w >= h {
            st.holds.remove(0);
            sh.cb_hold
                .store(st.holds.first().copied().unwrap_or(u64::MAX), Ordering::SeqCst);
            changed = true;
        } else {
            break;
        }
    }

    if cut != u64::MAX {
        // Exit: over once every shard's clock reaches the cut cell.
        if min_w >= cut {
            sh.finish();
            return;
        }
    } else {
        // Natural termination: nothing pending anywhere, double-checked
        // against the epoch counters (an ingest or publish in the scan
        // window moves an epoch before it can hide work).
        st.epochs.clear();
        st.epochs
            .extend((0..shards).map(|j| sh.epoch[j].load(Ordering::SeqCst)));
        let quiet = (0..shards).all(|j| {
            sh.next_time[j].load(Ordering::SeqCst) == u64::MAX
                && !sh.has_contribs[j].load(Ordering::SeqCst)
                && (0..shards)
                    .all(|from| sh.mbox_min[j][from].load(Ordering::SeqCst) == u64::MAX)
        });
        if quiet {
            let stable = (0..shards)
                .all(|j| sh.epoch[j].load(Ordering::SeqCst) == st.epochs[j])
                && (0..shards).all(|j| sh.next_time[j].load(Ordering::SeqCst) == u64::MAX);
            if stable {
                if !st.buf.is_empty() {
                    // Every heap is quiet but contributions remain: the
                    // sequential engine folds them all at its quiet-heap
                    // boundary (completions re-seed the heaps; incomplete
                    // reductions just accumulate).
                    let recs = std::mem::take(&mut st.buf);
                    let _ = fold_batch(rt, sh, recs, win, st);
                    changed = true;
                } else if st.holds.is_empty() {
                    sh.finish();
                    return;
                }
            }
        }
    }
    if changed {
        sh.epoch[0].fetch_add(1, Ordering::SeqCst);
        sh.notify();
    }
}

/// One adaptive worker. Per iteration: snapshot every peer's published
/// progress (double-reading around the mailbox floors), ingest this
/// shard's mailboxes, grant itself the horizon
///
/// ```text
/// B = min( min_j  pending_j + dist[j][s],   // lookahead closure
///          red_floor + cb_min,              // unscheduled fold callbacks
///          cb_hold,                         // scheduled fold callbacks
///          exit_cut )                       // a shard saw ctx.exit()
/// ```
///
/// then drain complete α-cells below `B`, publishing mid-grant whenever
/// cross-shard traffic or contributions accumulate. A shard that cannot
/// advance spins briefly, then parks until a peer's publish moves an epoch
/// (counted as [`RunSummary::barriers_waited`]). There is no barrier:
/// shards free-run for as many cells as their horizons allow, and
/// [`RunSummary::barriers_elided`] counts every cell edge crossed without
/// blocking.
fn worker_adaptive(
    mut rt: Runtime,
    sh: &Shared,
    shards: usize,
    s: usize,
    dist: &[Vec<u64>],
    cb_min: u64,
) -> Runtime {
    let win = rt.win_ns;
    let mut batch: Vec<(u64, Ev)> = Vec::new();
    let mut my_w = sh.clock[s].load(Ordering::SeqCst);
    let mut pend: Vec<u64> = vec![u64::MAX; shards];
    let mut spins = 0u32;
    let mut parked = false;
    let mut fold = (s == 0).then(Folder::default);

    loop {
        if sh.done.load(Ordering::SeqCst) {
            break;
        }
        let epoch_before = epoch_sum(sh, shards);
        if let Some(st) = fold.as_mut() {
            folder_step(&mut rt, sh, shards, win, st);
            if sh.done.load(Ordering::SeqCst) {
                break;
            }
        }

        // --- snapshot --------------------------------------------------------
        // `red_floor` before `cb_hold`: the folder stores new holds before
        // advancing the floor, so a floor that licenses a wider horizon is
        // always read together with the holds that cap it.
        let floor = sh.red_floor.load(Ordering::SeqCst);
        let hold = sh.cb_hold.load(Ordering::SeqCst);
        let cut = sh.exit_cut.load(Ordering::SeqCst);
        for (j, p) in pend.iter_mut().enumerate() {
            *p = sh.next_time[j].load(Ordering::SeqCst);
        }
        for (j, p) in pend.iter_mut().enumerate() {
            for from in 0..shards {
                *p = (*p).min(sh.mbox_min[j][from].load(Ordering::SeqCst));
            }
        }
        // Re-read the pending times: a peer that just drained a mailbox
        // covered the batch with its own pending time *before* clearing
        // the floor, so one of the two passes always sees those messages.
        for (j, p) in pend.iter_mut().enumerate() {
            *p = (*p).min(sh.next_time[j].load(Ordering::SeqCst));
        }

        // --- ingest ----------------------------------------------------------
        for from in 0..shards {
            if sh.mbox_min[s][from].load(Ordering::SeqCst) == u64::MAX {
                continue;
            }
            // Epoch first: a termination scan that observes the cleared
            // floor is forced to also observe this bump.
            sh.epoch[s].fetch_add(1, Ordering::SeqCst);
            let mut mb = sh.inbox[s][from].lock().expect("inbox lock");
            let mut floor_in = u64::MAX;
            for (t, _, _) in mb.iter() {
                floor_in = floor_in.min(t.0);
            }
            // Cover the batch with our published pending time before
            // clearing the floor: concurrent horizon readers see the
            // messages through one field or the other.
            let n_now = sh.next_time[s].load(Ordering::SeqCst).min(floor_in);
            sh.next_time[s].store(n_now, Ordering::SeqCst);
            sh.mbox_min[s][from].store(u64::MAX, Ordering::SeqCst);
            for (t, pe, env) in mb.drain(..) {
                rt.inflight += 1;
                let k = env.rec_id;
                rt.events.push_keyed(t, k, Ev::Deliver { pe, env });
            }
        }

        // --- horizon ---------------------------------------------------------
        pend[s] = rt.events.peek_time().map_or(u64::MAX, |t| t.0);
        let mut b = lookahead::horizon(dist, &pend, s);
        b = b.min(floor.saturating_add(cb_min)).min(hold).min(cut);

        // --- drain complete α-cells under the horizon ------------------------
        let mut drained = false;
        let mut sent = false;
        while let Some(t) = rt.events.peek_time() {
            let cell_end = rt.win_end_after(t).0;
            if cell_end > b {
                break; // incomplete cell: needs a wider grant
            }
            rt.drain_window(SimTime(cell_end), &mut batch);
            drained = true;
            if rt.exit_requested {
                // Sequential stops at the end of the cell that requested
                // exit. Publish the cut BEFORE any clock that could
                // satisfy a hold at this cell, then stop draining.
                sh.exit_cut.fetch_min(cell_end, Ordering::SeqCst);
                break;
            }
            // Keep cross-traffic and contributions flowing mid-grant:
            // peers compute horizons from what we publish, not what we
            // hoard.
            let flush = {
                let par = rt.par.as_ref().expect("shard mode");
                par.outbox.iter().any(|ob| !ob.is_empty()) || !rt.pending_contribs.is_empty()
            };
            if flush {
                publish_adaptive(&mut rt, sh, s, cell_end);
                sent = true;
            }
        }

        // --- commit ----------------------------------------------------------
        let new_n = rt.events.peek_time().map_or(u64::MAX, |t| t.0);
        let new_clock = my_w.max(new_n.min(b));
        let clock_moved = new_clock > my_w;
        if clock_moved {
            // A drained shard under an unbounded horizon publishes
            // `u64::MAX`; count width and cells only up to the end of the
            // cell holding its last real event, not to the end of time.
            let counted = if new_clock == u64::MAX {
                my_w.max(rt.win_end_after(rt.now).0)
            } else {
                new_clock
            };
            rt.sync_windows += 1;
            rt.sync_width_ns += counted - my_w;
            if !parked {
                // Every α-cell edge crossed without blocking is a barrier
                // the lockstep engine would have paid four waits for.
                rt.sync_elided += counted / win - my_w / win;
            }
            parked = false;
            my_w = new_clock;
        }
        if drained || sent || clock_moved || new_n != sh.next_time[s].load(Ordering::SeqCst) {
            publish_adaptive(&mut rt, sh, s, my_w);
            spins = 0;
            continue;
        }

        // --- starved: spin, then park ----------------------------------------
        spins += 1;
        if spins <= SPIN_YIELDS {
            std::thread::yield_now();
            continue;
        }
        spins = 0;
        parked = true;
        rt.sync_waits += 1;
        sh.waiters.fetch_add(1, Ordering::SeqCst);
        {
            let g = sh.park.lock().expect("park lock");
            // Re-check under the lock; publishes notify while holding it,
            // so a wakeup between our scan and this registration cannot
            // be lost.
            let moved =
                sh.done.load(Ordering::SeqCst) || epoch_sum(sh, shards) != epoch_before;
            if !moved {
                let _ = sh
                    .park_cv
                    .wait_timeout(g, PARK_TIMEOUT)
                    .expect("park wait");
            }
        }
        sh.waiters.fetch_sub(1, Ordering::SeqCst);
    }
    // Unfolded residue (exit-cell contributions, or an incomplete final
    // reduction interrupted by a peer's panic) re-enters the merge like any
    // shard-local pending contribution.
    if let Some(st) = fold {
        rt.pending_contribs.extend(st.buf);
    }
    rt
}
