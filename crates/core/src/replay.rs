//! Record/replay hooks — the runtime half of the `charm-replay` subsystem
//! (paper §V: Projections/BigSim-style tooling).
//!
//! Recording captures the *causal* structure of a run at the same dispatch
//! points the tracer instruments: one [`ExecRec`] per executed entry method
//! (which message it consumed, its PUP payload digest, how much work it
//! declared, what it sent), plus periodic PUP-based chare-state digests and
//! a final state digest. The log is complete enough to
//!
//! * **verify** a re-run digest-for-digest (`charm-replay`'s `verify`),
//! * **diff** a perturbed run's delivery order per chare (race hunting), and
//! * **re-simulate** the communication/computation DAG under a different
//!   [`MachineConfig`](charm_machine::MachineConfig) (what-if prediction).
//!
//! Everything here is inert unless [`RuntimeBuilder::record`] /
//! [`RuntimeBuilder::perturb`](crate::RuntimeBuilder::perturb) was called:
//! the per-message hooks reduce to a branch on `None`, exactly like tracing.

use crate::array::ObjId;
use crate::chare::{RedValue, SysEvent};
use charm_machine::SimTime;
use fxhash::FxHashMap;

/// Configuration for [`RuntimeBuilder::record`](crate::RuntimeBuilder::record).
#[derive(Debug, Clone, Default)]
pub struct ReplayConfig {
    /// Take a full chare-state digest point every this many executed entries
    /// (`None` = only the final state is digested). Periodic points make
    /// divergence *localization* possible, not just detection.
    pub digest_every: Option<u64>,
    /// Stop recording after this many executed entries (`None` = unbounded).
    /// Service-style workloads execute indefinitely, so an uncapped log
    /// grows without bound; a cap keeps the in-memory buffer fixed while
    /// [`RunSummary`](crate::RunSummary)'s `replay_shed_execs` /
    /// `replay_shed_sends` make the truncation visible. The recorded prefix
    /// is byte-identical to the same prefix of an uncapped recording; state
    /// points past the cap are suppressed (the final-state digest still
    /// reflects the true end of the run, so end-to-end `verify` only makes
    /// sense for uncapped logs).
    pub max_execs: Option<u64>,
}

impl ReplayConfig {
    /// Record with a state-digest point every `n` executed entries.
    pub fn with_digest_every(n: u64) -> Self {
        assert!(n > 0, "digest interval must be positive");
        ReplayConfig {
            digest_every: Some(n),
            ..Default::default()
        }
    }

    /// Record at most `n` executed entries (bounded service recording).
    pub fn with_max_execs(n: u64) -> Self {
        assert!(n > 0, "exec cap must be positive");
        ReplayConfig {
            max_execs: Some(n),
            ..Default::default()
        }
    }
}

/// Configuration for [`RuntimeBuilder::perturb`](crate::RuntimeBuilder::perturb):
/// seeded, causally-valid schedule perturbation. Only *extra delays* are
/// injected (never early deliveries), so every perturbed schedule is one the
/// real network could have produced; same-destination messages whose delays
/// overlap get reordered, which is exactly the race surface.
#[derive(Debug, Clone)]
pub struct PerturbConfig {
    /// Seed of the perturbation RNG (independent of the run seed).
    pub seed: u64,
    /// Probability that any one user-message delivery is delayed.
    pub prob: f64,
    /// Upper bound on the injected extra delay.
    pub max_extra: SimTime,
}

impl Default for PerturbConfig {
    fn default() -> Self {
        PerturbConfig {
            seed: 1,
            prob: 0.25,
            max_extra: SimTime::from_micros(100),
        }
    }
}

impl PerturbConfig {
    /// A perturbation with the default intensity and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        PerturbConfig {
            seed,
            ..Default::default()
        }
    }
}

/// One recorded message send, attached to the execution that produced it
/// (or to [`ReplayLog::roots`] for host/RTS-injected messages).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SendRec {
    /// Runtime-wide message id (`Envelope::rec_id`).
    pub msg_id: u64,
    /// Wire size including the envelope.
    pub bytes: u64,
    /// PE the send was issued from.
    pub src_pe: u32,
    /// PE the delivery was scheduled to (post location-resolution).
    pub dst_pe: u32,
    /// Spanning-tree depth charged for collective deliveries (0 = plain
    /// point-to-point).
    pub tree_depth: u32,
    /// Control-message size of the home-PE location query round trip that
    /// preceded this send (0 = cache hit / local).
    pub rtt_bytes: u64,
}

charm_pup::impl_pup_struct!(SendRec {
    msg_id,
    bytes,
    src_pe,
    dst_pe,
    tree_depth,
    rtt_bytes
});

/// One executed entry method: the unit of the recorded DAG. `seq` is the
/// global execution order (the total order the deterministic scheduler
/// produced); `msg_id`/`sends` stitch executions into a causal graph.
#[derive(Debug, Clone, Default)]
pub struct ExecRec {
    /// Global execution index (0-based).
    pub seq: u64,
    /// PE it ran on.
    pub pe: u32,
    /// Virtual start time (ns).
    pub start_ns: u64,
    /// Modeled duration (ns): work + scheduling overhead + send costs.
    pub dur_ns: u64,
    /// The chare that ran.
    pub dst: ObjId,
    /// Index into [`ReplayLog::entry_names`].
    pub entry: u32,
    /// Id of the consumed message.
    pub msg_id: u64,
    /// The chare whose execution produced the consumed message (`None` for
    /// host sends and RTS-origin events).
    pub msg_src: Option<ObjId>,
    /// PUP digest of the consumed payload.
    pub msg_digest: u64,
    /// Wire size of the consumed message.
    pub msg_bytes: u64,
    /// Declared work in FLOP (speed-independent, so what-if can re-cost it).
    pub work: f64,
    /// Sends charged at remote-injection cost.
    pub n_remote: u32,
    /// Sends charged at local-delivery cost.
    pub n_local: u32,
    /// Messages this execution produced.
    pub sends: Vec<SendRec>,
}

charm_pup::impl_pup_struct!(ExecRec {
    seq,
    pe,
    start_ns,
    dur_ns,
    dst,
    entry,
    msg_id,
    msg_src,
    msg_digest,
    msg_bytes,
    work,
    n_remote,
    n_local,
    sends
});

/// A full chare-state digest at one point of the execution order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DigestPoint {
    /// Number of entries executed when the point was taken.
    pub seq: u64,
    /// Virtual time (ns).
    pub t_ns: u64,
    /// `(chare, PUP state digest)`, sorted by chare id.
    pub digests: Vec<(ObjId, u64)>,
}

charm_pup::impl_pup_struct!(DigestPoint { seq, t_ns, digests });

/// The complete record of one run. Produced by
/// [`Runtime::take_replay_log`](crate::Runtime::take_replay_log); persisted
/// and consumed by the `charm-replay` crate.
#[derive(Debug, Clone, Default)]
pub struct ReplayLog {
    /// Free-form application label (set by the recording driver).
    pub app: String,
    /// Machine preset name the run executed on.
    pub machine: String,
    /// PE count of the recording run.
    pub num_pes: u64,
    /// Run seed.
    pub seed: u64,
    /// Per-entry scheduling overhead (ns) of the recording run.
    pub sched_overhead_ns: u64,
    /// Spanning-tree arity of the recording run's collectives.
    pub collective_arity: u64,
    /// Reference FLOP/s of the recording machine.
    pub flops_per_sec: f64,
    /// Interned entry-method names (`ExecRec::entry` indexes this).
    pub entry_names: Vec<String>,
    /// Every executed entry, in execution order.
    pub execs: Vec<ExecRec>,
    /// Messages injected from outside any execution (host sends, RTS).
    pub roots: Vec<SendRec>,
    /// Periodic state-digest points (when configured).
    pub state_points: Vec<DigestPoint>,
    /// Digest of every chare's state at the end of the run.
    pub final_state: DigestPoint,
    /// Final virtual time (ns).
    pub end_ns: u64,
}

charm_pup::impl_pup_struct!(ReplayLog {
    app,
    machine,
    num_pes,
    seed,
    sched_overhead_ns,
    collective_arity,
    flops_per_sec,
    entry_names,
    execs,
    roots,
    state_points,
    final_state,
    end_ns
});

/// Digest a system event the way user payloads are digested — manually,
/// since `SysEvent` deliberately has no wire `Pup` (it never crosses a
/// checkpoint boundary). Folds the kind name plus every field, streaming
/// the bytes `Pup for String`/`Pup for Vec<T>` would emit (length prefix,
/// then contents) straight from the borrowed event: no owned copies.
pub(crate) fn sys_event_digest(ev: &SysEvent) -> u64 {
    let mut p = charm_pup::Puper::digester();
    feed_len_prefixed(&mut p, ev.kind_name().as_bytes());
    match ev {
        SysEvent::Reduction { tag, value } => {
            p.p(&mut { *tag });
            red_value_digest(&mut p, value);
        }
        SysEvent::Migrated { from_pe } => p.p(&mut { *from_pe }),
        SysEvent::Restarted { failed_pe } => p.p(&mut { *failed_pe }),
        SysEvent::ResumeFromSync
        | SysEvent::QuiescenceDetected
        | SysEvent::CheckpointDone
        | SysEvent::Inserted => {}
    }
    p.digest()
}

fn red_value_digest(p: &mut charm_pup::Puper, v: &RedValue) {
    match v {
        RedValue::F64(x) => p.p(&mut { *x }),
        RedValue::I64(x) => p.p(&mut { *x }),
        RedValue::VecF64(xs) => {
            p.p(&mut (xs.len() as u64));
            for &x in xs {
                p.p(&mut { x });
            }
        }
        RedValue::VecI64(xs) => {
            p.p(&mut (xs.len() as u64));
            for &x in xs {
                p.p(&mut { x });
            }
        }
        RedValue::Bytes(xs) => feed_len_prefixed(p, xs),
    }
}

/// A `u64` length prefix, then the bytes — the stream `Pup` emits for a
/// `String` or a `Vec<u8>`.
fn feed_len_prefixed(p: &mut charm_pup::Puper, bytes: &[u8]) {
    p.p(&mut (bytes.len() as u64));
    p.feed(bytes);
}

/// Where a recorded message came from.
#[derive(Clone, Copy)]
enum Origin {
    /// Host send or RTS-origin event: becomes a [`ReplayLog::roots`] entry.
    External,
    /// Produced by the exec at this local index.
    Exec(usize),
    /// Produced on behalf of the exec with this scheduler dispatch key —
    /// used by the window-boundary reduction fold, which runs outside any
    /// exec (and, in parallel mode, possibly on a different shard than the
    /// producing exec). Resolved to an exec index when the log is built.
    Dispatch((u64, u64)),
    /// Created past [`ReplayConfig::max_execs`] with no recorded producer:
    /// counted in `shed_sends` when it routes.
    Shed,
}

/// The in-flight recording state. Lives inside the [`Runtime`](crate::Runtime)
/// behind an `Option`, tracer-style.
pub(crate) struct Recorder {
    pub(crate) cfg: ReplayConfig,
    entry_names: Vec<String>,
    entry_ix: FxHashMap<String, u32>,
    execs: Vec<ExecRec>,
    /// Scheduler dispatch key `(t_ns, heap_key)` of each exec, parallel to
    /// `execs`. This is the total order the windowed engine executes in —
    /// shard recorders are merged back into one log by sorting on it
    /// (heap keys are globally unique: each shard allocates from the slots
    /// it owns).
    dispatch_keys: Vec<(u64, u64)>,
    roots: Vec<SendRec>,
    state_points: Vec<DigestPoint>,
    /// msg id → producing exec, for messages created but not yet routed.
    /// The first routing takes the entry out, so a re-route (limbo flush,
    /// dead-PE chase, evacuation) finds none and records nothing: the table
    /// holds only unrouted messages (parked in limbo, or dropped before
    /// routing with a crashed process) and does not grow with the run.
    origin: FxHashMap<u64, Origin>,
    /// Index of the exec currently applying its actions.
    current: Option<usize>,
    /// While set, new messages are attributed to the exec with this
    /// dispatch key instead of `current` (reduction-fold callbacks).
    pub(crate) origin_dispatch: Option<(u64, u64)>,
    /// Sends whose producing exec is identified by dispatch key; attached
    /// to the right exec (any shard's) when the log is finalized.
    deferred: Vec<((u64, u64), SendRec)>,
    /// Entry executions dropped past [`ReplayConfig::max_execs`].
    shed_execs: u64,
    /// Sends dropped because their producing exec was shed.
    shed_sends: u64,
}

impl Recorder {
    pub(crate) fn new(cfg: ReplayConfig) -> Self {
        Recorder {
            cfg,
            entry_names: Vec::new(),
            entry_ix: FxHashMap::default(),
            execs: Vec::new(),
            dispatch_keys: Vec::new(),
            roots: Vec::new(),
            state_points: Vec::new(),
            origin: FxHashMap::default(),
            current: None,
            origin_dispatch: None,
            deferred: Vec::new(),
            shed_execs: 0,
            shed_sends: 0,
        }
    }

    /// Has the exec cap been reached?
    fn capped(&self) -> bool {
        self.cfg
            .max_execs
            .is_some_and(|m| self.execs.len() as u64 >= m)
    }

    /// Entry executions shed past the cap.
    pub(crate) fn shed_execs(&self) -> u64 {
        self.shed_execs
    }

    /// Sends shed because their producing exec was shed.
    pub(crate) fn shed_sends(&self) -> u64 {
        self.shed_sends
    }

    /// Index of `name` in the log's entry-name table, adding it on first
    /// use. Callers cache the result per `(array, kind)`, so this runs once
    /// per entry method, not once per exec.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.entry_ix.get(name) {
            return i;
        }
        let i = self.entry_names.len() as u32;
        self.entry_names.push(name.to_string());
        self.entry_ix.insert(name.to_string(), i);
        i
    }

    /// Number of entries executed so far.
    pub(crate) fn execs_len(&self) -> u64 {
        self.execs.len() as u64
    }

    /// A new message was created; remember which exec (if any) produced it.
    pub(crate) fn note_origin(&mut self, msg_id: u64) {
        let origin = match (self.origin_dispatch, self.current) {
            (Some(dk), _) => Origin::Dispatch(dk),
            (None, Some(i)) => Origin::Exec(i),
            // Past the exec cap nothing executes on the record, so a
            // message without a current exec has no recordable producer:
            // count the send (once) when it routes.
            (None, None) if self.capped() => Origin::Shed,
            (None, None) => Origin::External,
        };
        self.origin.insert(msg_id, origin);
    }

    /// A message's delivery was scheduled. Only the first routing records
    /// a send; later re-routes and limbo re-flushes are extra hops of the
    /// same send and find no origin entry left.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_routed(
        &mut self,
        msg_id: u64,
        bytes: usize,
        src_pe: usize,
        dst_pe: usize,
        tree_depth: u64,
        rtt_bytes: usize,
    ) {
        let Some(origin) = self.origin.remove(&msg_id) else {
            return;
        };
        let rec = SendRec {
            msg_id,
            bytes: bytes as u64,
            src_pe: src_pe as u32,
            dst_pe: dst_pe as u32,
            tree_depth: tree_depth as u32,
            rtt_bytes: rtt_bytes as u64,
        };
        match origin {
            Origin::Exec(i) => self.execs[i].sends.push(rec),
            Origin::Dispatch(dk) => self.deferred.push((dk, rec)),
            Origin::External => self.roots.push(rec),
            // Produced past the cap: shed it (visibly) instead of growing
            // `roots`.
            Origin::Shed => self.shed_sends += 1,
        }
    }

    /// Messages created but not yet routed.
    #[cfg(test)]
    pub(crate) fn unrouted_len(&self) -> usize {
        self.origin.len()
    }

    /// An entry method is about to apply its actions; every send recorded
    /// until [`Recorder::end_exec`] belongs to it. `entry` yields the
    /// interned entry name; it is only asked for below the exec cap, so a
    /// shed exec never adds a name to the log.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn begin_exec(
        &mut self,
        pe: usize,
        start: SimTime,
        dur: SimTime,
        dst: ObjId,
        entry: impl FnOnce(&mut Self) -> u32,
        msg_id: u64,
        msg_src: Option<ObjId>,
        msg_digest: u64,
        msg_bytes: usize,
        work: f64,
        n_remote: u32,
        n_local: u32,
        dispatch: (u64, u64),
    ) {
        if self.capped() {
            self.shed_execs += 1;
            self.current = None;
            return;
        }
        let entry = entry(self);
        let seq = self.execs.len() as u64;
        self.dispatch_keys.push(dispatch);
        self.execs.push(ExecRec {
            seq,
            pe: pe as u32,
            start_ns: start.0,
            dur_ns: dur.0,
            dst,
            entry,
            msg_id,
            msg_src,
            msg_digest,
            msg_bytes: msg_bytes as u64,
            work,
            n_remote,
            n_local,
            // One routed send per counted action is the common case, so
            // this is usually the final size.
            sends: Vec::with_capacity((n_remote + n_local) as usize),
        });
        self.current = Some(self.execs.len() - 1);
    }

    pub(crate) fn end_exec(&mut self) {
        self.current = None;
    }

    pub(crate) fn push_state_point(&mut self, t: SimTime, digests: Vec<(ObjId, u64)>) {
        let seq = self.execs.len() as u64;
        self.push_state_point_at(seq, t, digests);
    }

    /// A state-digest point with an explicit global seq — the parallel
    /// coordinator computes `seq` from the published per-shard exec counts
    /// (a shard-local `execs.len()` would be meaningless there).
    pub(crate) fn push_state_point_at(&mut self, seq: u64, t: SimTime, digests: Vec<(ObjId, u64)>) {
        // Past the cap the digest would describe state the log's exec
        // prefix cannot reproduce; keep the truncated log self-consistent.
        if self.capped() {
            return;
        }
        self.state_points.push(DigestPoint {
            seq,
            t_ns: t.0,
            digests,
        });
    }

    /// Fold shard recorders back into this (pre-split) recorder after a
    /// parallel run. Execs from all sources are re-sorted by scheduler
    /// dispatch key — exactly the order the sequential engine would have
    /// executed them in — then renumbered; entry names are re-interned,
    /// origin indices remapped, and roots/state points appended.
    pub(crate) fn absorb_shards(&mut self, shards: Vec<Recorder>) {
        let mut sources: Vec<Recorder> = Vec::with_capacity(shards.len() + 1);
        sources.push(std::mem::replace(self, Recorder::new(self.cfg.clone())));
        sources.extend(shards);

        // Global execution order: dispatch keys are unique across sources.
        let mut order: Vec<((u64, u64), usize, usize)> = Vec::new();
        for (si, src) in sources.iter().enumerate() {
            debug_assert_eq!(src.execs.len(), src.dispatch_keys.len());
            for (li, &dk) in src.dispatch_keys.iter().enumerate() {
                order.push((dk, si, li));
            }
        }
        order.sort_unstable_by_key(|&(dk, _, _)| dk);

        // Move execs out so they can be re-owned in sorted order.
        let mut pools: Vec<Vec<Option<ExecRec>>> = sources
            .iter_mut()
            .map(|s| s.execs.drain(..).map(Some).collect())
            .collect();
        let mut remap: Vec<Vec<usize>> = pools.iter().map(|p| vec![usize::MAX; p.len()]).collect();
        let entry_maps: Vec<Vec<String>> = sources
            .iter_mut()
            .map(|s| std::mem::take(&mut s.entry_names))
            .collect();

        for (gi, &(dk, si, li)) in order.iter().enumerate() {
            let mut e = pools[si][li].take().expect("exec consumed twice");
            e.seq = gi as u64;
            e.entry = self.intern(&entry_maps[si][e.entry as usize]);
            remap[si][li] = gi;
            self.dispatch_keys.push(dk);
            self.execs.push(e);
        }

        for (si, src) in sources.into_iter().enumerate() {
            for (msg_id, org) in src.origin {
                let org = match org {
                    Origin::Exec(li) => Origin::Exec(remap[si][li]),
                    other => other,
                };
                self.origin.insert(msg_id, org);
            }
            self.roots.extend(src.roots);
            self.state_points.extend(src.state_points);
            self.shed_execs += src.shed_execs;
            self.shed_sends += src.shed_sends;
            // Only shard 0 folds reductions, so deferred sends arrive here
            // already in chronological fold order — same as sequential.
            self.deferred.extend(src.deferred);
        }
        self.state_points.sort_by_key(|p| (p.seq, p.t_ns));
        self.current = None;
    }

    /// Consume the recorder into a finished log.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn into_log(
        mut self,
        machine: String,
        num_pes: usize,
        seed: u64,
        sched_overhead: SimTime,
        collective_arity: u64,
        flops_per_sec: f64,
        end: SimTime,
        final_digests: Vec<(ObjId, u64)>,
    ) -> ReplayLog {
        // Attach dispatch-keyed sends (reduction-fold callbacks) to their
        // producing execs, in fold order.
        let by_key: FxHashMap<(u64, u64), usize> = self
            .dispatch_keys
            .iter()
            .enumerate()
            .map(|(i, &dk)| (dk, i))
            .collect();
        for (dk, rec) in self.deferred.drain(..) {
            match by_key.get(&dk) {
                Some(&i) => self.execs[i].sends.push(rec),
                None => self.roots.push(rec),
            }
        }
        let final_state = DigestPoint {
            seq: self.execs.len() as u64,
            t_ns: end.0,
            digests: final_digests,
        };
        ReplayLog {
            app: String::new(),
            machine,
            num_pes: num_pes as u64,
            seed,
            sched_overhead_ns: sched_overhead.0,
            collective_arity,
            flops_per_sec,
            entry_names: self.entry_names,
            execs: self.execs,
            roots: self.roots,
            state_points: self.state_points,
            final_state,
            end_ns: end.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayProxy, Chare, Ctx, Ix, Runtime};
    use charm_machine::MachineConfig;
    use charm_pup::{Pup, Puper};

    #[test]
    fn log_roundtrips_through_pup() {
        let mut log = ReplayLog {
            app: "t".into(),
            machine: "homog".into(),
            num_pes: 4,
            seed: 7,
            sched_overhead_ns: 250,
            collective_arity: 2,
            flops_per_sec: 1e9,
            entry_names: vec!["A::on_message".into()],
            execs: vec![ExecRec {
                seq: 0,
                pe: 1,
                start_ns: 10,
                dur_ns: 20,
                dst: ObjId {
                    array: crate::ArrayId(0),
                    ix: Ix::I1(3),
                },
                entry: 0,
                msg_id: 1,
                msg_src: None,
                msg_digest: 0xdead,
                msg_bytes: 48,
                work: 1000.0,
                n_remote: 1,
                n_local: 0,
                sends: vec![SendRec {
                    msg_id: 2,
                    bytes: 48,
                    src_pe: 1,
                    dst_pe: 2,
                    tree_depth: 0,
                    rtt_bytes: 40,
                }],
            }],
            roots: vec![SendRec::default()],
            state_points: vec![],
            final_state: DigestPoint {
                seq: 1,
                t_ns: 30,
                digests: vec![(
                    ObjId {
                        array: crate::ArrayId(0),
                        ix: Ix::I1(3),
                    },
                    9,
                )],
            },
            end_ns: 30,
        };
        let bytes = charm_pup::to_bytes(&mut log);
        let back: ReplayLog = charm_pup::from_bytes_exact(&bytes).unwrap();
        assert_eq!(back.execs.len(), 1);
        assert_eq!(back.execs[0].sends, log.execs[0].sends);
        assert_eq!(back.final_state, log.final_state);
        assert_eq!(back.entry_names, log.entry_names);
        assert_eq!(back.machine, "homog");
    }

    #[test]
    fn sys_digests_distinguish_events() {
        let a = sys_event_digest(&SysEvent::Reduction {
            tag: 1,
            value: RedValue::F64(1.0),
        });
        let b = sys_event_digest(&SysEvent::Reduction {
            tag: 1,
            value: RedValue::F64(2.0),
        });
        let c = sys_event_digest(&SysEvent::Inserted);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            a,
            sys_event_digest(&SysEvent::Reduction {
                tag: 1,
                value: RedValue::F64(1.0),
            })
        );
    }

    /// The pre-streaming fold: owned copies of the kind name and of every
    /// vector payload, pupped as `String`/`Vec<T>`.
    fn owned_copy_digest(ev: &SysEvent) -> u64 {
        let mut p = Puper::digester();
        p.p(&mut ev.kind_name().to_string());
        match ev {
            SysEvent::Reduction { tag, value } => {
                p.p(&mut { *tag });
                match value {
                    RedValue::F64(x) => p.p(&mut { *x }),
                    RedValue::I64(x) => p.p(&mut { *x }),
                    RedValue::VecF64(xs) => p.p(&mut xs.clone()),
                    RedValue::VecI64(xs) => p.p(&mut xs.clone()),
                    RedValue::Bytes(xs) => p.p(&mut xs.clone()),
                }
            }
            SysEvent::Migrated { from_pe } => p.p(&mut { *from_pe }),
            SysEvent::Restarted { failed_pe } => p.p(&mut { *failed_pe }),
            SysEvent::ResumeFromSync
            | SysEvent::QuiescenceDetected
            | SysEvent::CheckpointDone
            | SysEvent::Inserted => {}
        }
        p.digest()
    }

    #[test]
    fn streamed_sys_digest_matches_owned_copy_fold() {
        let values = [
            RedValue::F64(-2.5),
            RedValue::I64(-7),
            RedValue::VecF64(vec![]),
            RedValue::VecF64(vec![1.0, f64::MIN_POSITIVE, -0.0]),
            RedValue::VecI64(vec![i64::MIN, 0, 3]),
            RedValue::Bytes(vec![]),
            RedValue::Bytes((0..=255).collect()),
        ];
        let mut events: Vec<SysEvent> = values
            .into_iter()
            .map(|value| SysEvent::Reduction { tag: 9, value })
            .collect();
        events.extend([
            SysEvent::ResumeFromSync,
            SysEvent::Migrated { from_pe: 5 },
            SysEvent::QuiescenceDetected,
            SysEvent::CheckpointDone,
            SysEvent::Restarted { failed_pe: 3 },
            SysEvent::Inserted,
        ]);
        for ev in &events {
            assert_eq!(sys_event_digest(ev), owned_copy_digest(ev), "{ev:?}");
        }
    }

    /// Test chare driven by numeric commands (see `on_message`).
    #[derive(Default)]
    struct Node {
        got: u64,
    }

    impl Pup for Node {
        fn pup(&mut self, p: &mut Puper) {
            p.p(&mut self.got);
        }
    }

    const SEND_TO_ABSENT: u64 = 1;
    const INSERT_ABSENT: u64 = 2;
    const ABSENT: i64 = 99;
    const PING_PEER: u64 = 3;
    const DATA: u64 = 7;
    const PEER: i64 = 1;

    impl Chare for Node {
        type Msg = u64;
        fn on_message(&mut self, m: u64, ctx: &mut Ctx<'_>) {
            let arr = ArrayProxy::<Node>::from_id(ctx.my_id().array);
            match m {
                SEND_TO_ABSENT => {
                    ctx.send(arr, Ix::i1(ABSENT), DATA);
                    ctx.send_after(SimTime::from_micros(20), arr, ctx.my_index(), INSERT_ABSENT);
                }
                INSERT_ABSENT => ctx.insert(arr, Ix::i1(ABSENT), Node::default(), Some(1)),
                PING_PEER => {
                    ctx.send(arr, Ix::i1(PEER), DATA);
                    if self.got < 3 {
                        self.got += 1;
                        ctx.send_after(SimTime::from_micros(50), arr, ctx.my_index(), PING_PEER);
                    }
                }
                DATA => {
                    self.got += 1;
                    // The peer moves away after its first message, leaving
                    // the sender's location cache stale.
                    if self.got == 1 && ctx.my_index() == Ix::i1(PEER) {
                        ctx.migrate_me(2);
                    }
                }
                // Fan-out: `m - 100` more generations, three children each.
                m if m > 100 => {
                    ctx.work(2e5);
                    let me = match ctx.my_index() {
                        Ix::I1(i) => i,
                        _ => unreachable!(),
                    };
                    for d in [1, 3, 5] {
                        ctx.send(arr, Ix::i1((me + d) % 16), m - 1);
                    }
                }
                _ => {}
            }
        }
    }

    fn recorded(cfg: ReplayConfig, pes: usize) -> (Runtime, ArrayProxy<Node>) {
        let mut rt = Runtime::builder(MachineConfig::homogeneous(pes))
            .record(cfg)
            .build();
        let arr = rt.create_array::<Node>("node");
        (rt, arr)
    }

    fn unrouted(rt: &Runtime) -> usize {
        rt.recorder.as_ref().expect("recording").unrouted_len()
    }

    /// Every `SendRec` for `msg_id`, wherever it was attached.
    fn sends_of(log: &ReplayLog, msg_id: u64) -> Vec<(Option<u64>, SendRec)> {
        let from_execs = log.execs.iter().flat_map(|e| {
            e.sends
                .iter()
                .filter(|s| s.msg_id == msg_id)
                .map(move |s| (Some(e.seq), s.clone()))
        });
        let from_roots = log
            .roots
            .iter()
            .filter(|s| s.msg_id == msg_id)
            .map(|s| (None, s.clone()));
        from_execs.chain(from_roots).collect()
    }

    fn total_sends(log: &ReplayLog) -> usize {
        log.roots.len() + log.execs.iter().map(|e| e.sends.len()).sum::<usize>()
    }

    #[test]
    fn limbo_send_is_attributed_to_its_producer_once() {
        let (mut rt, arr) = recorded(ReplayConfig::default(), 4);
        rt.insert(arr, Ix::i1(0), Node::default(), Some(0));
        rt.send(arr, Ix::i1(0), SEND_TO_ABSENT);
        rt.run();
        assert!(rt.limbo_messages().is_empty(), "the parked send was flushed");
        assert_eq!(unrouted(&rt), 0, "origin table drained after the run");
        let log = rt.take_replay_log().unwrap();

        let absent = ObjId {
            array: arr.id,
            ix: Ix::i1(ABSENT),
        };
        let consumed = log
            .execs
            .iter()
            .find(|e| e.dst == absent && log.entry_names[e.entry as usize].ends_with("on_message"))
            .expect("the parked message executed after the insert");
        let producer = log
            .execs
            .iter()
            .find(|e| e.dst.ix == Ix::i1(0) && e.sends.iter().any(|s| s.msg_id == consumed.msg_id))
            .expect("attributed to an exec of element 0");
        let sends = sends_of(&log, consumed.msg_id);
        assert_eq!(sends.len(), 1, "recorded exactly once: {sends:?}");
        assert_eq!(sends[0].0, Some(producer.seq));
        // The producer is the exec that sent it, not the later one whose
        // insert flushed it out of limbo.
        assert!(producer.seq < consumed.seq);
        let inserter = log
            .execs
            .iter()
            .find(|e| e.dst.ix == Ix::i1(0) && e.seq != producer.seq)
            .expect("the inserting exec");
        assert!(inserter.sends.iter().all(|s| s.msg_id != consumed.msg_id));
    }

    #[test]
    fn stale_cache_forward_is_not_recorded_again() {
        let (mut rt, arr) = recorded(ReplayConfig::default(), 4);
        rt.insert(arr, Ix::i1(0), Node::default(), Some(0));
        rt.insert(arr, Ix::i1(PEER), Node::default(), Some(1));
        rt.send(arr, Ix::i1(0), PING_PEER);
        rt.run();
        assert_eq!(rt.element_pe(arr.id, &Ix::i1(PEER)), Some(2), "peer migrated");
        assert_eq!(unrouted(&rt), 0, "origin table drained after the run");
        let log = rt.take_replay_log().unwrap();

        let peer_execs: Vec<&ExecRec> = log
            .execs
            .iter()
            .filter(|e| e.dst.ix == Ix::i1(PEER) && e.pe == 2 && e.msg_src.is_some())
            .collect();
        assert!(!peer_execs.is_empty(), "peer received messages after moving");
        let mut forwarded = 0;
        for e in peer_execs {
            let sends = sends_of(&log, e.msg_id);
            assert_eq!(sends.len(), 1, "msg {} recorded {} times", e.msg_id, sends.len());
            forwarded += usize::from(sends[0].1.dst_pe == 1);
        }
        assert!(forwarded > 0, "no send went through the stale cache entry");
    }

    /// A fan-out storm on 8 PEs, shrunk to 4 mid-run: the envelopes queued
    /// on the retired PEs are routed a second time.
    fn storm(cfg: ReplayConfig) -> Runtime {
        let (mut rt, arr) = recorded(cfg, 8);
        for i in 0..16 {
            rt.insert(arr, Ix::i1(i), Node::default(), Some(i as usize % 8));
        }
        rt.send(arr, Ix::i1(0), 105);
        rt.send(arr, Ix::i1(7), 105);
        rt.schedule_reconfigure(SimTime::from_micros(600), 4);
        rt.run();
        rt
    }

    #[test]
    fn capped_recording_sheds_each_rerouted_send_once() {
        let mut full = storm(ReplayConfig::default());
        assert_eq!(unrouted(&full), 0);
        let full = full.take_replay_log().unwrap();

        const CAP: usize = 10;
        let mut capped = storm(ReplayConfig::with_max_execs(CAP as u64));
        assert_eq!(unrouted(&capped), 0, "shed messages leave no origin entry");
        let s = capped.summary();
        let capped = capped.take_replay_log().unwrap();
        assert_eq!(capped.execs.len(), CAP);
        assert_eq!(s.replay_shed_execs as usize, full.execs.len() - CAP);
        assert!(s.replay_shed_sends > 0);
        assert_eq!(
            total_sends(&capped) + s.replay_shed_sends as usize,
            total_sends(&full),
            "every send is either recorded or shed, exactly once"
        );
    }
}
