//! Correctness and counter-invariant checks, tallied for `check_pass_frac`.
//!
//! Output checks (digests, simulated results, acknowledged writes, replay
//! and checkpoint round trips) decide whether a run is correct. Counter
//! invariants check the engine's telemetry; a violation does not make the
//! simulated answer wrong, but it is printed and counted in
//! `check_pass_frac` like any failed check. Nothing is clamped or hidden.

use charm_core::RunSummary;

#[derive(Debug, Default)]
pub struct Checks {
    run: u64,
    failed: u64,
    outputs_run: u64,
    outputs_failed: u64,
}

impl Checks {
    /// Count one output check; report it when it fails. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.outputs_run += 1;
        self.outputs_failed += u64::from(!ok);
        self.count(ok, what)
    }

    /// Count one counter-invariant check; report it when it fails.
    pub fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.count(ok, what)
    }

    fn count(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.run += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    /// Checks of either kind run so far.
    pub fn run(&self) -> u64 {
        self.run
    }

    /// Checks of either kind failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Output checks run so far.
    pub fn outputs_run(&self) -> u64 {
        self.outputs_run
    }

    /// Output checks failed so far.
    pub fn outputs_failed(&self) -> u64 {
        self.outputs_failed
    }

    /// Share of checks that failed (0 when none ran).
    pub fn fail_frac(&self) -> f64 {
        if self.run == 0 {
            0.0
        } else {
            self.failed as f64 / self.run as f64
        }
    }

    /// Share of checks that passed: the reported `check_pass_frac`. With no
    /// check run there is no evidence of correctness, so it reads 0.
    pub fn pass_frac(&self) -> f64 {
        if self.run == 0 {
            0.0
        } else {
            1.0 - self.fail_frac()
        }
    }

    /// The engine-counter invariants every `RunSummary` must satisfy.
    /// `shards` is the number of engine shards that ran (1 when sequential).
    pub fn summary_invariants(
        &mut self,
        label: &str,
        s: &RunSummary,
        parallel: bool,
        shards: usize,
    ) {
        if !parallel {
            self.invariant(s.barriers_waited == 0 && s.barriers_elided == 0, || {
                format!(
                    "{label}: sequential run reports barriers_waited={} barriers_elided={}",
                    s.barriers_waited, s.barriers_elided
                )
            });
        }
        self.invariant(
            u128::from(s.barriers_elided) <= u128::from(s.windows_executed) * shards.max(1) as u128,
            || {
                format!(
                    "{label}: barriers_elided={} exceeds windows_executed={} x {shards} shards",
                    s.barriers_elided, s.windows_executed
                )
            },
        );
        self.invariant(s.avg_window_width <= s.end_time.0 as f64, || {
            format!(
                "{label}: avg_window_width={} ns exceeds end_time={} ns",
                s.avg_window_width, s.end_time.0
            )
        });
        self.invariant(s.queue_ops >= s.events, || {
            format!(
                "{label}: queue_ops={} below events={}",
                s.queue_ops, s.events
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_core::SimTime;

    fn summary() -> RunSummary {
        RunSummary {
            end_time: SimTime(1_000_000),
            events: 100,
            entries: 50,
            messages: 50,
            bytes: 4096,
            avg_utilization: 0.5,
            wall_time_s: 0.01,
            events_per_sec: 10_000.0,
            trace_dropped: 0,
            trace_sinks: Vec::new(),
            entry_slos: Vec::new(),
            replay_shed_execs: 0,
            replay_shed_sends: 0,
            queue_ops: 200,
            arena_bytes: 0,
            alloc_bypass: 0,
            windows_executed: 10,
            barriers_waited: 0,
            barriers_elided: 0,
            avg_window_width: 1000.0,
        }
    }

    #[test]
    fn a_clean_summary_passes() {
        let mut c = Checks::default();
        c.summary_invariants("seq", &summary(), false, 1);
        let mut p = summary();
        p.barriers_waited = 7;
        p.barriers_elided = 20;
        c.summary_invariants("par", &p, true, 2);
        assert_eq!((c.run(), c.failed()), (7, 0));
        assert_eq!(
            c.outputs_run(),
            0,
            "counter invariants are not output checks"
        );
    }

    #[test]
    fn flags_the_elided_barrier_blow_up() {
        let mut s = summary();
        s.barriers_elided = 1.03e16 as u64;
        let mut c = Checks::default();
        c.summary_invariants("pingpipe@2T", &s, true, 2);
        assert_eq!(c.failed(), 1, "elided > windows x shards must fail");
        let mut c = Checks::default();
        c.summary_invariants("seq", &s, false, 1);
        assert_eq!(
            c.failed(),
            2,
            "a sequential run must also report no elisions"
        );
    }

    #[test]
    fn flags_window_and_queue_violations() {
        let mut s = summary();
        s.avg_window_width = 2e6;
        s.queue_ops = 99;
        let mut c = Checks::default();
        c.summary_invariants("bad", &s, false, 1);
        assert_eq!((c.run(), c.failed()), (4, 2));
    }

    #[test]
    fn fail_and_pass_fractions() {
        let mut c = Checks::default();
        assert_eq!((c.fail_frac(), c.pass_frac()), (0.0, 0.0));
        for i in 0..6 {
            c.check(i % 3 != 0, || format!("output {i}"));
        }
        c.invariant(true, || "invariant".into());
        c.invariant(false, || "invariant".into());
        assert_eq!((c.run(), c.failed()), (8, 3));
        assert_eq!((c.outputs_run(), c.outputs_failed()), (6, 2));
        assert_eq!(c.fail_frac(), 0.375);
        assert_eq!(c.pass_frac(), 0.625);
    }
}
