//! Host-time spans recorded around calls into the program's public API.
//!
//! A span has a name, a start and end (ns since the recorder was created),
//! the span that was open when it started (its parent) and the repetition
//! ("run") it belongs to. Spans stay in memory and are written out when the
//! benchmark ends. Recording is off in untraced runs: the handle is then
//! empty and [`Spans::span`] only calls through.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Log {
    origin: Instant,
    run: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

/// Shared handle to the span log (cheap to clone; the `Strategy` wrapper
/// holds one inside the runtime).
#[derive(Clone, Default)]
pub struct Spans(Option<Arc<Mutex<Log>>>);

impl Spans {
    /// A recorder that keeps spans.
    pub fn on() -> Self {
        Spans(Some(Arc::new(Mutex::new(Log {
            origin: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }))))
    }

    /// A recorder that keeps nothing.
    pub fn off() -> Self {
        Spans(None)
    }

    /// Tag every span opened from now on with run id `run`.
    pub fn set_run(&self, run: u32) {
        if let Some(log) = &self.0 {
            log.lock().expect("span log poisoned").run = run;
        }
    }

    /// Run `f` inside a span called `name`. The lock is not held while `f`
    /// runs, so spans nest.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(log) = &self.0 else { return f() };
        let id = {
            let mut l = log.lock().expect("span log poisoned");
            let id = l.spans.len() as u32;
            let span = Span {
                id,
                parent: l.open.last().copied(),
                run: l.run,
                name,
                start_ns: l.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
            };
            l.spans.push(span);
            l.open.push(id);
            id
        };
        let out = f();
        let mut l = log.lock().expect("span log poisoned");
        let now = l.origin.elapsed().as_nanos() as u64;
        l.spans[id as usize].end_ns = now;
        l.open.pop();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map(|log| log.lock().expect("span log poisoned").spans.clone())
            .unwrap_or_default()
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// covered by its child spans (overlapping children count once).
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let Some(me) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    me.dur_ns().saturating_sub(covered)
}

/// Total duration of the spans called `name` in run `run`.
pub fn total_ns(spans: &[Span], run: u32, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.run == run && s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.run, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "run", 0, 100),
            span(1, Some(0), "lb.assign", 10, 30),
            span(2, Some(0), "lb.assign", 20, 40), // overlaps span 1
            span(3, Some(0), "lb.assign", 90, 120), // runs past the parent
            span(4, Some(1), "inner", 12, 14),     // grandchild: not subtracted again
            span(5, None, "other", 40, 90),        // not a child
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 2);
        assert_eq!(self_time_ns(&spans, 5), 50);
        assert_eq!(total_ns(&spans, 0, "lb.assign"), 20 + 20 + 30);
    }

    #[test]
    fn recorder_nests_and_tags_runs() {
        let s = Spans::on();
        s.set_run(7);
        s.span("outer", || s.span("inner", || ()));
        let v = s.spans();
        assert_eq!(v.len(), 2);
        assert_eq!((v[0].name, v[0].parent, v[0].run), ("outer", None, 7));
        assert_eq!((v[1].name, v[1].parent), ("inner", Some(0)));
        assert!(v[0].start_ns <= v[1].start_ns && v[1].end_ns <= v[0].end_ns);
        assert!(self_time_ns(&v, 0) <= v[0].dur_ns());
        assert!(Spans::off().spans().is_empty());
        assert_eq!(Spans::off().span("x", || 3), 3);
    }
}
