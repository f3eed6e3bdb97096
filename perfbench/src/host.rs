//! Facts about the host a set of runs was measured on.

use std::path::Path;

/// Cumulative `(all ticks, steal ticks)` over every CPU, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_ticks(stat.lines().next()?)
}

fn parse_cpu_ticks(line: &str) -> Option<(u64, u64)> {
    let mut it = line.split_whitespace();
    if it.next()? != "cpu" {
        return None;
    }
    let fields: Vec<u64> = it.map(|f| f.parse().ok()).collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted inside user and nice.
    let steal = *fields.get(7)?;
    Some((fields.iter().take(8).sum(), steal))
}

/// Share of CPU ticks the hypervisor stole between two [`cpu_ticks`] reads.
pub fn steal_frac(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The measured commit: the `HEAD` of a git checkout in the working
/// directory, else `"unknown"` (the benchmark also runs from plain source
/// trees).
pub fn commit() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Cargo profile the benchmark binary was built with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let l = "cpu  100 5 50 800 10 1 2 32 7 0";
        assert_eq!(parse_cpu_ticks(l), Some((1000, 32)));
        assert_eq!(parse_cpu_ticks("cpu0 1 2 3 4 5 6 7 8"), None);
        let f = steal_frac(Some((1000, 32)), Some((2000, 82)));
        assert!((f - 0.05).abs() < 1e-12);
        assert_eq!(steal_frac(None, Some((1, 1))), 0.0);
    }
}
