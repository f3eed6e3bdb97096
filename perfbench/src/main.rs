//! charm-rs benchmark: host time-to-result of four workloads, checked for
//! correctness on every run, with a separate traced run that reports
//! per-layer metrics. See `README.md` in this directory.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pingpipe|leanmd-2t|kv-observed|stencil-wide> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod alloc;
mod checks;
mod harness;
mod host;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed reserved for confirming a claimed gain: never use it while
/// tuning a change.
const HELD_OUT_SEED: u64 = 1001;

/// Where span logs and scratch files go (inside this package, ignored by git).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
    }
    dir
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::NAMES
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut w = workloads::make(&args.workload, args.seed).expect("workload name checked");
    let out = harness::measure(w.as_mut(), &args.workload, args.seconds as f64, args.trace);

    println!(
        "{{\"host\": {{\"host_cores\": {}, \"cpu_model\": \"{}\", \"commit\": \"{}\", \"profile\": \"{}\", \"steal_frac\": {}, \"calib_s\": {}, \"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"trace\": {}}}}}",
        host::host_cores(),
        host::cpu_model().replace(['"', '\\'], ""),
        host::commit(),
        host::profile(),
        out.steal,
        out.calib_s,
        args.workload,
        args.seed,
        args.trace,
    );
    if args.trace {
        let path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::write(&path, spans::to_jsonl(&out.spans.spans())) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        println!("{:<36} {:>22} {}", m.name, v, m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    let bad: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    let mut checks = out.checks;
    checks.check(bad.is_empty(), || format!("non-finite metrics: {bad:?}"));
    println!(
        "checks: {} run, {} failed; output checks: {} run, {} failed",
        checks.run(),
        checks.failed(),
        checks.outputs_run(),
        checks.outputs_failed()
    );
    // `correct`, `attempted` and `failed` cover output checks; counter
    // invariant violations show in `check_pass_frac` and on stderr.
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        checks.outputs_failed() == 0,
        checks.outputs_run(),
        checks.outputs_failed()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments() {
        let a = parse("--workload kv-observed --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kv-observed", 3, 10, true)
        );
        assert!(parse("--workload nope --seed 3 --seconds 10").is_err());
        assert!(parse("--workload pingpipe --seed x --seconds 10").is_err());
        assert!(parse("--workload pingpipe --seed 1 --seconds 0").is_err());
        assert!(parse("--workload pingpipe --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload pingpipe --seconds 5").is_err());
    }
}
