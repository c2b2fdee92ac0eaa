//! `perfbench`: the operator-path benchmark (see `README.md`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run stamp (core count, stolen CPU, wall and CPU seconds and
//! operations per stage) and then, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and the metrics by name
//! with their units: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

mod check;
mod pipeline;
mod sys;
mod workloads;

use std::time::Instant;

use obs::json::Value;

use crate::pipeline::Outcome;
use crate::workloads::Workload;

/// What the run stamp records about the host.
struct Host {
    /// Cores available before pinning.
    nproc: usize,
    /// The CPU the run was pinned to.
    pinned_cpu: Option<usize>,
    /// Host-wide stolen CPU during the run.
    steal_ticks: u64,
    /// Wall seconds of the run.
    wall_s: f64,
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let usage =
        "usage: perfbench --workload <name> [--seed <n>] [--seconds <1-600>] [--trace <0|1>]";
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut serve_child) = (1u64, 10.0, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--serve-child" {
            serve_child = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
        let bad = || format!("bad value '{value}' for {flag}\n{usage}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}'; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'\n{usage}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{usage}"))?,
        seed,
        seconds,
        trace,
        serve_child,
    })
}

fn stamp(args: &Args, outcome: &Outcome, host: &Host) -> Value {
    let stages = outcome
        .stages
        .iter()
        .map(|s| {
            Value::object(vec![
                ("name", Value::from(s.name)),
                ("wall_s", Value::from(s.time.wall_s)),
                ("cpu_s", Value::from(s.time.cpu_s)),
                ("attempted", Value::from(s.attempted)),
                ("failed", Value::from(s.failed)),
            ])
        })
        .collect();
    let checks = &outcome.checks;
    Value::object(vec![(
        "stamp",
        Value::object(vec![
            ("workload", Value::from(args.workload.name)),
            ("seed", Value::from(args.seed)),
            ("trace", Value::from(args.trace)),
            ("nproc", Value::from(host.nproc)),
            (
                "pinned_cpu",
                host.pinned_cpu.map_or(Value::Null, Value::from),
            ),
            (
                "steal_s",
                Value::from(host.steal_ticks as f64 * sys::TICK_S),
            ),
            ("wall_s", Value::from(host.wall_s)),
            ("stages", Value::Array(stages)),
            ("checks_attempted", Value::from(checks.attempted)),
            ("checks_failed", Value::from(checks.failed)),
            (
                "first_failure",
                checks
                    .first_failure
                    .as_deref()
                    .map_or(Value::Null, Value::from),
            ),
            (
                "report",
                outcome.report.as_deref().map_or(Value::Null, Value::from),
            ),
        ]),
    )])
}

fn result(outcome: &Outcome) -> Value {
    // Operations are every stage's but the check pass's; a failed check
    // makes the run incorrect instead.
    let ops = outcome.stages.iter().filter(|s| s.name != "check");
    let attempted: u64 = ops.clone().map(|s| s.attempted).sum();
    let failed: u64 = ops.map(|s| s.failed).sum();
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                Value::object(vec![
                    ("value", Value::from(m.value)),
                    ("unit", Value::from(m.unit)),
                ]),
            )
        })
        .collect();
    Value::object(vec![
        ("correct", Value::from(outcome.checks.failed == 0)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", Value::object(metrics)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    if args.serve_child {
        println!("{}", pipeline::serve_child(args.workload, args.seed)?);
        return Ok(());
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned_cpu = sys::pin_here();
    let steal = sys::steal_ticks();
    let wall = Instant::now();
    let outcome = pipeline::run(args.workload, args.seed, args.seconds, args.trace)?;
    let host = Host {
        nproc,
        pinned_cpu,
        steal_ticks: sys::steal_ticks().saturating_sub(steal),
        wall_s: wall.elapsed().as_secs_f64(),
    };
    for m in &outcome.metrics {
        eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(failure) = &outcome.checks.first_failure {
        eprintln!(
            "perfbench: {} checks failed; first: {failure}",
            outcome.checks.failed
        );
    }
    println!("{}", stamp(&args, &outcome, &host));
    println!("{}", result(&outcome));
    Ok(())
}
