//! Host wall-clock benchmark of Mantis.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `fig14_fabric`, `dialogue_usecases`, `reactive_fabric_remote`
//! (see `README.md` next to this package). One process, one thread; the
//! simulator is pinned to one worker and no `MANTIS_*` environment
//! variable reaches the library.
//!
//! With `--trace 0` the run measures the end-to-end metrics through the
//! public facade. With `--trace 1` it alternates facade rounds with rounds
//! assembled call by call from the crates' public functions (each call
//! timed from here, drivers wrapped in a timing `DriverApi`) and with
//! rounds whose telemetry is disabled, and reports the per-layer metrics.
//!
//! Every metric is printed on its own line with unit and sample count.
//! The last line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Any failed correctness gate makes `correct` false and the
//! exit code 1.

mod dialogue;
mod fabric;
mod timed;
mod util;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [&str; 5] = [
    "ops_per_s",
    "op_us_p50",
    "op_us_p99",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics every workload reports with `--trace 1` (0 where the
/// layer is idle on that workload).
const PER_LAYER: [&str; 24] = [
    "netsim.run_s",
    "netsim.self_ns_per_pkt",
    "netsim.hops_per_pkt",
    "netsim.pending_events_max",
    "netsim.mean_batch",
    "netsim.spawn_ms",
    "rmt_sim.ns_per_hop",
    "rmt_sim.accept_frac",
    "rmt_sim.arena_bytes",
    "telemetry.overhead_frac",
    "compiler.compile_ms",
    "agent.prologue_ms",
    "agent.iter_host_us",
    "agent.driver_busy_frac",
    "agent.self_us_per_iter",
    "agent.staged_ops_per_iter",
    "agent.commit_frac",
    "agent.pacing_ratio",
    "vm.dispatch_per_iter",
    "vm.ns_per_dispatch",
    "control.frames_per_iter",
    "control.bytes_per_iter",
    "control.driver_us_per_iter",
    "trace.overhead_frac",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Trace,
}

/// How a round builds what it measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Build {
    /// The public facade (`Fabric`, `Testbed`) with its shipped telemetry
    /// registry.
    Facade,
    /// The facade with `Telemetry::disabled()` on every switch and agent.
    Quiet,
    /// The same composition assembled call by call from the crates' public
    /// functions, each call timed, drivers wrapped in a timing `DriverApi`.
    Traced,
}

/// Facade rounds until `seconds` have passed, at least three.
pub fn repeat<R>(seconds: f64, mut round: impl FnMut() -> R) -> Vec<R> {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        rounds.push(round());
    }
    rounds
}

/// The rounds of a traced run, by build.
pub struct Alternated<R> {
    pub facade: Vec<R>,
    pub traced: Vec<R>,
    pub quiet: Vec<R>,
}

/// Facade, traced and telemetry-disabled rounds in turn until `seconds`
/// have passed, at least two of each, so drift on the host hits each build
/// alike.
pub fn alternate<R>(seconds: f64, mut round: impl FnMut(Build) -> R) -> Alternated<R> {
    let t0 = Instant::now();
    let mut out = Alternated {
        facade: Vec::new(),
        traced: Vec::new(),
        quiet: Vec::new(),
    };
    while out.traced.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        out.facade.push(round(Build::Facade));
        out.traced.push(round(Build::Traced));
        out.quiet.push(round(Build::Quiet));
    }
    out
}

/// One reported number. `alias` is the workload-specific name of a
/// generic end-to-end metric (`ops_per_s` is `pkts_per_s` on a fabric and
/// `iters_per_s` on the dialogue loop); empty for per-layer metrics.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub alias: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarizes.
    pub n: usize,
}

impl Metric {
    pub fn new(
        name: &'static str,
        alias: &'static str,
        unit: &'static str,
        value: f64,
        n: usize,
    ) -> Metric {
        Metric {
            name,
            alias,
            unit,
            value,
            n,
        }
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness gates; any entry makes the run incorrect.
    pub violations: Vec<String>,
    pub notes: Vec<String>,
}

const WORKLOADS: [&str; 3] = [
    "fig14_fabric",
    "dialogue_usecases",
    "reactive_fabric_remote",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut mode = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: want a number in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                mode = Some(match value.as_str() {
                    "0" => Mode::Plain,
                    "1" => Mode::Trace,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        mode: mode.unwrap_or(Mode::Plain),
    })
}

fn json_number(v: f64) -> String {
    // `{}` on an f64 prints the shortest text that reads back exactly.
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() -> ExitCode {
    // Nothing in the environment may change what is measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MANTIS_") {
            std::env::remove_var(&key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    let driver = match args.workload.as_str() {
        "reactive_fabric_remote" => fabric::Kind::Reactive.driver_name(),
        _ => fabric::Kind::Fig14.driver_name(),
    };
    println!("# {}", util::host_stamp(1, driver));
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.mode == Mode::Trace)
    );

    let mut out = match args.workload.as_str() {
        "fig14_fabric" => fabric::run(fabric::Kind::Fig14, args.seed, args.seconds, args.mode),
        "reactive_fabric_remote" => {
            fabric::run(fabric::Kind::Reactive, args.seed, args.seconds, args.mode)
        }
        _ => dialogue::run(args.seed, args.seconds, args.mode),
    };

    let expected: &[&str] = match args.mode {
        Mode::Plain => &END_TO_END,
        Mode::Trace => &PER_LAYER,
    };
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    if names != expected {
        out.violations
            .push(format!("metric set {names:?} differs from {expected:?}"));
    }
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            out.violations
                .push(format!("{} is not a finite number", m.name));
            m.value = 0.0;
        }
        let shown = if m.alias.is_empty() || m.alias == m.name {
            m.name.to_string()
        } else {
            format!("{} ({})", m.alias, m.name)
        };
        println!("{shown:<40} {:>16.6} {:<6} n={}", m.value, m.unit, m.n);
    }
    println!(
        "{:<40} {:>16.6} {:<6} n={} ({} failed)",
        "failed_frac",
        util::ratio(out.failed as f64, out.attempted as f64),
        "frac",
        out.attempted,
        out.failed
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for v in &out.violations {
        println!("# GATE FAILED: {v}");
    }

    let correct = out.violations.is_empty();
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
