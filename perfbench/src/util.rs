//! Measurement helpers shared by every workload: summary statistics, an
//! FNV-1a fingerprint, resident-memory samples, the host stamp and the
//! reaction-VM probe.

use mantis::reaction_interp::{CompiledReaction, MockEnv};
use mantis::{compile_source, CompilerOptions};
use std::process::Command;
use std::time::{Duration, Instant};

/// Runs of each reaction on a `MockEnv` in the VM probe.
pub const VM_RUNS: usize = 20_000;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The 90th percentile of per-round costs: the rounds of the contended
/// floor of a shared host. Rounds there split into that floor and faster
/// periods when other tenants leave the memory system alone; the share of
/// fast periods changes from run to run and moves the median with it,
/// while the floor repeats. (A throughput takes the 10th percentile.)
pub fn slow_decile(costs: &[f64]) -> f64 {
    quantile(costs, 0.9)
}

/// `num / den`, or 0 when the denominator is 0 (an idle layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run `f` and return its result with the host time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Incremental FNV-1a (64-bit): enough to witness that two runs produced
/// byte-identical output.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Resident set size of this process in MiB (`VmRSS`), or 0 where
/// `/proc` is unavailable. The kernel brings `VmHWM` up to date lazily, so
/// a peak is taken as the largest of these samples instead.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

/// One line naming the host and build a result was measured on.
pub fn host_stamp(workers: usize, driver: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a git work tree has a revision; never
    // let git search the directories above it.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host cores={cores} cpu=\"{cpu}\" rustc=\"{rustc}\" git_rev={rev} workers={workers} driver={driver}"
    )
}

/// Host ns per VM dispatch of each of the program's reactions, run on a
/// `MockEnv` whose measurements move between runs.
pub fn vm_ns_per_dispatch(srcs: &[&str]) -> f64 {
    let mut busy = Duration::ZERO;
    let mut dispatches = 0u64;
    for src in srcs {
        let comp = compile_source(src, &CompilerOptions::default()).expect("compiles");
        for binding in &comp.iface.reactions {
            let body =
                mantis::p4r_lang::creact::parse_body(&binding.body_src).expect("body parses");
            let mut vm = CompiledReaction::compile(&body).expect("reaction compiles to the VM");
            let mut env = MockEnv::default();
            for v in &comp.iface.values {
                env.mbls.insert(v.name.clone(), v.init.bits() as i128);
            }
            for f in &comp.iface.fields {
                env.mbls.insert(f.name.clone(), 0);
            }
            for run in 0..VM_RUNS as i128 {
                env.builtins.insert("now_us".into(), 20 * run);
                for (i, f) in binding.fields.iter().enumerate() {
                    env.scalars
                        .insert(f.binding.clone(), 1 + (run + i as i128) % 64);
                }
                for (i, r) in binding.registers.iter().enumerate() {
                    let len = (r.hi - r.lo + 1) as usize;
                    let vals = (0..len)
                        .map(|j| (run * 1_000 + (i * 7 + j * 13) as i128 * run) % (1 << 30))
                        .collect();
                    env.arrays
                        .insert(r.binding.clone(), (i128::from(r.lo), vals));
                }
                env.table_ops.clear();
                let before = vm.dispatch_count();
                let t0 = Instant::now();
                // Errors (out-of-range indices and the like) still count the
                // ops dispatched before them.
                let _ = vm.run(&mut env);
                busy += t0.elapsed();
                dispatches += vm.dispatch_count() - before;
            }
        }
    }
    ratio(busy.as_nanos() as f64, dispatches as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_of_idle_layer_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
