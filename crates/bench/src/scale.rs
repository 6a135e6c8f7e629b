//! Internet-scale traffic benchmark (`figures -- scale`): the serial
//! event core, interned zero-alloc PHVs, and sharded flow engine driving
//! the paper's Fig. 14 traffic block **unscaled** — ~370 K Pareto-sized
//! flows (~9 M packets) over 20 s of virtual time — across a leaf–spine
//! fabric with exact-match IP routing on every switch.
//!
//! Three measurements come out of one invocation:
//!
//! 1. **Headline throughput** — the full flow block on the new engine,
//!    reported as injected packets per wall-clock second plus the flow
//!    engine's own gauges (batching, pending events, arena bytes), stamped
//!    with the host it ran on.
//! 2. **Engine speedup** — the same full block driven the pre-refactor
//!    way: one boxed closure per packet arrival scheduled on a
//!    `BinaryHeap`, a [`PacketDesc`] materialized per injection,
//!    string-described PHVs rebuilt at every wire hop, and the
//!    historical per-packet costs re-enabled switch-side via
//!    [`Simulator::set_legacy_compat`] (string-resolved intrinsics,
//!    header-walk frame lengths, mutexed telemetry checks, full port
//!    scans per pump). The replica's throughput was validated against a
//!    build of the actual pre-refactor tree driving this same block
//!    (within 10%). The acceptance bar is ≥ 5×.
//! 3. **Determinism** — two runs of the calibration subset must produce
//!    byte-identical FNV-1a fingerprints over every per-switch transmit
//!    counter and fabric-exit packet.
//!
//! `MANTIS_FLOWS` overrides the flow count (hardened via
//! [`mantis::flows_from_env`]); `MANTIS_BENCH_QUICK=1` shrinks the block
//! for CI while keeping every section of the output populated.

use netsim::{
    scale_totals, spawn_scale_flows, ScaleConfig, ScaleHost, Simulator, Topology, HOST_PORTS,
};
use p4_ast::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmt_sim::{
    switch_from_source, Clock, KeyField, PacketDesc, PortId, SharedSwitch, SwitchConfig,
};
use serde::Serialize;
use std::time::Instant;

/// Routing program every fabric switch runs: exact-match on the packet's
/// destination address, forwarding to a host port (leaves) or a downlink
/// (spines). Misses drop at ingress admission.
const ROUTE_P4: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
action fwd(port) { modify_field(intr.egress_spec, port); }
action to_drop() { drop(); }
table route {
    reads { ip.dst : exact; }
    actions { fwd; to_drop; }
    default_action : to_drop();
    size : 128;
}
control ingress { apply(route); }
"#;

/// Fabric shape (4×4 leaf–spine, every leaf fully populated with hosts).
const LEAVES: usize = 4;
const SPINES: usize = 4;

/// One engine run's measurement.
#[derive(Clone, Debug, Serialize)]
pub struct ScaleRun {
    pub flows: u64,
    /// Packets the schedule planned (sum of per-flow Pareto sizes).
    pub planned_pkts: u64,
    /// Packets actually handed to a switch.
    pub injected_pkts: u64,
    /// Packets accepted at ingress admission.
    pub accepted_pkts: u64,
    pub virtual_secs: f64,
    pub wall_secs: f64,
    /// Injected packets per wall-clock second — the headline metric.
    pub pkts_per_sec: f64,
    pub fingerprint: String,
}

/// Flow-engine gauges snapshotted after the headline run (the same values
/// `netsim.scale.*` telemetry gauges publish in scale scenarios).
#[derive(Clone, Debug, Serialize)]
pub struct ScaleGauges {
    pub shards: usize,
    pub batches: u64,
    pub max_batch: u64,
    pub mean_batch: f64,
    /// Events still queued when the run ended.
    pub pending_events: usize,
    pub arena_bytes: u64,
}

/// Everything `figures -- scale` reports (`"scale"` in `BENCH_perf.json`).
#[derive(Clone, Debug, Serialize)]
pub struct ScaleBenchResult {
    /// Host cores, CPU, rustc and git revision of the measuring build.
    pub host: String,
    pub leaves: usize,
    pub spines: usize,
    pub hosts: usize,
    pub quick: bool,
    /// The full-block run on the new engine.
    pub headline: ScaleRun,
    /// Calibration subset on the new engine; run twice for the
    /// determinism check.
    pub calibration: ScaleRun,
    /// The *same full block* as `headline`, driven the pre-refactor way:
    /// one boxed closure per packet, string-described PHVs at every wire
    /// hop, and every historical per-packet cost re-enabled
    /// (`Simulator::set_legacy_compat`).
    pub baseline: ScaleRun,
    /// `headline.pkts_per_sec / baseline.pkts_per_sec`, both measured on
    /// the full block — ≥ 5 is the acceptance bar for the engine
    /// refactor.
    pub engine_speedup: f64,
    /// Two runs of the calibration subset produced byte-identical
    /// fingerprints.
    pub deterministic: bool,
    pub gauges: ScaleGauges,
}

/// Incremental FNV-1a (64-bit) — enough to witness byte-identity.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Host `h` behind leaf `l` (addresses start at 1 so a miss on the
/// all-zeros template default can never silently match).
fn host_addr(leaf: usize, h: usize) -> u64 {
    (leaf * HOST_PORTS as usize + h + 1) as u64
}

fn hosts() -> Vec<ScaleHost> {
    let mut out = Vec::new();
    for leaf in 0..LEAVES {
        for h in 0..HOST_PORTS as usize {
            out.push(ScaleHost {
                switch: leaf,
                port: h as PortId,
                addr: host_addr(leaf, h),
            });
        }
    }
    out
}

/// Build the routed leaf–spine fabric. Every switch knows every host:
/// leaves forward local hosts to their port and remote hosts up to the
/// spine picked by destination address; spines forward down to the
/// owning leaf.
fn build_fabric() -> Simulator {
    let clock = Clock::new();
    let mut switches = Vec::with_capacity(LEAVES + SPINES);
    for _ in 0..LEAVES + SPINES {
        let sw = switch_from_source(ROUTE_P4, SwitchConfig::default(), clock.clone())
            .expect("scale route program compiles");
        switches.push(SharedSwitch::new(sw));
    }
    for (i, handle) in switches.iter().enumerate() {
        let mut sw = handle.borrow_mut();
        let t = sw.table_id("route").expect("route table");
        let a = sw.action_id("fwd").expect("fwd action");
        for leaf in 0..LEAVES {
            for h in 0..HOST_PORTS as usize {
                let addr = host_addr(leaf, h);
                let port = if i < LEAVES {
                    if leaf == i {
                        h as u64
                    } else {
                        u64::from(Topology::leaf_uplink_port((addr % SPINES as u64) as usize))
                    }
                } else {
                    u64::from(Topology::spine_downlink_port(leaf))
                };
                sw.table_add(
                    t,
                    vec![KeyField::Exact(Value::new(u128::from(addr), 32))],
                    0,
                    a,
                    vec![Value::new(u128::from(port), 64)],
                )
                .expect("route installs");
            }
        }
    }
    let mut sim = Simulator::fabric(switches, Topology::leaf_spine(LEAVES, SPINES));
    // Exit packets are counted and hashed as they stream; no need to keep
    // millions of them resident.
    sim.tx_log_cap = 1 << 16;
    sim
}

fn fingerprint(sim: &mut Simulator) -> String {
    let mut h = Fnv::new();
    for i in 0..sim.num_switches() {
        h.u64(sim.tx_count_on(i));
        h.u64(sim.tx_bytes_on(i));
    }
    for (sw, pkt) in sim.take_tx_tagged() {
        h.u64(sw as u64);
        h.u64(u64::from(pkt.port));
        h.u64(pkt.time);
    }
    format!("{:016x}", h.0)
}

fn scale_cfg(flows: u64, duration_ns: u64) -> ScaleConfig {
    ScaleConfig {
        seed: 14, // Fig. 14's block
        flows: u32::try_from(flows).expect("flow count fits u32"),
        duration_ns,
        payload_bytes: 700,
        ..Default::default()
    }
}

/// Run the sharded template engine once and measure it.
fn run_engine(cfg: &ScaleConfig) -> (ScaleRun, ScaleGauges) {
    let mut sim = build_fabric();
    let planned = spawn_scale_flows(&mut sim, cfg, &hosts()).expect("scale flows spawn");
    let t0 = Instant::now();
    // Margin past the last arrival so in-flight packets cross the fabric.
    sim.run_until(cfg.duration_ns + 100_000);
    let wall_secs = t0.elapsed().as_secs_f64();
    let totals = scale_totals(&sim);
    let gauges = ScaleGauges {
        shards: totals.shards,
        batches: totals.batches,
        max_batch: totals.max_batch,
        mean_batch: totals.injected_pkts as f64 / totals.batches.max(1) as f64,
        pending_events: sim.pending_events(),
        arena_bytes: sim.arena_bytes(),
    };
    let run = ScaleRun {
        flows: u64::from(cfg.flows),
        planned_pkts: planned,
        injected_pkts: totals.injected_pkts,
        accepted_pkts: totals.accepted_pkts,
        virtual_secs: cfg.duration_ns as f64 / 1e9,
        wall_secs,
        pkts_per_sec: totals.injected_pkts as f64 / wall_secs.max(1e-9),
        fingerprint: fingerprint(&mut sim),
    };
    (run, gauges)
}

/// One closure-chain flow of the legacy driver.
struct LegacyFlow {
    switch: usize,
    port: PortId,
    src: u64,
    dst: u64,
    remaining: u32,
    gap: u64,
}

/// Run the same schedule the pre-refactor way: one boxed closure per
/// packet arrival, each materializing a fresh [`PacketDesc`] (string
/// header/field names, per-packet `HashMap` PHV build). The flow list is
/// generated with the same RNG discipline as [`spawn_scale_flows`] so the
/// two engines face identical traffic.
fn run_legacy(cfg: &ScaleConfig, hosts: &[ScaleHost]) -> ScaleRun {
    let tick = cfg.tick_ns.max(1);
    let duration = cfg.duration_ns.max(tick);
    let min_pkts = cfg.min_pkts.max(1);
    let max_pkts = cfg.max_pkts.max(min_pkts);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut planned = 0u64;
    let mut starts: Vec<(u64, LegacyFlow)> = Vec::with_capacity(cfg.flows as usize);
    for _ in 0..cfg.flows {
        let s = rng.gen_range(0..hosts.len());
        let mut d = rng.gen_range(0..hosts.len() - 1);
        if d >= s {
            d += 1;
        }
        let (src, dst) = (hosts[s], hosts[d]);
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let raw = f64::from(min_pkts) * u.powf(-1.0 / cfg.pareto_alpha.max(0.1));
        let count = if raw >= f64::from(max_pkts) {
            max_pkts
        } else {
            (raw as u32).clamp(min_pkts, max_pkts)
        };
        let start = rng.gen_range(0..duration) / tick * tick;
        let gap = if count > 1 {
            let span_ticks = (duration - start) / tick / u64::from(count - 1);
            rng.gen_range(1..=span_ticks.max(1)) * tick
        } else {
            tick
        };
        planned += u64::from(count);
        starts.push((
            start,
            LegacyFlow {
                switch: src.switch,
                port: src.port,
                src: src.addr,
                dst: dst.addr,
                remaining: count,
                gap,
            },
        ));
    }

    let mut sim = build_fabric();
    // Full pre-refactor mechanics: string-describe + rebuild per wire hop,
    // pump every switch after every event, and the historical per-packet
    // switch costs (string intrinsics, header-walk lengths, mutexed
    // telemetry checks, unmasked pumps).
    sim.set_legacy_compat(true);
    let injected = std::rc::Rc::new(std::cell::Cell::new((0u64, 0u64)));
    let payload = cfg.payload_bytes;
    let (header, src_f, dst_f) = (
        cfg.header.clone(),
        cfg.src_field.clone(),
        cfg.dst_field.clone(),
    );
    for (start, flow) in starts {
        let counters = injected.clone();
        let (header, src_f, dst_f) = (header.clone(), src_f.clone(), dst_f.clone());
        sim.schedule(start, move |s| {
            legacy_send(s, flow, counters, payload, header, src_f, dst_f);
        });
    }
    let t0 = Instant::now();
    sim.run_until(cfg.duration_ns + 100_000);
    let wall_secs = t0.elapsed().as_secs_f64();
    let (inj, acc) = injected.get();
    ScaleRun {
        flows: u64::from(cfg.flows),
        planned_pkts: planned,
        injected_pkts: inj,
        accepted_pkts: acc,
        virtual_secs: cfg.duration_ns as f64 / 1e9,
        wall_secs,
        pkts_per_sec: inj as f64 / wall_secs.max(1e-9),
        fingerprint: fingerprint(&mut sim),
    }
}

/// One packet of a legacy closure-chain flow: materialize a fresh
/// [`PacketDesc`], inject it, and box the next closure in the chain.
fn legacy_send(
    s: &mut Simulator,
    mut flow: LegacyFlow,
    counters: std::rc::Rc<std::cell::Cell<(u64, u64)>>,
    payload: u32,
    header: String,
    src_f: String,
    dst_f: String,
) {
    let desc = PacketDesc::new(flow.port)
        .field(&header, &src_f, u128::from(flow.src))
        .field(&header, &dst_f, u128::from(flow.dst))
        .payload(payload);
    let ok = s.switch_at(flow.switch).borrow_mut().inject(&desc);
    let (inj, acc) = counters.get();
    counters.set((inj + 1, acc + u64::from(ok)));
    flow.remaining -= 1;
    if flow.remaining > 0 {
        let at = s.now() + flow.gap;
        s.schedule(at, move |s| {
            legacy_send(s, flow, counters, payload, header, src_f, dst_f);
        });
    }
}

/// Run the scale benchmark. `quick` trims the block for CI; the full run
/// reproduces Fig. 14's ~370 K flows over 20 s of virtual time.
pub fn run(quick: bool) -> ScaleBenchResult {
    let (default_flows, duration_ns) = if quick {
        (8_000u64, 400_000_000u64)
    } else {
        (370_000, 20_000_000_000)
    };
    let flows = mantis::flows_from_env(default_flows);
    let full = scale_cfg(flows, duration_ns);
    let calib = scale_cfg((flows / 8).max(500), duration_ns / 8);

    // Determinism on the calibration subset: two runs of one seed.
    let (calibration, _) = run_engine(&calib);
    let (repeat, _) = run_engine(&calib);
    let deterministic = calibration.fingerprint == repeat.fingerprint
        && calibration.injected_pkts == repeat.injected_pkts;
    assert!(
        deterministic,
        "scale runs disagree: {} vs {}",
        calibration.fingerprint, repeat.fingerprint
    );

    // Engine speedup: old engine vs new engine on the *identical* full
    // block. Measuring the baseline at a reduced scale would flatter it —
    // the pre-refactor heap of boxed per-packet closures degrades as the
    // pending-event set outgrows the cache, and that degradation at
    // ~370 K pending events is precisely what the sharded flow engine
    // removes: it keeps about ten events pending.
    let baseline = run_legacy(&full, &hosts());

    let (headline, gauges) = run_engine(&full);
    let engine_speedup = headline.pkts_per_sec / baseline.pkts_per_sec.max(1e-9);

    ScaleBenchResult {
        host: host_stamp(),
        leaves: LEAVES,
        spines: SPINES,
        hosts: LEAVES * HOST_PORTS as usize,
        quick,
        headline,
        calibration,
        baseline,
        engine_speedup,
        deterministic,
        gauges,
    }
}

/// One line naming the host and build a run was measured on.
fn host_stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let run = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let rustc = run("rustc", &["--version"]);
    let rev = run("git", &["describe", "--always", "--dirty", "--abbrev=12"]);
    format!("cores={cores} cpu=\"{cpu}\" rustc=\"{rustc}\" git_rev={rev}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_bench_is_deterministic_and_fast() {
        std::env::remove_var("MANTIS_FLOWS");
        let r = run(true);
        assert!(r.deterministic);
        assert_eq!(r.headline.planned_pkts, r.headline.injected_pkts);
        assert!(r.headline.accepted_pkts > 0);
        // Same seed and block → headline and baseline saw the exact same
        // traffic plan, so the speedup ratio compares like with like.
        // (Exit *order* may differ between engines when same-tick packets
        // share a switch, so fingerprints aren't compared across engines —
        // only across repeated runs.)
        assert_eq!(r.headline.planned_pkts, r.baseline.planned_pkts);
        assert_eq!(r.headline.injected_pkts, r.baseline.injected_pkts);
        assert!(r.baseline.accepted_pkts > 0);
        assert!(r.gauges.shards == LEAVES);
        assert!(r.gauges.mean_batch >= 1.0);
    }
}
