//! The two fabric workloads: `fig14_fabric` (data plane only) and
//! `reactive_fabric_remote` (paced remote agents beside the traffic).
//!
//! Both drive a seed-generated block shaped like the paper's Fig. 14
//! traffic (Pareto α = 1.3, 4–512 packets per flow, 700 B payloads) across
//! a 4×4 leaf–spine [`Fabric`] whose switches route on an exact-match
//! destination table. The block is open loop: every arrival time is fixed
//! when the schedule is generated, with no feedback from the fabric.

use crate::timed::{DriverClock, TimedDriver};
use crate::util::{median, quantile, ratio, slow_decile, timed, Fnv};
use crate::{alternate, repeat, Alternated, Build, Metric, Mode, Outcome};
use mantis::mantis_agent::LocalDriver;
use mantis::netsim::{scale_totals, spawn_scale_flows, ScaleConfig, ScaleHost, Simulator};
use mantis::p4_ast::Value;
use mantis::rmt_sim::{KeyField, PacketDesc, PacketTemplate, PortId};
use mantis::{
    compile_source, ChannelConfig, Clock, Compiled, CompilerOptions, CostModel, DriverMode, Fabric,
    MantisAgent, RemoteDriver, SharedSwitch, Switch, SwitchConfig, Telemetry, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exact-match destination routing: leaves forward local hosts to their
/// port and remote hosts to a spine, spines forward down to the owning
/// leaf. A miss drops at ingress.
const ROUTE_P4R: &str = r#"
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

/// [`ROUTE_P4R`] plus a malleable table and a malleable value that every
/// packet looks up after routing. The `retune` reaction rewrites both
/// whenever the switch's forwarded-packet counter moved since its last
/// run; neither changes where a packet goes.
const REACTIVE_P4R: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header_type meta_t { fields { tag : 16; bias : 16; } }
header ip_t ip;
metadata meta_t meta;
register seen { width : 64; instance_count : 1; }
action fwd(port) {
    modify_field(intr.egress_spec, port);
    count(seen, 0);
}
action to_drop() { drop(); }
table route {
    reads { ip.dst : exact; }
    actions { fwd; to_drop; }
    default_action : to_drop();
    size : 128;
}
malleable value bias { width : 16; init : 0; }
action stamp(v) { modify_field(meta.tag, v); }
action keep() { no_op(); }
malleable table shape {
    reads { ip.dst : exact; }
    actions { stamp; keep; }
    default_action : keep();
    size : 64;
}
action add_bias() { modify_field(meta.bias, ${bias}); }
table biasing { actions { add_bias; } default_action : add_bias(); }
reaction retune(reg seen[0:0]) {
    static uint64_t last = 0;
    static uint64_t have = 0;
    static uint64_t h = 0;
    uint64_t c = seen[0];
    if (c == last) { return 0; }
    last = c;
    ${bias} = c % 65536;
    if (have == 0) {
        h = shape.addEntry(0, 1, c % 65536);
        have = 1;
    } else {
        shape.modEntry(h, 0, c % 65536);
    }
    return 0;
}
control ingress {
    apply(route);
    apply(shape);
    apply(biasing);
}
"#;

const LEAVES: usize = 4;
const SPINES: usize = 4;
const HOST_PORTS: usize = mantis::netsim::HOST_PORTS as usize;
/// Fig. 14's flow density: 370 K flows over 20 s of virtual time.
const NS_PER_FLOW: u64 = 20_000_000_000 / 370_000;
/// `run_until` slices per round: each round's 99th percentile of
/// per-slice cost has 50 slices beyond it, so a few host stalls do not
/// set it.
const SLICES: u64 = 5_000;
/// Resident memory is sampled after set-up, every this many slices and
/// after the run.
const RSS_EVERY: usize = 250;
/// Virtual time past the last arrival so in-flight packets drain.
const MARGIN_NS: u64 = 100_000;
/// Agent pacing period `T_d` of `reactive_fabric_remote`.
const TD_NS: u64 = 5_000_000;
/// Packets the lone-switch replay pushes through `inject_template` + `pump`.
const REPLAY_PKTS: usize = 200_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Route program only; agents built but never started.
    Fig14,
    /// Reactive program, agents paced over zero-RTT remote drivers.
    Reactive,
}

impl Kind {
    fn src(self) -> &'static str {
        match self {
            Kind::Fig14 => ROUTE_P4R,
            Kind::Reactive => REACTIVE_P4R,
        }
    }

    /// Flows per round. Each leaf's materialized arrival schedule holds
    /// about `flows × 13.7 / 4` packets; both sizes keep that count in the
    /// middle of a power-of-two band for every seed, so the memory peak
    /// does not jump with the seed when a schedule vector doubles.
    fn flows(self) -> u32 {
        match self {
            Kind::Fig14 => 14_000,
            Kind::Reactive => 7_000,
        }
    }

    fn driver_mode(self) -> DriverMode {
        match self {
            Kind::Fig14 => DriverMode::Local,
            Kind::Reactive => DriverMode::Remote(ChannelConfig::default()),
        }
    }

    pub fn driver_name(self) -> &'static str {
        match self {
            Kind::Fig14 => "local",
            Kind::Reactive => "remote(rtt=0)",
        }
    }

    fn scale_cfg(self, seed: u64) -> ScaleConfig {
        let flows = self.flows();
        ScaleConfig {
            seed,
            flows,
            duration_ns: u64::from(flows) * NS_PER_FLOW,
            pareto_alpha: 1.3,
            min_pkts: 4,
            max_pkts: 512,
            payload_bytes: 700,
            ..ScaleConfig::default()
        }
    }
}

/// Host `h` behind leaf `l`; addresses start at 1 so the all-zero
/// template default never matches a route.
fn host_addr(leaf: usize, h: usize) -> u64 {
    (leaf * HOST_PORTS + h + 1) as u64
}

fn hosts() -> Vec<ScaleHost> {
    (0..LEAVES)
        .flat_map(|leaf| {
            (0..HOST_PORTS).map(move |h| ScaleHost {
                switch: leaf,
                port: h as PortId,
                addr: host_addr(leaf, h),
            })
        })
        .collect()
}

/// One generated flow: source and destination host indices, its size
/// and the virtual time of its last packet.
#[derive(Clone, Copy, Debug)]
struct Flow {
    src: usize,
    dst: usize,
    pkts: u32,
    last_at: u64,
}

/// The flows `spawn_scale_flows` generates for `cfg`, re-derived with the
/// same draw order (source, destination, size, start, gap) so the
/// benchmark knows how many packets each destination host must receive.
fn planned_flows(cfg: &ScaleConfig, n_hosts: usize) -> Vec<Flow> {
    let tick = cfg.tick_ns.max(1);
    let duration = cfg.duration_ns.max(tick);
    let min_pkts = cfg.min_pkts.max(1);
    let max_pkts = cfg.max_pkts.max(min_pkts);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut flows = Vec::with_capacity(cfg.flows as usize);
    for _ in 0..cfg.flows {
        let src = rng.gen_range(0..n_hosts);
        let mut dst = rng.gen_range(0..n_hosts - 1);
        if dst >= src {
            dst += 1;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let raw = f64::from(min_pkts) * u.powf(-1.0 / cfg.pareto_alpha.max(0.1));
        let pkts = if raw >= f64::from(max_pkts) {
            max_pkts
        } else {
            (raw as u32).clamp(min_pkts, max_pkts)
        };
        let start = rng.gen_range(0..duration) / tick * tick;
        let mut last_at = start;
        if pkts > 1 {
            let span_ticks = (duration - start) / tick / u64::from(pkts - 1);
            let gap = rng.gen_range(1..=span_ticks.max(1)) * tick;
            // A flow that starts late runs past `duration` at one tick per
            // packet.
            last_at = start.saturating_add(gap.saturating_mul(u64::from(pkts - 1)));
        }
        flows.push(Flow {
            src,
            dst,
            pkts,
            last_at,
        });
    }
    flows
}

/// Install every host route on every switch (directly on the device:
/// `route` is not malleable, so no agent owns it).
fn install_routes(sim: &Simulator) {
    for i in 0..sim.num_switches() {
        let mut sw = sim.switch_at(i).borrow_mut();
        install_routes_on(&mut sw, i);
    }
}

fn install_routes_on(sw: &mut Switch, i: usize) {
    let t = sw.table_id("route").expect("route table");
    let a = sw.action_id("fwd").expect("fwd action");
    for leaf in 0..LEAVES {
        for h in 0..HOST_PORTS {
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

/// Host time of each set-up step of a traced build.
#[derive(Clone, Copy, Debug, Default)]
struct SetupSplit {
    compile: Duration,
    prologue: Duration,
    spawn: Duration,
}

struct Rig {
    sim: Simulator,
    agents: Vec<Rc<RefCell<MantisAgent>>>,
    telemetry: Arc<Telemetry>,
    planned: u64,
    driver: DriverClock,
    split: SetupSplit,
}

fn build(kind: Kind, how: Build, cfg: &ScaleConfig) -> Rig {
    let n = LEAVES + SPINES;
    let topo = Topology::leaf_spine(LEAVES, SPINES);
    let driver = DriverClock::default();
    let mut split = SetupSplit::default();
    let (sim, agents, telemetry, planned) = match how {
        Build::Facade | Build::Quiet => {
            let srcs = vec![kind.src(); n];
            let mut f = Fabric::with_driver_mode(
                &srcs,
                topo,
                SwitchConfig::default(),
                CostModel::default(),
                kind.driver_mode(),
            )
            .expect("fabric builds");
            if how == Build::Quiet {
                for (i, agent) in f.agents.iter().enumerate() {
                    f.sim
                        .switch_at(i)
                        .borrow_mut()
                        .set_telemetry(Telemetry::disabled());
                    agent.borrow_mut().set_telemetry(Telemetry::disabled());
                }
            }
            let planned = prepare(kind, &mut f.sim, &f.agents, cfg, &mut split);
            if kind == Kind::Reactive {
                f.start_agents(TD_NS);
            }
            (f.sim, f.agents, f.telemetry, planned)
        }
        Build::Traced => {
            // Mirrors `Fabric::with_driver_mode` step by step.
            let clock = Clock::new();
            let telemetry = Telemetry::shared();
            let mut switches = Vec::with_capacity(n);
            let mut agents = Vec::with_capacity(n);
            for i in 0..n {
                let (comp, t) = timed(|| {
                    compile_source(kind.src(), &CompilerOptions::default()).expect("compiles")
                });
                split.compile += t;
                let spec = mantis::rmt_sim::load(&comp.p4).expect("loads");
                let switch =
                    SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock.clone()));
                {
                    let mut sw = switch.borrow_mut();
                    sw.set_telemetry(telemetry.clone());
                    sw.set_fabric_index(Some(i as u16));
                }
                let mut agent = new_agent(kind, &switch, &comp, &driver);
                agent.set_telemetry(telemetry.clone());
                agent.set_fabric_index(Some(i as u16));
                let (r, t) = timed(|| agent.prologue());
                r.expect("prologue");
                split.prologue += t;
                switches.push(switch);
                agents.push(Rc::new(RefCell::new(agent)));
            }
            let mut sim = Simulator::fabric(switches, topo);
            let planned = prepare(kind, &mut sim, &agents, cfg, &mut split);
            if kind == Kind::Reactive {
                // What `Fabric::start_agents` does with the fabric's agents.
                mantis::schedule_fabric_agents(&mut sim, &agents, TD_NS, 0);
            }
            (sim, agents, telemetry, planned)
        }
    };
    Rig {
        sim,
        agents,
        telemetry,
        planned,
        driver,
        split,
    }
}

/// The set-up shared by every build: one worker, reactions registered,
/// routes installed, flow schedule spawned. Returns the planned packets.
fn prepare(
    kind: Kind,
    sim: &mut Simulator,
    agents: &[Rc<RefCell<MantisAgent>>],
    cfg: &ScaleConfig,
    split: &mut SetupSplit,
) -> u64 {
    sim.set_workers(1);
    if kind == Kind::Reactive {
        for agent in agents {
            agent
                .borrow_mut()
                .register_all_interpreted()
                .expect("reaction registers");
        }
    }
    install_routes(sim);
    let (planned, t) = timed(|| spawn_scale_flows(sim, cfg, &hosts()).expect("flows spawn"));
    split.spawn = t;
    planned
}

fn new_agent(
    kind: Kind,
    switch: &SharedSwitch,
    comp: &Compiled,
    driver: &DriverClock,
) -> MantisAgent {
    match kind.driver_mode() {
        DriverMode::Local => {
            let inner = LocalDriver::new(switch.clone(), CostModel::default());
            MantisAgent::with_driver(comp, Box::new(TimedDriver::new(inner, driver.clone())))
        }
        DriverMode::Remote(chan) => {
            let plane = mantis::ControlPlane::shared(switch.clone(), CostModel::default());
            let inner = RemoteDriver::new(plane, chan);
            MantisAgent::with_driver(comp, Box::new(TimedDriver::new(inner, driver.clone())))
        }
    }
}

/// Everything one round measured and checked.
struct Round {
    setup: Duration,
    /// Host time of the whole slice loop (`run_until` plus exit drains).
    run: Duration,
    /// Host time inside `run_until` alone.
    run_until: Duration,
    /// Median and 99th percentile over the round's slices of host µs per
    /// injected packet, and how many slices injected any packet.
    slice_p50: f64,
    slice_p99: f64,
    slices: usize,
    /// Largest resident-memory sample (MiB) of the round, and how many
    /// samples were taken.
    rss_peak: f64,
    rss_samples: usize,
    injected: u64,
    planned: u64,
    hops: u64,
    pending_max: usize,
    mean_batch: f64,
    accepted: u64,
    arena_bytes: u64,
    fingerprint: u64,
    agent_prints: Vec<(u64, u64)>,
    iterations: u64,
    iteration_errors: u64,
    committed_ops: u64,
    reaction_failures: u64,
    frames: u64,
    bytes: u64,
    vm_dispatch: u64,
    virtual_ns: u64,
    driver: Duration,
    split: SetupSplit,
    failed_pkts: u64,
    violations: Vec<String>,
}

fn run_round(kind: Kind, how: Build, cfg: &ScaleConfig, flows: &[Flow]) -> Round {
    let t0 = Instant::now();
    let mut rig = build(kind, how, cfg);
    let setup = t0.elapsed();
    let mut rss_peak = crate::util::rss_mb();
    let mut rss_samples = 1;

    let host_list = hosts();
    let mut exits = vec![0u64; host_list.len()];
    let mut fnv = Fnv::default();
    let mut slice_pkt_us = Vec::new();
    let mut run_until = Duration::ZERO;
    let mut pending_max = 0usize;
    // Run until the last planned arrival has had time to cross the fabric.
    let last_at = flows.iter().map(|f| f.last_at).max().unwrap_or(0);
    let end = cfg.duration_ns.max(last_at) + MARGIN_NS;
    let slice_ns = end.div_ceil(SLICES);
    let mut now = 0;
    let t_run = Instant::now();
    while now < end {
        now = (now + slice_ns).min(end);
        let before = scale_totals(&rig.sim).injected_pkts;
        let s0 = Instant::now();
        rig.sim.run_until(now);
        run_until += s0.elapsed();
        for (sw, pkt) in rig.sim.take_tx_tagged() {
            let host = sw * HOST_PORTS + usize::from(pkt.port);
            if sw < LEAVES && usize::from(pkt.port) < HOST_PORTS {
                exits[host] += 1;
            }
            fnv.u64(sw as u64);
            fnv.u64(u64::from(pkt.port));
            fnv.u64(pkt.time);
            rig.sim.switch_at(sw).borrow_mut().recycle_phv(pkt.phv);
        }
        let slice = s0.elapsed();
        let injected = scale_totals(&rig.sim).injected_pkts - before;
        if injected > 0 {
            slice_pkt_us.push(slice.as_secs_f64() * 1e6 / injected as f64);
        }
        if how == Build::Traced {
            pending_max = pending_max.max(rig.sim.pending_events());
        }
        if slice_pkt_us.len() % RSS_EVERY == 0 {
            rss_peak = crate::util::rss_mb().max(rss_peak);
            rss_samples += 1;
        }
    }
    let run = t_run.elapsed();
    rss_peak = crate::util::rss_mb().max(rss_peak);
    rss_samples += 1;

    let totals = scale_totals(&rig.sim);
    let mut violations = Vec::new();
    let mut planned_exits = vec![0u64; host_list.len()];
    for f in flows {
        planned_exits[f.dst] += u64::from(f.pkts);
    }
    if planned_exits.iter().sum::<u64>() != rig.planned {
        violations.push(format!(
            "re-derived schedule plans {} packets, spawn_scale_flows planned {}",
            planned_exits.iter().sum::<u64>(),
            rig.planned
        ));
    }
    for (h, (&got, &want)) in exits.iter().zip(&planned_exits).enumerate() {
        if got != want {
            violations.push(format!("host {h}: {got} packets exited, {want} planned"));
        }
    }
    let mut hops = 0;
    let mut deliberate_drops = 0;
    let mut queue_drops = 0;
    for i in 0..rig.sim.num_switches() {
        fnv.u64(rig.sim.tx_count_on(i));
        fnv.u64(rig.sim.tx_bytes_on(i));
        let sw = rig.sim.switch_at(i).borrow();
        hops += sw.stats.rx;
        deliberate_drops += sw.stats.dropped_ingress;
        queue_drops += sw.stats.dropped_queue + sw.stats.dropped_port_down;
    }
    let exited: u64 = exits.iter().sum();
    let failed_pkts = rig.planned.saturating_sub(exited + deliberate_drops);
    if failed_pkts > 0 {
        violations.push(format!(
            "{failed_pkts} packets lost ({queue_drops} dropped by full queues or down ports)"
        ));
    }

    let mut agent_prints = Vec::new();
    let mut vm_dispatch = 0;
    let mut reaction_failures = 0;
    for (i, agent) in rig.agents.iter().enumerate() {
        let mut a = agent.borrow_mut();
        if let Err(e) = a.verify_config_atomicity() {
            violations.push(format!("switch {i}: {e}"));
        }
        agent_prints.push((a.config_fingerprint(), a.entry_fingerprint()));
        vm_dispatch += a.vm_dispatch_total();
        reaction_failures += a.stats().last.reaction_failures.len() as u64;
        let quarantined = a.quarantined_reactions();
        if !quarantined.is_empty() {
            violations.push(format!(
                "switch {i}: reactions quarantined: {quarantined:?}"
            ));
        }
    }

    // All agents of a fabric share one registry, so each counter is read
    // once for the whole fabric (summing `stats()` over agents would count
    // every iteration once per agent).
    let tel = &rig.telemetry;
    let counter = |name: &str| u64::try_from(tel.counter(name)).unwrap_or(0);
    let iterations = counter("agent.iterations");
    let committed_ops = counter("agent.staged_table_ops");
    if kind == Kind::Reactive && how != Build::Quiet && committed_ops == 0 {
        violations.push(format!(
            "no table op committed in {iterations} agent iterations"
        ));
    }
    if kind == Kind::Fig14 && iterations != 0 {
        violations.push(format!("{iterations} iterations ran on idle agents"));
    }

    Round {
        setup,
        run,
        run_until,
        slice_p50: quantile(&slice_pkt_us, 0.5),
        slice_p99: quantile(&slice_pkt_us, 0.99),
        slices: slice_pkt_us.len(),
        rss_peak,
        rss_samples,
        injected: totals.injected_pkts,
        planned: rig.planned,
        hops,
        pending_max,
        mean_batch: ratio(totals.injected_pkts as f64, totals.batches as f64),
        accepted: totals.accepted_pkts,
        arena_bytes: rig.sim.arena_bytes(),
        fingerprint: fnv.0,
        agent_prints,
        iterations,
        iteration_errors: counter("agent.paced_iteration_errors"),
        committed_ops,
        reaction_failures,
        frames: counter("control.frames"),
        bytes: counter("control.bytes"),
        vm_dispatch,
        virtual_ns: rig.sim.now(),
        driver: rig.driver.busy(),
        split: rig.split,
        failed_pkts,
        violations,
    }
}

/// Replay the workload's program and address mix on one lone leaf switch
/// through `inject_template` + `pump`: host ns per switch hop.
fn lone_switch_ns_per_hop(kind: Kind, flows: &[Flow]) -> f64 {
    let comp = compile_source(kind.src(), &CompilerOptions::default()).expect("compiles");
    let spec = mantis::rmt_sim::load(&comp.p4).expect("loads");
    let clock = Clock::new();
    let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock.clone()));
    {
        let mut sw = switch.borrow_mut();
        sw.set_telemetry(Telemetry::shared());
        sw.set_fabric_index(Some(0));
        install_routes_on(&mut sw, 0);
    }
    let mut agent = MantisAgent::new(switch.clone(), &comp, CostModel::default());
    agent.prologue().expect("prologue");

    let desc = PacketDesc::new(0)
        .field("ip", "src", 0)
        .field("ip", "dst", 0)
        .payload(700);
    let mut tmpl = PacketTemplate::compile(&desc, switch.borrow().spec()).expect("template");
    let host_list = hosts();
    let mut out = Vec::new();
    let mut sent = 0usize;
    let t0 = Instant::now();
    let mut sw = switch.borrow_mut();
    'replay: loop {
        for f in flows {
            for _ in 0..f.pkts {
                tmpl.set_value(0, u128::from(host_list[f.src].addr));
                tmpl.set_value(1, u128::from(host_list[f.dst].addr));
                tmpl.set_port(host_list[f.src].port);
                sw.inject_template(&tmpl);
                sent += 1;
                if sent.is_multiple_of(32) {
                    clock.advance(32 * sw.wire_time(728));
                    sw.pump();
                    sw.drain_transmitted_with_len(&mut out);
                    for (pkt, _) in out.drain(..) {
                        sw.recycle_phv(pkt.phv);
                    }
                }
                if sent == REPLAY_PKTS {
                    break 'replay;
                }
            }
        }
    }
    t0.elapsed().as_nanos() as f64 / sent as f64
}

/// The per-workload constants and gates shared by every round of one run.
struct Ctx {
    kind: Kind,
    cfg: ScaleConfig,
    flows: Vec<Flow>,
}

pub fn run(kind: Kind, seed: u64, seconds: f64, mode: Mode) -> Outcome {
    let cfg = kind.scale_cfg(seed);
    let ctx = Ctx {
        kind,
        flows: planned_flows(&cfg, LEAVES * HOST_PORTS),
        cfg,
    };
    match mode {
        Mode::Plain => run_plain(&ctx, seconds),
        Mode::Trace => run_traced(&ctx, seconds),
    }
}

/// Fold one round's gates and failure counts into the outcome, and check
/// that every round of the run saw byte-identical results.
fn account(out: &mut Outcome, first: &mut Option<(u64, Vec<(u64, u64)>)>, r: &Round, how: Build) {
    out.attempted += r.planned + r.iterations + r.iteration_errors;
    out.failed += r.failed_pkts + r.iteration_errors + r.reaction_failures;
    for v in &r.violations {
        out.violations.push(format!("{how:?} round: {v}"));
    }
    match first {
        None => *first = Some((r.fingerprint, r.agent_prints.clone())),
        Some((fp, prints)) => {
            if *fp != r.fingerprint {
                out.violations.push(format!(
                    "{how:?} round: drain fingerprint {:016x} differs from the first round's {fp:016x}",
                    r.fingerprint
                ));
            }
            if *prints != r.agent_prints {
                out.violations.push(format!(
                    "{how:?} round: agent config/entry fingerprints differ from the first round's"
                ));
            }
        }
    }
}

fn run_plain(ctx: &Ctx, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut first = None;
    let rounds = repeat(seconds, || {
        let r = run_round(ctx.kind, Build::Facade, &ctx.cfg, &ctx.flows);
        account(&mut out, &mut first, &r, Build::Facade);
        r
    });
    let n = rounds.len();
    let pps: Vec<f64> = rounds
        .iter()
        .map(|r| r.injected as f64 / r.run.as_secs_f64())
        .collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let of_rounds = |f: fn(&Round) -> f64| slow_decile(&rounds.iter().map(f).collect::<Vec<_>>());
    let slices = rounds.iter().map(|r| r.slices).sum();
    out.metrics = vec![
        Metric::new("ops_per_s", "pkts_per_s", "1/s", quantile(&pps, 0.1), n),
        Metric::new(
            "op_us_p50",
            "pkt_us_p50",
            "us",
            of_rounds(|r| r.slice_p50),
            slices,
        ),
        Metric::new(
            "op_us_p99",
            "pkt_us_p99",
            "us",
            of_rounds(|r| r.slice_p99),
            slices,
        ),
        Metric::new("setup_s", "setup_s", "s", slow_decile(&setups), n),
        // The first round ran in a fresh process; later rounds only add
        // the allocator's fragmentation from repeating the workload.
        Metric::new(
            "peak_rss_mb",
            "peak_rss_mb",
            "MB",
            rounds[0].rss_peak,
            rounds[0].rss_samples,
        ),
    ];
    if ctx.kind == Kind::Reactive {
        let r = &rounds[0];
        out.notes.push(format!(
            "agents: {} iterations over {} agents in {:.3} s virtual at T_d = {} ms ({} due), {} table ops committed per round",
            r.iterations,
            r.agent_prints.len(),
            r.virtual_ns as f64 / 1e9,
            TD_NS / 1_000_000,
            (r.agent_prints.len() as u64) * r.virtual_ns / TD_NS,
            r.committed_ops
        ));
    }
    out.notes.push(format!(
        "block: {} flows, {} packets planned per round, {:.3} hops per packet; pkts_per_s of each of the {n} rounds: {:.0?}",
        ctx.cfg.flows,
        rounds[0].planned,
        ratio(rounds[0].hops as f64, rounds[0].injected as f64),
        pps
    ));
    out
}

fn run_traced(ctx: &Ctx, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut first = None;
    let Alternated {
        facade,
        traced,
        quiet,
    } = alternate(seconds, |how| {
        let r = run_round(ctx.kind, how, &ctx.cfg, &ctx.flows);
        account(&mut out, &mut first, &r, how);
        r
    });
    let run_s = |rs: &[Round]| median(&rs.iter().map(|r| r.run.as_secs_f64()).collect::<Vec<_>>());
    let med = |f: &dyn Fn(&Round) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let n = traced.len();
    let ns_per_hop = lone_switch_ns_per_hop(ctx.kind, &ctx.flows);
    let vm_ns = if ctx.kind == Kind::Reactive {
        crate::util::vm_ns_per_dispatch(&[REACTIVE_P4R])
    } else {
        0.0
    };
    let reactive = ctx.kind == Kind::Reactive;
    let per_iter = |r: &Round, x: f64| ratio(x, r.iterations as f64);
    let agents = (LEAVES + SPINES) as f64;
    let mut m = vec![
        Metric::new(
            "netsim.run_s",
            "",
            "s",
            med(&|r| r.run_until.as_secs_f64()),
            n,
        ),
        Metric::new(
            "netsim.self_ns_per_pkt",
            "",
            "ns",
            med(&|r| {
                let child = ns_per_hop * r.hops as f64 + r.driver.as_nanos() as f64;
                ratio(r.run_until.as_nanos() as f64 - child, r.injected as f64)
            }),
            n,
        ),
        Metric::new(
            "netsim.hops_per_pkt",
            "",
            "count",
            med(&|r| ratio(r.hops as f64, r.injected as f64)),
            n,
        ),
        Metric::new(
            "netsim.pending_events_max",
            "",
            "count",
            med(&|r| r.pending_max as f64),
            n,
        ),
        Metric::new("netsim.mean_batch", "", "count", med(&|r| r.mean_batch), n),
        Metric::new(
            "netsim.spawn_ms",
            "",
            "ms",
            med(&|r| r.split.spawn.as_secs_f64() * 1e3),
            n,
        ),
        Metric::new("rmt_sim.ns_per_hop", "", "ns", ns_per_hop, REPLAY_PKTS),
        Metric::new(
            "rmt_sim.accept_frac",
            "",
            "frac",
            med(&|r| ratio(r.accepted as f64, r.injected as f64)),
            n,
        ),
        Metric::new(
            "rmt_sim.arena_bytes",
            "",
            "bytes",
            med(&|r| r.arena_bytes as f64),
            n,
        ),
        Metric::new(
            "telemetry.overhead_frac",
            "",
            "frac",
            run_s(&facade) / run_s(&quiet) - 1.0,
            facade.len().min(quiet.len()),
        ),
        Metric::new(
            "compiler.compile_ms",
            "",
            "ms",
            med(&|r| r.split.compile.as_secs_f64() * 1e3),
            n,
        ),
        Metric::new(
            "agent.prologue_ms",
            "",
            "ms",
            med(&|r| r.split.prologue.as_secs_f64() * 1e3),
            n,
        ),
        Metric::new("agent.iter_host_us", "", "us", 0.0, 0),
        Metric::new(
            "agent.driver_busy_frac",
            "",
            "frac",
            med(&|r| ratio(r.driver.as_secs_f64(), r.run.as_secs_f64())),
            n,
        ),
        Metric::new("agent.self_us_per_iter", "", "us", 0.0, 0),
        Metric::new(
            "agent.staged_ops_per_iter",
            "",
            "count",
            med(&|r| per_iter(r, r.committed_ops as f64)),
            n,
        ),
        Metric::new(
            "agent.commit_frac",
            "",
            "frac",
            med(&|r| {
                ratio(
                    r.iterations as f64,
                    (r.iterations + r.iteration_errors) as f64,
                )
            }),
            n,
        ),
        Metric::new(
            "agent.pacing_ratio",
            "",
            "frac",
            if reactive {
                med(&|r| {
                    ratio(
                        r.iterations as f64 / agents,
                        r.virtual_ns as f64 / TD_NS as f64,
                    )
                })
            } else {
                0.0
            },
            n,
        ),
        Metric::new(
            "vm.dispatch_per_iter",
            "",
            "count",
            med(&|r| per_iter(r, r.vm_dispatch as f64)),
            n,
        ),
        Metric::new("vm.ns_per_dispatch", "", "ns", vm_ns, crate::util::VM_RUNS),
        Metric::new(
            "control.frames_per_iter",
            "",
            "count",
            med(&|r| per_iter(r, r.frames as f64)),
            n,
        ),
        Metric::new(
            "control.bytes_per_iter",
            "",
            "bytes",
            med(&|r| per_iter(r, r.bytes as f64)),
            n,
        ),
        Metric::new(
            "control.driver_us_per_iter",
            "",
            "us",
            if reactive {
                med(&|r| per_iter(r, r.driver.as_secs_f64() * 1e6))
            } else {
                0.0
            },
            n,
        ),
        Metric::new(
            "trace.overhead_frac",
            "",
            "frac",
            run_s(&traced) / run_s(&facade) - 1.0,
            n,
        ),
    ];
    out.metrics.append(&mut m);
    out
}
