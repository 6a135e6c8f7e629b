//! `dialogue_usecases`: the agent's closed dialogue loop on the paper's
//! four use-case programs.
//!
//! Each program runs on a local-driver `Testbed` with its reaction on the
//! bytecode VM. The four testbeds live for the whole round and take turns,
//! one batch and one iteration each. Before every `dialogue_iteration`
//! call a seed-generated packet batch goes straight into the switch
//! (`inject_template`, the allocation-free form of `inject`) and the
//! traffic manager is pumped; the netsim event core is not involved. The batches are shaped so the
//! reactions keep staging and committing updates: new heavy DoS senders,
//! a neighbour that alternates between silent and healthy, a polarized
//! ECMP flow, and queue-depth swings under the ECN threshold learner.
//! The loop is closed: the next batch goes in only after the previous
//! iteration returned.

use crate::timed::{DriverClock, TimedDriver};
use crate::util::{median, quantile, ratio, slow_decile, timed, Fnv};
use crate::{alternate, repeat, Alternated, Build, Metric, Mode, Outcome};
use mantis::apps::programs::{DOS_P4R, ECMP_P4R, FAILOVER_P4R, RL_P4R};
use mantis::mantis_agent::LocalDriver;
use mantis::rmt_sim::{PacketDesc, PacketTemplate, PortId, TxPacket};
use mantis::{
    compile_source, Clock, CompilerOptions, CostModel, DriverMode, MantisAgent, SharedSwitch,
    Switch, SwitchConfig, Telemetry, Testbed,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dialogue iterations per use-case program per round.
const ITERS: usize = 2_500;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UseCase {
    Dos,
    Failover,
    Ecmp,
    Rl,
}

const USE_CASES: [UseCase; 4] = [UseCase::Dos, UseCase::Failover, UseCase::Ecmp, UseCase::Rl];

impl UseCase {
    fn src(self) -> &'static str {
        match self {
            UseCase::Dos => DOS_P4R,
            UseCase::Failover => FAILOVER_P4R,
            UseCase::Ecmp => ECMP_P4R,
            UseCase::Rl => RL_P4R,
        }
    }

    /// Packet shapes of this program's traffic: each template's value
    /// slots are rewritten per packet.
    /// The malleable value or field the reaction rewrites (the DoS
    /// reaction adds table entries instead).
    fn slot(self) -> Option<&'static str> {
        match self {
            UseCase::Dos => None,
            UseCase::Failover => Some("failed_port"),
            UseCase::Ecmp => Some("hash_a"),
            UseCase::Rl => Some("ecn_thresh"),
        }
    }

    fn templates(self) -> Vec<PacketDesc> {
        let ip = |d: PacketDesc| {
            d.field("ethernet", "ether_type", 0x0800)
                .field("ipv4", "src_addr", 0)
                .field("ipv4", "dst_addr", 0)
        };
        match self {
            UseCase::Dos | UseCase::Rl => vec![ip(PacketDesc::new(0))],
            UseCase::Failover => vec![
                PacketDesc::new(0)
                    .field("ethernet", "ether_type", 0x88b5)
                    .field("hb", "seq", 0)
                    .field("hb", "origin", 0),
                ip(PacketDesc::new(0)),
            ],
            UseCase::Ecmp => vec![ip(PacketDesc::new(0))
                .field("ipv4", "protocol", 6)
                .field("l4", "sport", 0)
                .field("l4", "dport", 0)],
        }
    }
}

/// One scheduled packet: template, ingress port, payload and the values
/// of the template's first two rewritable slots.
#[derive(Clone, Copy, Debug)]
struct Pkt {
    tmpl: u8,
    port: PortId,
    payload: u32,
    a: u64,
    b: u64,
}

/// The whole round's traffic for one program, materialized up front:
/// `batches[i]` goes in before iteration `i`.
fn schedule(uc: UseCase, seed: u64) -> Vec<Vec<Pkt>> {
    let mut rng = StdRng::seed_from_u64(seed ^ (uc as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let base = 0x0a00_0000 + (rng.gen_range(0u64..4096) << 12);
    (0..ITERS)
        .map(|i| {
            let mut batch = Vec::new();
            match uc {
                UseCase::Dos => {
                    // Background from a small pool, then the episode's new
                    // heavy sender last, so it is the sampled source. An
                    // episode of 10 iterations outlasts the reaction's
                    // 50 µs minimum observation window.
                    for _ in 0..rng.gen_range(4..8) {
                        batch.push(Pkt {
                            tmpl: 0,
                            port: 0,
                            payload: rng.gen_range(64..512),
                            a: base + rng.gen_range(0u64..256),
                            b: base + 0x800,
                        });
                    }
                    let heavy = base + 0x1000 + (i / 10) as u64;
                    for _ in 0..3 {
                        batch.push(Pkt {
                            tmpl: 0,
                            port: 1,
                            payload: 1_400,
                            a: heavy,
                            b: base + 0x800,
                        });
                    }
                }
                UseCase::Failover => {
                    // Cycles of 8 iterations: one neighbour (ports 4..7,
                    // rotating) is silent for the first half.
                    let silent = 4 + ((i / 8) % 4) as PortId;
                    for port in 4..8 {
                        if port == silent && i % 8 < 4 {
                            continue;
                        }
                        for _ in 0..rng.gen_range(10..13) {
                            batch.push(Pkt {
                                tmpl: 0,
                                port,
                                payload: 64,
                                a: i as u64,
                                b: u64::from(port),
                            });
                        }
                    }
                    for _ in 0..2 {
                        batch.push(Pkt {
                            tmpl: 1,
                            port: 0,
                            payload: 256,
                            a: base + rng.gen_range(0u64..256),
                            b: base + 0x900,
                        });
                    }
                }
                UseCase::Ecmp => {
                    // One 5-tuple per 12-iteration episode: every packet of
                    // it hashes to the same uplink.
                    let ep = (i / 12) as u64;
                    let mut tuple = StdRng::seed_from_u64(seed ^ ep);
                    let (src, dst) = (base + tuple.gen_range(0u64..4096), base + 0x10_0000);
                    for _ in 0..rng.gen_range(18..24) {
                        batch.push(Pkt {
                            tmpl: 0,
                            port: 0,
                            payload: 200,
                            a: src,
                            b: dst,
                        });
                    }
                }
                UseCase::Rl => {
                    // Bursts of full-size packets into the bottleneck port,
                    // then a trickle of small ones, so its queue depth
                    // swings across the ECN threshold both ways.
                    let (n, payload) = if i % 12 < 4 {
                        (rng.gen_range(36..44), 1_400)
                    } else {
                        (rng.gen_range(1..3), 64)
                    };
                    for _ in 0..n {
                        batch.push(Pkt {
                            tmpl: 0,
                            port: 0,
                            payload,
                            a: base + rng.gen_range(0u64..64),
                            b: base + 0x900,
                        });
                    }
                }
            }
            batch
        })
        .collect()
}

struct Rig {
    switch: SharedSwitch,
    clock: Clock,
    agent: Rc<RefCell<MantisAgent>>,
    driver: DriverClock,
    compile: Duration,
    prologue: Duration,
}

fn build(uc: UseCase, how: Build) -> Rig {
    let driver = DriverClock::default();
    let (switch, agent, compile, prologue) = match how {
        Build::Facade | Build::Quiet => {
            let tb = Testbed::with_config_mode(
                uc.src(),
                SwitchConfig::default(),
                CostModel::default(),
                DriverMode::Local,
            )
            .expect("testbed builds");
            if how == Build::Quiet {
                tb.sim
                    .switch()
                    .borrow_mut()
                    .set_telemetry(Telemetry::disabled());
                tb.agent.borrow_mut().set_telemetry(Telemetry::disabled());
            }
            (
                tb.sim.switch().clone(),
                tb.agent,
                Duration::ZERO,
                Duration::ZERO,
            )
        }
        Build::Traced => {
            // Mirrors `Testbed::with_config_mode` (a one-switch fabric).
            let telemetry: Arc<Telemetry> = Telemetry::shared();
            let (comp, compile) =
                timed(|| compile_source(uc.src(), &CompilerOptions::default()).expect("compiles"));
            let spec = mantis::rmt_sim::load(&comp.p4).expect("loads");
            let switch =
                SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), Clock::new()));
            switch.borrow_mut().set_telemetry(telemetry.clone());
            let inner = LocalDriver::new(switch.clone(), CostModel::default());
            let mut agent =
                MantisAgent::with_driver(&comp, Box::new(TimedDriver::new(inner, driver.clone())));
            agent.set_telemetry(telemetry);
            let (r, prologue) = timed(|| agent.prologue());
            r.expect("prologue");
            (switch, Rc::new(RefCell::new(agent)), compile, prologue)
        }
    };
    if uc == UseCase::Rl {
        switch
            .borrow_mut()
            .bind_queue_depth_register("qdepths")
            .expect("qdepths register");
    }
    agent
        .borrow_mut()
        .register_all_interpreted()
        .expect("reactions register");
    let clock = switch.borrow().clock().clone();
    Rig {
        switch,
        clock,
        agent,
        driver,
        compile,
        prologue,
    }
}

/// One program's share of a round.
#[derive(Default)]
struct Leg {
    setup: Duration,
    /// Whole closed loop: batches in, pumps, iterations.
    loop_time: Duration,
    /// Inject + pump + exit drain.
    packet_time: Duration,
    iter_us: Vec<f64>,
    iter_time: Duration,
    driver: Duration,
    compile: Duration,
    prologue: Duration,
    injected: u64,
    accepted: u64,
    failed_pkts: u64,
    iterations: u64,
    ok_clean: u64,
    errors: u64,
    reaction_failures: u64,
    staged_ops: u64,
    /// Committed iterations that changed the reaction's malleable slot.
    slot_changes: u64,
    vm_dispatch: u64,
    arena_bytes: u64,
    fingerprint: u64,
    prints: (u64, u64),
    violations: Vec<String>,
}

/// One program's testbed while its round runs.
struct Live {
    uc: UseCase,
    rig: Rig,
    batches: Vec<Vec<Pkt>>,
    tmpls: Vec<PacketTemplate>,
    leg: Leg,
    fnv: Fnv,
    out: Vec<(TxPacket, u32)>,
    exits: u64,
    last_slot: Option<i128>,
}

impl Live {
    fn start(uc: UseCase, how: Build, seed: u64) -> Live {
        let t0 = Instant::now();
        let rig = build(uc, how);
        let batches = schedule(uc, seed);
        let tmpls = {
            let sw = rig.switch.borrow();
            uc.templates()
                .iter()
                .map(|d| PacketTemplate::compile(d, sw.spec()).expect("template compiles"))
                .collect()
        };
        let last_slot = uc.slot().and_then(|s| rig.agent.borrow().slot(s));
        let leg = Leg {
            setup: t0.elapsed(),
            compile: rig.compile,
            prologue: rig.prologue,
            iter_us: Vec::with_capacity(ITERS),
            ..Leg::default()
        };
        Live {
            uc,
            rig,
            batches,
            tmpls,
            leg,
            fnv: Fnv::default(),
            out: Vec::new(),
            exits: 0,
            last_slot,
        }
    }

    /// Drain transmitted packets into the fingerprint and back to the pool.
    fn drain(&mut self, sw: &mut Switch) {
        sw.drain_transmitted_with_len(&mut self.out);
        for (pkt, _) in self.out.drain(..) {
            self.fnv.u64(u64::from(pkt.port));
            self.fnv.u64(pkt.time);
            self.exits += 1;
            sw.recycle_phv(pkt.phv);
        }
    }

    /// Batch `i` in and pumped, then one timed `dialogue_iteration` call.
    fn step(&mut self, i: usize) {
        let t0 = Instant::now();
        {
            let switch = self.rig.switch.clone();
            let mut sw = switch.borrow_mut();
            let batch = &self.batches[i];
            for p in batch {
                let t = &mut self.tmpls[usize::from(p.tmpl)];
                // Every template carries its two rewritable values in
                // slots 1 and 2.
                t.set_port(p.port);
                t.set_payload(p.payload);
                t.set_value(1, u128::from(p.a));
                t.set_value(2, u128::from(p.b));
                self.leg.accepted += u64::from(sw.inject_template(t));
            }
            self.leg.injected += batch.len() as u64;
            sw.pump();
            self.drain(&mut sw);
        }
        let ti = Instant::now();
        self.leg.packet_time += ti - t0;

        let r = self.rig.agent.borrow_mut().dialogue_iteration();
        let dt = ti.elapsed();
        self.leg.iter_time += dt;
        self.leg.loop_time += t0.elapsed();
        self.leg.iter_us.push(dt.as_secs_f64() * 1e6);
        self.leg.iterations += 1;
        match r {
            Ok(rep) => {
                self.leg.staged_ops += rep.staged_table_ops as u64;
                self.leg.reaction_failures += rep.reaction_failures.len() as u64;
                self.leg.ok_clean += u64::from(rep.reaction_failures.is_empty());
                self.fnv.u64(rep.staged_table_ops as u64);
                if let Some(name) = self.uc.slot() {
                    let now = self.rig.agent.borrow().slot(name);
                    self.leg.slot_changes += u64::from(now != self.last_slot);
                    self.last_slot = now;
                }
            }
            Err(e) => {
                self.leg.errors += 1;
                self.leg
                    .violations
                    .push(format!("{:?}: iteration failed: {e}", self.uc));
            }
        }
    }

    /// Drain every queue, account for each injected packet and run the
    /// end-of-round gates.
    fn finish(mut self) -> Leg {
        let uc = self.uc;
        self.leg.driver = self.rig.driver.busy();
        self.rig.clock.advance(10_000_000);
        let switch = self.rig.switch.clone();
        let mut sw = switch.borrow_mut();
        sw.pump();
        self.drain(&mut sw);
        let mut leg = self.leg;
        let dropped = sw.stats.dropped_ingress;
        leg.failed_pkts = leg.injected.saturating_sub(self.exits + dropped);
        if leg.failed_pkts > 0 {
            leg.violations.push(format!(
                "{uc:?}: {} of {} packets neither exited nor were dropped by the program \
                 (queue drops {}, port-down drops {})",
                leg.failed_pkts, leg.injected, sw.stats.dropped_queue, sw.stats.dropped_port_down
            ));
        }
        leg.arena_bytes = sw.arena_bytes();
        drop(sw);

        let mut agent = self.rig.agent.borrow_mut();
        if let Err(e) = agent.verify_config_atomicity() {
            leg.violations.push(format!("{uc:?}: {e}"));
        }
        if leg.staged_ops + leg.slot_changes == 0 {
            leg.violations
                .push(format!("{uc:?}: the reaction committed no update"));
        }
        if leg.reaction_failures > 0 {
            leg.violations.push(format!(
                "{uc:?}: {} reaction failures",
                leg.reaction_failures
            ));
        }
        leg.prints = (agent.config_fingerprint(), agent.entry_fingerprint());
        leg.vm_dispatch = agent.vm_dispatch_total();
        leg.fingerprint = self.fnv.0;
        leg
    }
}

/// The four programs, their iterations interleaved: every testbed lives
/// for the whole round, like agents sharing one switch CPU.
struct Round {
    legs: Vec<Leg>,
    /// Median and 99th percentile host µs of the round's
    /// `dialogue_iteration` calls.
    call_p50: f64,
    call_p99: f64,
    /// Resident memory (MiB) once every testbed has run its iterations.
    rss: f64,
}

impl Round {
    fn sum(&self, f: impl Fn(&Leg) -> f64) -> f64 {
        self.legs.iter().map(f).sum()
    }

    fn loop_s(&self) -> f64 {
        self.sum(|l| l.loop_time.as_secs_f64())
    }

    fn iterations(&self) -> f64 {
        self.sum(|l| l.iterations as f64)
    }
}

fn run_round(how: Build, seed: u64) -> Round {
    let mut live: Vec<Live> = USE_CASES
        .iter()
        .map(|&uc| Live::start(uc, how, seed))
        .collect();
    for i in 0..ITERS {
        for l in &mut live {
            l.step(i);
        }
    }
    let rss = crate::util::rss_mb();
    let mut legs: Vec<Leg> = live.into_iter().map(Live::finish).collect();
    let calls: Vec<f64> = legs
        .iter_mut()
        .flat_map(|l| std::mem::take(&mut l.iter_us))
        .collect();
    Round {
        legs,
        call_p50: quantile(&calls, 0.5),
        call_p99: quantile(&calls, 0.99),
        rss,
    }
}

type Prints = Vec<(u64, (u64, u64))>;

fn account(out: &mut Outcome, first: &mut Option<Prints>, r: &Round, how: Build) {
    for l in &r.legs {
        // Packets, then iterations, each an attempted operation.
        out.attempted += l.injected + l.iterations;
        out.failed += l.failed_pkts + l.errors + l.reaction_failures;
        for v in &l.violations {
            out.violations.push(format!("{how:?} round: {v}"));
        }
    }
    let dos_ops = r.legs[0].staged_ops;
    if dos_ops == 0 {
        out.violations
            .push(format!("{how:?} round: no table op committed"));
    }
    let prints: Prints = r.legs.iter().map(|l| (l.fingerprint, l.prints)).collect();
    match first {
        None => *first = Some(prints),
        Some(p) if *p != prints => out.violations.push(format!(
            "{how:?} round: drain or agent fingerprints differ from the first round's"
        )),
        Some(_) => {}
    }
}

pub fn run(seed: u64, seconds: f64, mode: Mode) -> Outcome {
    match mode {
        Mode::Plain => run_plain(seed, seconds),
        Mode::Trace => run_traced(seed, seconds),
    }
}

fn run_plain(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut first = None;
    let rounds = repeat(seconds, || {
        let r = run_round(Build::Facade, seed);
        account(&mut out, &mut first, &r, Build::Facade);
        r
    });
    let n = rounds.len();
    let ips: Vec<f64> = rounds
        .iter()
        .map(|r| r.sum(|l| (l.iterations - l.errors) as f64) / r.loop_s())
        .collect();
    let setups: Vec<f64> = rounds
        .iter()
        .map(|r| r.sum(|l| l.setup.as_secs_f64()))
        .collect();
    let of_rounds = |f: fn(&Round) -> f64| slow_decile(&rounds.iter().map(f).collect::<Vec<_>>());
    let calls = rounds.iter().map(|r| r.iterations() as usize).sum();
    out.metrics = vec![
        Metric::new("ops_per_s", "iters_per_s", "1/s", quantile(&ips, 0.1), n),
        Metric::new(
            "op_us_p50",
            "iter_us_p50",
            "us",
            of_rounds(|r| r.call_p50),
            calls,
        ),
        Metric::new(
            "op_us_p99",
            "iter_us_p99",
            "us",
            of_rounds(|r| r.call_p99),
            calls,
        ),
        Metric::new("setup_s", "setup_s", "s", slow_decile(&setups), n),
        // The first round ran in a fresh process; later rounds only add
        // the allocator's fragmentation from repeating the workload.
        Metric::new("peak_rss_mb", "peak_rss_mb", "MB", rounds[0].rss, 1),
    ];
    let r = &rounds[0];
    for (uc, l) in USE_CASES.iter().zip(&r.legs) {
        out.notes.push(format!(
            "{uc:?}: {} iterations, {} packets, {} table ops and {} slot changes committed",
            l.iterations, l.injected, l.staged_ops, l.slot_changes,
        ));
    }
    out.notes.push(format!(
        "{n} rounds of {ITERS} iterations per program; iters_per_s of each round: {ips:.0?}"
    ));
    out
}

fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut first = None;
    let Alternated {
        facade,
        traced,
        quiet,
    } = alternate(seconds, |how| {
        let r = run_round(how, seed);
        account(&mut out, &mut first, &r, how);
        r
    });
    let loop_s = |rs: &[Round]| median(&rs.iter().map(Round::loop_s).collect::<Vec<_>>());
    let med = |f: &dyn Fn(&Round) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let n = traced.len();
    let srcs: Vec<&str> = USE_CASES.iter().map(|uc| uc.src()).collect();
    let vm_ns = crate::util::vm_ns_per_dispatch(&srcs);
    let idle = |name: &'static str, unit: &'static str| Metric::new(name, "", unit, 0.0, 0);
    out.metrics = vec![
        idle("netsim.run_s", "s"),
        idle("netsim.self_ns_per_pkt", "ns"),
        idle("netsim.hops_per_pkt", "count"),
        idle("netsim.pending_events_max", "count"),
        idle("netsim.mean_batch", "count"),
        idle("netsim.spawn_ms", "ms"),
        Metric::new(
            "rmt_sim.ns_per_hop",
            "",
            "ns",
            med(&|r| {
                ratio(
                    r.sum(|l| l.packet_time.as_nanos() as f64),
                    r.sum(|l| l.injected as f64),
                )
            }),
            n,
        ),
        Metric::new(
            "rmt_sim.accept_frac",
            "",
            "frac",
            med(&|r| ratio(r.sum(|l| l.accepted as f64), r.sum(|l| l.injected as f64))),
            n,
        ),
        Metric::new(
            "rmt_sim.arena_bytes",
            "",
            "bytes",
            med(&|r| r.sum(|l| l.arena_bytes as f64)),
            n,
        ),
        Metric::new(
            "telemetry.overhead_frac",
            "",
            "frac",
            loop_s(&facade) / loop_s(&quiet) - 1.0,
            facade.len().min(quiet.len()),
        ),
        Metric::new(
            "compiler.compile_ms",
            "",
            "ms",
            med(&|r| r.sum(|l| l.compile.as_secs_f64() * 1e3)),
            n,
        ),
        Metric::new(
            "agent.prologue_ms",
            "",
            "ms",
            med(&|r| r.sum(|l| l.prologue.as_secs_f64() * 1e3)),
            n,
        ),
        Metric::new(
            "agent.iter_host_us",
            "",
            "us",
            med(&|r| ratio(r.sum(|l| l.iter_time.as_secs_f64() * 1e6), r.iterations())),
            n,
        ),
        Metric::new(
            "agent.driver_busy_frac",
            "",
            "frac",
            med(&|r| ratio(r.sum(|l| l.driver.as_secs_f64()), r.loop_s())),
            n,
        ),
        Metric::new(
            "agent.self_us_per_iter",
            "",
            "us",
            med(&|r| {
                let vm_us = r.sum(|l| l.vm_dispatch as f64) * vm_ns / 1e3;
                let own = r.sum(|l| (l.iter_time - l.driver).as_secs_f64() * 1e6) - vm_us;
                ratio(own, r.iterations())
            }),
            n,
        ),
        Metric::new(
            "agent.staged_ops_per_iter",
            "",
            "count",
            med(&|r| ratio(r.sum(|l| l.staged_ops as f64), r.iterations())),
            n,
        ),
        Metric::new(
            "agent.commit_frac",
            "",
            "frac",
            med(&|r| ratio(r.sum(|l| l.ok_clean as f64), r.iterations())),
            n,
        ),
        idle("agent.pacing_ratio", "frac"),
        Metric::new(
            "vm.dispatch_per_iter",
            "",
            "count",
            med(&|r| ratio(r.sum(|l| l.vm_dispatch as f64), r.iterations())),
            n,
        ),
        Metric::new(
            "vm.ns_per_dispatch",
            "",
            "ns",
            vm_ns,
            USE_CASES.len() * crate::util::VM_RUNS,
        ),
        idle("control.frames_per_iter", "count"),
        idle("control.bytes_per_iter", "bytes"),
        idle("control.driver_us_per_iter", "us"),
        Metric::new(
            "trace.overhead_frac",
            "",
            "frac",
            loop_s(&traced) / loop_s(&facade) - 1.0,
            n,
        ),
    ];
    out
}
