//! The scale engine's steady-state packet path performs zero heap
//! allocation (DESIGN.md §14).
//!
//! A counting global allocator wraps the system one; a small scale block
//! runs on a routed leaf–spine fabric, split into a warm-up half (pools
//! fill, the event heap and scratch buffers reach their high-water marks)
//! and a measured half. The measured half must inject thousands of
//! packets without a single new allocation: templates write into pooled
//! PHVs, wire hops move buffers instead of copying, transmit batches
//! reuse scratch capacity, and the capped tx log recycles exit buffers
//! back to their emitting switch's freelist.
//!
//! The same holds with telemetry on: every switch records into one shared
//! registry by lazily interned metric ids, and trace events carry static
//! names, so once each metric has been recorded and the event ring is
//! full a hop neither formats a name nor allocates an event.
//!
//! Hash units stream their input bytes too: a switch running the ECMP use
//! case hashes every packet (CRC-16 over its malleable field list) without
//! allocating.

use mantis::apps::programs::ECMP_P4R;
use mantis::netsim::{spawn_scale_flows, ScaleConfig, ScaleHost, Simulator, Topology, HOST_PORTS};
use mantis::p4_ast::Value;
use mantis::rmt_sim::{load, switch_from_source, KeyField, PacketDesc, PacketTemplate, PortId};
use mantis::{
    compile_source, Clock, CompilerOptions, CostModel, MantisAgent, SharedSwitch, Switch,
    SwitchConfig, Telemetry,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// The allocation counter is process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const ROUTE_P4: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
action fwd(port) { modify_field(intr.egress_spec, port); }
action to_drop() { drop(); }
table route {
    reads { ip.dst : exact; }
    actions { fwd; to_drop; }
    default_action : to_drop();
    size : 64;
}
control ingress { apply(route); }
"#;

const LEAVES: usize = 2;
const SPINES: usize = 1;

fn host_addr(leaf: usize, h: usize) -> u64 {
    (leaf * HOST_PORTS as usize + h + 1) as u64
}

fn build_fabric(telemetry: bool) -> Simulator {
    let clock = Clock::new();
    let registry = Telemetry::shared();
    let mut switches = Vec::new();
    for i in 0..LEAVES + SPINES {
        let mut sw = switch_from_source(ROUTE_P4, SwitchConfig::default(), clock.clone())
            .expect("route program compiles");
        if telemetry {
            sw.set_telemetry(registry.clone());
            sw.set_fabric_index(Some(i as u16));
        }
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
    // Small cap: exits hit it during warm-up and recycle from then on, so
    // the log itself stops growing before the measured window.
    sim.tx_log_cap = 64;
    sim
}

/// Run a small scale block and assert that its second half, after the
/// first half warmed every pool and buffer up, allocates nothing.
fn assert_steady_state_does_not_allocate(telemetry: bool) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let hosts: Vec<ScaleHost> = (0..LEAVES)
        .flat_map(|leaf| {
            (0..HOST_PORTS as usize).map(move |h| ScaleHost {
                switch: leaf,
                port: h as PortId,
                addr: host_addr(leaf, h),
            })
        })
        .collect();
    let cfg = ScaleConfig {
        seed: 7,
        flows: 3_000,
        duration_ns: 2_000_000_000,
        ..Default::default()
    };

    let mut sim = build_fabric(telemetry);
    let planned = spawn_scale_flows(&mut sim, &cfg, &hosts).expect("flows spawn");
    assert!(planned > 10_000, "block too small to exercise steady state");

    // Warm-up half: freelists, the event heap, queue deques, and batch
    // scratch all reach steady capacity.
    sim.run_until(cfg.duration_ns / 2);

    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(cfg.duration_ns + 100_000);
    let after = ALLOCS.load(Ordering::Relaxed);

    let exited = sim.tx_count;
    assert!(exited > 0, "no traffic crossed the fabric");
    if telemetry {
        let tel = sim.telemetry();
        assert!(tel.counter("sw0.switch.rx") > 0, "no hop was recorded");
        assert!(tel.snapshot().events_dropped > 0, "event ring never filled");
    }
    assert_eq!(
        after - before,
        0,
        "steady-state half allocated {} times (planned {} packets, telemetry {})",
        after - before,
        planned,
        telemetry
    );
}

#[test]
fn steady_state_packet_path_does_not_allocate() {
    assert_steady_state_does_not_allocate(false);
}

#[test]
fn steady_state_packet_path_with_telemetry_does_not_allocate() {
    assert_steady_state_does_not_allocate(true);
}

#[test]
fn ecmp_hash_path_does_not_allocate() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let comp = compile_source(ECMP_P4R, &CompilerOptions::default()).expect("ECMP compiles");
    let clock = Clock::new();
    let spec = load(&comp.p4).expect("ECMP loads");
    let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock.clone()));
    // The prologue installs the malleable init entries the hash reads.
    let mut agent = MantisAgent::new(switch.clone(), &comp, CostModel::default());
    agent.prologue().expect("prologue");

    let templates: Vec<PacketTemplate> = (0..64u128)
        .map(|i| {
            let desc = PacketDesc::new(0)
                .field("ethernet", "ether_type", 0x0800)
                .field("ipv4", "src_addr", 0x0a00_0000 + i)
                .field("ipv4", "dst_addr", 0x0a01_0000 + 7 * i)
                .field("ipv4", "protocol", 6)
                .field("l4", "sport", 1000 + i)
                .field("l4", "dport", 80)
                .payload(200);
            PacketTemplate::compile(&desc, switch.borrow().spec()).expect("template")
        })
        .collect();
    let mut batch = Vec::new();
    let mut ports = [0u64; 8];
    let mut send = |n: usize, ports: &mut [u64; 8]| {
        let mut sw = switch.borrow_mut();
        for i in 0..n {
            clock.advance(1_000);
            assert!(sw.inject_template(&templates[i % templates.len()]));
            sw.pump();
            sw.drain_transmitted_with_len(&mut batch);
            for (pkt, _) in batch.drain(..) {
                ports[usize::from(pkt.port) % 8] += 1;
                sw.recycle_phv(pkt.phv);
            }
        }
    };
    // Warm-up: the PHV pool, queue deques and the batch buffer fill.
    send(2_000, &mut ports);
    let before = ALLOCS.load(Ordering::Relaxed);
    send(4_000, &mut ports);
    let after = ALLOCS.load(Ordering::Relaxed);

    let used = ports[4..].iter().filter(|&&n| n > 0).count();
    assert!(used >= 2, "hash never spread traffic: {ports:?}");
    assert_eq!(
        after - before,
        0,
        "steady-state ECMP hashing allocated {} times",
        after - before
    );
}
