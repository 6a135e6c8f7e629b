//! The discrete-event simulator core.
//!
//! A [`Simulator`] owns the shared virtual clock, the fabric's switches,
//! and an event queue — a binary heap of typed [`EventKind`]s keyed by
//! `(time, seq)`. The hot packet/flow/wire events are enum variants (no
//! per-event allocation); arbitrary closures remain as the cold-path
//! variant for experiment harnesses. Execution is single-threaded and
//! fully deterministic: same-time events fire in schedule order, and the
//! per-event transmit drain visits switches in index order, so link
//! deliveries are totally ordered by `(time, switch_id, seq)`.
//!
//! A heap is enough: the flow engine batches arrivals per shard and the
//! drain is lazy, so a Fig. 14 fabric keeps about ten events pending
//! (DESIGN.md §14).
//!
//! With a multi-switch [`Topology`], a packet transmitted out a linked
//! port becomes an rx event on the peer switch after the link's wire
//! delay; packets leaving unlinked ports exit the fabric into the
//! transmit log. Wire deliveries move the transmitted PHV itself and
//! re-materialize it on the peer through a cached
//! [`TransferMap`] — no per-hop name round-trip.

use crate::flows::FlowRegistry;
use crate::topo::{Endpoint, Link, Topology};
use mantis_telemetry::Telemetry;
use rmt_sim::{Clock, Nanos, Phv, PortId, SharedSwitch, TransferMap, TxPacket};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

pub(crate) type EventFn = Box<dyn FnOnce(&mut Simulator)>;

/// A scheduled event. The hot packet/flow/wire events are typed variants
/// dispatched without allocation or indirection; everything else rides in
/// [`EventKind::Closure`].
pub(crate) enum EventKind {
    /// Cold path: an arbitrary boxed closure.
    Closure(EventFn),
    /// A packet on a fabric link: `phv` (frozen at transmit time) travels
    /// from switch `src` to `dest`, entering at `port` at the event's
    /// time.
    WireDeliver {
        src: usize,
        dest: usize,
        port: PortId,
        phv: Phv,
    },
    /// One TCP flow's next packet-send (`gen` guards stale reschedules).
    TcpSend { flow: u32, gen: u64 },
    /// One TCP flow's periodic AIMD rate tick.
    TcpTick { flow: u32, nominal: Nanos },
    /// One UDP flow's periodic constant-rate send.
    UdpSend { flow: u32, nominal: Nanos },
    /// One heartbeat source's periodic send.
    HbSend { flow: u32, nominal: Nanos },
    /// Drain every due arrival of scale-flow shard `shard` in one batch.
    FlowWake { shard: u32 },
}

/// Event-heap capacity reserved up front. A Fig. 14 fabric keeps about ten
/// events pending; reserving headroom keeps the heap from growing (and
/// allocating) mid-run the first time a burst sets a new high-water mark.
const EVENTS_PREALLOC: usize = 64;

/// One pending event. Ordered by `(at, seq)` alone; `seq` is unique and
/// monotone in schedule order, so same-time events pop FIFO.
struct Scheduled {
    at: Nanos,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The event-driven simulator.
pub struct Simulator {
    clock: Clock,
    switches: Vec<SharedSwitch>,
    topo: Topology,
    events: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
    /// Per-switch registry of typed flow state (TCP/UDP/heartbeat/scale),
    /// indexed by the ids carried in flow [`EventKind`]s.
    pub(crate) flows: FlowRegistry,
    /// `peer_cache[i][port]` resolves a transmit to the peer endpoint and
    /// link without scanning the topology per packet. Direct-indexed by
    /// port (fabric port numbers are small and dense) — a hash lookup
    /// here was measurable at millions of packets per second.
    peer_cache: Vec<Vec<Option<(Endpoint, Link)>>>,
    /// Lazily built `(src, dest)` → transfer map cache for wire
    /// deliveries.
    xfer: Vec<Vec<Option<Rc<TransferMap>>>>,
    /// One bit per switch (word `i/64`, bit `i%64`): set when the switch
    /// may have queued packets, cleared when a pump leaves its TM empty.
    /// A pump of an idle switch has zero side effects, so the drain
    /// visits only flagged switches, in index order, instead of scanning
    /// the whole fabric after every event.
    dirty: Vec<u64>,
    /// Packets that exited the fabric (transmitted out an *unlinked*
    /// port), tagged with the switch that emitted them; kept until taken
    /// by the experiment (capped to avoid unbounded growth when unused).
    tx_log: VecDeque<(usize, TxPacket)>,
    /// Cap on `tx_log` length; older packets are discarded first.
    pub tx_log_cap: usize,
    /// Benchmark-only compatibility mode replicating the pre-refactor
    /// engine's per-packet mechanics: wire hops re-describe the PHV into
    /// string-keyed fields and rebuild it from scratch at delivery via a
    /// boxed closure, every drain pumps every switch (no busy-flag
    /// skip), and each switch runs its own historical cost shape (see
    /// [`Switch::set_legacy_compat`](rmt_sim::Switch::set_legacy_compat)).
    /// Semantically identical output, historically slow — the
    /// `figures -- scale` baseline measures against it. Set via
    /// [`Simulator::set_legacy_compat`] so the whole fabric flips
    /// together. Not for normal use.
    legacy_compat: bool,
    /// Reusable transmit-batch buffer for the serial drain; cleared and
    /// refilled per pump so the pump → route handoff never allocates at
    /// steady state.
    batch_scratch: Vec<(TxPacket, u32)>,
    /// Count of all packets ever transmitted by any switch, including
    /// hops over internal fabric links (not capped).
    pub tx_count: u64,
    pub tx_bytes: u64,
    /// Per-switch transmit accounting (same units as `tx_count`/`tx_bytes`).
    tx_count_per_switch: Vec<u64>,
    tx_bytes_per_switch: Vec<u64>,
    next_flow_id: u64,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.clock.now())
            .field("switches", &self.switches.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

impl Simulator {
    /// A single-switch simulator — the 1-node special case of
    /// [`Simulator::fabric`] with the trivial topology.
    pub fn new(switch: SharedSwitch) -> Self {
        Simulator::fabric(vec![switch], Topology::single())
    }

    /// A multi-switch fabric: `switches[i]` is switch `i` of `topo`. All
    /// switches must share one virtual clock (fabric builders construct
    /// them that way).
    ///
    /// # Panics
    /// Panics when the switch count does not match the topology.
    pub fn fabric(switches: Vec<SharedSwitch>, topo: Topology) -> Self {
        assert!(
            switches.len() == topo.num_switches(),
            "fabric has {} switches but the topology names {}",
            switches.len(),
            topo.num_switches()
        );
        let clock = switches[0].borrow().clock().clone();
        let n = switches.len();
        let mut peer_cache: Vec<Vec<Option<(Endpoint, Link)>>> = vec![Vec::new(); n];
        for link in topo.links() {
            for (me, peer) in [(link.a, link.b), (link.b, link.a)] {
                let slots = &mut peer_cache[me.switch];
                let idx = usize::from(me.port);
                if slots.len() <= idx {
                    slots.resize(idx + 1, None);
                }
                slots[idx] = Some((peer, *link));
            }
        }
        Simulator {
            clock,
            switches,
            topo,
            events: BinaryHeap::with_capacity(EVENTS_PREALLOC),
            next_seq: 0,
            flows: FlowRegistry::default(),
            peer_cache,
            xfer: vec![vec![None; n]; n],
            dirty: (0..n.div_ceil(64))
                .map(|w| {
                    let bits = n - w * 64;
                    if bits >= 64 {
                        !0
                    } else {
                        (1u64 << bits) - 1
                    }
                })
                .collect(),
            tx_log: VecDeque::new(),
            tx_log_cap: 1 << 20,
            legacy_compat: false,
            batch_scratch: Vec::new(),
            tx_count: 0,
            tx_bytes: 0,
            tx_count_per_switch: vec![0; n],
            tx_bytes_per_switch: vec![0; n],
            next_flow_id: 0,
        }
    }

    /// A no-op kept for callers written against the retired worker pool:
    /// the simulator is single-threaded (DESIGN.md §12), so every worker
    /// count runs the same serial drain.
    pub fn set_workers(&mut self, _workers: usize) {}

    /// Enable (or disable) the pre-refactor cost-replication mode — see
    /// the `legacy_compat` field. Propagates to every switch so the
    /// per-switch hot paths flip to their historical form together.
    pub fn set_legacy_compat(&mut self, on: bool) {
        self.legacy_compat = on;
        for sw in &self.switches {
            sw.borrow_mut().set_legacy_compat(on);
        }
    }

    /// The fabric's telemetry handle (disabled unless a testbed attached
    /// one via `Switch::set_telemetry`). Flow sources use it to publish
    /// per-flow rate gauges and drop events.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.switches[0].borrow().telemetry().clone()
    }

    /// Allocate a stable id for a spawned flow (used in telemetry names).
    pub fn alloc_flow_id(&mut self) -> u64 {
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        id
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Switch 0 — *the* switch of a single-switch testbed.
    pub fn switch(&self) -> &SharedSwitch {
        &self.switches[0]
    }

    /// Switch `i` of the fabric.
    pub fn switch_at(&self, i: usize) -> &SharedSwitch {
        &self.switches[i]
    }

    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Packets transmitted by switch `i` (including over fabric links).
    pub fn tx_count_on(&self, i: usize) -> u64 {
        self.tx_count_per_switch[i]
    }

    /// Bytes transmitted by switch `i` (including over fabric links).
    pub fn tx_bytes_on(&self, i: usize) -> u64 {
        self.tx_bytes_per_switch[i]
    }

    /// Schedule a one-shot event at absolute time `at` (events in the past
    /// run at the current time).
    pub fn schedule(&mut self, at: Nanos, f: impl FnOnce(&mut Simulator) + 'static) {
        self.schedule_kind(at, EventKind::Closure(Box::new(f)));
    }

    /// Schedule a typed event (the allocation-free hot path).
    pub(crate) fn schedule_kind(&mut self, at: Nanos, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Scheduled { at, seq, kind }));
    }

    /// Schedule `f` every `interval` starting at `start`; stops when `f`
    /// returns `false`.
    ///
    /// The period is *nominal*: the next firing is scheduled at
    /// `previous_nominal + interval` even if event execution lagged behind
    /// (e.g. a long control-plane operation advanced the clock). This
    /// models traffic sources that keep their rate while the switch CPU is
    /// busy — lagging firings execute back-to-back to catch up.
    pub fn schedule_periodic(
        &mut self,
        start: Nanos,
        interval: Nanos,
        f: impl FnMut(&mut Simulator) -> bool + 'static,
    ) {
        fn step(
            sim: &mut Simulator,
            mut f: impl FnMut(&mut Simulator) -> bool + 'static,
            interval: Nanos,
            nominal: Nanos,
        ) {
            if f(sim) {
                // A nominal period that would pass the u64 horizon ends
                // the chain: rescheduling at a clamped time would fire
                // the same instant forever.
                let Some(next) = nominal.checked_add(interval.max(1)) else {
                    return;
                };
                sim.schedule(next, move |s| step(s, f, interval, next));
            }
        }
        self.schedule(start, move |s| step(s, f, interval, start));
    }

    /// Run all events with `at <= until`, then advance the clock to
    /// `until`.
    pub fn run_until(&mut self, until: Nanos) {
        // External code may have injected packets directly between runs.
        self.mark_all_busy();
        loop {
            while let Some((at, kind)) = self.pop_due(until) {
                self.clock.advance_to(at);
                self.dispatch(at, kind);
                self.drain_tracked();
            }
            self.clock.advance_to(until);
            self.drain_tracked();
            // The horizon drain may itself have put packets on a fabric
            // link with an arrival inside the horizon — deliver those too
            // before handing control back.
            if !self.has_due(until) {
                break;
            }
        }
    }

    /// Pop the earliest event if it is due by `until`.
    fn pop_due(&mut self, until: Nanos) -> Option<(Nanos, EventKind)> {
        if !self.has_due(until) {
            return None;
        }
        let Reverse(e) = self.events.pop().expect("has_due saw a head");
        Some((e.at, e.kind))
    }

    /// Whether an event with `at <= until` is pending.
    fn has_due(&self, until: Nanos) -> bool {
        self.events.peek().is_some_and(|Reverse(e)| e.at <= until)
    }

    /// Execute one event scheduled for `at`.
    fn dispatch(&mut self, at: Nanos, kind: EventKind) {
        match kind {
            EventKind::Closure(f) => {
                // A closure may inject into any switch.
                self.mark_all_busy();
                f(self);
            }
            EventKind::WireDeliver {
                src,
                dest,
                port,
                phv,
            } => {
                self.mark_busy(dest);
                self.deliver_wire(src, dest, port, at, phv);
            }
            EventKind::TcpSend { flow, gen } => crate::flows::tcp_send_event(self, flow, gen),
            EventKind::TcpTick { flow, nominal } => {
                crate::flows::tcp_tick_event(self, flow, nominal)
            }
            EventKind::UdpSend { flow, nominal } => {
                crate::flows::udp_send_event(self, flow, nominal)
            }
            EventKind::HbSend { flow, nominal } => crate::flows::hb_send_event(self, flow, nominal),
            EventKind::FlowWake { shard } => crate::flows::flow_wake_event(self, shard),
        }
    }

    /// Deliver a wire packet: materialize the frozen sender PHV on the
    /// destination switch through the cached transfer map, then recycle
    /// the sender-side buffer.
    fn deliver_wire(&mut self, src: usize, dest: usize, port: PortId, arrival: Nanos, phv: Phv) {
        self.ensure_transfer_map(src, dest);
        let identity = self.xfer[src][dest]
            .as_deref()
            .is_some_and(TransferMap::is_identity);
        if identity {
            // Identical specs on both ends (the common fabric case): the
            // buffer itself crosses the wire. Wiping the metadata and
            // stamping the receiver intrinsics leaves exactly the state a
            // copy into a fresh PHV would have produced, minus the copy —
            // the buffer simply migrates from `src`'s freelist orbit to
            // `dest`'s.
            let mut sw = self.switches[dest].borrow_mut();
            let mut phv = phv;
            {
                let spec = sw.spec();
                phv.reset_metadata(spec);
                let intr = spec.intr_ids().expect("intrinsic field");
                phv.set_u64(intr.ingress_port, u64::from(port));
                let len = phv.frame_len(spec);
                phv.set_u64(intr.pkt_len, u64::from(len));
            }
            sw.inject_phv_at(phv, arrival);
            return;
        }
        let map = self.xfer[src][dest].clone().expect("just built");
        if src == dest {
            // A self-loop link: one switch plays both ends.
            let mut sw = self.switches[dest].borrow_mut();
            let mut dst_phv = sw.pool_take();
            map.apply(&phv, &mut dst_phv, port, sw.spec());
            sw.recycle_phv(phv);
            sw.inject_phv_at(dst_phv, arrival);
        } else {
            let mut dsw = self.switches[dest].borrow_mut();
            let mut dst_phv = dsw.pool_take();
            map.apply(&phv, &mut dst_phv, port, dsw.spec());
            dsw.inject_phv_at(dst_phv, arrival);
            drop(dsw);
            self.switches[src].borrow_mut().recycle_phv(phv);
        }
    }

    /// Build the `(src, dest)` transfer map on first use. Kept separate
    /// from the lookup so the identity fast path can consult the cached
    /// map without cloning the `Rc` per delivery.
    fn ensure_transfer_map(&mut self, src: usize, dest: usize) {
        if self.xfer[src][dest].is_none() {
            let map = if src == dest {
                let sw = self.switches[src].borrow();
                TransferMap::build(sw.spec(), sw.spec())
            } else {
                let s = self.switches[src].borrow();
                let d = self.switches[dest].borrow();
                TransferMap::build(s.spec(), d.spec())
            };
            self.xfer[src][dest] = Some(Rc::new(map));
        }
    }

    fn mark_all_busy(&mut self) {
        let n = self.switches.len();
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let bits = n - w * 64;
            *word = if bits >= 64 { !0 } else { (1u64 << bits) - 1 };
        }
    }

    /// Flag switch `i` as possibly having queued packets so the next
    /// drain pumps it.
    pub(crate) fn mark_busy(&mut self, i: usize) {
        self.dirty[i / 64] |= 1u64 << (i % 64);
    }

    /// Run for `dur` from the current time (clamped to the u64 horizon).
    pub fn run_for(&mut self, dur: Nanos) {
        let until = self.now().saturating_add(dur);
        self.run_until(until);
    }

    /// Service every switch's queues and collect transmitted packets:
    /// linked ports schedule an rx event on the peer switch after the wire
    /// delay, unlinked ports append to the transmit log.
    ///
    /// Switches are pumped and their transmit batches routed in
    /// switch-index order — that total `(time, switch_id, seq)` order on
    /// deliveries is the fabric determinism contract.
    pub fn drain_switch(&mut self) {
        // Public entry: callers may have injected into any switch since
        // the last drain, so the busy flags are stale.
        self.mark_all_busy();
        self.drain_tracked();
    }

    /// The busy-tracked drain `run_until` uses between events: switches
    /// whose TM queues are known-empty are skipped outright (an idle pump
    /// has no side effects, so skipping is byte-exact).
    fn drain_tracked(&mut self) {
        if self.legacy_compat {
            // The pre-refactor drain pumped every switch unconditionally.
            self.mark_all_busy();
        }
        // The scratch buffer moves out of `self` for the loop's duration
        // so filling it can overlap the switch borrow; its capacity is
        // retained across drains.
        let mut batch = std::mem::take(&mut self.batch_scratch);
        for w in 0..self.dirty.len() {
            let mut word = std::mem::take(&mut self.dirty[w]);
            while word != 0 {
                let bit = word & word.wrapping_neg();
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                // Collect this switch's transmissions first: scheduling
                // the deliveries needs `&mut self` again.
                batch.clear();
                {
                    let mut sw = self.switches[i].borrow_mut();
                    // Queued packets whose egress/wire time hasn't
                    // arrived yet make the pump a provable no-op — skip
                    // it (the switch stays dirty and is revisited once
                    // the clock reaches its readiness bound). The
                    // pre-refactor engine pumped unconditionally; compat
                    // mode keeps that.
                    if !self.legacy_compat && sw.tm_queued() > 0 && !sw.tx_ready() {
                        self.dirty[w] |= bit;
                        continue;
                    }
                    sw.pump();
                    if sw.tm_queued() > 0 {
                        self.dirty[w] |= bit;
                    }
                    if self.legacy_compat {
                        // Pre-refactor collection: take the Vec wholesale
                        // and re-collect with frame lengths (two fresh
                        // allocations per productive pump).
                        let pkts = sw.take_transmitted();
                        batch.extend(pkts.into_iter().map(|pkt| {
                            let bytes = pkt.phv.frame_len_walk(sw.spec());
                            (pkt, bytes)
                        }));
                    } else {
                        sw.drain_transmitted_with_len(&mut batch);
                    }
                }
                if !batch.is_empty() {
                    self.route_batch(i, &mut batch);
                }
            }
        }
        self.batch_scratch = batch;
    }

    /// Deliver one switch's transmit batch: linked ports become rx events
    /// on the peer after the wire delay, unlinked ports exit to the log.
    fn route_batch(&mut self, i: usize, batch: &mut Vec<(TxPacket, u32)>) {
        for (pkt, bytes) in batch.drain(..) {
            self.tx_count += 1;
            self.tx_bytes += u64::from(bytes);
            self.tx_count_per_switch[i] += 1;
            self.tx_bytes_per_switch[i] += u64::from(bytes);
            match self.peer_cache[i]
                .get(usize::from(pkt.port))
                .copied()
                .flatten()
            {
                Some((peer, link)) => {
                    let arrival = pkt.time.saturating_add(link.wire_delay(bytes));
                    if self.legacy_compat {
                        // Pre-refactor hop: re-describe the PHV into
                        // string-keyed field assignments, box a closure,
                        // and rebuild the PHV by name resolution at
                        // delivery.
                        let mut desc = {
                            let sw = self.switches[i].borrow();
                            pkt.phv.describe(sw.spec())
                        };
                        desc.port = peer.port;
                        let dest = peer.switch;
                        self.switches[i].borrow_mut().recycle_phv(pkt.phv);
                        self.schedule(arrival, move |s| {
                            let mut sw = s.switches[dest].borrow_mut();
                            let phv = desc.build_lossy(sw.spec());
                            sw.inject_phv_at(phv, arrival);
                        });
                        continue;
                    }
                    // The PHV travels as transmitted (its values are
                    // frozen — nothing mutates an in-flight packet) and
                    // is re-materialized on the peer at dispatch via the
                    // cached transfer map. Injection happens *as of* the
                    // arrival time: the delivery event may be
                    // materialized after the clock moved past `arrival`
                    // (the drain is lazy), and the peer's tx timeline
                    // must not be distorted by that.
                    self.schedule_kind(
                        arrival,
                        EventKind::WireDeliver {
                            src: i,
                            dest: peer.switch,
                            port: peer.port,
                            phv: pkt.phv,
                        },
                    );
                }
                None => {
                    // Enforce the cap contract: older packets are
                    // discarded first (their buffers go back to the
                    // emitting switch's freelist).
                    while self.tx_log.len() >= self.tx_log_cap.max(1) {
                        if let Some((from, old)) = self.tx_log.pop_front() {
                            self.switches[from].borrow_mut().recycle_phv(old.phv);
                        }
                    }
                    if self.tx_log_cap > 0 {
                        self.tx_log.push_back((i, pkt));
                    }
                }
            }
        }
    }

    /// Pending (scheduled, not yet executed) event count.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Heap bytes parked across every switch's PHV freelist (the packet
    /// arena steady-state footprint).
    pub fn arena_bytes(&self) -> u64 {
        self.switches.iter().map(|s| s.borrow().arena_bytes()).sum()
    }

    /// Top up `dst`'s PHV freelist if it has run dry by moving one parked
    /// buffer over from the richest identically shaped freelist in the
    /// fabric. Identity wire transfer migrates buffers toward traffic
    /// sinks — an exiting packet's buffer is recycled where it *exits*,
    /// not where it was injected — so a switch sourcing more traffic than
    /// it sinks slowly drains its pool and injection starts allocating
    /// again. The non-empty check is one cheap borrow on the hot path;
    /// the fabric scan runs only on a would-be pool miss.
    pub(crate) fn rebalance_pool_for(&self, dst: usize) {
        let (nf, nh) = {
            let sw = self.switches[dst].borrow();
            if sw.pool_parked() > 0 {
                return;
            }
            (sw.spec().fields.len(), sw.spec().headers.len())
        };
        let mut best: Option<(usize, usize)> = None; // (parked, index)
        for (i, handle) in self.switches.iter().enumerate() {
            if i == dst {
                continue;
            }
            let sw = handle.borrow();
            let parked = sw.pool_parked();
            if parked > 0
                && sw.spec().fields.len() == nf
                && sw.spec().headers.len() == nh
                && best.is_none_or(|(p, _)| parked > p)
            {
                best = Some((parked, i));
            }
        }
        if let Some((_, donor)) = best {
            let phv = self.switches[donor]
                .borrow_mut()
                .pool_steal()
                .expect("donor pool non-empty under the simulator's borrow");
            self.switches[dst].borrow_mut().recycle_phv(phv);
        }
    }

    /// Take the transmitted-packet log (packets that exited the fabric).
    pub fn take_tx(&mut self) -> Vec<TxPacket> {
        self.tx_log.drain(..).map(|(_, pkt)| pkt).collect()
    }

    /// Like [`take_tx`](Simulator::take_tx), keeping the index of the
    /// switch each packet exited from.
    pub fn take_tx_tagged(&mut self) -> Vec<(usize, TxPacket)> {
        self.tx_log.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::Endpoint;
    use rmt_sim::{switch_from_source, PacketDesc, SwitchConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    const FWD_ALL: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
action fwd() { modify_field(intr.egress_spec, 2); }
table t { actions { fwd; } default_action : fwd(); }
control ingress { apply(t); }
"#;

    fn mk() -> Simulator {
        let clock = Clock::new();
        let sw = switch_from_source(FWD_ALL, SwitchConfig::default(), clock).unwrap();
        Simulator::new(SharedSwitch::new(sw))
    }

    /// A 2-switch line where switch 0 forwards everything out its linked
    /// port and switch 1 forwards everything out an unlinked one.
    fn mk_pair(latency_ns: Nanos) -> Simulator {
        const TO_LINK: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
action fwd() { modify_field(intr.egress_spec, 5); }
table t { actions { fwd; } default_action : fwd(); }
control ingress { apply(t); }
"#;
        let clock = Clock::new();
        let a = switch_from_source(TO_LINK, SwitchConfig::default(), clock.clone()).unwrap();
        let b = switch_from_source(FWD_ALL, SwitchConfig::default(), clock).unwrap();
        let topo =
            Topology::new(2).link_with(Endpoint::new(0, 5), Endpoint::new(1, 4), latency_ns, 0);
        Simulator::fabric(vec![SharedSwitch::new(a), SharedSwitch::new(b)], topo)
    }

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let mut sim = mk();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (t, tag) in [(50u64, "b"), (10, "a"), (50, "c"), (99, "d")] {
            let log = log.clone();
            sim.schedule(t, move |s| log.borrow_mut().push((s.now(), tag)));
        }
        sim.run_until(100);
        assert_eq!(
            *log.borrow(),
            vec![(10, "a"), (50, "b"), (50, "c"), (99, "d")]
        );
        assert_eq!(sim.now(), 100);
    }

    #[test]
    fn events_scheduled_from_events_run() {
        let mut sim = mk();
        let hits = Rc::new(RefCell::new(0));
        let h = hits.clone();
        sim.schedule(10, move |s| {
            let h2 = h.clone();
            s.schedule(20, move |_| *h2.borrow_mut() += 1);
        });
        sim.run_until(100);
        assert_eq!(*hits.borrow(), 1);
    }

    #[test]
    fn periodic_stops_on_false() {
        let mut sim = mk();
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        sim.schedule_periodic(0, 10, move |_| {
            *c.borrow_mut() += 1;
            *c.borrow() < 5
        });
        sim.run_until(1_000);
        assert_eq!(*count.borrow(), 5);
    }

    #[test]
    fn injected_packets_get_transmitted_and_logged() {
        let mut sim = mk();
        for i in 0..3 {
            sim.schedule(i * 1_000, move |s| {
                s.switch().borrow_mut().inject(
                    &PacketDesc::new(0)
                        .field("ip", "src", i as u128)
                        .payload(100),
                );
            });
        }
        sim.run_until(1_000_000);
        let tx = sim.take_tx();
        assert_eq!(tx.len(), 3);
        assert_eq!(sim.tx_count, 3);
        assert_eq!(sim.tx_count_on(0), 3);
        assert!(tx.iter().all(|p| p.port == 2));
        // Timestamps are monotone.
        assert!(tx.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn events_beyond_horizon_stay_queued() {
        let mut sim = mk();
        let hits = Rc::new(RefCell::new(0));
        let h = hits.clone();
        sim.schedule(500, move |_| *h.borrow_mut() += 1);
        sim.run_until(100);
        assert_eq!(*hits.borrow(), 0);
        sim.run_until(1_000);
        assert_eq!(*hits.borrow(), 1);
    }

    #[test]
    fn tx_log_cap_discards_oldest_first() {
        let mut sim = mk();
        sim.tx_log_cap = 2;
        for i in 0..4 {
            sim.schedule(i * 10_000, move |s| {
                s.switch().borrow_mut().inject(
                    &PacketDesc::new(0)
                        .field("ip", "src", i as u128)
                        .payload(100),
                );
            });
        }
        sim.run_until(1_000_000);
        // All four transmissions counted, only the two *newest* kept.
        assert_eq!(sim.tx_count, 4);
        let tx = sim.take_tx();
        assert_eq!(tx.len(), 2);
        let srcs: Vec<u64> = {
            let sw = sim.switch().borrow();
            let id = sw.spec().field_id("ip", "src").unwrap();
            tx.iter().map(|p| p.phv.get(id).as_u64()).collect()
        };
        assert_eq!(srcs, vec![2, 3], "older packets must be discarded first");
    }

    #[test]
    fn linked_ports_deliver_to_the_peer_after_the_wire_delay() {
        let mut sim = mk_pair(5_000);
        sim.schedule(0, |s| {
            s.switch_at(0)
                .borrow_mut()
                .inject(&PacketDesc::new(0).field("ip", "src", 7).payload(100));
        });
        sim.run_until(2_000_000);
        // Hop 1 (switch 0 → link) is not an end-to-end delivery...
        assert_eq!(sim.tx_count_on(0), 1);
        // ...but switch 1 received it and forwarded it out its unlinked
        // port 2.
        assert_eq!(sim.tx_count_on(1), 1);
        assert_eq!(sim.tx_count, 2);
        let tx = sim.take_tx_tagged();
        assert_eq!(tx.len(), 1, "only the fabric exit is logged");
        let (from, pkt) = &tx[0];
        assert_eq!(*from, 1);
        assert_eq!(pkt.port, 2);
        {
            let sw = sim.switch_at(1).borrow();
            let id = sw.spec().field_id("ip", "src").unwrap();
            assert_eq!(pkt.phv.get(id).as_u64(), 7, "header survived the hop");
        }
        // The second hop can only start after the 5 µs wire delay.
        assert!(pkt.time > 5_000, "delivery at {} ns", pkt.time);
    }

    #[test]
    fn fabric_runs_are_deterministic() {
        let run = || {
            let mut sim = mk_pair(700);
            for i in 0..20u64 {
                sim.schedule(i * 777, move |s| {
                    s.switch_at(0).borrow_mut().inject(
                        &PacketDesc::new(0)
                            .field("ip", "src", u128::from(i))
                            .payload(64),
                    );
                });
            }
            sim.run_until(3_000_000);
            let fingerprint: Vec<(usize, u64, u16)> = sim
                .take_tx_tagged()
                .iter()
                .map(|(sw, p)| (*sw, p.time, p.port))
                .collect();
            (fingerprint, sim.tx_count, sim.tx_bytes)
        };
        assert_eq!(run(), run());
    }

    /// A periodic chain whose next nominal firing would pass the u64
    /// horizon must end instead of clamping — a clamped reschedule would
    /// fire at the same instant forever.
    #[test]
    fn periodic_chain_ends_at_u64_horizon() {
        let mut sim = mk();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        sim.schedule_periodic(u64::MAX - 10, 8, move |_| {
            *c.borrow_mut() += 1;
            true
        });
        // Fires at MAX-10 and MAX-2; MAX-2 + 8 overflows, ending the
        // chain. If the add wrapped this loop would never terminate.
        sim.run_until(u64::MAX);
        assert_eq!(*count.borrow(), 2);
        assert_eq!(sim.now(), u64::MAX);
    }

    /// A zero interval degrades to 1 ns instead of rescheduling at the
    /// same instant, so the run still terminates.
    #[test]
    fn periodic_zero_interval_still_advances_time() {
        let mut sim = mk();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        sim.schedule_periodic(5, 0, move |_| {
            *c.borrow_mut() += 1;
            true
        });
        sim.run_until(10);
        // Fires at 5, 6, ..., 10.
        assert_eq!(*count.borrow(), 6);
    }

    /// Wire delay near the horizon saturates: the arrival lands at
    /// u64::MAX rather than wrapping into the packet's past.
    #[test]
    fn wire_delay_saturates_at_u64_horizon() {
        let mut sim = mk_pair(u64::MAX);
        sim.schedule(1_000, |s| {
            s.switch_at(0)
                .borrow_mut()
                .inject(&PacketDesc::new(0).field("ip", "src", 1).payload(64));
        });
        sim.run_until(u64::MAX);
        let tx = sim.take_tx_tagged();
        assert_eq!(tx.len(), 1, "packet must still arrive at the horizon");
        let (sw, pkt) = &tx[0];
        assert_eq!(*sw, 1);
        assert!(pkt.time >= 1_000, "arrival wrapped into the past");
        assert_eq!(sim.now(), u64::MAX);
    }

    /// `run_for` with a duration that would pass the horizon clamps to
    /// u64::MAX instead of wrapping to an earlier target.
    #[test]
    fn run_for_saturates_at_u64_horizon() {
        let mut sim = mk();
        sim.run_until(1_000);
        sim.run_for(u64::MAX);
        assert_eq!(sim.now(), u64::MAX);
    }
}
