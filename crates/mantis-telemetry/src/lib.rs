//! Virtual-clock-native observability for the Mantis stack.
//!
//! Everything in the simulator runs on a shared virtual clock, so
//! telemetry here is *deterministic*: two runs with the same seed
//! produce byte-identical traces and snapshots. The crate deliberately
//! has no dependencies and no notion of wall time — callers pass
//! virtual-clock timestamps (`Nanos`) into every recording call.
//!
//! Three facilities share one [`Telemetry`] handle:
//!
//! * a **tracer** — a fixed-capacity ring buffer of span begin/end and
//!   instant events, exportable as Chrome `trace_event` JSON
//!   ([`Telemetry::chrome_trace_json`]) that loads directly into
//!   Perfetto / `chrome://tracing`;
//! * a **metrics registry** — counters, gauges, and log-linear
//!   histograms with p50/p95/p99 snapshots
//!   ([`Telemetry::snapshot`], [`Telemetry::snapshot_json`]), backed by
//!   one interned name table: [`Telemetry::metric_id`] resolves a name
//!   once, and recording by [`MetricId`] through a [`Recorder`] is a slot
//!   index, with any number of records under one lock (the name-based
//!   calls are wrappers over the same table);
//! * **reaction-loop profiling conventions** — the agent records its
//!   dialogue phases as spans ([`scopes`]) and each driver op into
//!   per-op histograms, so a single trace shows where a reaction
//!   window went.
//!
//! The handle is `Arc`-shared and internally mutexed, so one registry can
//! be attached to every switch, agent and driver of a fabric. Threads
//! that record side by side can each write into a private *staging*
//! handle ([`Telemetry::staging`]) and have it merged back into the main
//! registry in a fixed order ([`Telemetry::merge_from`]), so the exported
//! bytes do not depend on thread scheduling.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

/// Virtual-clock timestamp, nanoseconds. Mirrors `rmt_sim::Nanos`
/// without depending on it (this crate sits below the whole stack).
pub type Nanos = u64;

/// Trace scopes, rendered as named "threads" in the Chrome trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// The control-plane agent's dialogue loop.
    Agent,
    /// The Mantis driver (P4Runtime-ish op costs, locking).
    Driver,
    /// The RMT pipeline (stages, parser/deparser).
    Switch,
    /// The traffic manager (queues, scheduling).
    TrafficManager,
    /// The host/network simulation (flows, drops, marks).
    NetSim,
    /// Benchmark harness bookkeeping.
    Bench,
}

impl Scope {
    /// Stable Chrome-trace thread id for the scope.
    pub fn tid(self) -> u32 {
        match self {
            Scope::Agent => 1,
            Scope::Driver => 2,
            Scope::Switch => 3,
            Scope::TrafficManager => 4,
            Scope::NetSim => 5,
            Scope::Bench => 6,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scope::Agent => "agent",
            Scope::Driver => "driver",
            Scope::Switch => "switch",
            Scope::TrafficManager => "traffic-manager",
            Scope::NetSim => "netsim",
            Scope::Bench => "bench",
        }
    }

    const ALL: [Scope; 6] = [
        Scope::Agent,
        Scope::Driver,
        Scope::Switch,
        Scope::TrafficManager,
        Scope::NetSim,
        Scope::Bench,
    ];
}

/// Span / metric naming conventions used across the workspace, kept in
/// one place so instrumentation sites and consumers (bench, tests)
/// cannot drift apart.
pub mod scopes {
    /// One full dialogue iteration (measure → react → update → sync).
    pub const SPAN_ITERATION: &str = "iteration";
    /// Phase 1: write the master sequence register + batched reads.
    pub const SPAN_MEASURE: &str = "measure";
    /// Phase 2: run user reactions against the measurement snapshot.
    pub const SPAN_REACT: &str = "react";
    /// Phase 3: apply staged malleable updates (prepare + commit).
    pub const SPAN_UPDATE: &str = "update";
    /// Phase 4: mirror committed state into the agent's shadow copy.
    pub const SPAN_SYNC: &str = "sync";

    /// Histogram of per-iteration busy time.
    pub const HIST_ITERATION_NS: &str = "agent.iteration_ns";
    pub const HIST_MEASURE_NS: &str = "agent.measure_ns";
    pub const HIST_REACT_NS: &str = "agent.react_ns";
    pub const HIST_UPDATE_NS: &str = "agent.update_ns";
    pub const HIST_SYNC_NS: &str = "agent.sync_ns";

    /// Total iterations / busy nanoseconds (drive `run_paced` stats).
    pub const CTR_ITERATIONS: &str = "agent.iterations";
    pub const CTR_BUSY_NS: &str = "agent.busy_ns";
    pub const CTR_STAGED_TABLE_OPS: &str = "agent.staged_table_ops";

    /// Per-driver-op latency histograms (`driver.<op>_ns`) and call
    /// counters (`driver.<op>_calls`) are derived from the op name via
    /// [`super::Telemetry::driver_op`].
    pub const DRIVER_OP_PREFIX: &str = "driver.";

    // -- fault tolerance (DESIGN.md §8) --------------------------------

    /// Faults injected by a `mantis-faults` plan into driver ops.
    pub const CTR_FAULTS_INJECTED: &str = "fault.injected";
    /// Driver-op retries performed by the agent.
    pub const CTR_RETRIES: &str = "agent.retries";
    /// Transactional rollbacks of the malleable-update phase.
    pub const CTR_ROLLBACKS: &str = "agent.rollbacks";
    /// Reaction executions skipped because their breaker was open.
    pub const CTR_QUARANTINE_SKIPS: &str = "agent.quarantined";
    /// Reactions that fell back from the bytecode VM to the tree-walker
    /// because VM compilation was unsupported (walker-only coverage).
    pub const CTR_VM_FALLBACK: &str = "reaction.vm_fallback";
    /// Histogram of virtual-clock retry backoffs.
    pub const HIST_RETRY_BACKOFF_NS: &str = "agent.retry_backoff_ns";
    /// Currently quarantined (breaker-open) reactions.
    pub const GAUGE_QUARANTINED: &str = "agent.quarantined_reactions";
    /// 1 while at least one reaction is quarantined (degraded mode).
    pub const GAUGE_DEGRADED: &str = "agent.degraded";

    // -- remote control plane (DESIGN.md §11) ---------------------------

    /// Control-channel frames transmitted (every attempt, retries and
    /// injected duplicates included).
    pub const CTR_CONTROL_FRAMES: &str = "control.frames";
    /// Control-channel bytes transmitted.
    pub const CTR_CONTROL_BYTES: &str = "control.bytes";
    /// Request frames lost to an injected channel fault.
    pub const CTR_CONTROL_DROPS: &str = "control.frames_dropped";
    /// Frames delivered twice by an injected channel fault (the endpoint
    /// deduplicates by sequence number).
    pub const CTR_CONTROL_DUPS: &str = "control.frames_duplicated";
    /// Driver ops carried per request frame (batching effectiveness).
    pub const HIST_CONTROL_BATCH: &str = "control.batch_size";
    /// Virtual-time round-trip latency per successful request frame.
    pub const HIST_CONTROL_RTT_NS: &str = "control.rtt_ns";
    /// Driver ops that failed with an injected fault, mirrored from
    /// `DriverStats.injected_failures` (recorded only when faults fire, so
    /// fault-free traces stay byte-identical).
    pub const CTR_DRIVER_INJECTED: &str = "driver.injected_failures";

    // -- multi-pipe (DESIGN.md §9) -------------------------------------

    /// Name a metric scoped to one hardware pipe (`pipe<p>.<name>`).
    /// Multi-pipe switches label per-pipe counters this way; a
    /// single-pipe switch emits the unprefixed name so existing traces
    /// stay byte-identical.
    pub fn pipe_metric(pipe: u16, name: &str) -> String {
        format!("pipe{pipe}.{name}")
    }

    // -- multi-switch fabric (DESIGN.md §10) ----------------------------

    /// Name a metric scoped to one switch of a fabric (`sw<i>.<name>`),
    /// mirroring [`pipe_metric`]. Fabrics with more than one switch label
    /// per-switch counters this way; a single-switch testbed emits the
    /// unprefixed name so existing traces stay byte-identical.
    pub fn switch_metric(switch: u16, name: &str) -> String {
        format!("sw{switch}.{name}")
    }
}

// -- configuration ----------------------------------------------------------

#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Ring-buffer capacity for trace events; older events are dropped
    /// (and counted) once full.
    pub trace_capacity: usize,
    /// Master switch: when false, recording calls are no-ops (metrics
    /// and events alike) and exports describe an empty registry.
    pub enabled: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 1 << 16,
            enabled: true,
        }
    }
}

// -- trace events -----------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    Begin,
    End,
    Instant,
}

#[derive(Clone, Debug)]
struct Event {
    t: Nanos,
    scope: Scope,
    phase: Phase,
    /// Every caller names events with a literal or a [`scopes`] constant,
    /// so recording (and evicting) an event never touches the heap.
    name: &'static str,
    /// Small numeric payload; rendered into Chrome-trace `args`.
    args: Vec<(&'static str, i128)>,
}

// -- log-linear histogram ---------------------------------------------------

const SUB_BUCKETS: usize = 16;
const MAGNITUDES: usize = 64;

/// Log-linear histogram over `u64` values: 64 power-of-two magnitude
/// ranges, each split into 16 linear sub-buckets (~6% relative error on
/// quantile estimates). Deterministic and allocation-free after
/// construction.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u32>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; MAGNITUDES * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let mag = 63 - v.leading_zeros() as usize;
    // Top SUB_BUCKETS.ilog2() bits below the leading one pick the
    // sub-bucket within the magnitude.
    let shift = mag.saturating_sub(4);
    let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
    mag * SUB_BUCKETS + sub
}

fn bucket_value(index: usize) -> u64 {
    let mag = index / SUB_BUCKETS;
    let sub = (index % SUB_BUCKETS) as u64;
    if mag < 4 {
        return (mag as u64 * SUB_BUCKETS as u64 + sub).min(SUB_BUCKETS as u64 - 1);
    }
    // Midpoint of the sub-bucket's range.
    let base = (1u64 << mag) | (sub << (mag - 4));
    base + (1u64 << (mag - 4)) / 2
}

impl Histogram {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one (bucket-wise). Histograms are
    /// distributions, so merging is commutative.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Quantile estimate (`q` in `[0, 1]`); exact at the recorded min
    /// and max, bucket-midpoint otherwise. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += u64::from(*c);
            if seen >= rank {
                return bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
        }
    }
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u128,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub mean: f64,
}

/// Point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, i128>,
    pub gauges: BTreeMap<String, i128>,
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Trace events currently held in the ring buffer.
    pub events_buffered: u64,
    /// Events evicted because the ring buffer was full.
    pub events_dropped: u64,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> i128 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> i128 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.get(name)
    }
}

// -- interned metric table --------------------------------------------------

/// An interned metric name: an index into one registry's name table,
/// returned by [`Telemetry::metric_id`] or [`Recorder::lazy_id`].
/// Recording by id through a [`Recorder`] skips the name lookup. An id
/// stays valid for the life of the registry that issued it (across
/// [`Telemetry::reset`] too) but means nothing to any other registry, so a
/// component that caches ids must drop them when it is handed a different
/// handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId(u32);

/// One interned name and whatever has been recorded under it. A name has
/// separate counter, gauge and histogram values (the exports keep three
/// namespaces); each stays `None` — and out of every export — until it is
/// first recorded.
#[derive(Debug)]
struct Slot {
    name: String,
    counter: Option<i128>,
    gauge: Option<i128>,
    hist: Option<Histogram>,
}

/// What a staged slot carried into [`Telemetry::merge_from`].
type StagedSlot = (String, Option<i128>, Option<i128>, Option<Histogram>);

// -- the shared handle ------------------------------------------------------

#[derive(Debug, Default)]
struct Inner {
    config: TelemetryConfig,
    events: VecDeque<Event>,
    events_dropped: u64,
    ids: HashMap<String, MetricId>,
    slots: Vec<Slot>,
    /// `driver.<op>_calls` / `driver.<op>_ns` ids per op name, so
    /// [`Recorder::driver_op`] formats each pair once per registry.
    driver_ops: HashMap<&'static str, (MetricId, MetricId)>,
}

impl Inner {
    fn intern(&mut self, name: &str) -> MetricId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = MetricId(u32::try_from(self.slots.len()).expect("metric table overflow"));
        self.ids.insert(name.to_owned(), id);
        self.slots.push(Slot {
            name: name.to_owned(),
            counter: None,
            gauge: None,
            hist: None,
        });
        id
    }

    fn slot(&mut self, id: MetricId) -> &mut Slot {
        &mut self.slots[id.0 as usize]
    }

    fn lookup(&self, name: &str) -> Option<&Slot> {
        self.ids.get(name).map(|id| &self.slots[id.0 as usize])
    }

    /// Append `ev` to the ring, evicting the oldest event when full. Each
    /// event that does not survive counts as exactly one drop.
    fn push(&mut self, ev: Event) {
        if self.config.trace_capacity == 0 {
            self.events_dropped += 1;
            return;
        }
        if self.events.len() >= self.config.trace_capacity {
            self.events.pop_front();
            self.events_dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// An enabled registry, locked for a burst of recording calls by id
/// ([`Telemetry::recorder`]). Everything recorded through one recorder
/// costs one lock. Keep it only across the recording calls themselves:
/// any other call on the same handle while it is alive deadlocks.
pub struct Recorder<'a>(MutexGuard<'a, Inner>);

impl Recorder<'_> {
    /// Intern `name` (see [`Telemetry::metric_id`]).
    pub fn metric_id(&mut self, name: &str) -> MetricId {
        self.0.intern(name)
    }

    /// The id cached in `slot`, interning `name()` into it on first use.
    /// Hot recording sites keep one `Option<MetricId>` per metric, resolve
    /// it on their first record, and clear it whenever they are handed a
    /// different registry.
    pub fn lazy_id<N: AsRef<str>>(
        &mut self,
        slot: &mut Option<MetricId>,
        name: impl FnOnce() -> N,
    ) -> MetricId {
        *slot.get_or_insert_with(|| self.0.intern(name().as_ref()))
    }

    #[inline]
    pub fn counter_add(&mut self, id: MetricId, delta: i128) {
        let c = &mut self.0.slot(id).counter;
        *c = Some(c.unwrap_or(0) + delta);
    }

    #[inline]
    pub fn gauge_set(&mut self, id: MetricId, value: i128) {
        self.0.slot(id).gauge = Some(value);
    }

    #[inline]
    pub fn hist_record(&mut self, id: MetricId, value: u64) {
        self.0
            .slot(id)
            .hist
            .get_or_insert_with(Histogram::default)
            .record(value);
    }

    /// A complete span: a begin event at `begin`, then an end event at
    /// `end` (the pair [`Telemetry::span_begin`] / [`Telemetry::span_end`]
    /// would record).
    #[inline]
    pub fn span(&mut self, scope: Scope, name: &'static str, begin: Nanos, end: Nanos) {
        for (t, phase) in [(begin, Phase::Begin), (end, Phase::End)] {
            self.0.push(Event {
                t,
                scope,
                phase,
                name,
                args: Vec::new(),
            });
        }
    }

    /// Record one driver op: bumps `driver.<op>_calls` and feeds
    /// `driver.<op>_ns`. This is the per-op accounting behind the
    /// reaction-loop profile (batched register reads vs table writes
    /// vs scalar updates all show up as separate histograms). The two
    /// names are formatted and interned once per op and registry.
    pub fn driver_op(&mut self, op: &'static str, cost_ns: Nanos) {
        let (calls, ns) = match self.0.driver_ops.get(op) {
            Some(&ids) => ids,
            None => {
                let ids = (
                    self.metric_id(&format!("{}{op}_calls", scopes::DRIVER_OP_PREFIX)),
                    self.metric_id(&format!("{}{op}_ns", scopes::DRIVER_OP_PREFIX)),
                );
                self.0.driver_ops.insert(op, ids);
                ids
            }
        };
        self.counter_add(calls, 1);
        self.hist_record(ns, cost_ns);
    }
}

/// The shared telemetry handle. Clone the `Arc` freely; all methods
/// take `&self`.
#[derive(Debug)]
pub struct Telemetry {
    inner: Mutex<Inner>,
    /// Names this registry in the poison panic, so a recorder thread
    /// that dies mid-update points at the failing staging handle.
    label: String,
    /// Mirror of `config.enabled`, which is fixed at construction: the
    /// packet hot path checks it before every record and must not pay a
    /// mutex acquisition for a constant.
    enabled: bool,
}

impl Telemetry {
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry::labeled(config, String::new())
    }

    // NOTE: no derived `Default` — the cached `enabled` mirror must agree
    // with the config inside the mutex, so construction always funnels
    // through `labeled`.

    /// A registry whose poison panic names `label` (e.g. which recorder
    /// its staging handle backs).
    pub fn labeled(config: TelemetryConfig, label: impl Into<String>) -> Self {
        let enabled = config.enabled;
        Telemetry {
            inner: Mutex::new(Inner {
                config,
                ..Inner::default()
            }),
            label: label.into(),
            enabled,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(_) => {
                // A recorder panicked while holding the registry. Limping
                // on over half-applied counter updates would surface as
                // an unrelated conservation-oracle failure later — crash
                // loudly here, naming the registry, so the failure
                // points at the recorder that died.
                let who = if self.label.is_empty() {
                    "shared registry"
                } else {
                    self.label.as_str()
                };
                panic!(
                    "Telemetry: lock poisoned ({who}) — a recorder panicked \
                     mid-update; metrics are suspect, aborting"
                );
            }
        }
    }

    /// Lock the registry for recording by id, or `None` when recording
    /// is off (a disabled handle never takes its lock).
    #[inline]
    pub fn recorder(&self) -> Option<Recorder<'_>> {
        self.enabled.then(|| Recorder(self.lock()))
    }

    /// An enabled handle with default config, ready to share.
    pub fn shared() -> Arc<Telemetry> {
        Arc::new(Telemetry::new(TelemetryConfig::default()))
    }

    /// A handle that records nothing (the default for components whose
    /// caller did not ask for telemetry).
    pub fn disabled() -> Arc<Telemetry> {
        Arc::new(Telemetry::new(TelemetryConfig {
            enabled: false,
            trace_capacity: 0,
        }))
    }

    /// A fresh staging handle mirroring this handle's master switch:
    /// enabled iff `self` is, with an effectively unbounded ring so
    /// *which* events get dropped stays a property of the main ring's
    /// capacity, not of how recording was split across handles. Each
    /// recording thread writes into its own staging handle; the owner
    /// folds the buffers back in a fixed order with
    /// [`Telemetry::merge_from`].
    pub fn staging(&self) -> Arc<Telemetry> {
        self.staging_for("unnamed staging handle")
    }

    /// [`Telemetry::staging`] with a label, named in the poison panic if
    /// a recorder dies while holding the staging registry.
    pub fn staging_for(&self, label: impl Into<String>) -> Arc<Telemetry> {
        let enabled = self.is_enabled();
        Arc::new(Telemetry::labeled(
            TelemetryConfig {
                enabled,
                trace_capacity: if enabled { usize::MAX } else { 0 },
            },
            label,
        ))
    }

    /// Drain `staged` (a buffer produced via [`Telemetry::staging`]) into
    /// this handle: trace events are appended in their recorded order
    /// (subject to this handle's ring capacity, exactly as if they had
    /// been recorded here directly), counters add, gauges take the staged
    /// final value, and histograms fold bucket-wise. Calling this for
    /// every staging handle in a fixed order reproduces byte for byte
    /// what recording their contents here directly, one handle after
    /// another, would have produced. The staged registry keeps
    /// its names (ids it issued stay valid) but no values.
    pub fn merge_from(&self, staged: &Telemetry) {
        let mut src = staged.lock();
        if !src.config.enabled {
            return;
        }
        let events: Vec<Event> = src.events.drain(..).collect();
        let dropped = std::mem::take(&mut src.events_dropped);
        let slots: Vec<StagedSlot> = src
            .slots
            .iter_mut()
            .filter(|s| s.counter.is_some() || s.gauge.is_some() || s.hist.is_some())
            .map(|s| {
                (
                    s.name.clone(),
                    s.counter.take(),
                    s.gauge.take(),
                    s.hist.take(),
                )
            })
            .collect();
        drop(src);
        let Some(mut dst) = self.recorder() else {
            return;
        };
        // Staging rings are unbounded, so `dropped` is 0 in practice;
        // carry it anyway so accounting can never lose events silently.
        dst.0.events_dropped += dropped;
        for ev in events {
            dst.0.push(ev);
        }
        for (name, counter, gauge, hist) in slots {
            let id = dst.metric_id(&name);
            if let Some(delta) = counter {
                dst.counter_add(id, delta);
            }
            if let Some(value) = gauge {
                dst.gauge_set(id, value);
            }
            if let Some(h) = hist {
                let slot = dst.0.slot(id);
                match &mut slot.hist {
                    Some(existing) => existing.merge(&h),
                    None => slot.hist = Some(h),
                }
            }
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// [`is_enabled`](Telemetry::is_enabled) at its historical cost: a
    /// mutex acquisition per check. The answer is identical; only the
    /// price differs. Benchmark baselines that replicate the pre-cache
    /// engine call this so their per-packet cost shape stays faithful.
    pub fn is_enabled_uncached(&self) -> bool {
        self.lock().config.enabled
    }

    // -- tracer ------------------------------------------------------------

    pub fn span_begin(&self, scope: Scope, name: &'static str, t: Nanos) {
        self.push(Event {
            t,
            scope,
            phase: Phase::Begin,
            name,
            args: Vec::new(),
        });
    }

    pub fn span_end(&self, scope: Scope, name: &'static str, t: Nanos) {
        self.push(Event {
            t,
            scope,
            phase: Phase::End,
            name,
            args: Vec::new(),
        });
    }

    /// A point event with a small numeric payload.
    pub fn instant(
        &self,
        scope: Scope,
        name: &'static str,
        t: Nanos,
        args: &[(&'static str, i128)],
    ) {
        self.push(Event {
            t,
            scope,
            phase: Phase::Instant,
            name,
            args: args.to_vec(),
        });
    }

    fn push(&self, ev: Event) {
        if let Some(Recorder(mut inner)) = self.recorder() {
            inner.push(ev);
        }
    }

    // -- metrics registry --------------------------------------------------

    /// Intern `name`, returning its id in this registry. Interning alone
    /// records nothing: the metric appears in exports only once a value
    /// is recorded under it.
    pub fn metric_id(&self, name: &str) -> MetricId {
        self.lock().intern(name)
    }

    // The name-based calls intern on every record; hot sites resolve ids
    // once and record through a `Recorder` instead.

    pub fn counter_add(&self, name: &str, delta: i128) {
        if let Some(mut rec) = self.recorder() {
            let id = rec.metric_id(name);
            rec.counter_add(id, delta);
        }
    }

    pub fn gauge_set(&self, name: &str, value: i128) {
        if let Some(mut rec) = self.recorder() {
            let id = rec.metric_id(name);
            rec.gauge_set(id, value);
        }
    }

    pub fn hist_record(&self, name: &str, value: u64) {
        if let Some(mut rec) = self.recorder() {
            let id = rec.metric_id(name);
            rec.hist_record(id, value);
        }
    }

    /// [`Recorder::driver_op`] under its own lock.
    pub fn driver_op(&self, op: &'static str, cost_ns: Nanos) {
        if let Some(mut rec) = self.recorder() {
            rec.driver_op(op, cost_ns);
        }
    }

    pub fn counter(&self, name: &str) -> i128 {
        self.lock()
            .lookup(name)
            .and_then(|s| s.counter)
            .unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> i128 {
        self.lock().lookup(name).and_then(|s| s.gauge).unwrap_or(0)
    }

    pub fn hist_quantile(&self, name: &str, q: f64) -> u64 {
        self.lock()
            .lookup(name)
            .and_then(|s| s.hist.as_ref())
            .map(|h| h.quantile(q))
            .unwrap_or(0)
    }

    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut snap = Snapshot {
            events_buffered: inner.events.len() as u64,
            events_dropped: inner.events_dropped,
            ..Snapshot::default()
        };
        for s in &inner.slots {
            if let Some(v) = s.counter {
                snap.counters.insert(s.name.clone(), v);
            }
            if let Some(v) = s.gauge {
                snap.gauges.insert(s.name.clone(), v);
            }
            if let Some(h) = &s.hist {
                snap.hists.insert(s.name.clone(), h.snapshot());
            }
        }
        snap
    }

    /// Drop all recorded events and metric values (config is kept, and
    /// so is the name table: ids issued before the reset stay valid).
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.events.clear();
        inner.events_dropped = 0;
        for s in &mut inner.slots {
            s.counter = None;
            s.gauge = None;
            s.hist = None;
        }
    }

    // -- exporters ---------------------------------------------------------

    /// Chrome `trace_event` JSON (the "JSON Array Format" wrapped in an
    /// object), loadable in Perfetto / `chrome://tracing`. Timestamps
    /// are virtual-clock microseconds with nanosecond fractions;
    /// output is byte-deterministic for a given event sequence.
    pub fn chrome_trace_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        // Thread-name metadata so scopes render with readable labels.
        for scope in Scope::ALL {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                scope.tid(),
                scope.name()
            );
        }
        for ev in &inner.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let ph = match ev.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            let _ = write!(
                out,
                "{{\"ph\":\"{}\",\"pid\":0,\"tid\":{},\"ts\":{}.{:03},\"name\":\"{}\"",
                ph,
                ev.scope.tid(),
                ev.t / 1_000,
                ev.t % 1_000,
                escape_json(ev.name),
            );
            if ev.phase == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{}", escape_json(k), v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Flat JSON snapshot of the metrics registry: counters, gauges,
    /// and histogram summaries. Byte-deterministic (sorted keys).
    pub fn snapshot_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &snap.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape_json(k), v);
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &snap.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape_json(k), v);
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &snap.hists {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                escape_json(k),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99
            );
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        let _ = write!(
            out,
            "  \"events_buffered\": {},\n  \"events_dropped\": {}\n}}\n",
            snap.events_buffered, snap.events_dropped
        );
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // Log-linear buckets: ~6% relative error tolerated.
        assert!((450..=550).contains(&s.p50), "p50 = {}", s.p50);
        assert!((900..=1000).contains(&s.p95), "p95 = {}", s.p95);
        assert!((940..=1000).contains(&s.p99), "p99 = {}", s.p99);
    }

    #[test]
    fn histogram_handles_edge_values() {
        let mut h = Histogram::default();
        assert_eq!(h.snapshot().p50, 0);
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.count, 2);
        assert!(s.p99 >= s.p50, "quantiles must be monotone");
    }

    #[test]
    fn single_value_histogram_is_exact_at_all_quantiles() {
        let mut h = Histogram::default();
        h.record(42);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42);
        }
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let tel = Telemetry::new(TelemetryConfig {
            trace_capacity: 2,
            enabled: true,
        });
        tel.instant(Scope::Agent, "a", 1, &[]);
        tel.instant(Scope::Agent, "b", 2, &[]);
        tel.instant(Scope::Agent, "c", 3, &[]);
        let snap = tel.snapshot();
        assert_eq!(snap.events_buffered, 2);
        assert_eq!(snap.events_dropped, 1);
        let trace = tel.chrome_trace_json();
        assert!(!trace.contains("\"name\":\"a\""));
        assert!(trace.contains("\"name\":\"c\""));
    }

    #[test]
    fn zero_capacity_ring_counts_each_event_once() {
        let tel = Telemetry::new(TelemetryConfig {
            trace_capacity: 0,
            enabled: true,
        });
        for t in 0..3 {
            tel.recorder().unwrap().span(Scope::Agent, "s", t, t + 1);
        }
        tel.instant(Scope::Agent, "i", 9, &[]);
        let snap = tel.snapshot();
        assert_eq!(snap.events_buffered, 0);
        // Three spans are six events (begin + end), plus one instant.
        assert_eq!(snap.events_dropped, 7);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        tel.counter_add("x", 5);
        tel.hist_record("h", 9);
        tel.span_begin(Scope::Agent, "s", 0);
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
        assert_eq!(snap.events_buffered, 0);
    }

    #[test]
    fn exports_are_deterministic() {
        let run = || {
            let tel = Telemetry::new(TelemetryConfig::default());
            tel.span_begin(Scope::Agent, scopes::SPAN_MEASURE, 1_500);
            tel.span_end(Scope::Agent, scopes::SPAN_MEASURE, 2_750);
            tel.driver_op("table_add", 600);
            tel.driver_op("table_add", 800);
            tel.counter_add(scopes::CTR_ITERATIONS, 1);
            tel.gauge_set("tm.q0_depth", 12);
            (tel.chrome_trace_json(), tel.snapshot_json())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chrome_trace_has_span_pairs_and_metadata() {
        let tel = Telemetry::new(TelemetryConfig::default());
        tel.span_begin(Scope::Driver, "register_read", 1_000);
        tel.span_end(Scope::Driver, "register_read", 3_500);
        tel.instant(Scope::NetSim, "drop", 2_000, &[("port", 3)]);
        let trace = tel.chrome_trace_json();
        assert!(trace.contains("\"ph\":\"B\""));
        assert!(trace.contains("\"ph\":\"E\""));
        assert!(trace.contains("\"ts\":1.000"));
        assert!(trace.contains("\"ts\":3.500"));
        assert!(trace.contains("\"args\":{\"port\":3}"));
        assert!(trace.contains("\"thread_name\""));
    }

    #[test]
    fn snapshot_json_contains_percentiles() {
        let tel = Telemetry::new(TelemetryConfig::default());
        for i in 0..100 {
            tel.driver_op("register_read", 1_000 + i * 10);
        }
        let json = tel.snapshot_json();
        assert!(json.contains("\"driver.register_read_ns\""));
        assert!(json.contains("\"p99\""));
        assert_eq!(tel.counter("driver.register_read_calls"), 100);
    }

    #[test]
    fn staging_merge_in_order_matches_direct_recording() {
        // Recording directly vs recording into two stagings merged in
        // canonical order must produce byte-identical exports.
        let direct = Telemetry::new(TelemetryConfig::default());
        direct.instant(Scope::Switch, "a", 10, &[("sw", 0)]);
        direct.counter_add("switch.tx", 3);
        direct.gauge_set("tm.q0_depth_bytes", 64);
        direct.instant(Scope::Switch, "b", 20, &[("sw", 1)]);
        direct.counter_add("switch.tx", 5);
        direct.gauge_set("tm.q0_depth_bytes", 128);
        direct.hist_record("lat", 100);
        direct.hist_record("lat", 200);

        let merged = Telemetry::new(TelemetryConfig::default());
        let s0 = merged.staging();
        let s1 = merged.staging();
        s0.instant(Scope::Switch, "a", 10, &[("sw", 0)]);
        s0.counter_add("switch.tx", 3);
        s0.gauge_set("tm.q0_depth_bytes", 64);
        s0.hist_record("lat", 100);
        s1.instant(Scope::Switch, "b", 20, &[("sw", 1)]);
        s1.counter_add("switch.tx", 5);
        s1.gauge_set("tm.q0_depth_bytes", 128);
        s1.hist_record("lat", 200);
        merged.merge_from(&s0);
        merged.merge_from(&s1);

        assert_eq!(direct.chrome_trace_json(), merged.chrome_trace_json());
        assert_eq!(direct.snapshot_json(), merged.snapshot_json());
        // Gauge takes the later staging handle's final value (last writer).
        assert_eq!(merged.gauge("tm.q0_depth_bytes"), 128);
        assert_eq!(merged.counter("switch.tx"), 8);
    }

    #[test]
    fn staging_of_disabled_handle_records_nothing() {
        let main = Telemetry::disabled();
        let s = main.staging();
        assert!(!s.is_enabled());
        s.instant(Scope::Switch, "a", 10, &[]);
        s.counter_add("c", 1);
        main.merge_from(&s);
        assert_eq!(main.counter("c"), 0);
    }

    #[test]
    fn merge_respects_destination_ring_capacity() {
        let main = Telemetry::new(TelemetryConfig {
            enabled: true,
            trace_capacity: 2,
        });
        let s = main.staging();
        for t in 0..5 {
            s.instant(Scope::Switch, "e", t, &[]);
        }
        main.merge_from(&s);
        let snap = main.snapshot();
        assert_eq!(snap.events_buffered, 2);
        assert_eq!(snap.events_dropped, 3);
        // Ring keeps the most recent events, same as direct recording.
        let trace = main.chrome_trace_json();
        assert!(trace.contains("\"ts\":0.004"));
        assert!(!trace.contains("\"ts\":0.000,"));
    }

    #[test]
    fn interning_alone_exports_nothing() {
        let tel = Telemetry::shared();
        tel.metric_id("switch.rx");
        tel.metric_id("tm.q0_depth_bytes");
        let mut slot = None;
        tel.recorder().unwrap().lazy_id(&mut slot, || "switch.tx");
        assert!(slot.is_some());
        let empty = Telemetry::shared();
        assert_eq!(tel.snapshot_json(), empty.snapshot_json());
        assert_eq!(tel.counter("switch.rx"), 0);
    }

    #[test]
    fn reset_keeps_ids_valid() {
        let tel = Telemetry::shared();
        let rx = tel.metric_id("switch.rx");
        let depth = tel.metric_id("tm.q0_depth_bytes");
        {
            let mut rec = tel.recorder().unwrap();
            rec.counter_add(rx, 3);
            rec.gauge_set(depth, 64);
        }
        tel.reset();
        assert_eq!(tel.snapshot_json(), Telemetry::shared().snapshot_json());
        assert_eq!(tel.metric_id("switch.rx"), rx, "reset re-numbered a name");
        tel.recorder().unwrap().counter_add(rx, 2);
        assert_eq!(tel.counter("switch.rx"), 2);
        assert_eq!(tel.gauge("tm.q0_depth_bytes"), 0, "gauge survived reset");
    }

    /// One workload recorded by id (and through the batched span and
    /// driver-op calls) or by name.
    fn record_workload(tel: &Telemetry, by_id: bool) {
        let mut ids = [None; 3];
        for i in 0..40u64 {
            if by_id {
                let mut rec = tel.recorder().unwrap();
                let rx = rec.lazy_id(&mut ids[0], || "switch.rx");
                let depth = rec.lazy_id(&mut ids[1], || format!("tm.q{}_depth_bytes", 3));
                let lat = rec.lazy_id(&mut ids[2], || "lat");
                rec.counter_add(rx, 1);
                rec.gauge_set(depth, i128::from(i % 7));
                rec.hist_record(lat, 100 + i * 13);
                rec.span(Scope::Switch, "egress_pass", i * 10, i * 10 + 4);
                rec.driver_op("register_read", 500 + i);
            } else {
                tel.counter_add("switch.rx", 1);
                tel.gauge_set("tm.q3_depth_bytes", i128::from(i % 7));
                tel.hist_record("lat", 100 + i * 13);
                tel.span_begin(Scope::Switch, "egress_pass", i * 10);
                tel.span_end(Scope::Switch, "egress_pass", i * 10 + 4);
                tel.counter_add("driver.register_read_calls", 1);
                tel.hist_record("driver.register_read_ns", 500 + i);
            }
            tel.instant(Scope::NetSim, "tcp_drop", i * 10 + 5, &[("flow", 1)]);
        }
    }

    #[test]
    fn id_and_name_recording_export_identical_bytes() {
        let by_id = Telemetry::new(TelemetryConfig {
            trace_capacity: 64,
            enabled: true,
        });
        let by_name = Telemetry::new(by_id.lock().config.clone());
        record_workload(&by_id, true);
        record_workload(&by_name, false);
        assert_eq!(by_id.chrome_trace_json(), by_name.chrome_trace_json());
        assert_eq!(by_id.snapshot_json(), by_name.snapshot_json());
        assert!(by_id.snapshot().events_dropped > 0, "ring never wrapped");
    }

    #[test]
    fn staged_id_recording_merges_like_direct_recording() {
        let direct = Telemetry::new(TelemetryConfig {
            trace_capacity: 64,
            enabled: true,
        });
        record_workload(&direct, true);
        record_workload(&direct, false);

        let merged = Telemetry::new(direct.lock().config.clone());
        // The main registry already knows some names, in another order.
        merged.metric_id("lat");
        let s0 = merged.staging();
        let s1 = merged.staging();
        record_workload(&s0, true);
        record_workload(&s1, false);
        let rx = s0.metric_id("switch.rx");
        merged.merge_from(&s0);
        merged.merge_from(&s1);
        assert_eq!(direct.chrome_trace_json(), merged.chrome_trace_json());
        assert_eq!(direct.snapshot_json(), merged.snapshot_json());
        // A drained staging registry exports nothing but keeps its ids.
        assert_eq!(s0.snapshot_json(), Telemetry::shared().snapshot_json());
        s0.recorder().unwrap().counter_add(rx, 1);
        assert_eq!(s0.counter("switch.rx"), 1);
    }

    #[test]
    #[should_panic(expected = "lock poisoned (staging shard for switch 3)")]
    fn poisoned_registry_panics_loudly_naming_the_shard() {
        let main = Telemetry::shared();
        let shard = main.staging_for("staging shard for switch 3");
        let poisoner = shard.clone();
        // Poison the mutex: panic while holding the guard on another thread.
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock();
            panic!("chaos recorder dies mid-update");
        })
        .join();
        shard.counter_add("switch.tx", 1); // must panic, naming the shard
    }
}
