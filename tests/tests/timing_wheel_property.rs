//! The [`Simulator`]'s public event-ordering contract, checked against a
//! binary-heap oracle:
//!
//! * events fire in `(time, schedule order)` order — same-time events run
//!   FIFO in the order they were scheduled, including events scheduled
//!   by running events;
//! * an event scheduled in the past runs at the current time (the clock
//!   never moves backwards);
//! * `run_until(t)` never runs an event later than `t`, leaves later
//!   events queued, and ends with the clock at `t`.
//!
//! The event queue used to be a hierarchical timing wheel. The scenarios
//! that broke that wheel (a level-boundary crossing, deep and overflow
//! ties, a short-period chain over a long-period event) stay here as
//! regression cases for whichever queue serves the simulator.

use mantis::netsim::Simulator;
use mantis::rmt_sim::switch_from_source;
use mantis::{Clock, SharedSwitch, SwitchConfig};
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// `(event id, virtual time it ran at)`, in execution order.
type Log = Rc<RefCell<Vec<(u64, u64)>>>;

/// Ids of events scheduled by a running event: their parent's id plus
/// this offset (every event schedules at most one child).
const CHILD: u64 = 1 << 32;

fn sim() -> Simulator {
    let sw = switch_from_source(
        "register r { width : 32; instance_count : 1; }",
        SwitchConfig::default(),
        Clock::new(),
    )
    .expect("program compiles");
    Simulator::new(SharedSwitch::new(sw))
}

/// `base + offset`, clamped to the u64 range.
fn shift(base: u64, offset: i64) -> u64 {
    (i128::from(base) + i128::from(offset)).clamp(0, i128::from(u64::MAX)) as u64
}

/// Schedule event `id` at `at`; when it runs it logs itself and, given a
/// `child` offset, schedules event `id + CHILD` that far from its own run
/// time (a negative offset lands in the past).
fn schedule(sim: &mut Simulator, log: &Log, id: u64, at: u64, child: Option<i64>) {
    let log = log.clone();
    sim.schedule(at, move |s| {
        log.borrow_mut().push((id, s.now()));
        if let Some(offset) = child {
            let at = shift(s.now(), offset);
            schedule(s, &log, id + CHILD, at, None);
        }
    });
}

#[derive(Clone, Debug)]
enum Op {
    /// Schedule an event `offset` ns from now, optionally with a child.
    Schedule { offset: i64, child: Option<i64> },
    /// `run_until(now + delta)`.
    Run(u64),
}

fn offset() -> impl Strategy<Value = i64> {
    // Past, same-instant, near future and far future.
    prop_oneof![-5_000i64..0, Just(0), 0i64..2_000, 2_000i64..5_000_000]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let schedule = || {
        (offset(), prop_oneof![Just(None), offset().prop_map(Some)])
            .prop_map(|(offset, child)| Op::Schedule { offset, child })
    };
    // Three schedules per run on average.
    prop_oneof![
        schedule(),
        schedule(),
        schedule(),
        prop_oneof![Just(0u64), 0u64..3_000_000].prop_map(Op::Run),
    ]
}

/// A pending oracle event: `(at, seq, id, child)`.
type Pending = (u64, u64, u64, Option<i64>);

/// The oracle: a min-heap of pending events; `seq` is unique, so the
/// order is `(at, seq)`.
#[derive(Default)]
struct Model {
    now: u64,
    seq: u64,
    pending: BinaryHeap<Reverse<Pending>>,
    log: Vec<(u64, u64)>,
}

impl Model {
    fn schedule(&mut self, at: u64, id: u64, child: Option<i64>) {
        self.pending.push(Reverse((at, self.seq, id, child)));
        self.seq += 1;
    }

    fn run_until(&mut self, until: u64) {
        while self.pending.peek().is_some_and(|Reverse(e)| e.0 <= until) {
            let Reverse((at, _, id, child)) = self.pending.pop().expect("peeked");
            self.now = self.now.max(at);
            self.log.push((id, self.now));
            if let Some(offset) = child {
                self.schedule(shift(self.now, offset), id + CHILD, None);
            }
        }
        self.now = self.now.max(until);
    }
}

fn check(ops: &[Op]) {
    let mut s = sim();
    let log: Log = Rc::default();
    let mut model = Model::default();
    let mut next_id = 0u64;
    for op in ops {
        match *op {
            Op::Schedule { offset, child } => {
                let at = shift(s.now(), offset);
                schedule(&mut s, &log, next_id, at, child);
                model.schedule(at, next_id, child);
                next_id += 1;
            }
            Op::Run(delta) => {
                let until = s.now().saturating_add(delta);
                let ran_before = log.borrow().len();
                s.run_until(until);
                model.run_until(until);
                assert!(
                    log.borrow()[ran_before..].iter().all(|&(_, t)| t <= until),
                    "an event ran past the horizon {until}"
                );
                assert_eq!(s.now(), until);
            }
        }
        assert_eq!(*log.borrow(), model.log);
        assert_eq!(s.now(), model.now);
        assert_eq!(s.pending_events(), model.pending.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_matches_binary_heap_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        check(&ops);
    }
}

#[test]
fn same_time_ties_break_by_schedule_order() {
    let mut s = sim();
    let log: Log = Rc::default();
    // Interleave two instants, and let the first event at 100 append a
    // same-instant child: it runs after every event already queued there.
    schedule(&mut s, &log, 0, 100, Some(0));
    for id in 1..6 {
        schedule(&mut s, &log, id, if id % 2 == 0 { 50 } else { 100 }, None);
    }
    s.run_until(1_000);
    let ids: Vec<u64> = log.borrow().iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, vec![2, 4, 0, 1, 3, 5, CHILD]);

    // Ties far in the future and at the end of time keep schedule order
    // too, behind an earlier event scheduled after them.
    let mut s = sim();
    let log: Log = Rc::default();
    for (id, at) in [
        (0, 1 << 40),
        (1, 1 << 40),
        (2, u64::MAX),
        (3, u64::MAX),
        (4, 5),
    ] {
        schedule(&mut s, &log, id, at, None);
    }
    s.run_until(u64::MAX);
    assert_eq!(
        *log.borrow(),
        vec![
            (4, 5),
            (0, 1 << 40),
            (1, 1 << 40),
            (2, u64::MAX),
            (3, u64::MAX)
        ]
    );
}

/// The wheel's level-boundary regression: serving an event just below a
/// 16 384 ns window edge must not hide an event parked inside that
/// window from a fresh one scheduled later in the same window.
#[test]
fn boundary_crossing_does_not_mask_higher_level_slots() {
    let mut s = sim();
    let log: Log = Rc::default();
    schedule(&mut s, &log, 0, 16_394, None);
    schedule(&mut s, &log, 1, 16_380, None);
    s.run_until(16_380);
    assert_eq!(*log.borrow(), vec![(1, 16_380)]);
    schedule(&mut s, &log, 2, 16_484, None);
    s.run_until(u64::MAX);
    assert_eq!(*log.borrow(), vec![(1, 16_380), (0, 16_394), (2, 16_484)]);
    assert_eq!(s.pending_events(), 0);
}

#[test]
fn events_scheduled_in_the_past_run_at_now() {
    let mut s = sim();
    let log: Log = Rc::default();
    s.run_until(10_000);
    schedule(&mut s, &log, 0, 2_000, None);
    schedule(&mut s, &log, 1, 12_000, Some(-5_000));
    schedule(&mut s, &log, 2, 0, None);
    s.run_until(20_000);
    // The past events fire at the current time, still in order of their
    // scheduled times, ahead of the future one; the future one's
    // back-dated child runs at the time its parent ran.
    assert_eq!(
        *log.borrow(),
        vec![(2, 10_000), (0, 10_000), (1, 12_000), (1 + CHILD, 12_000)]
    );
}

#[test]
fn run_until_never_runs_an_event_past_its_horizon() {
    let mut s = sim();
    let log: Log = Rc::default();
    schedule(&mut s, &log, 0, 999, Some(1));
    schedule(&mut s, &log, 1, 1_001, None);
    s.run_until(1_000);
    // The child lands exactly on the horizon and still runs; the event
    // 1 ns past it does not.
    assert_eq!(*log.borrow(), vec![(0, 999), (CHILD, 1_000)]);
    assert_eq!(s.now(), 1_000);
    assert_eq!(s.pending_events(), 1);
    s.run_until(1_001);
    assert_eq!(log.borrow().last(), Some(&(1, 1_001)));
    assert_eq!(s.pending_events(), 0);
}

#[test]
fn short_period_chain_does_not_starve_long_period_events() {
    let mut s = sim();
    let log: Log = Rc::default();
    let chain = log.clone();
    s.schedule_periodic(0, 1, move |s| {
        chain.borrow_mut().push((u64::MAX, s.now()));
        s.now() < 5_000
    });
    schedule(&mut s, &log, 7, 2_500, None);
    s.run_until(10_000);
    let log = log.borrow();
    let at = log
        .iter()
        .position(|&(id, _)| id == 7)
        .expect("long event ran");
    assert_eq!(log[at], (7, 2_500));
    // Every chain firing before it is earlier, every one after is later.
    assert!(log[..at].iter().all(|&(_, t)| t <= 2_500));
    assert!(log[at + 1..].iter().all(|&(_, t)| t >= 2_500));
    assert_eq!(log.len(), 5_002);
}
