//! A [`DriverApi`] wrapper that times every call into the driver layer.
//!
//! Passed to [`MantisAgent::with_driver`](mantis::MantisAgent::with_driver)
//! in traced runs only: it forwards each call unchanged to the wrapped
//! driver (local or remote) and adds the host time the call took to a
//! shared accumulator, so the benchmark can split an agent's host time
//! into driver time and everything else without touching the agent.

use mantis::mantis_agent::driver::{DriverStats, EntrySnapshot};
use mantis::mantis_agent::{CheckpointToken, CostModel, DriverApi};
use mantis::p4_ast::Value;
use mantis::rmt_sim::{
    ActionId, Clock, DataPlaneSpec, DriverError, EntryHandle, KeyField, Nanos, PortId, ReadAgg,
    RegisterId, TableId,
};
use mantis::{FaultPlan, Telemetry};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Host time accumulated by every [`TimedDriver`] sharing this handle.
#[derive(Clone, Debug, Default)]
pub struct DriverClock {
    busy: Rc<Cell<Duration>>,
}

impl DriverClock {
    pub fn busy(&self) -> Duration {
        self.busy.get()
    }
}

pub struct TimedDriver<D> {
    inner: D,
    clock: DriverClock,
}

impl<D: DriverApi> TimedDriver<D> {
    pub fn new(inner: D, clock: DriverClock) -> Self {
        TimedDriver { inner, clock }
    }

    fn time<T>(&mut self, f: impl FnOnce(&mut D) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.clock.busy.set(self.clock.busy.get() + t0.elapsed());
        out
    }
}

impl<D: DriverApi> DriverApi for TimedDriver<D> {
    fn spec(&self) -> &DataPlaneSpec {
        self.inner.spec()
    }

    fn num_pipes(&self) -> u16 {
        self.inner.num_pipes()
    }

    fn cost(&self) -> &CostModel {
        self.inner.cost()
    }

    fn clock(&self) -> &Clock {
        self.inner.clock()
    }

    fn table_id(&self, name: &str) -> Result<TableId, DriverError> {
        self.inner.table_id(name)
    }

    fn action_id(&self, name: &str) -> Result<ActionId, DriverError> {
        self.inner.action_id(name)
    }

    fn register_id(&self, name: &str) -> Result<RegisterId, DriverError> {
        self.inner.register_id(name)
    }

    fn table_add(
        &mut self,
        table: TableId,
        key: Vec<KeyField>,
        priority: u32,
        action: ActionId,
        data: Vec<Value>,
    ) -> Result<EntryHandle, DriverError> {
        self.time(|d| d.table_add(table, key, priority, action, data))
    }

    fn table_mod(
        &mut self,
        table: TableId,
        handle: EntryHandle,
        action: ActionId,
        data: Vec<Value>,
    ) -> Result<(), DriverError> {
        self.time(|d| d.table_mod(table, handle, action, data))
    }

    fn table_del(&mut self, table: TableId, handle: EntryHandle) -> Result<(), DriverError> {
        self.time(|d| d.table_del(table, handle))
    }

    fn table_set_default(
        &mut self,
        table: TableId,
        action: ActionId,
        data: Vec<Value>,
        is_init_flip: bool,
    ) -> Result<(), DriverError> {
        self.time(|d| d.table_set_default(table, action, data, is_init_flip))
    }

    fn table_set_default_on(
        &mut self,
        pipe: u16,
        table: TableId,
        action: ActionId,
        data: Vec<Value>,
        is_init_flip: bool,
    ) -> Result<(), DriverError> {
        self.time(|d| d.table_set_default_on(pipe, table, action, data, is_init_flip))
    }

    fn register_write(
        &mut self,
        reg: RegisterId,
        index: u32,
        value: Value,
    ) -> Result<(), DriverError> {
        self.time(|d| d.register_write(reg, index, value))
    }

    fn port_set_up(&mut self, port: PortId, up: bool) -> Result<(), DriverError> {
        self.time(|d| d.port_set_up(port, up))
    }

    fn register_read_range(
        &mut self,
        reg: RegisterId,
        lo: u32,
        hi: u32,
    ) -> Result<Vec<Value>, DriverError> {
        self.time(|d| d.register_read_range(reg, lo, hi))
    }

    fn register_read_agg(
        &mut self,
        reg: RegisterId,
        lo: u32,
        hi: u32,
        agg: ReadAgg,
    ) -> Result<Vec<Value>, DriverError> {
        self.time(|d| d.register_read_agg(reg, lo, hi, agg))
    }

    fn port_up(&mut self, port: PortId) -> Result<Option<bool>, DriverError> {
        self.time(|d| d.port_up(port))
    }

    fn table_default_on(
        &mut self,
        pipe: u16,
        table: TableId,
    ) -> Result<(ActionId, Vec<Value>), DriverError> {
        self.time(|d| d.table_default_on(pipe, table))
    }

    fn table_dump(&mut self, table: TableId) -> Result<Vec<EntrySnapshot>, DriverError> {
        self.time(|d| d.table_dump(table))
    }

    fn spend_external(&mut self, dur: Nanos) -> Result<(), DriverError> {
        self.time(|d| d.spend_external(dur))
    }

    fn spend_rollback(&mut self, tables: usize) {
        self.time(|d| d.spend_rollback(tables));
    }

    fn table_checkpoint(&mut self, table: TableId) -> Result<CheckpointToken, DriverError> {
        self.time(|d| d.table_checkpoint(table))
    }

    fn table_restore(&mut self, table: TableId, token: CheckpointToken) -> Result<(), DriverError> {
        self.time(|d| d.table_restore(table, token))
    }

    fn checkpoint_discard(&mut self, token: CheckpointToken) {
        self.time(|d| d.checkpoint_discard(token));
    }

    fn flush(&mut self) -> Result<(), DriverError> {
        self.time(|d| d.flush())
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.inner.set_fault_plan(plan);
    }

    fn clear_fault_plan(&mut self) {
        self.inner.clear_fault_plan();
    }

    fn suspend_faults(&mut self) {
        self.inner.suspend_faults();
    }

    fn resume_faults(&mut self) {
        self.inner.resume_faults();
    }

    fn set_fabric_index(&mut self, index: Option<u16>) {
        self.inner.set_fabric_index(index);
    }

    fn fabric_index(&self) -> Option<u16> {
        self.inner.fabric_index()
    }

    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.inner.set_telemetry(telemetry);
    }

    fn stats(&self) -> DriverStats {
        self.inner.stats()
    }

    fn busy_until(&self) -> Nanos {
        self.inner.busy_until()
    }

    fn legacy_table_update_at(&mut self, at: Nanos) -> Nanos {
        self.time(|d| d.legacy_table_update_at(at))
    }
}
