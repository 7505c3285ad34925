//! [`FederatedCell`]: the cellular reference backed by the broker
//! federation.
//!
//! This is the classic-sim harness — the one the middleware itself talks
//! to. `InfraCxtProvider` reaches the external infrastructure through
//! `contory::refs::CellReference`; [`FederatedCell`] implements that
//! trait over a set of in-process [`BrokerNode`]s wired as a full mesh,
//! so every `extInfra` query in the testbed exercises the same
//! admission, matching and federation code as the sharded fleet and the
//! loopback TCP service.
//!
//! Two things happen here that the pure core cannot do on its own:
//!
//! * **QoS-aware (re)selection** — the cell ranks live brokers by the
//!   integer [`qos_score`] (link latency + advertised load) and pins the
//!   best one. A [`simkit::faults::FaultPlan`] (targets named
//!   `broker:<id>`) is the ground truth for liveness: when the selected
//!   broker dies, the next pump tick reselects, re-attaches every open
//!   subscription to the survivor and counts a failover — this is the
//!   path the 45 s SLO test drives.
//! * **Audit-trailed admission** — an optional [`AccessController`]
//!   vets the source attribution of every `store` before the packet is
//!   built, so refusals land in the middleware's audit ring as well as
//!   the broker's admission counters.
//!
//! [`AccessController`]: contory::AccessController
//! [`qos_score`]: crate::federation::qos_score

use crate::federation::qos_score;
use crate::node::{BrokerNode, Effect, NodeConfig};
use crate::packet::{BrokerId, ContextPacket};
use crate::table::{SubId, SubMode};
use contory::refs::{
    CellReference, Done, InfraPushMode, InfraSpec, InfraSubHandle, ItemsResult, OnItems, RefError,
};
use contory::{AccessController, AccessDecision, CxtItem};
use simkit::faults::FaultPlan;
use simkit::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};
use tracekit::{Stage, TraceCtx, TraceLog};

/// The cell's id in the tracekit node namespace — distinct from every
/// `BrokerId` (brokers are `u16`, so they can never reach this value).
const CELL_TRACE_NODE: u64 = 0xCE11;

/// Root-id material salt for cell-side publishes, keeping their trace
/// ids disjoint from fleet-device and gossip roots.
const CELL_TRACE_SALT: u64 = 0x0ce1_1b0c_5eed_0001;

/// Tunables of the federated cell reference.
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// Pump cadence: drains brokers, fires periodics, probes liveness.
    pub tick: SimDuration,
    /// Broker-side lifetime of subscriptions the cell opens.
    pub sub_ttl: SimDuration,
    /// Modelled uplink latency for `store`/`fetch` completions.
    pub uplink: SimDuration,
    /// Per-broker node tunables.
    pub node: NodeConfig,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            tick: SimDuration::from_millis(500),
            sub_ttl: SimDuration::from_secs(3_600),
            uplink: SimDuration::from_millis(150),
            node: NodeConfig::default(),
        }
    }
}

struct BrokerSlot {
    node: BrokerNode,
    latency_us: u64,
}

struct SubEntry {
    spec: InfraSpec,
    mode: InfraPushMode,
    on_items: OnItems,
    /// Where the subscription currently lives; `None` while orphaned
    /// (e.g. between a broker death and the next reselection).
    attached: Option<(BrokerId, SubId)>,
}

struct Inner {
    sim: Sim,
    cfg: CellConfig,
    brokers: BTreeMap<BrokerId, BrokerSlot>,
    plan: Option<FaultPlan>,
    access: Option<Rc<AccessController>>,
    selected: Option<BrokerId>,
    subs: BTreeMap<u64, SubEntry>,
    next_handle: u64,
    reselects: u64,
    /// Cell-side spans: the publish hop of every traced `store`.
    trace: TraceLog,
    /// Monotone publish sequence — the deterministic trace-id material.
    published: u64,
}

impl Inner {
    fn is_up(&self, id: BrokerId, now: SimTime) -> bool {
        self.plan
            .as_ref()
            .is_none_or(|p| p.is_up(&format!("broker:{}", id.0), now))
    }

    /// Best live broker by `(qos_score, id)` — lowest wins.
    fn choose(&self, now: SimTime) -> Option<BrokerId> {
        self.brokers
            .iter()
            .filter(|(id, _)| self.is_up(**id, now))
            .map(|(id, slot)| {
                (
                    qos_score(
                        slot.latency_us,
                        slot.node.queue_depth() as u64,
                        slot.node.subscriptions() as u64,
                    ),
                    *id,
                )
            })
            .min()
            .map(|(_, id)| id)
    }

    /// Keeps a live broker selected; on a change, orphans and re-attaches
    /// every open subscription (the failover path).
    fn ensure_selection(&mut self, now: SimTime) -> Option<BrokerId> {
        match self.selected {
            Some(cur) if self.is_up(cur, now) => {}
            previous => {
                let next = self.choose(now)?;
                self.selected = Some(next);
                if previous.is_some() {
                    self.reselects += 1;
                    for entry in self.subs.values_mut() {
                        entry.attached = None;
                    }
                }
            }
        }
        self.attach_subs(now);
        self.selected
    }

    /// Attaches every orphaned subscription to the selected broker.
    fn attach_subs(&mut self, now: SimTime) {
        let Some(sel) = self.selected else { return };
        for entry in self.subs.values_mut() {
            if entry.attached.is_some() {
                continue;
            }
            let Some(slot) = self.brokers.get_mut(&sel) else {
                continue;
            };
            let mode = match entry.mode {
                InfraPushMode::Periodic(d) => SubMode::Periodic(d),
                InfraPushMode::OnArrival => SubMode::Event,
            };
            let ttl = self.cfg.sub_ttl;
            let sub = slot
                .node
                .subscribe(u64::from(sel.0), &entry.spec.cxt_type, mode, now + ttl, now);
            entry.attached = Some((sel, sub));
        }
    }

    /// One pump round: drain every live broker, fire periodics, sweep,
    /// route forwards into peers, and collect local deliveries. Returns
    /// the callbacks to invoke once the `RefCell` borrow is released.
    fn pump(&mut self, now: SimTime) -> Vec<(OnItems, Vec<CxtItem>)> {
        self.ensure_selection(now);
        let ids: Vec<BrokerId> = self.brokers.keys().copied().collect();
        let mut forwards: Vec<(BrokerId, BrokerId, ContextPacket, u64)> = Vec::new();
        let mut delivered: Vec<(BrokerId, SubId, ContextPacket)> = Vec::new();
        for id in &ids {
            if !self.is_up(*id, now) {
                continue;
            }
            let Some(slot) = self.brokers.get_mut(id) else {
                continue;
            };
            let mut effects = slot.node.drain(now);
            effects.extend(slot.node.periodic_fire(now));
            effects.extend(slot.node.fwd_retries_due(now));
            slot.node.sweep(now);
            for effect in effects {
                match effect {
                    Effect::Deliver { sub, packet, .. } => delivered.push((*id, sub, packet)),
                    Effect::Forward { to, packet, fwd_id } => {
                        forwards.push((*id, to, packet, fwd_id));
                    }
                }
            }
        }
        for (from, to, packet, fwd_id) in forwards {
            if !self.is_up(to, now) {
                continue; // the sender's pending entry re-fires later
            }
            let admitted = match self.brokers.get_mut(&to) {
                Some(slot) => slot.node.publish(packet, now).is_ok(),
                None => false,
            };
            // Synchronous federation: a successful publish *is* the
            // ack, duplicates included (idempotent at-least-once).
            if admitted && fwd_id != 0 {
                if let Some(slot) = self.brokers.get_mut(&from) {
                    slot.node.fwd_ack(fwd_id);
                }
            }
        }
        let mut callbacks = Vec::new();
        for (broker, sub, packet) in delivered {
            let hit = self
                .subs
                .values()
                .find(|e| e.attached == Some((broker, sub)));
            if let Some(entry) = hit {
                if let Some(slot) = self.brokers.get_mut(&broker) {
                    slot.node.note_delivery(packet.trace, now);
                }
                callbacks.push((entry.on_items.clone(), vec![packet.to_cxt_item()]));
            }
        }
        callbacks
    }
}

/// A `CellReference` whose remote side is a broker federation.
#[derive(Clone)]
pub struct FederatedCell {
    inner: Rc<RefCell<Inner>>,
}

impl FederatedCell {
    /// Creates the cell and starts its pump on the simulator.
    pub fn new(sim: &Sim, cfg: CellConfig) -> Self {
        let tick = cfg.tick;
        let inner = Rc::new(RefCell::new(Inner {
            sim: sim.clone(),
            cfg,
            brokers: BTreeMap::new(),
            plan: None,
            access: None,
            selected: None,
            subs: BTreeMap::new(),
            next_handle: 1,
            reselects: 0,
            trace: TraceLog::new(),
            published: 0,
        }));
        // The pump holds only a weak handle: when the last strong clone
        // of the cell drops, the repeating timer unregisters itself.
        let weak: Weak<RefCell<Inner>> = Rc::downgrade(&inner);
        sim.schedule_repeating(tick, move || {
            let Some(strong) = weak.upgrade() else {
                return false;
            };
            let now = strong.borrow().sim.now();
            let callbacks = strong.borrow_mut().pump(now);
            for (on_items, items) in callbacks {
                on_items(items);
            }
            true
        });
        FederatedCell { inner }
    }

    /// Adds a broker to the federation, full-meshed with the brokers
    /// already present. `latency_us` models the phone↔broker link and
    /// feeds the QoS score.
    pub fn add_broker(&self, id: BrokerId, latency_us: u64) {
        let mut inner = self.inner.borrow_mut();
        let now = inner.sim.now();
        let cfg = inner.cfg.node.clone();
        let mut node = BrokerNode::new(id, cfg);
        for (peer_id, slot) in inner.brokers.iter_mut() {
            let inter = slot.latency_us.midpoint(latency_us);
            node.peers_mut().introduce(*peer_id, inter, now);
            slot.node.peers_mut().introduce(id, inter, now);
        }
        inner.brokers.insert(id, BrokerSlot { node, latency_us });
    }

    /// Installs the liveness ground truth. Targets are `broker:<id>`.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.inner.borrow_mut().plan = Some(plan);
    }

    /// Vets every `store`'s attribution through this controller, feeding
    /// the middleware audit trail.
    pub fn set_access(&self, access: Rc<AccessController>) {
        self.inner.borrow_mut().access = Some(access);
    }

    /// How many times the cell failed over to another broker.
    pub fn reselects(&self) -> u64 {
        self.inner.borrow().reselects
    }

    /// The currently selected broker, if any selection happened yet.
    pub fn selected(&self) -> Option<BrokerId> {
        self.inner.borrow().selected
    }

    /// Snapshot of one broker's counters (test observability).
    pub fn broker_stats(&self, id: BrokerId) -> Option<crate::node::NodeStats> {
        self.inner.borrow().brokers.get(&id).map(|s| *s.node.stats())
    }

    /// Merged trace log: the cell's publish spans plus every broker's
    /// hop spans, folded in broker-id order. Canonical export (and thus
    /// the digest) is merge-order invariant.
    pub fn trace_log(&self) -> TraceLog {
        let inner = self.inner.borrow();
        let mut log = inner.trace.clone();
        for slot in inner.brokers.values() {
            log.merge(slot.node.trace_log());
        }
        log
    }

    /// Metrics snapshot of one broker — the same registry the TCP
    /// harness serves for `STATS`.
    pub fn broker_telemetry(&self, id: BrokerId) -> Option<obskit::Registry> {
        self.inner.borrow().brokers.get(&id).map(|s| s.node.telemetry())
    }
}

impl CellReference for FederatedCell {
    fn is_available(&self) -> bool {
        let inner = self.inner.borrow();
        let now = inner.sim.now();
        inner.brokers.keys().any(|id| inner.is_up(*id, now))
    }

    fn store(&self, item: &CxtItem, cb: Done<Result<(), RefError>>) {
        let mut inner = self.inner.borrow_mut();
        let now = inner.sim.now();
        let uplink = inner.cfg.uplink;
        let result = (|| {
            if let Some(access) = &inner.access {
                if access.check_attributed(item.source.as_ref(), None) == AccessDecision::Blocked {
                    return Err(RefError::Denied("source refused by access control".into()));
                }
            }
            let mut packet = ContextPacket::from_cxt_item(item)
                .map_err(|e| RefError::Denied(e.to_string()))?;
            let sel = inner
                .ensure_selection(now)
                .ok_or_else(|| RefError::Unavailable("no live broker".into()))?;
            let seq = inner.published;
            inner.published += 1;
            let root = TraceCtx::root(CELL_TRACE_SALT ^ seq, inner.cfg.node.trace_sample_log2);
            let span = inner.trace.record(root, Stage::Publish, CELL_TRACE_NODE, now);
            if span != 0 {
                packet = packet.with_trace(root.child(span));
            }
            let slot = inner
                .brokers
                .get_mut(&sel)
                .ok_or_else(|| RefError::Unavailable("no live broker".into()))?;
            slot.node
                .publish(packet, now)
                .map(|_| ())
                .map_err(RefError::from)
        })();
        inner.sim.schedule_in(uplink, move || cb(result));
    }

    fn fetch(&self, spec: &InfraSpec, cb: Done<ItemsResult>) {
        let mut inner = self.inner.borrow_mut();
        let now = inner.sim.now();
        let uplink = inner.cfg.uplink;
        let freshness = spec.freshness;
        let cxt_type = spec.cxt_type.clone();
        let result = (|| {
            let sel = inner
                .ensure_selection(now)
                .ok_or_else(|| RefError::Unavailable("no live broker".into()))?;
            let slot = inner
                .brokers
                .get(&sel)
                .ok_or_else(|| RefError::Unavailable("no live broker".into()))?;
            let packet = slot.node.fetch(&cxt_type, now).map_err(RefError::from)?;
            if let Some(f) = freshness {
                if now.since(packet.published_at) > f {
                    return Err(RefError::NotFound(cxt_type.clone()));
                }
            }
            Ok(vec![packet.to_cxt_item()])
        })();
        inner.sim.schedule_in(uplink, move || cb(result));
    }

    fn subscribe(
        &self,
        spec: &InfraSpec,
        mode: InfraPushMode,
        on_items: OnItems,
    ) -> InfraSubHandle {
        let mut inner = self.inner.borrow_mut();
        let now = inner.sim.now();
        let handle = inner.next_handle;
        inner.next_handle += 1;
        inner.subs.insert(
            handle,
            SubEntry {
                spec: spec.clone(),
                mode,
                on_items,
                attached: None,
            },
        );
        inner.ensure_selection(now);
        InfraSubHandle(handle)
    }

    fn unsubscribe(&self, handle: InfraSubHandle) {
        let mut inner = self.inner.borrow_mut();
        let now = inner.sim.now();
        let Some(entry) = inner.subs.remove(&handle.0) else {
            return;
        };
        if let Some((broker, sub)) = entry.attached {
            if inner.is_up(broker, now) {
                if let Some(slot) = inner.brokers.get_mut(&broker) {
                    slot.node.unsubscribe(sub);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contory::CxtValue;

    fn item(t: &str, v: f64, at: SimTime) -> CxtItem {
        CxtItem::new(t, CxtValue::number(v), at)
            .with_lifetime(SimDuration::from_secs(120))
            .with_source("probe-1")
    }

    fn cell_with_brokers(sim: &Sim, n: u16) -> FederatedCell {
        let cell = FederatedCell::new(sim, CellConfig::default());
        for b in 0..n {
            cell.add_broker(BrokerId(b), 5_000 + u64::from(b) * 1_000);
        }
        cell
    }

    #[test]
    fn store_subscribe_deliver_round_trip() {
        let sim = Sim::new();
        let cell = cell_with_brokers(&sim, 2);
        let got: Rc<RefCell<Vec<CxtItem>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = got.clone();
        cell.subscribe(
            &InfraSpec {
                cxt_type: "wind".into(),
                ..InfraSpec::default()
            },
            InfraPushMode::OnArrival,
            Rc::new(move |items| sink.borrow_mut().extend(items)),
        );
        let stored = Rc::new(RefCell::new(None));
        let flag = stored.clone();
        sim.run_for(SimDuration::from_secs(1));
        cell.store(
            &item("wind", 7.5, sim.now()),
            Box::new(move |r| *flag.borrow_mut() = Some(r)),
        );
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(*stored.borrow(), Some(Ok(())));
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0].source.as_ref().map(|s| s.0.as_str()), Some("probe-1"));
    }

    #[test]
    fn unhygienic_store_is_denied_and_audited() {
        let sim = Sim::new();
        let cell = cell_with_brokers(&sim, 1);
        let access = Rc::new(AccessController::new(contory::SecurityMode::Low, 16));
        cell.set_access(access.clone());
        let result = Rc::new(RefCell::new(None));
        let flag = result.clone();
        // No source attribution at all: refused before a packet exists.
        let anon = CxtItem::new("t", CxtValue::number(1.0), sim.now())
            .with_lifetime(SimDuration::from_secs(10));
        cell.store(&anon, Box::new(move |r| *flag.borrow_mut() = Some(r)));
        sim.run_for(SimDuration::from_secs(1));
        assert!(matches!(*result.borrow(), Some(Err(RefError::Denied(_)))));
        let (_, _, unattributed) = access.audit_totals();
        assert_eq!(unattributed, 1);
    }

    #[test]
    fn broker_death_triggers_reselection_and_resubscription() {
        let sim = Sim::new();
        let cell = cell_with_brokers(&sim, 2);
        let got: Rc<RefCell<Vec<CxtItem>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = got.clone();
        cell.subscribe(
            &InfraSpec {
                cxt_type: "noise".into(),
                ..InfraSpec::default()
            },
            InfraPushMode::OnArrival,
            Rc::new(move |items| sink.borrow_mut().extend(items)),
        );
        // broker0 (lower latency) is selected, then dies at t=10s.
        let mut plan = FaultPlan::new(7);
        plan.kill_at("broker:0", SimTime::from_secs(10));
        cell.set_fault_plan(plan);
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(cell.selected(), Some(BrokerId(0)));
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(cell.selected(), Some(BrokerId(1)));
        assert_eq!(cell.reselects(), 1);
        // Deliveries continue on the survivor.
        cell.store(&item("noise", 3.0, sim.now()), Box::new(|_| {}));
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(got.borrow().len(), 1);
    }

    #[test]
    fn stores_are_traced_end_to_end() {
        let sim = Sim::new();
        let mut cfg = CellConfig::default();
        cfg.node.trace_sample_log2 = 0; // sample every publish
        let cell = FederatedCell::new(&sim, cfg);
        cell.add_broker(BrokerId(0), 5_000);
        cell.add_broker(BrokerId(1), 6_000);
        cell.subscribe(
            &InfraSpec {
                cxt_type: "wind".into(),
                ..InfraSpec::default()
            },
            InfraPushMode::OnArrival,
            Rc::new(|_| {}),
        );
        sim.run_for(SimDuration::from_secs(1));
        cell.store(&item("wind", 7.5, sim.now()), Box::new(|_| {}));
        sim.run_for(SimDuration::from_secs(5));
        let log = cell.trace_log();
        assert!(log.len() > 0, "traced store left no spans");
        let trees = tracekit::assemble(&log);
        let breakup = tracekit::Breakup::of(&trees);
        assert_eq!(breakup.deliveries(), 1);
        // The STATS registry the ops surface serves sees the admit.
        let stats = cell.broker_telemetry(BrokerId(0)).unwrap().snapshot();
        assert!(stats.contains("broker_admitted_total 1"), "{stats}");
    }

    #[test]
    fn fetch_round_trips_and_respects_freshness() {
        let sim = Sim::new();
        let cell = cell_with_brokers(&sim, 1);
        cell.store(&item("temp", 21.0, sim.now()), Box::new(|_| {}));
        sim.run_for(SimDuration::from_secs(2));
        let fetched = Rc::new(RefCell::new(None));
        let sink = fetched.clone();
        cell.fetch(
            &InfraSpec {
                cxt_type: "temp".into(),
                ..InfraSpec::default()
            },
            Box::new(move |r| *sink.borrow_mut() = Some(r)),
        );
        sim.run_for(SimDuration::from_secs(1));
        match fetched.borrow().as_ref() {
            Some(Ok(items)) => assert_eq!(items.len(), 1),
            other => panic!("expected items, got {other:?}"),
        }
        // A freshness bound tighter than the item's age yields NotFound.
        let stale = Rc::new(RefCell::new(None));
        let sink = stale.clone();
        cell.fetch(
            &InfraSpec {
                cxt_type: "temp".into(),
                freshness: Some(SimDuration::from_millis(1)),
                ..InfraSpec::default()
            },
            Box::new(move |r| *sink.borrow_mut() = Some(r)),
        );
        sim.run_for(SimDuration::from_secs(1));
        assert!(matches!(
            stale.borrow().as_ref(),
            Some(Err(RefError::NotFound(_)))
        ));
    }
}
