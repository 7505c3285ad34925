//! The pure broker core: `(input, now) → effects`.
//!
//! [`BrokerNode`] owns a broker's entire state — interner, sharded
//! subscription table, bounded inbox, peer view, counters — and exposes
//! transition functions that never touch a clock, a socket or a thread.
//! Side effects come back as [`Effect`] values for the *harness* to
//! interpret:
//!
//! * the sharded simulation ([`fleet`](crate::fleet)) turns effects into
//!   `EventCtx::send`s between actors;
//! * the loopback TCP service ([`net`](crate::net)) turns them into
//!   `EVT` frames on subscriber sockets and lock-step forwards to peer
//!   servers;
//! * the classic-sim [`FederatedCell`](crate::cell::FederatedCell) turns
//!   them into `OnItems` callbacks for `InfraCxtProvider`.
//!
//! One core, three harnesses — the smoke test and the benchmark gate
//! therefore exercise the same matching, admission and federation code.
//!
//! `BrokerNode` is `Send` (no `Rc`, no interior mutability) so shard
//! workers may own brokers on any thread.

use crate::admission::{AdmissionStats, BrokerError};
use crate::dedup::DedupWindow;
use crate::federation::{LoadDigest, PeerView};
use crate::packet::{BrokerId, ContextPacket, MAX_HOPS};
use crate::table::{SubId, SubMode, SubscriptionTable, SweepStats};
use contory::vocab::{Interner, Sym};
use simkit::hash::{fnv1a, mix64, FNV_OFFSET};
use simkit::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tracekit::{Stage, TraceCtx, TraceLog};

/// Broker tunables.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Internal shard count of the subscription table.
    pub table_shards: usize,
    /// Bounded inbox capacity; publishes beyond it are shed.
    pub inbox_capacity: usize,
    /// Packets processed per [`BrokerNode::drain`] call (the service
    /// rate of the queueing model).
    pub drain_budget: usize,
    /// Gossip-plane trace sampling: one digest trace in
    /// `2^trace_sample_log2` is sampled (`0` ⇒ every digest).
    pub trace_sample_log2: u32,
    /// Publisher origins tracked by the dedup window (LRU-bounded).
    pub dedup_origins: usize,
    /// Ack timeout before a tracked federation forward is re-sent.
    pub fwd_timeout: SimDuration,
    /// Maximum re-sends of one forward after the initial attempt.
    /// `0` disables the retry machinery (legacy fire-and-forget).
    pub fwd_attempts: u32,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            table_shards: 4,
            inbox_capacity: 64,
            drain_budget: 16,
            trace_sample_log2: 3,
            dedup_origins: 4096,
            fwd_timeout: SimDuration::from_millis(150),
            fwd_attempts: 0,
        }
    }
}

/// What admission concluded about an accepted publish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admitted {
    /// First sighting: enqueued for fan-out.
    Fresh,
    /// The dedup window had already seen this [`PacketSeq`]: suppressed,
    /// but positively acknowledged so at-least-once senders stop
    /// retrying.
    ///
    /// [`PacketSeq`]: crate::packet::PacketSeq
    Duplicate,
}

/// A broker's durable view of one peer's subscription table, built from
/// anti-entropy digests carried on the gossip plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Logical version: emission time (µs) of the digest that carried
    /// this entry. Stale gossip never regresses it.
    pub version: u64,
    /// The peer's subscription-table digest at `version`.
    pub table_digest: u64,
    /// The peer's live subscription count at `version`.
    pub subscriptions: u64,
}

/// A federation forward awaiting its ack.
#[derive(Clone, Debug)]
struct PendingFwd {
    to: BrokerId,
    packet: ContextPacket,
    attempts_used: u32,
    next_retry: SimTime,
}

/// A side effect the harness must carry out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Deliver a packet to a local subscriber.
    Deliver {
        /// Subscriber identity as registered at subscribe time.
        subscriber: u64,
        /// The subscription being served.
        sub: SubId,
        /// The packet (hops included, for provenance).
        packet: ContextPacket,
    },
    /// Forward a packet to a federation peer.
    Forward {
        /// Destination broker.
        to: BrokerId,
        /// The packet, with this broker appended to its hop list.
        packet: ContextPacket,
        /// Retry-tracking handle: non-zero when the sender expects a
        /// [`BrokerNode::fwd_ack`] and will re-send on timeout; `0` for
        /// untracked (fire-and-forget) forwards.
        fwd_id: u64,
    },
}

/// Running broker counters (all deterministic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Admission outcomes.
    pub admission: AdmissionStats,
    /// Deliveries effected to local subscribers.
    pub delivered: u64,
    /// Packets forwarded to peers.
    pub forwarded: u64,
    /// Forwards suppressed by the hop-list loop guard.
    pub loops_dropped: u64,
    /// Subscriptions expired by sweeps.
    pub subs_expired: u64,
    /// Retained packets expired by sweeps.
    pub packets_expired: u64,
    /// Gossip digests this broker emitted.
    pub gossip_sent: u64,
    /// Gossip digests heard and absorbed from peers.
    pub gossip_heard: u64,
    /// Duplicate publishes suppressed by the dedup window.
    pub dedup_suppressed: u64,
    /// Federation forwards re-sent after an ack timeout.
    pub retries: u64,
    /// Forwards abandoned after the retry budget ran out.
    pub retry_exhausted: u64,
    /// Lease renewals ([`BrokerNode::subscribe_renewing`] calls).
    pub resubscriptions: u64,
    /// Anti-entropy directory reconciliations (heard digests that
    /// changed this broker's view of a peer's table).
    pub anti_entropy_rounds: u64,
}

/// A federated context broker, as pure state + transitions.
#[derive(Debug)]
pub struct BrokerNode {
    id: BrokerId,
    cfg: NodeConfig,
    interner: Interner,
    table: SubscriptionTable,
    inbox: VecDeque<ContextPacket>,
    peers: PeerView,
    blocked: BTreeSet<String>,
    stats: NodeStats,
    trace: TraceLog,
    dedup: DedupWindow,
    pending_fwds: BTreeMap<u64, PendingFwd>,
    next_fwd_id: u64,
    directory: BTreeMap<BrokerId, DirEntry>,
}

impl BrokerNode {
    /// Creates a broker.
    pub fn new(id: BrokerId, cfg: NodeConfig) -> Self {
        let table = SubscriptionTable::new(cfg.table_shards);
        let dedup = DedupWindow::new(cfg.dedup_origins);
        BrokerNode {
            id,
            cfg,
            interner: Interner::new(),
            table,
            inbox: VecDeque::new(),
            peers: PeerView::new(),
            blocked: BTreeSet::new(),
            stats: NodeStats::default(),
            trace: TraceLog::new(),
            dedup,
            pending_fwds: BTreeMap::new(),
            next_fwd_id: 1,
            directory: BTreeMap::new(),
        }
    }

    /// This broker's federation identity.
    pub fn id(&self) -> BrokerId {
        self.id
    }

    /// Running counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The hop-event log trace assembly consumes (folded by the
    /// harness after a run, served live by the `TRACE` ops request).
    pub fn trace_log(&self) -> &TraceLog {
        &self.trace
    }

    /// This broker's id in the tracekit node namespace.
    fn trace_node(&self) -> u64 {
        u64::from(self.id.0)
    }

    /// Records the terminal deliver hop for a packet this broker
    /// served. Harnesses call it at the moment a delivery actually
    /// lands (EVT frame written, `OnItems` callback fired), so the
    /// deliver span carries the landing time, not the dispatch time.
    pub fn note_delivery(&mut self, trace: TraceCtx, now: SimTime) {
        let node = self.trace_node();
        self.trace.record(trace, Stage::Deliver, node, now);
    }

    /// Builds a metrics registry snapshot of this broker's counters and
    /// gauges — the payload behind the `STATS` ops request. Plain data
    /// (`Send`, no thread-local), so the TCP harness can call it from
    /// any session thread.
    pub fn telemetry(&self) -> obskit::Registry {
        let mut reg = obskit::Registry::new();
        let s = &self.stats;
        reg.counter_add("broker_admitted_total", s.admission.admitted);
        reg.counter_add("broker_shed_total", s.admission.shed);
        reg.counter_add("broker_unattributed_total", s.admission.unattributed);
        reg.counter_add("broker_expired_on_arrival_total", s.admission.expired);
        reg.counter_add("broker_source_blocked_total", s.admission.blocked);
        reg.counter_add("broker_delivered_total", s.delivered);
        reg.counter_add("broker_forwarded_total", s.forwarded);
        reg.counter_add("broker_loops_dropped_total", s.loops_dropped);
        reg.counter_add("broker_subs_expired_total", s.subs_expired);
        reg.counter_add("broker_packets_expired_total", s.packets_expired);
        reg.counter_add("broker_gossip_sent_total", s.gossip_sent);
        reg.counter_add("broker_gossip_heard_total", s.gossip_heard);
        reg.counter_add("broker_dedup_suppressed_total", s.dedup_suppressed);
        reg.counter_add("broker_fwd_retries_total", s.retries);
        reg.counter_add("broker_retry_exhausted_total", s.retry_exhausted);
        reg.counter_add("broker_resubscriptions_total", s.resubscriptions);
        reg.counter_add("broker_anti_entropy_total", s.anti_entropy_rounds);
        reg.counter_add("broker_trace_spans_total", self.trace.len() as u64);
        reg.gauge_set("broker_queue_depth", self.inbox.len() as f64);
        reg.gauge_set("broker_live_subscriptions", self.table.len() as f64);
        reg.gauge_set("broker_federation_peers", self.peers.len() as f64);
        reg.gauge_set("broker_pending_forwards", self.pending_fwds.len() as f64);
        reg
    }

    /// Current inbox depth (the backpressure signal gossip advertises).
    pub fn queue_depth(&self) -> usize {
        self.inbox.len()
    }

    /// Live subscriptions.
    pub fn subscriptions(&self) -> usize {
        self.table.len()
    }

    /// Mutable access to the peer view (the harness wires topology).
    pub fn peers_mut(&mut self) -> &mut PeerView {
        &mut self.peers
    }

    /// Read access to the peer view.
    pub fn peers(&self) -> &PeerView {
        &self.peers
    }

    /// Blocks a source: its publishes are refused from now on.
    pub fn block_source(&mut self, source: impl Into<String>) {
        self.blocked.insert(source.into());
    }

    /// Interns a context-type name (admission-time cost only; every hot
    /// path below works on the dense id).
    pub fn intern(&mut self, type_name: &str) -> Sym {
        self.interner.intern(type_name)
    }

    /// The id of an already-seen type, without inserting.
    pub fn lookup(&self, type_name: &str) -> Option<Sym> {
        self.interner.get(type_name)
    }

    /// Registers a subscription.
    pub fn subscribe(
        &mut self,
        subscriber: u64,
        type_name: &str,
        mode: SubMode,
        expires_at: SimTime,
        now: SimTime,
    ) -> SubId {
        let sym = self.interner.intern(type_name);
        self.table.subscribe(subscriber, sym, mode, expires_at, now)
    }

    /// Lease renewal: extends an existing subscription for the same
    /// `(subscriber, type, mode)` or — when the broker lost it (crash
    /// restart, expiry) — re-registers it. Returns the live handle and
    /// whether an existing lease was extended. Unlike
    /// [`BrokerNode::subscribe`], this never stacks a second identical
    /// subscription, so periodic re-subscription is idempotent.
    pub fn subscribe_renewing(
        &mut self,
        subscriber: u64,
        type_name: &str,
        mode: SubMode,
        expires_at: SimTime,
        now: SimTime,
    ) -> (SubId, bool) {
        let sym = self.interner.intern(type_name);
        let (id, renewed) = self
            .table
            .renew_or_subscribe(subscriber, sym, mode, expires_at, now);
        self.stats.resubscriptions += 1;
        (id, renewed)
    }

    /// Cancels a subscription.
    pub fn unsubscribe(&mut self, id: SubId) -> bool {
        self.table.unsubscribe(id)
    }

    /// Admission: vets the hygiene contract, the dedup window and the
    /// bounded inbox, then enqueues. Effects flow later, from
    /// [`BrokerNode::drain`]. Duplicates are suppressed *and*
    /// positively acknowledged (`Ok(Admitted::Duplicate)`) — refusing
    /// them would make at-least-once senders retry forever.
    pub fn publish(
        &mut self,
        mut packet: ContextPacket,
        now: SimTime,
    ) -> Result<Admitted, BrokerError> {
        let outcome = self.admit(&mut packet, now);
        match &outcome {
            Ok(Admitted::Fresh) => {
                self.stats.admission.admitted += 1;
                let node = self.trace_node();
                let admit = self.trace.record(packet.trace, Stage::Admit, node, now);
                let enq = self
                    .trace
                    .record(packet.trace.child(admit), Stage::Enqueue, node, now);
                // The packet waits in the inbox re-parented under its
                // enqueue hop, so the dispatch hop links to it.
                if enq != 0 {
                    packet.trace = packet.trace.child(enq);
                }
                self.inbox.push_back(packet);
            }
            Ok(Admitted::Duplicate) => {
                self.stats.dedup_suppressed += 1;
                let node = self.trace_node();
                self.trace.record(packet.trace, Stage::DupSuppress, node, now);
            }
            Err(e) => {
                let node = self.trace_node();
                self.trace.record(packet.trace, Stage::Shed, node, now);
                self.note_refusal(e);
            }
        }
        outcome
    }

    fn admit(&mut self, packet: &mut ContextPacket, now: SimTime) -> Result<Admitted, BrokerError> {
        if !packet.is_attributed() {
            return Err(BrokerError::Unattributed);
        }
        if !packet.is_valid_at(now) {
            return Err(BrokerError::ExpiredOnArrival);
        }
        if self.blocked.contains(&packet.source) {
            return Err(BrokerError::SourceBlocked(packet.source.clone()));
        }
        // The duplicate check runs before the capacity check — a
        // duplicate must be ackable even under backpressure — but the
        // window only *records* the packet once it is actually
        // enqueued, so a shed packet's retry is not mistaken for a
        // duplicate.
        if self.dedup.seen(packet.seq) {
            let _ = self.dedup.observe(packet.seq);
            return Ok(Admitted::Duplicate);
        }
        if self.inbox.len() >= self.cfg.inbox_capacity {
            return Err(BrokerError::QueueFull {
                capacity: self.cfg.inbox_capacity,
            });
        }
        let _ = self.dedup.observe(packet.seq);
        packet.cxt_type = self.interner.intern(&packet.type_name);
        Ok(Admitted::Fresh)
    }

    fn note_refusal(&mut self, e: &BrokerError) {
        match e {
            BrokerError::QueueFull { .. } => self.stats.admission.shed += 1,
            BrokerError::Unattributed => self.stats.admission.unattributed += 1,
            BrokerError::ExpiredOnArrival => self.stats.admission.expired += 1,
            BrokerError::SourceBlocked(_) => self.stats.admission.blocked += 1,
            BrokerError::RetryExhausted { .. } => self.stats.retry_exhausted += 1,
            BrokerError::BrokerDown
            | BrokerError::PeerUnreachable(_)
            | BrokerError::NoSuchContext(_) => {}
        }
    }

    /// Service: processes up to `drain_budget` inbox packets — retain,
    /// match local subscribers, forward to peers — and returns the
    /// effects in deterministic order (inbox FIFO × subscription-id
    /// order × peer-id order).
    pub fn drain(&mut self, now: SimTime) -> Vec<Effect> {
        let mut effects = Vec::new();
        for _ in 0..self.cfg.drain_budget {
            let Some(mut packet) = self.inbox.pop_front() else {
                break;
            };
            if !packet.is_valid_at(now) {
                // Died waiting in the queue; counted with sweep expiry.
                self.stats.packets_expired += 1;
                continue;
            }
            let node = self.trace_node();
            let dispatch = self.trace.record(packet.trace, Stage::Dispatch, node, now);
            if dispatch != 0 {
                packet.trace = packet.trace.child(dispatch);
            }
            self.fan_out(packet, now, &mut effects);
        }
        effects
    }

    fn fan_out(&mut self, packet: ContextPacket, now: SimTime, effects: &mut Vec<Effect>) {
        // Local matching first (event + one-shot subscribers).
        for sub in self.table.on_arrival(packet.cxt_type, now) {
            self.stats.delivered += 1;
            effects.push(Effect::Deliver {
                subscriber: sub.subscriber,
                sub: sub.id,
                packet: packet.clone(),
            });
        }
        // Federation: forward to every peer not already on the hop list,
        // bounded by MAX_HOPS.
        if packet.hops.len() < MAX_HOPS {
            let stamped = packet.clone().with_hop(self.id);
            for peer in self.peers.brokers() {
                if stamped.visited(peer) {
                    self.stats.loops_dropped += 1;
                    continue;
                }
                self.stats.forwarded += 1;
                let node = self.trace_node();
                let fed = self.trace.record(stamped.trace, Stage::Federate, node, now);
                let mut forward = stamped.clone();
                // The peer's admit hop parents under this federate hop,
                // one federation hop further from the publisher.
                if fed != 0 {
                    forward.trace = forward.trace.hopped(fed);
                }
                // Only sequenced packets are retry-tracked: re-sending
                // an unsequenced packet could double-deliver (no dedup
                // key), so legacy traffic stays fire-and-forget.
                let fwd_id = if self.cfg.fwd_attempts > 0 && forward.seq.is_some() {
                    let id = self.next_fwd_id;
                    self.next_fwd_id += 1;
                    self.pending_fwds.insert(
                        id,
                        PendingFwd {
                            to: peer,
                            packet: forward.clone(),
                            attempts_used: 0,
                            next_retry: now + self.cfg.fwd_timeout,
                        },
                    );
                    id
                } else {
                    0
                };
                effects.push(Effect::Forward {
                    to: peer,
                    packet: forward,
                    fwd_id,
                });
            }
        }
        self.table.retain(packet);
    }

    /// Acknowledges a tracked forward: the peer admitted (or
    /// dup-suppressed) the packet, so its retry entry is retired.
    /// Returns whether the id was still pending. Acks for `0` (an
    /// untracked forward) and unknown/duplicate ids are no-ops — acks
    /// ride chaos links too and may themselves be duplicated.
    pub fn fwd_ack(&mut self, fwd_id: u64) -> bool {
        if fwd_id == 0 {
            return false;
        }
        self.pending_fwds.remove(&fwd_id).is_some()
    }

    /// Tracked forwards currently awaiting an ack.
    pub fn pending_forwards(&self) -> usize {
        self.pending_fwds.len()
    }

    /// Re-sends of tracked forwards whose ack timed out by `now`, with
    /// capped exponential backoff and deterministic jitter (hashed from
    /// the forward id and attempt number — no RNG in the core).
    /// Forwards that exhausted the retry budget are dropped and counted
    /// as [`BrokerError::RetryExhausted`].
    pub fn fwd_retries_due(&mut self, now: SimTime) -> Vec<Effect> {
        let mut effects = Vec::new();
        if self.pending_fwds.is_empty() {
            return effects;
        }
        let due: Vec<u64> = self
            .pending_fwds
            .iter()
            .filter(|(_, p)| p.next_retry <= now)
            .map(|(id, _)| *id)
            .collect();
        for id in due {
            let Some(mut p) = self.pending_fwds.remove(&id) else {
                continue;
            };
            if p.attempts_used >= self.cfg.fwd_attempts {
                self.note_refusal(&BrokerError::RetryExhausted {
                    attempts: p.attempts_used,
                });
                continue;
            }
            p.attempts_used += 1;
            self.stats.retries += 1;
            let node = self.trace_node();
            self.trace.record(p.packet.trace, Stage::Retry, node, now);
            let timeout_us = self.cfg.fwd_timeout.as_micros().max(1);
            let backoff = timeout_us << p.attempts_used.min(4);
            // Retry jitter from a stateless mixer: no RNG in the core.
            let jitter = mix64(id ^ (u64::from(p.attempts_used) << 56)) % (timeout_us / 4 + 1);
            p.next_retry = now + SimDuration::from_micros(backoff + jitter);
            effects.push(Effect::Forward {
                to: p.to,
                packet: p.packet.clone(),
                fwd_id: id,
            });
            self.pending_fwds.insert(id, p);
        }
        effects
    }

    /// Periodic deliveries due at `now`: each due periodic subscription
    /// is served from retained context (subscriptions whose type has no
    /// valid retained packet are skipped this round).
    pub fn periodic_fire(&mut self, now: SimTime) -> Vec<Effect> {
        let mut effects = Vec::new();
        for sub in self.table.periodic_due(now) {
            let Some(packet) = self.table.retained(sub.cxt_type, now).cloned() else {
                continue;
            };
            self.stats.delivered += 1;
            effects.push(Effect::Deliver {
                subscriber: sub.subscriber,
                sub: sub.id,
                packet,
            });
        }
        effects
    }

    /// Expiry sweep over subscriptions and retained packets.
    pub fn sweep(&mut self, now: SimTime) -> SweepStats {
        let stats = self.table.sweep(now);
        self.stats.subs_expired += stats.subscriptions as u64;
        self.stats.packets_expired += stats.packets as u64;
        stats
    }

    /// This broker's gossip digest at `now`. Each digest roots a
    /// gossip-plane trace, minted deterministically from
    /// `(broker, now)` — no RNG, so the sampled set is a pure function
    /// of the schedule.
    pub fn gossip_digest(&mut self, now: SimTime) -> LoadDigest {
        self.stats.gossip_sent += 1;
        const GOSSIP_SALT: u64 = 0x6055_1bca_57a1_0000;
        let material = GOSSIP_SALT ^ (u64::from(self.id.0) << 44) ^ now.as_micros();
        let ctx = TraceCtx::root(material, self.cfg.trace_sample_log2);
        let node = self.trace_node();
        let span = self.trace.record(ctx, Stage::Gossip, node, now);
        LoadDigest {
            broker: self.id,
            queue_depth: self.inbox.len() as u64,
            subscriptions: self.table.len() as u64,
            at: now,
            trace: if span != 0 { ctx.hopped(span) } else { ctx },
            table_digest: self.table_digest(),
        }
    }

    /// Folds a heard digest into the peer view and the anti-entropy
    /// directory. Versioning is by digest emission time, so chaos-link
    /// reordering and duplication never regress an entry — after a
    /// partition heals, one clean gossip round per peer reconciles
    /// every broker's view of every table.
    pub fn hear_gossip(&mut self, digest: &LoadDigest, now: SimTime) {
        if digest.broker != self.id {
            self.stats.gossip_heard += 1;
            let node = self.trace_node();
            self.trace.record(digest.trace, Stage::Gossip, node, now);
            self.peers.absorb(digest, now);
            let version = digest.at.as_micros();
            let slot = self.directory.entry(digest.broker).or_default();
            if version > slot.version || (slot.version == 0 && version == 0) {
                let changed = slot.version == 0 || slot.table_digest != digest.table_digest;
                slot.version = version;
                slot.table_digest = digest.table_digest;
                slot.subscriptions = digest.subscriptions;
                if changed {
                    self.stats.anti_entropy_rounds += 1;
                }
            }
        }
    }

    /// Order-insensitive FNV digest of the live subscription table:
    /// folded over `(type name, subscriber, mode, expiry)` rows in
    /// subscription-id order. Type *names* (not interner-local ids)
    /// keep the digest comparable across brokers with different intern
    /// orders.
    pub fn table_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut fold = |bytes: &[u8]| h = fnv1a(h, bytes);
        for sub in self.table.live_entries() {
            let name = self.interner.resolve(sub.cxt_type).unwrap_or("");
            fold(name.as_bytes());
            fold(&sub.subscriber.to_le_bytes());
            let (mode_tag, period) = match sub.mode {
                SubMode::OneShot => (0u8, 0u64),
                SubMode::Periodic(p) => (1, p.as_micros()),
                SubMode::Event => (2, 0),
            };
            fold(&[mode_tag]);
            fold(&period.to_le_bytes());
            fold(&sub.expires_at.as_micros().to_le_bytes());
        }
        h
    }

    /// The anti-entropy directory: this broker's latest view of each
    /// peer's subscription table.
    pub fn directory(&self) -> &BTreeMap<BrokerId, DirEntry> {
        &self.directory
    }

    /// Records the recovery hop of a crash-restarted broker. The
    /// harness calls it on the freshly rebuilt node at the restart
    /// instant; the trace root is minted deterministically from
    /// `(broker, now)` like the gossip plane's. Recovery is rare and
    /// load-bearing, so it is always sampled regardless of the
    /// configured packet sampling rate.
    pub fn note_recovery(&mut self, now: SimTime) {
        const RECOVER_SALT: u64 = 0x7ec0_4e7a_11fe_0000;
        let material = RECOVER_SALT ^ (u64::from(self.id.0) << 44) ^ now.as_micros();
        let ctx = TraceCtx::root(material, 0);
        let node = self.trace_node();
        self.trace.record(ctx, Stage::Recover, node, now);
    }

    /// On-demand lookup of the freshest retained context for a type
    /// (the broker side of `fetch`). Lifetime enforcement applies.
    pub fn fetch(&self, type_name: &str, now: SimTime) -> Result<ContextPacket, BrokerError> {
        let sym = self
            .interner
            .get(type_name)
            .ok_or_else(|| BrokerError::NoSuchContext(type_name.to_owned()))?;
        self.table
            .retained(sym, now)
            .cloned()
            .ok_or_else(|| BrokerError::NoSuchContext(type_name.to_owned()))
    }

    /// Resolves an interned id back to its name (for wire encoding).
    pub fn resolve(&self, sym: Sym) -> Option<&str> {
        self.interner.resolve(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    const FOREVER: SimTime = SimTime::from_secs(1_000_000);

    fn pkt(t: &str, at: u64) -> ContextPacket {
        ContextPacket::new(t, 1_000, SimTime::from_secs(at), SimDuration::from_secs(60), "src-a")
    }

    fn node() -> BrokerNode {
        BrokerNode::new(BrokerId(0), NodeConfig::default())
    }

    #[test]
    fn publish_then_drain_delivers_to_event_subscribers() {
        let mut n = node();
        n.subscribe(42, "wind", SubMode::Event, FOREVER, SimTime::ZERO);
        n.publish(pkt("wind", 1), SimTime::from_secs(1)).unwrap();
        let effects = n.drain(SimTime::from_secs(1));
        assert_eq!(effects.len(), 1);
        assert!(matches!(
            &effects[0],
            Effect::Deliver { subscriber: 42, .. }
        ));
        assert_eq!(n.stats().delivered, 1);
    }

    #[test]
    fn hygiene_is_enforced_at_admission() {
        let mut n = node();
        let mut anon = pkt("wind", 0);
        anon.source = String::new();
        assert_eq!(n.publish(anon, SimTime::ZERO), Err(BrokerError::Unattributed));
        let stale = pkt("wind", 0); // expires at t=60
        assert_eq!(
            n.publish(stale, SimTime::from_secs(100)),
            Err(BrokerError::ExpiredOnArrival)
        );
        n.block_source("src-a");
        assert!(matches!(
            n.publish(pkt("wind", 200), SimTime::from_secs(200)),
            Err(BrokerError::SourceBlocked(_))
        ));
        assert_eq!(n.stats().admission.refused(), 3);
        assert_eq!(n.stats().admission.admitted, 0);
    }

    #[test]
    fn bounded_inbox_sheds_beyond_capacity() {
        let mut n = BrokerNode::new(
            BrokerId(0),
            NodeConfig {
                inbox_capacity: 2,
                ..NodeConfig::default()
            },
        );
        let now = SimTime::from_secs(1);
        assert!(n.publish(pkt("a", 1), now).is_ok());
        assert!(n.publish(pkt("b", 1), now).is_ok());
        assert_eq!(
            n.publish(pkt("c", 1), now),
            Err(BrokerError::QueueFull { capacity: 2 })
        );
        assert_eq!(n.stats().admission.shed, 1);
        // Draining frees capacity again.
        n.drain(now);
        assert!(n.publish(pkt("c", 1), now).is_ok());
    }

    #[test]
    fn federation_forwards_once_and_never_loops() {
        let mut a = node();
        a.peers_mut().introduce(BrokerId(1), 10, SimTime::ZERO);
        a.publish(pkt("t", 1), SimTime::from_secs(1)).unwrap();
        let effects = a.drain(SimTime::from_secs(1));
        let forwards: Vec<_> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Forward { to, packet, .. } => Some((*to, packet.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(forwards.len(), 1);
        let (to, fwd) = &forwards[0];
        assert_eq!(*to, BrokerId(1));
        assert!(fwd.visited(BrokerId(0)));

        // The peer must not forward it back.
        let mut b = BrokerNode::new(BrokerId(1), NodeConfig::default());
        b.peers_mut().introduce(BrokerId(0), 10, SimTime::ZERO);
        b.publish(fwd.clone(), SimTime::from_secs(1)).unwrap();
        let back = b.drain(SimTime::from_secs(1));
        assert!(back.iter().all(|e| !matches!(e, Effect::Forward { .. })));
        assert_eq!(b.stats().loops_dropped, 1);
    }

    #[test]
    fn periodic_fire_serves_retained_context() {
        let mut n = node();
        n.subscribe(
            9,
            "temperature",
            SubMode::Periodic(SimDuration::from_secs(10)),
            FOREVER,
            SimTime::ZERO,
        );
        n.publish(pkt("temperature", 1), SimTime::from_secs(1)).unwrap();
        n.drain(SimTime::from_secs(1));
        assert!(n.periodic_fire(SimTime::from_secs(5)).is_empty());
        let fired = n.periodic_fire(SimTime::from_secs(10));
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn fetch_respects_lifetime_and_sweep_counts() {
        let mut n = node();
        n.publish(pkt("wind", 0), SimTime::ZERO).unwrap(); // expires t=60
        n.drain(SimTime::ZERO);
        assert!(n.fetch("wind", SimTime::from_secs(30)).is_ok());
        assert!(matches!(
            n.fetch("wind", SimTime::from_secs(61)),
            Err(BrokerError::NoSuchContext(_))
        ));
        let swept = n.sweep(SimTime::from_secs(61));
        assert_eq!(swept.packets, 1);
        assert_eq!(n.stats().packets_expired, 1);
    }

    #[test]
    fn one_shot_is_answered_once() {
        let mut n = node();
        n.subscribe(5, "noise", SubMode::OneShot, FOREVER, SimTime::ZERO);
        n.publish(pkt("noise", 1), SimTime::from_secs(1)).unwrap();
        n.publish(pkt("noise", 2), SimTime::from_secs(2)).unwrap();
        let effects = n.drain(SimTime::from_secs(2));
        let deliveries = effects
            .iter()
            .filter(|e| matches!(e, Effect::Deliver { .. }))
            .count();
        assert_eq!(deliveries, 1);
        assert_eq!(n.subscriptions(), 0);
    }

    #[test]
    fn duplicate_publishes_are_suppressed_but_positively_acked() {
        let mut n = node();
        let seq = crate::packet::PacketSeq::new(9, 1);
        let now = SimTime::from_secs(1);
        assert_eq!(n.publish(pkt("t", 1).with_seq(seq), now), Ok(Admitted::Fresh));
        assert_eq!(
            n.publish(pkt("t", 1).with_seq(seq), now),
            Ok(Admitted::Duplicate)
        );
        assert_eq!(n.stats().dedup_suppressed, 1);
        assert_eq!(n.stats().admission.admitted, 1);
        // Only one packet ever entered the inbox.
        assert_eq!(n.queue_depth(), 1);
        // Unsequenced publishes keep legacy semantics: never suppressed.
        assert_eq!(n.publish(pkt("t", 1), now), Ok(Admitted::Fresh));
        assert_eq!(n.publish(pkt("t", 1), now), Ok(Admitted::Fresh));
    }

    #[test]
    fn tracked_forwards_retry_with_backoff_then_exhaust() {
        let mut cfg = NodeConfig::default();
        cfg.fwd_attempts = 2;
        let mut n = BrokerNode::new(BrokerId(0), cfg);
        n.peers_mut().introduce(BrokerId(1), 10, SimTime::ZERO);
        let seq = crate::packet::PacketSeq::new(4, 7);
        n.publish(pkt("t", 1).with_seq(seq), SimTime::from_secs(1)).unwrap();
        let effects = n.drain(SimTime::from_secs(1));
        let fwd_id = effects
            .iter()
            .find_map(|e| match e {
                Effect::Forward { fwd_id, .. } => Some(*fwd_id),
                _ => None,
            })
            .expect("no forward");
        assert_ne!(fwd_id, 0, "sequenced forwards must be tracked");
        assert_eq!(n.pending_forwards(), 1);
        // Not yet due.
        assert!(n.fwd_retries_due(SimTime::from_secs(1)).is_empty());
        // Due: re-send 1 and 2, then exhaustion.
        let r1 = n.fwd_retries_due(SimTime::from_secs(10));
        assert_eq!(r1.len(), 1);
        let r2 = n.fwd_retries_due(SimTime::from_secs(20));
        assert_eq!(r2.len(), 1);
        assert!(n.fwd_retries_due(SimTime::from_secs(30)).is_empty());
        assert_eq!(n.pending_forwards(), 0);
        assert_eq!(n.stats().retries, 2);
        assert_eq!(n.stats().retry_exhausted, 1);
    }

    #[test]
    fn fwd_ack_clears_the_pending_entry() {
        let mut cfg = NodeConfig::default();
        cfg.fwd_attempts = 3;
        let mut n = BrokerNode::new(BrokerId(0), cfg);
        n.peers_mut().introduce(BrokerId(1), 10, SimTime::ZERO);
        let seq = crate::packet::PacketSeq::new(4, 8);
        n.publish(pkt("t", 1).with_seq(seq), SimTime::from_secs(1)).unwrap();
        let effects = n.drain(SimTime::from_secs(1));
        let fwd_id = effects
            .iter()
            .find_map(|e| match e {
                Effect::Forward { fwd_id, .. } => Some(*fwd_id),
                _ => None,
            })
            .unwrap();
        assert!(n.fwd_ack(fwd_id));
        assert!(!n.fwd_ack(fwd_id), "double-ack must be a no-op");
        assert_eq!(n.pending_forwards(), 0);
        assert!(n.fwd_retries_due(SimTime::from_secs(100)).is_empty());
        assert_eq!(n.stats().retries, 0);
    }

    #[test]
    fn unsequenced_forwards_stay_fire_and_forget() {
        let mut cfg = NodeConfig::default();
        cfg.fwd_attempts = 3;
        let mut n = BrokerNode::new(BrokerId(0), cfg);
        n.peers_mut().introduce(BrokerId(1), 10, SimTime::ZERO);
        n.publish(pkt("t", 1), SimTime::from_secs(1)).unwrap();
        let effects = n.drain(SimTime::from_secs(1));
        let fwd_id = effects
            .iter()
            .find_map(|e| match e {
                Effect::Forward { fwd_id, .. } => Some(*fwd_id),
                _ => None,
            })
            .unwrap();
        // Without an idempotence key a retry could double-deliver, so
        // the retry machinery refuses to track it.
        assert_eq!(fwd_id, 0);
        assert_eq!(n.pending_forwards(), 0);
    }

    #[test]
    fn anti_entropy_directory_absorbs_monotonically() {
        let mut a = node();
        let mut b = BrokerNode::new(BrokerId(1), NodeConfig::default());
        a.peers_mut().introduce(BrokerId(1), 10, SimTime::ZERO);
        b.peers_mut().introduce(BrokerId(0), 10, SimTime::ZERO);
        b.subscribe(7, "wind", SubMode::Event, FOREVER, SimTime::ZERO);
        let d1 = b.gossip_digest(SimTime::from_secs(1));
        assert_eq!(d1.table_digest, b.table_digest());
        a.hear_gossip(&d1, SimTime::from_secs(1));
        let entry = a.directory()[&BrokerId(1)];
        assert_eq!(entry.table_digest, b.table_digest());
        assert_eq!(entry.subscriptions, 1);
        assert_eq!(a.stats().anti_entropy_rounds, 1);
        // The peer's table changes; a newer digest reconciles the view.
        b.subscribe(8, "noise", SubMode::Event, FOREVER, SimTime::ZERO);
        let d2 = b.gossip_digest(SimTime::from_secs(5));
        a.hear_gossip(&d2, SimTime::from_secs(5));
        assert_eq!(a.directory()[&BrokerId(1)].table_digest, b.table_digest());
        assert_eq!(a.stats().anti_entropy_rounds, 2);
        // A stale (reordered/duplicated) digest never regresses it.
        a.hear_gossip(&d1, SimTime::from_secs(6));
        assert_eq!(a.directory()[&BrokerId(1)].table_digest, b.table_digest());
        assert_eq!(a.directory()[&BrokerId(1)].version, d2.at.as_micros());
        // An unchanged-digest re-hear is not an anti-entropy round.
        a.hear_gossip(&d2, SimTime::from_secs(7));
        assert_eq!(a.stats().anti_entropy_rounds, 2);
    }

    #[test]
    fn lease_renewal_survives_a_simulated_restart() {
        let mut n = node();
        let lease = SimTime::from_secs(100);
        let (id1, renewed1) =
            n.subscribe_renewing(5, "wind", SubMode::Event, lease, SimTime::ZERO);
        assert!(!renewed1);
        let (id2, renewed2) =
            n.subscribe_renewing(5, "wind", SubMode::Event, SimTime::from_secs(200), SimTime::from_secs(10));
        assert!(renewed2);
        assert_eq!(id1, id2);
        assert_eq!(n.subscriptions(), 1);
        // "Restart": a fresh node has lost the table; the same renewal
        // call re-registers instead of extending.
        let mut fresh = node();
        let (_, renewed3) =
            n_renew(&mut fresh, 5, "wind", SimTime::from_secs(300), SimTime::from_secs(20));
        assert!(!renewed3);
        assert_eq!(fresh.subscriptions(), 1);
    }

    fn n_renew(
        n: &mut BrokerNode,
        subscriber: u64,
        t: &str,
        expires: SimTime,
        now: SimTime,
    ) -> (crate::table::SubId, bool) {
        n.subscribe_renewing(subscriber, t, SubMode::Event, expires, now)
    }
}
