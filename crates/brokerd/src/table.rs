//! Subscription tables, sharded by interned context type.
//!
//! A broker holds one [`SubscriptionTable`] split into `N` internal
//! shards; a subscription or retained packet for type `t` lives on shard
//! `t.0 % N`. Sharding bounds the scan cost of the hot path (an arriving
//! packet only consults one shard) and — because [`Sym`] ids are dense
//! and partition-independent — the shard count never changes any output:
//! match order is always subscription-id order, sweep order is always
//! `(shard, type, id)` order over a `BTreeMap`. The fleet determinism
//! test runs the same scenario at table shard counts 1 and 4 and asserts
//! byte-identical reports.
//!
//! Three subscription modes mirror the CQL clauses: **one-shot**
//! (plain `SELECT`, answered once), **periodic** (`EVERY`/freshness,
//! re-delivered from retained context on a cadence) and **event**
//! (`EVENT`, pushed on every matching arrival). Every subscription
//! carries a `DURATION`-derived expiry, swept alongside retained
//! packets.
//!
//! Cost model: [`SubscriptionTable::sweep`] and
//! [`SubscriptionTable::periodic_due`] are full scans, but each runs only
//! when a floor says it may find something. The table keeps two scalar
//! lower bounds: `expiry_floor` (≤ every live `expires_at`, subscription
//! or retained packet) and `due_floor` (≤ every periodic `next_due`).
//! A sweep at `now <= expiry_floor` or a due check at `now < due_floor`
//! returns at once; otherwise the scan runs unchanged and recomputes its
//! floor exactly. Insertions lower the floors; renewals only extend and
//! removals only remove, so both stay valid lower bounds. Any future code
//! that lowers an `expires_at` or a `next_due` must lower the floor too.
//! Per-type lists are dropped where they empty, so a skipped sweep
//! leaves nothing behind.

use crate::packet::ContextPacket;
use contory::vocab::Sym;
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Handle to a registered subscription, unique per broker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId(pub u64);

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// Delivery semantics of a subscription.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubMode {
    /// Answered from the next matching arrival (or retained context),
    /// then removed.
    OneShot,
    /// Re-delivered from retained context every `period`.
    Periodic(SimDuration),
    /// Pushed on every matching arrival.
    Event,
}

/// One registered subscription.
#[derive(Clone, Debug)]
pub struct Subscription {
    /// Broker-unique handle.
    pub id: SubId,
    /// Opaque subscriber identity (device actor, TCP session, …).
    pub subscriber: u64,
    /// Context type subscribed to.
    pub cxt_type: Sym,
    /// Delivery semantics.
    pub mode: SubMode,
    /// `DURATION`-derived expiry; the sweep removes the subscription
    /// after this instant.
    pub expires_at: SimTime,
    /// Next periodic delivery due (periodic mode only).
    pub next_due: SimTime,
}

/// What an expiry sweep removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Subscriptions past their duration.
    pub subscriptions: usize,
    /// Retained packets past their expiry.
    pub packets: usize,
}

struct Shard {
    subs: BTreeMap<Sym, Vec<Subscription>>,
    retained: BTreeMap<Sym, ContextPacket>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            subs: BTreeMap::new(),
            retained: BTreeMap::new(),
        }
    }
}

/// Floor of an empty table: no expiry or due time lies beyond it.
const NEVER: SimTime = SimTime::from_micros(u64::MAX);

/// A broker's subscription state, sharded by interned context type.
pub struct SubscriptionTable {
    shards: Vec<Shard>,
    next_id: u64,
    live: usize,
    /// Lower bound on every subscription's and retained packet's
    /// `expires_at`: a sweep at or before it removes nothing.
    expiry_floor: SimTime,
    /// Lower bound on every periodic subscription's `next_due`: nothing
    /// is due before it.
    due_floor: SimTime,
}

impl SubscriptionTable {
    /// Creates a table with `shards` internal shards (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1);
        SubscriptionTable {
            shards: (0..n).map(|_| Shard::new()).collect(),
            next_id: 0,
            live: 0,
            expiry_floor: NEVER,
            due_floor: NEVER,
        }
    }

    /// Internal shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding a type's subscriptions and retained packet.
    fn shard_of(&self, sym: Sym) -> usize {
        usize::from(sym.0) % self.shards.len()
    }

    /// Registers a subscription and returns its handle.
    pub fn subscribe(
        &mut self,
        subscriber: u64,
        cxt_type: Sym,
        mode: SubMode,
        expires_at: SimTime,
        now: SimTime,
    ) -> SubId {
        let id = SubId(self.next_id);
        self.next_id += 1;
        let next_due = match mode {
            SubMode::Periodic(period) => now + period,
            _ => now,
        };
        let shard = self.shard_of(cxt_type);
        if let Some(slot) = self.shards.get_mut(shard) {
            slot.subs.entry(cxt_type).or_default().push(Subscription {
                id,
                subscriber,
                cxt_type,
                mode,
                expires_at,
                next_due,
            });
            self.live += 1;
            self.expiry_floor = self.expiry_floor.min(expires_at);
            if let SubMode::Periodic(_) = mode {
                self.due_floor = self.due_floor.min(next_due);
            }
        }
        id
    }

    /// Lease renewal: if a subscription for the same `(subscriber,
    /// type, mode)` is live, extends its expiry (never shortens it) and
    /// returns `(existing id, true)`; otherwise registers a fresh
    /// subscription and returns `(new id, false)`. The idempotent form
    /// of [`SubscriptionTable::subscribe`] that periodic
    /// re-subscription needs — calling it on a cadence never stacks
    /// duplicate subscriptions.
    pub fn renew_or_subscribe(
        &mut self,
        subscriber: u64,
        cxt_type: Sym,
        mode: SubMode,
        expires_at: SimTime,
        now: SimTime,
    ) -> (SubId, bool) {
        let shard = self.shard_of(cxt_type);
        if let Some(subs) = self
            .shards
            .get_mut(shard)
            .and_then(|s| s.subs.get_mut(&cxt_type))
        {
            for s in subs.iter_mut() {
                if s.subscriber == subscriber && s.mode == mode && now <= s.expires_at {
                    s.expires_at = s.expires_at.max(expires_at);
                    return (s.id, true);
                }
            }
        }
        (
            self.subscribe(subscriber, cxt_type, mode, expires_at, now),
            false,
        )
    }

    /// Every live subscription, cloned, in subscription-id order —
    /// deterministic regardless of the internal shard count (the input
    /// to the anti-entropy table digest).
    pub fn live_entries(&self) -> Vec<Subscription> {
        let mut out = Vec::with_capacity(self.live);
        for shard in &self.shards {
            for subs in shard.subs.values() {
                out.extend(subs.iter().cloned());
            }
        }
        out.sort_by_key(|s| s.id);
        out
    }

    /// Removes a subscription. Returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubId) -> bool {
        for shard in &mut self.shards {
            let Some((&t, subs)) = shard
                .subs
                .iter_mut()
                .find(|(_, subs)| subs.iter().any(|s| s.id == id))
            else {
                continue;
            };
            subs.retain(|s| s.id != id);
            if subs.is_empty() {
                shard.subs.remove(&t);
            }
            self.live -= 1;
            return true;
        }
        false
    }

    /// Live subscriptions across all shards.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Retains `packet` as the latest context of its type (replacing any
    /// older retained packet).
    pub fn retain(&mut self, packet: ContextPacket) {
        let shard = self.shard_of(packet.cxt_type);
        if let Some(slot) = self.shards.get_mut(shard) {
            self.expiry_floor = self.expiry_floor.min(packet.expires_at);
            slot.retained.insert(packet.cxt_type, packet);
        }
    }

    /// The retained packet of a type, if still valid at `now`.
    pub fn retained(&self, cxt_type: Sym, now: SimTime) -> Option<&ContextPacket> {
        self.shards
            .get(self.shard_of(cxt_type))?
            .retained
            .get(&cxt_type)
            .filter(|p| p.is_valid_at(now))
    }

    /// Matches an arrival against the type's subscriptions: event and
    /// one-shot subscribers still within their duration, in id order.
    /// Matched one-shots are removed (their single answer is spent).
    pub fn on_arrival(&mut self, cxt_type: Sym, now: SimTime) -> Vec<Subscription> {
        let shard = self.shard_of(cxt_type);
        let Some(slot) = self.shards.get_mut(shard) else {
            return Vec::new();
        };
        let Some(subs) = slot.subs.get_mut(&cxt_type) else {
            return Vec::new();
        };
        let mut matched = Vec::new();
        subs.retain(|s| {
            if now > s.expires_at {
                return true; // expired: left for the sweep to count
            }
            match s.mode {
                SubMode::Event => {
                    matched.push(s.clone());
                    true
                }
                SubMode::OneShot => {
                    matched.push(s.clone());
                    false
                }
                SubMode::Periodic(_) => true,
            }
        });
        if subs.is_empty() {
            slot.subs.remove(&cxt_type);
        }
        self.live -= matched.iter().filter(|s| s.mode == SubMode::OneShot).count();
        matched
    }

    /// Periodic subscriptions due at `now`: each is returned and its
    /// `next_due` advanced by its period. Results are in subscription-id
    /// order — shard-major collection order would leak the shard count
    /// into delivery order, breaking the partition-invariance contract.
    pub fn periodic_due(&mut self, now: SimTime) -> Vec<Subscription> {
        let mut due = Vec::new();
        if now < self.due_floor {
            return due;
        }
        let mut floor = NEVER;
        for shard in &mut self.shards {
            for subs in shard.subs.values_mut() {
                for s in subs.iter_mut() {
                    if let SubMode::Periodic(period) = s.mode {
                        if s.next_due <= now && now <= s.expires_at {
                            due.push(s.clone());
                            s.next_due = s.next_due + period;
                        }
                        floor = floor.min(s.next_due);
                    }
                }
            }
        }
        self.due_floor = floor;
        due.sort_by_key(|s| s.id);
        due
    }

    /// Removes expired subscriptions and retained packets,
    /// deterministically (shard index, then `BTreeMap` type order).
    pub fn sweep(&mut self, now: SimTime) -> SweepStats {
        let mut stats = SweepStats::default();
        if now <= self.expiry_floor {
            return stats;
        }
        let mut floor = NEVER;
        for shard in &mut self.shards {
            for subs in shard.subs.values_mut() {
                let before = subs.len();
                subs.retain(|s| now <= s.expires_at);
                stats.subscriptions += before - subs.len();
                for s in subs.iter() {
                    floor = floor.min(s.expires_at);
                }
            }
            shard.subs.retain(|_, v| !v.is_empty());
            let before = shard.retained.len();
            shard.retained.retain(|_, p| p.is_valid_at(now));
            stats.packets += before - shard.retained.len();
            for p in shard.retained.values() {
                floor = floor.min(p.expires_at);
            }
        }
        self.expiry_floor = floor;
        self.live -= stats.subscriptions;
        stats
    }
}

impl fmt::Debug for SubscriptionTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubscriptionTable")
            .field("shards", &self.shards.len())
            .field("live", &self.live)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FOREVER: SimTime = SimTime::from_secs(1_000_000);

    fn pkt(sym: Sym, at: u64, life: u64) -> ContextPacket {
        let mut p = ContextPacket::new(
            "t",
            1,
            SimTime::from_secs(at),
            SimDuration::from_secs(life),
            "src",
        );
        p.cxt_type = sym;
        p
    }

    #[test]
    fn event_subs_match_every_arrival_one_shots_once() {
        let mut tab = SubscriptionTable::new(4);
        let t = Sym(3);
        tab.subscribe(1, t, SubMode::Event, FOREVER, SimTime::ZERO);
        tab.subscribe(2, t, SubMode::OneShot, FOREVER, SimTime::ZERO);
        let first = tab.on_arrival(t, SimTime::from_secs(1));
        assert_eq!(first.len(), 2);
        let second = tab.on_arrival(t, SimTime::from_secs(2));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].subscriber, 1);
        assert_eq!(tab.len(), 1);
    }

    #[test]
    fn periodic_subs_fire_on_cadence_not_arrival() {
        let mut tab = SubscriptionTable::new(2);
        let t = Sym(0);
        tab.subscribe(7, t, SubMode::Periodic(SimDuration::from_secs(10)), FOREVER, SimTime::ZERO);
        assert!(tab.on_arrival(t, SimTime::from_secs(1)).is_empty());
        assert!(tab.periodic_due(SimTime::from_secs(9)).is_empty());
        let due = tab.periodic_due(SimTime::from_secs(10));
        assert_eq!(due.len(), 1);
        // Advanced: not due again until t=20.
        assert!(tab.periodic_due(SimTime::from_secs(15)).is_empty());
        assert_eq!(tab.periodic_due(SimTime::from_secs(20)).len(), 1);
    }

    #[test]
    fn sweep_removes_expired_subs_and_packets() {
        let mut tab = SubscriptionTable::new(4);
        tab.subscribe(1, Sym(0), SubMode::Event, SimTime::from_secs(5), SimTime::ZERO);
        tab.subscribe(2, Sym(1), SubMode::Event, FOREVER, SimTime::ZERO);
        tab.retain(pkt(Sym(0), 0, 3));
        tab.retain(pkt(Sym(1), 0, 100));
        let stats = tab.sweep(SimTime::from_secs(10));
        assert_eq!(stats, SweepStats { subscriptions: 1, packets: 1 });
        assert_eq!(tab.len(), 1);
        assert!(tab.retained(Sym(1), SimTime::from_secs(10)).is_some());
        assert!(tab.retained(Sym(0), SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn retained_respects_expiry_even_before_sweep() {
        let mut tab = SubscriptionTable::new(1);
        tab.retain(pkt(Sym(5), 0, 10));
        assert!(tab.retained(Sym(5), SimTime::from_secs(10)).is_some());
        assert!(tab.retained(Sym(5), SimTime::from_secs(11)).is_none());
    }

    #[test]
    fn shard_count_never_changes_match_results() {
        let run = |shards: usize| {
            let mut tab = SubscriptionTable::new(shards);
            for sub in 0..20u64 {
                let t = Sym((sub % 7) as u16);
                let mode = match sub % 3 {
                    0 => SubMode::Event,
                    1 => SubMode::OneShot,
                    _ => SubMode::Periodic(SimDuration::from_secs(5)),
                };
                tab.subscribe(sub, t, mode, FOREVER, SimTime::ZERO);
            }
            let mut log = Vec::new();
            for step in 1..5u64 {
                let now = SimTime::from_secs(step);
                for t in 0..7u16 {
                    for m in tab.on_arrival(Sym(t), now) {
                        log.push(format!("arr {} {} {}", step, m.id, m.subscriber));
                    }
                }
                for m in tab.periodic_due(SimTime::from_secs(step * 5)) {
                    log.push(format!("due {} {} {}", step, m.id, m.subscriber));
                }
            }
            log
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(1), run(16));
    }

    #[test]
    fn renewal_extends_instead_of_stacking() {
        let mut tab = SubscriptionTable::new(4);
        let t = Sym(2);
        let mode = SubMode::Periodic(SimDuration::from_secs(5));
        let (id, renewed) =
            tab.renew_or_subscribe(9, t, mode, SimTime::from_secs(30), SimTime::ZERO);
        assert!(!renewed);
        let (again, renewed) =
            tab.renew_or_subscribe(9, t, mode, SimTime::from_secs(60), SimTime::from_secs(10));
        assert!(renewed);
        assert_eq!(id, again);
        assert_eq!(tab.len(), 1);
        // Renewal never shortens a lease.
        tab.renew_or_subscribe(9, t, mode, SimTime::from_secs(40), SimTime::from_secs(11));
        assert_eq!(tab.live_entries()[0].expires_at, SimTime::from_secs(60));
        // A different mode or subscriber is a distinct lease.
        let (other, renewed) =
            tab.renew_or_subscribe(9, t, SubMode::Event, SimTime::from_secs(60), SimTime::ZERO);
        assert!(!renewed);
        assert_ne!(id, other);
        assert_eq!(tab.len(), 2);
        // After expiry the lease is gone: renewal re-registers.
        tab.sweep(SimTime::from_secs(100));
        let (fresh, renewed) =
            tab.renew_or_subscribe(9, t, mode, SimTime::from_secs(200), SimTime::from_secs(100));
        assert!(!renewed);
        assert_ne!(fresh, id);
    }

    #[test]
    fn live_entries_are_id_ordered_across_shard_counts() {
        let fill = |shards: usize| {
            let mut tab = SubscriptionTable::new(shards);
            for sub in 0..17u64 {
                tab.subscribe(sub, Sym((sub % 5) as u16), SubMode::Event, FOREVER, SimTime::ZERO);
            }
            tab.live_entries()
                .iter()
                .map(|s| (s.id, s.subscriber, s.cxt_type))
                .collect::<Vec<_>>()
        };
        assert_eq!(fill(1), fill(4));
        let ids: Vec<u64> = fill(3).iter().map(|(id, _, _)| id.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unsubscribe_is_idempotent() {
        let mut tab = SubscriptionTable::new(2);
        let id = tab.subscribe(1, Sym(0), SubMode::Event, FOREVER, SimTime::ZERO);
        assert!(tab.unsubscribe(id));
        assert!(!tab.unsubscribe(id));
        assert!(tab.is_empty());
    }

    #[test]
    fn fresh_table_sweep_and_due_are_no_ops() {
        let mut tab = SubscriptionTable::new(4);
        assert_eq!(tab.sweep(SimTime::from_secs(5)), SweepStats::default());
        assert!(tab.periodic_due(SimTime::from_secs(5)).is_empty());
        assert!(tab.is_empty());
        assert!(tab.live_entries().is_empty());
    }

    #[test]
    fn lagging_periodic_catches_up_one_period_per_call() {
        let mut tab = SubscriptionTable::new(2);
        let period = SimDuration::from_secs(10);
        let id = tab.subscribe(1, Sym(1), SubMode::Periodic(period), FOREVER, SimTime::ZERO);
        // First due at t=10; at t=45 it is four periods behind.
        let now = SimTime::from_secs(45);
        for k in 1..=4u64 {
            let due = tab.periodic_due(now);
            assert_eq!(due.len(), 1, "call {k}");
            assert_eq!(due[0].id, id);
            assert_eq!(due[0].next_due, SimTime::from_secs(10 * k));
            assert_eq!(tab.live_entries()[0].next_due, SimTime::from_secs(10 * (k + 1)));
        }
        // Caught up: next due at t=50.
        assert!(tab.periodic_due(now).is_empty());
        assert_eq!(tab.periodic_due(SimTime::from_secs(50)).len(), 1);
    }

    #[test]
    fn sweep_keeps_a_subscription_through_its_expiry_instant() {
        let mut tab = SubscriptionTable::new(1);
        let expiry = SimTime::from_secs(7);
        tab.subscribe(1, Sym(0), SubMode::Event, expiry, SimTime::ZERO);
        assert_eq!(tab.sweep(expiry), SweepStats::default());
        assert_eq!(tab.len(), 1);
        let later = SimTime::from_micros(expiry.as_micros() + 1);
        assert_eq!(tab.sweep(later), SweepStats { subscriptions: 1, packets: 0 });
        assert!(tab.is_empty());
    }

    #[test]
    fn renewal_past_the_floor_keeps_the_lease_until_its_new_expiry() {
        let mut tab = SubscriptionTable::new(2);
        tab.renew_or_subscribe(1, Sym(0), SubMode::Event, SimTime::from_secs(10), SimTime::ZERO);
        tab.subscribe(2, Sym(1), SubMode::Event, SimTime::from_secs(30), SimTime::ZERO);
        let (_, renewed) = tab.renew_or_subscribe(
            1,
            Sym(0),
            SubMode::Event,
            SimTime::from_secs(50),
            SimTime::from_secs(5),
        );
        assert!(renewed);
        // The stale floor (t=10) forces a scan that finds nothing…
        assert_eq!(tab.sweep(SimTime::from_secs(20)), SweepStats::default());
        // …and the recomputed floor (t=30) still catches the other lease.
        assert_eq!(tab.sweep(SimTime::from_secs(31)), SweepStats { subscriptions: 1, packets: 0 });
        assert_eq!(tab.sweep(SimTime::from_secs(50)), SweepStats::default());
        assert_eq!(tab.sweep(SimTime::from_secs(51)), SweepStats { subscriptions: 1, packets: 0 });
        assert!(tab.is_empty());
    }

    #[test]
    fn expired_unswept_periodic_is_never_due() {
        let mut tab = SubscriptionTable::new(1);
        let period = SimDuration::from_secs(10);
        tab.subscribe(1, Sym(0), SubMode::Periodic(period), SimTime::from_secs(25), SimTime::ZERO);
        assert!(tab.periodic_due(SimTime::from_secs(30)).is_empty());
        assert!(tab.periodic_due(SimTime::from_secs(40)).is_empty());
        // Still registered until a sweep removes it.
        assert_eq!(tab.len(), 1);
        assert_eq!(tab.sweep(SimTime::from_secs(40)).subscriptions, 1);
        assert!(tab.periodic_due(SimTime::from_secs(50)).is_empty());
    }

    #[test]
    fn replaced_retained_packet_lives_to_its_own_expiry() {
        let mut tab = SubscriptionTable::new(1);
        tab.retain(pkt(Sym(3), 0, 10));
        tab.retain(pkt(Sym(3), 5, 100));
        assert_eq!(tab.sweep(SimTime::from_secs(20)), SweepStats::default());
        assert!(tab.retained(Sym(3), SimTime::from_secs(20)).is_some());
        assert_eq!(tab.sweep(SimTime::from_secs(106)), SweepStats { subscriptions: 0, packets: 1 });
        assert!(tab.retained(Sym(3), SimTime::from_secs(20)).is_none());
    }

    #[test]
    fn emptied_type_lists_are_dropped_without_a_sweep() {
        let mut tab = SubscriptionTable::new(2);
        let id = tab.subscribe(1, Sym(0), SubMode::Event, FOREVER, SimTime::ZERO);
        tab.subscribe(2, Sym(1), SubMode::OneShot, FOREVER, SimTime::ZERO);
        assert!(tab.unsubscribe(id));
        assert_eq!(tab.on_arrival(Sym(1), SimTime::from_secs(1)).len(), 1);
        assert!(tab.shards.iter().all(|s| s.subs.is_empty()));
        assert!(tab.is_empty());
    }
}
