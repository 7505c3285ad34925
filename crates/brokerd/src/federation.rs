//! The federation plane: load gossip, peer views and QoS-aware broker
//! selection.
//!
//! Brokers periodically exchange [`LoadDigest`]s — tiny summaries of
//! queue depth and subscription count. Each broker folds the digests it
//! hears into a [`PeerView`], and clients (the [`FederatedCell`] behind
//! `InfraCxtProvider`) rank brokers by an **integer** QoS score
//! combining advertised load with measured link latency, exactly the
//! latency+load policy of the cloud-federation design this subsystem
//! reproduces. Integer arithmetic keeps selection bit-stable across
//! platforms and shard layouts — no float accumulates anywhere on the
//! broker path.
//!
//! Staleness doubles as failure detection: a peer whose digest has not
//! refreshed within the staleness window is skipped by selection, which
//! is what lets a client re-select away from a killed broker well inside
//! the paper's 45 s failover SLO.
//!
//! [`FederatedCell`]: crate::cell::FederatedCell

use crate::packet::BrokerId;
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;
use tracekit::TraceCtx;

/// Weight of one queued packet relative to one microsecond of latency in
/// the QoS score. 500 ⇒ a backlog of 100 packets outweighs 50 ms of
/// extra link latency.
pub const LOAD_WEIGHT: u64 = 500;

/// Weight of one registered subscription in the QoS score.
pub const SUBS_WEIGHT: u64 = 20;

/// A broker's gossiped load summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadDigest {
    /// Originating broker.
    pub broker: BrokerId,
    /// Inbox depth at digest time.
    pub queue_depth: u64,
    /// Live subscriptions at digest time.
    pub subscriptions: u64,
    /// When the digest was produced.
    pub at: SimTime,
    /// Gossip-plane trace context (minted per digest by the emitting
    /// broker; [`TraceCtx::NONE`] for hand-built digests).
    pub trace: TraceCtx,
    /// Anti-entropy fingerprint of the sender's subscription table at
    /// digest time (see `BrokerNode::table_digest`); `0` for
    /// hand-built digests.
    pub table_digest: u64,
}

/// What a peer looks like from here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerStat {
    /// Measured (or configured) one-way link latency.
    pub latency_us: u64,
    /// Last advertised queue depth.
    pub queue_depth: u64,
    /// Last advertised subscription count.
    pub subscriptions: u64,
    /// When the last digest was heard.
    pub last_seen: SimTime,
}

/// The integer QoS score: lower is better.
pub fn qos_score(latency_us: u64, queue_depth: u64, subscriptions: u64) -> u64 {
    latency_us
        .saturating_add(queue_depth.saturating_mul(LOAD_WEIGHT))
        .saturating_add(subscriptions.saturating_mul(SUBS_WEIGHT))
}

/// One node's view of its federation peers.
#[derive(Clone, Debug, Default)]
pub struct PeerView {
    peers: BTreeMap<BrokerId, PeerStat>,
}

impl PeerView {
    /// An empty view.
    pub fn new() -> Self {
        PeerView::default()
    }

    /// Introduces a peer with a known link latency, before any digest is
    /// heard. `at` seeds the staleness clock.
    pub fn introduce(&mut self, broker: BrokerId, latency_us: u64, at: SimTime) {
        self.peers.entry(broker).or_insert(PeerStat {
            latency_us,
            queue_depth: 0,
            subscriptions: 0,
            last_seen: at,
        });
    }

    /// Folds a heard digest into the view (unknown senders are adopted
    /// with zero link latency).
    pub fn absorb(&mut self, digest: &LoadDigest, heard_at: SimTime) {
        let stat = self.peers.entry(digest.broker).or_insert(PeerStat {
            latency_us: 0,
            queue_depth: 0,
            subscriptions: 0,
            last_seen: heard_at,
        });
        stat.queue_depth = digest.queue_depth;
        stat.subscriptions = digest.subscriptions;
        stat.last_seen = heard_at;
    }

    /// Removes a peer (e.g. on an administrative leave).
    pub fn forget(&mut self, broker: BrokerId) {
        self.peers.remove(&broker);
    }

    /// All known peers in id order.
    pub fn brokers(&self) -> Vec<BrokerId> {
        self.peers.keys().copied().collect()
    }

    /// A peer's current stat.
    pub fn stat(&self, broker: BrokerId) -> Option<&PeerStat> {
        self.peers.get(&broker)
    }

    /// Number of known peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True when no peer is known.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Peers whose digests are fresh at `now` (within `staleness`), in
    /// id order.
    pub fn live_peers(&self, now: SimTime, staleness: SimDuration) -> Vec<BrokerId> {
        self.peers
            .iter()
            .filter(|(_, s)| now.since(s.last_seen) <= staleness)
            .map(|(b, _)| *b)
            .collect()
    }

    /// QoS-aware selection: the live peer with the lowest integer score,
    /// ties broken by lowest broker id (deterministic). `exclude` skips
    /// a broker known-bad by the caller (e.g. the one that just failed).
    pub fn select(
        &self,
        now: SimTime,
        staleness: SimDuration,
        exclude: Option<BrokerId>,
    ) -> Option<BrokerId> {
        self.peers
            .iter()
            .filter(|(b, _)| Some(**b) != exclude)
            .filter(|(_, s)| now.since(s.last_seen) <= staleness)
            .map(|(b, s)| (qos_score(s.latency_us, s.queue_depth, s.subscriptions), *b))
            .min()
            .map(|(_, b)| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STALE: SimDuration = SimDuration::from_secs(30);

    fn digest(b: u16, depth: u64, at: u64) -> LoadDigest {
        LoadDigest {
            broker: BrokerId(b),
            queue_depth: depth,
            subscriptions: 0,
            at: SimTime::from_secs(at),
            trace: TraceCtx::NONE,
            table_digest: 0,
        }
    }

    #[test]
    fn selection_prefers_low_latency_then_low_load() {
        let mut view = PeerView::new();
        let t0 = SimTime::ZERO;
        view.introduce(BrokerId(1), 10_000, t0);
        view.introduce(BrokerId(2), 80_000, t0);
        assert_eq!(view.select(t0, STALE, None), Some(BrokerId(1)));
        // 200 queued packets on broker 1 (100 ms of score) outweigh the
        // 70 ms latency gap to broker 2.
        view.absorb(&digest(1, 200, 0), t0);
        assert_eq!(view.select(t0, STALE, None), Some(BrokerId(2)));
    }

    #[test]
    fn stale_peers_are_skipped_as_failed() {
        let mut view = PeerView::new();
        view.introduce(BrokerId(1), 1, SimTime::ZERO);
        view.introduce(BrokerId(2), 99_000, SimTime::ZERO);
        view.absorb(&digest(2, 0, 90), SimTime::from_secs(90));
        // Broker 1 went silent: at t=100 its digest is 100 s old.
        let now = SimTime::from_secs(100);
        assert_eq!(view.select(now, STALE, None), Some(BrokerId(2)));
        assert_eq!(view.live_peers(now, STALE), vec![BrokerId(2)]);
    }

    #[test]
    fn exclusion_and_ties_are_deterministic() {
        let mut view = PeerView::new();
        view.introduce(BrokerId(3), 5, SimTime::ZERO);
        view.introduce(BrokerId(7), 5, SimTime::ZERO);
        assert_eq!(view.select(SimTime::ZERO, STALE, None), Some(BrokerId(3)));
        assert_eq!(
            view.select(SimTime::ZERO, STALE, Some(BrokerId(3))),
            Some(BrokerId(7))
        );
        assert_eq!(view.select(SimTime::ZERO, SimDuration::ZERO, Some(BrokerId(3))), Some(BrokerId(7)));
    }

    #[test]
    fn score_is_saturating_not_wrapping() {
        assert_eq!(qos_score(u64::MAX, u64::MAX, u64::MAX), u64::MAX);
    }
}
