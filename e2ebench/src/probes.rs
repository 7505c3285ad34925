//! Layer probes of the traced run: the benchmark times public `brokerd`
//! calls itself, in batches, on `tcp_stream`'s own generated packets and
//! subscription population. Each batch is one span; the per-layer
//! figure is the spans' self time per operation.

use crate::sim::{FLEET_DEVICES, LINK_FAULT};
use crate::spans::Tracer;
use crate::tcp::{stream_population, StreamPlan, FANOUT, PERIODIC_SUBS, STREAM_TYPES};
use brokerd::{
    BrokerId, BrokerNode, ContextPacket, DedupWindow, NodeConfig, PacketSeq, Request,
    SubscriptionTable,
};
use contory::Sym;
use simkit::{DetRng, SimTime};
use std::hint::black_box;

/// Packets per codec and publish batch set.
const PACKETS: u64 = 4_096;
/// Table scans timed per repeat.
const SCANS: u64 = 50;
/// Repeats of every probe.
const REPEATS: usize = 5;
/// Publishes per node batch: the default inbox holds 64.
const NODE_BATCH: usize = 64;
/// Sequence numbers each origin publishes in the dedup stream.
const SEQ_PER_ORIGIN: u64 = 32;

/// The logical instant the probes run at: after registration, before
/// any periodic subscription is due.
const NOW: SimTime = SimTime::from_secs(1);

/// The probe results, and how many probe checks failed.
pub struct Probes {
    /// `(metric, value)` rows.
    pub layers: Vec<(&'static str, f64)>,
    /// Probe checks that failed (a layer answered wrongly).
    pub failed: u64,
    /// Probe checks made.
    pub attempted: u64,
}

/// A duplicate-and-reorder seq stream drawn with `fleet_chaos`'s link
/// fault rates, and the number of duplicate copies it carries.
pub fn dedup_stream(seed: u64) -> (Vec<PacketSeq>, u64) {
    let mut rng = DetRng::derive(seed, 0xded0_0001);
    let mut draw = |ppm: u32| rng.next_u64() % 1_000_000 < u64::from(ppm);
    let mut stream = Vec::new();
    let mut dups = 0;
    for n in 1..=SEQ_PER_ORIGIN {
        for origin in 1..=FLEET_DEVICES {
            let seq = PacketSeq::new(origin, n);
            if draw(LINK_FAULT.drop_ppm) {
                continue;
            }
            stream.push(seq);
            if draw(LINK_FAULT.dup_ppm) {
                stream.push(seq);
                dups += 1;
            }
            if draw(LINK_FAULT.reorder_ppm) && stream.len() >= 2 {
                let last = stream.len() - 1;
                stream.swap(last - 1, last);
            }
        }
    }
    (stream, dups)
}

/// Runs every probe `REPEATS` times and derives the rows from the spans.
pub fn run(seed: u64, tr: &mut Tracer) -> Probes {
    let plan = StreamPlan::new(seed);
    let packets: Vec<ContextPacket> = (0..PACKETS).map(|k| plan.packet(k, NOW)).collect();
    let population = stream_population();
    let (mut failed, mut attempted) = (0u64, 0u64);
    let root = tr.open("probes", 0);
    for _ in 0..REPEATS {
        // wire: encode and decode one PUB frame per packet.
        let reqs: Vec<Request> = packets.iter().cloned().map(Request::Pub).collect();
        let lines: Vec<String> = tr.wrap("wire.encode", root, PACKETS, || {
            reqs.iter().filter_map(|r| r.encode().ok()).collect()
        });
        let decoded = tr.wrap("wire.decode", root, PACKETS, || {
            lines.iter().filter(|l| Request::decode(l).is_ok()).count()
        });
        attempted += 1;
        failed += u64::from(lines.len() != reqs.len() || decoded != reqs.len());

        // node: publish in inbox-sized batches, drain each batch.
        let mut node = BrokerNode::new(BrokerId(0), NodeConfig::default());
        for (t, mode) in &population {
            node.subscribe(1, t, *mode, SimTime::from_secs(1_000_000), NOW);
        }
        let mut delivered = 0usize;
        for batch in packets.chunks(NODE_BATCH) {
            let ok = tr.wrap("node.publish", root, batch.len() as u64, || {
                batch
                    .iter()
                    .filter(|p| node.publish((*p).clone(), NOW).is_ok())
                    .count()
            });
            failed += u64::from(ok != batch.len());
            let mut effects = 0usize;
            let id = tr.open("node.drain", root);
            loop {
                let n = black_box(node.drain(NOW)).len();
                if n == 0 && node.queue_depth() == 0 {
                    break;
                }
                effects += n;
            }
            tr.close(id, effects as u64);
            delivered += effects;
        }
        attempted += 1;
        failed += u64::from(delivered as u64 != PACKETS * FANOUT);

        // table: arrival matching and the two full scans every request
        // pays.
        let mut table = SubscriptionTable::new(NodeConfig::default().table_shards);
        for (i, (_, mode)) in population.iter().enumerate() {
            let t = if (i as u64) < STREAM_TYPES * FANOUT {
                i as u64 / FANOUT
            } else {
                i as u64 - STREAM_TYPES * FANOUT
            };
            table.subscribe(1, Sym(t as u16), *mode, SimTime::from_secs(1_000_000), NOW);
        }
        let matched = tr.wrap("table.on_arrival", root, PACKETS, || {
            (0..PACKETS)
                .map(|k| black_box(table.on_arrival(Sym(plan.type_of(k) as u16), NOW)).len())
                .sum::<usize>()
        });
        attempted += 1;
        failed += u64::from(matched as u64 != PACKETS * FANOUT);
        tr.wrap("table.sweep", root, SCANS, || {
            for _ in 0..SCANS {
                black_box(table.sweep(NOW));
            }
        });
        let due = tr.wrap("table.periodic_due", root, SCANS, || {
            (0..SCANS)
                .map(|_| black_box(table.periodic_due(NOW)).len())
                .sum::<usize>()
        });
        attempted += 1;
        failed +=
            u64::from(due != 0 || table.len() as u64 != STREAM_TYPES * FANOUT + PERIODIC_SUBS);

        // dedup: the chaos seq stream; every injected copy is suppressed.
        let (stream, dups) = dedup_stream(seed);
        let mut window = DedupWindow::new(NodeConfig::default().dedup_origins);
        tr.wrap("dedup.observe", root, stream.len() as u64, || {
            for &seq in &stream {
                black_box(window.observe(seq));
            }
        });
        attempted += 1;
        failed += u64::from(window.suppressed() != dups);
    }
    tr.close(root, 1);
    Probes {
        layers: vec![
            ("wire.encode_ns", tr.ns_per_op("wire.encode")),
            ("wire.decode_ns", tr.ns_per_op("wire.decode")),
            ("node.publish_ns", tr.ns_per_op("node.publish")),
            ("node.drain_ns_per_delivery", tr.ns_per_op("node.drain")),
            ("table.on_arrival_ns", tr.ns_per_op("table.on_arrival")),
            ("table.sweep_ns", tr.ns_per_op("table.sweep")),
            ("table.periodic_due_ns", tr.ns_per_op("table.periodic_due")),
            ("dedup.observe_ns", tr.ns_per_op("dedup.observe")),
        ],
        failed,
        attempted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_stream_is_a_function_of_the_seed() {
        let (a, dups) = dedup_stream(3);
        assert_eq!((a.clone(), dups), dedup_stream(3));
        assert_ne!(a, dedup_stream(4).0);
        // ~5% of the ~94% surviving sends are duplicated.
        let sends = FLEET_DEVICES * SEQ_PER_ORIGIN;
        assert!(
            dups > sends / 40 && dups < sends / 10,
            "dups {dups} of {sends}"
        );
    }

    #[test]
    fn dedup_window_suppresses_exactly_the_injected_copies() {
        let (stream, dups) = dedup_stream(5);
        let mut window = DedupWindow::new(NodeConfig::default().dedup_origins);
        for seq in stream {
            window.observe(seq);
        }
        assert_eq!(window.suppressed(), dups);
    }
}
