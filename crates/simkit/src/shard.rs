//! Partitioned (sharded) discrete-event engine.
//!
//! [`Sim`](crate::Sim) runs one ordered queue on one thread — perfect for
//! the paper's regatta-sized testbeds, a ceiling for city-scale
//! populations. [`ShardSim`] is the scale engine: the actor population is
//! partitioned into physical shards, each with its own event queue, and
//! shards step a simulated time instant *in parallel*, exchanging
//! cross-shard messages only at time-step barriers through a
//! deterministic merge.
//!
//! # Ordering model
//!
//! Every event carries a Lamport-style total-order key
//! [`EventKey`]`{ time, actor, seq }`:
//!
//! * `time` — the virtual instant the event fires;
//! * `actor` — the *logical* shard component: the stable [`ActorId`] of
//!   the actor the event executes on. Actors are the finest-grained
//!   shards; physical shards are groups of actors and **never appear in
//!   the key**;
//! * `seq` — a per-actor sequence number.
//!
//! Because the key mentions only partition-independent data, the total
//! order over executed events — and therefore the transcript, the
//! per-actor RNG streams and every metric derived from a run — is
//! byte-identical for any physical shard count and any worker-thread
//! count. `tests/shard_determinism.rs` enforces exactly that matrix.
//!
//! # Why the cross-shard merge is deterministic
//!
//! Within a time step `T` a shard executes its local events in key
//! order. An event may freely mutate *its own actor* (state, RNG,
//! same-actor schedules); effects on **other** actors must go through
//! [`EventCtx::send`], which only buffers the message. At the barrier
//! the engine gathers every buffered message, sorts them by
//! `(sender key, send index)` — again partition-independent — and
//! delivers them in that order, drawing each delivery's `seq` from the
//! destination actor's counter. Two invariants follow:
//!
//! 1. an actor's state is touched only by its own events, which execute
//!    in a globally fixed order, and
//! 2. message admission order (hence every `seq` assignment) is a pure
//!    function of the same fixed order.
//!
//! So the merge commutes with the 1-shard sequential engine on any plan
//! (`tests/proptests.rs` asserts this property on random schedules).
//!
//! Cross-actor delivery is quantised to at least one microsecond of
//! virtual latency so a time step can close before its messages land —
//! the batching boundary of the merge.
//!
//! # Actor storage
//!
//! Actor ids are expected dense from 0. Each shard keeps its actors in a
//! `Vec` of slots indexed by `id / shards`, so memory is O(max id /
//! shards) per shard; an id in a gap of the numbering is an unknown
//! actor.
//!
//! # Parallelism
//!
//! Shards are stepped by scoped OS threads; with `threads = 1` (or a
//! single shard) the engine runs a sequential loop over shards in index
//! order. The hermetic build vendors no rayon, so the worker pool is
//! `std::thread::scope` over contiguous shard chunks — same contract,
//! zero dependencies. Worker count never influences outputs, only
//! wall-clock speed.

use crate::hash::{fnv1a, FNV_OFFSET};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of a physical shard (a group of actors stepped together).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

impl ShardId {
    /// The default shard every unsharded component lives on.
    pub const ZERO: ShardId = ShardId(0);
}

/// Stable logical identity of an actor (device, broker, station…).
///
/// The actor id is the logical-shard component of [`EventKey`], so it
/// must be assigned by the scenario (not by partition layout) and never
/// reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u64);

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor{}", self.0)
    }
}

/// Lamport-style total-order key `(time, actor, seq)`.
///
/// Lexicographic `Ord`: virtual time first, then the logical shard
/// (actor) component, then the per-actor sequence number. Keys of
/// executed events are unique, so this is a total order over a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Virtual instant the event fires.
    pub time: SimTime,
    /// Logical shard component: the actor the event executes on.
    pub actor: ActorId,
    /// Per-actor sequence number (unique within an actor).
    pub seq: u64,
}

impl fmt::Display for EventKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.time, self.actor, self.seq)
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Master seed; per-actor RNG streams derive from it.
    pub seed: u64,
    /// Physical shard (queue) count; at least 1.
    pub shards: u32,
    /// Worker threads stepping shards each round; at least 1, and never
    /// more than `shards`. Never affects outputs.
    pub threads: u32,
    /// Keep the full merged transcript of [`EventCtx::emit`] records.
    /// Off, only the running digest and counts are kept (the 100k-device
    /// scenarios would otherwise hold millions of strings).
    pub record_transcript: bool,
}

impl ShardConfig {
    /// A 1-shard, 1-thread, transcript-recording config — the sequential
    /// fallback profile.
    pub fn sequential(seed: u64) -> ShardConfig {
        ShardConfig {
            seed,
            shards: 1,
            threads: 1,
            record_transcript: true,
        }
    }

    /// The largest worker count worth configuring on this host.
    pub fn max_threads() -> u32 {
        std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
    }
}

/// A minimal log2-bucketed histogram for engine self-profiling.
///
/// Lives here (not in `obskit`) because `obskit` depends on `simkit`;
/// the engine must not close that cycle. Pure integers, no wall clock —
/// safe inside sim-visible code under the determinism lint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Hist {
    counts: [u64; 65],
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            counts: [0; 65],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Log2Hist {
        Log2Hist::default()
    }

    /// Records one value (bucket `b` holds values in `[2^(b-1), 2^b)`;
    /// zero lands in bucket 0).
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize;
        if let Some(c) = self.counts.get_mut(b) {
            *c += 1;
        }
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.sum / self.total
        }
    }

    /// Non-empty buckets as `(exclusive_upper_bound, count)`, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(b, n)| {
                let upper = if b >= 64 { u64::MAX } else { 1u64 << b };
                (upper, *n)
            })
            .collect()
    }
}

/// Per-shard engine counters accumulated during a run.
///
/// Profile data is **partition-dependent by nature** (it describes the
/// physical shard layout), so it is kept out of every equality-compared
/// outcome; the `*_profiled` run APIs return it alongside — never
/// inside — the deterministic result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Events executed per physical shard (cumulative).
    pub events_per_shard: Vec<u64>,
    /// Peak event-queue depth observed per physical shard.
    pub queue_peak_per_shard: Vec<u64>,
    /// Events one shard executed in one round (batch size between
    /// merge barriers).
    pub batch_events: Log2Hist,
    /// Per-round shard imbalance `max(batch) − min(batch)`: how long
    /// the fastest shard idles at the merge barrier, in event units —
    /// the engine's wall-clock-free merge-stall measure.
    pub barrier_imbalance: Log2Hist,
}

impl EngineProfile {
    /// Total events across shards.
    pub fn total_events(&self) -> u64 {
        self.events_per_shard.iter().sum()
    }

    /// Largest queue peak across shards.
    pub fn max_queue_peak(&self) -> u64 {
        self.queue_peak_per_shard.iter().copied().max().unwrap_or(0)
    }

    /// A compact multi-line rendering for run artifacts.
    pub fn table(&self) -> String {
        let mut out = format!(
            "rounds={} batch_mean={} batch_max={} stall_mean={} stall_max={}\n",
            self.rounds,
            self.batch_events.mean(),
            self.batch_events.max(),
            self.barrier_imbalance.mean(),
            self.barrier_imbalance.max(),
        );
        for (i, (events, peak)) in self
            .events_per_shard
            .iter()
            .zip(&self.queue_peak_per_shard)
            .enumerate()
        {
            out.push_str(&format!("shard{i} events={events} queue_peak={peak}\n"));
        }
        out
    }
}

struct Entry<E> {
    key: EventKey,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // BinaryHeap is a max-heap; invert so the smallest key pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

struct ActorSlot<A> {
    state: A,
    rng: DetRng,
    next_seq: u64,
}

struct ShardState<A, E> {
    queue: BinaryHeap<Entry<E>>,
    /// Dense actor slots indexed by `actor.0 / shards`; `None` is an id
    /// in the numbering that was never registered.
    actors: Vec<Option<ActorSlot<A>>>,
    /// This shard's output of the current round; the buffers keep their
    /// capacity from round to round.
    out: RoundOut<E>,
}

impl<A, E> ShardState<A, E> {
    fn new() -> Self {
        ShardState {
            queue: BinaryHeap::new(),
            actors: Vec::new(),
            out: RoundOut {
                sends: Vec::new(),
                emits: Vec::new(),
                processed: 0,
            },
        }
    }

    fn head_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|e| e.key.time)
    }
}

/// Where an actor lives: `(shard index, slot index)` =
/// `(id % shards, id / shards)`. Slots are dense because callers number
/// actors densely from 0.
fn locate(actor: ActorId, shards: u64) -> Option<(usize, usize)> {
    let shard = usize::try_from(actor.0 % shards).ok()?;
    let local = usize::try_from(actor.0 / shards).ok()?;
    Some((shard, local))
}

/// One buffered cross-actor message: ordered by `(sender key, index)`,
/// both partition-independent.
struct Outgoing<E> {
    from_key: EventKey,
    index: u32,
    dest: ActorId,
    at: SimTime,
    ev: E,
}

/// What one shard produced during one time-step round.
struct RoundOut<E> {
    sends: Vec<Outgoing<E>>,
    emits: Vec<(EventKey, String)>,
    processed: u64,
}

/// The per-event context handed to the handler: the only way an event
/// interacts with the engine.
pub struct EventCtx<'a, E> {
    now: SimTime,
    key: EventKey,
    rng: &'a mut DetRng,
    next_seq: &'a mut u64,
    queue: &'a mut BinaryHeap<Entry<E>>,
    sends: &'a mut Vec<Outgoing<E>>,
    emits: &'a mut Vec<(EventKey, String)>,
    send_index: u32,
}

impl<'a, E> EventCtx<'a, E> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The actor this event executes on.
    pub fn actor(&self) -> ActorId {
        self.key.actor
    }

    /// The executing event's total-order key.
    pub fn key(&self) -> EventKey {
        self.key
    }

    /// The actor's deterministic random stream (derived from the master
    /// seed and the actor id, never from partition layout).
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Schedules an event on *this* actor, `delay` from now (0 allowed:
    /// it runs later in the same time step, after all currently queued
    /// same-time events of this actor).
    ///
    /// The event goes straight into the shard's queue: its key is unique
    /// and above the executing one, so it pops exactly where a push after
    /// the handler returned would have put it.
    pub fn schedule_self(&mut self, delay: SimDuration, ev: E) {
        let key = EventKey {
            time: self.now + delay,
            actor: self.key.actor,
            seq: *self.next_seq,
        };
        *self.next_seq += 1;
        self.queue.push(Entry { key, ev });
    }

    /// Sends an event to another actor (or this one), batched at the
    /// time-step barrier. Delivery latency is quantised to at least one
    /// microsecond so the current step can close first.
    pub fn send(&mut self, dest: ActorId, delay: SimDuration, ev: E) {
        let at = (self.now + delay).max(self.now + SimDuration::from_micros(1));
        self.sends.push(Outgoing {
            from_key: self.key,
            index: self.send_index,
            dest,
            at,
            ev,
        });
        self.send_index += 1;
    }

    /// Sends one event to each destination, in the given order —
    /// the broadcast/multicast primitive radio-style fan-out uses.
    pub fn send_many(
        &mut self,
        dests: impl IntoIterator<Item = ActorId>,
        delay: SimDuration,
        ev: E,
    ) where
        E: Clone,
    {
        for dest in dests {
            self.send(dest, delay, ev.clone());
        }
    }

    /// Appends a record to the run transcript (merged across shards in
    /// key order; always folded into the digest).
    pub fn emit(&mut self, record: impl Into<String>) {
        self.emits.push((self.key, record.into()));
    }
}

/// The partitioned deterministic discrete-event engine.
///
/// ```
/// use simkit::shard::{ActorId, ShardConfig, ShardSim};
/// use simkit::SimDuration;
///
/// let mut cfg = ShardConfig::sequential(42);
/// cfg.shards = 4;
/// let mut sim = ShardSim::new(cfg, |count: &mut u64, ctx, hop: u32| {
///     *count += 1;
///     ctx.emit(format!("hop {hop} at {}", ctx.now()));
///     if hop > 0 {
///         let next = ActorId((ctx.actor().0 + 1) % 8);
///         ctx.send(next, SimDuration::from_millis(5), hop - 1);
///     }
/// });
/// for a in 0..8 {
///     sim.add_actor(ActorId(a), 0u64);
/// }
/// sim.schedule(ActorId(0), simkit::SimTime::ZERO, 6).unwrap();
/// sim.run_until_idle();
/// assert_eq!(sim.events_processed(), 7);
/// ```
pub struct ShardSim<A, E, H> {
    cfg: ShardConfig,
    handler: H,
    shards: Vec<ShardState<A, E>>,
    /// Registered actors (slots holding `Some`).
    actor_count: u64,
    /// The multi-shard barrier's merge buffer, kept between rounds.
    merged: Vec<Outgoing<E>>,
    now: SimTime,
    processed: u64,
    messages: u64,
    dead_letters: u64,
    rounds: u64,
    transcript: Vec<String>,
    emitted: u64,
    digest: u64,
    profile: EngineProfile,
}

impl<A, E, H> ShardSim<A, E, H>
where
    A: Send,
    E: Send,
    H: Fn(&mut A, &mut EventCtx<'_, E>, E) + Sync,
{
    /// Creates an engine. `shards` and `threads` are clamped to at
    /// least 1.
    pub fn new(cfg: ShardConfig, handler: H) -> Self {
        let shards = cfg.shards.max(1);
        ShardSim {
            cfg: ShardConfig {
                shards,
                threads: cfg.threads.max(1),
                ..cfg
            },
            handler,
            shards: (0..shards).map(|_| ShardState::new()).collect(),
            actor_count: 0,
            merged: Vec::new(),
            now: SimTime::ZERO,
            processed: 0,
            messages: 0,
            dead_letters: 0,
            rounds: 0,
            transcript: Vec::new(),
            emitted: 0,
            digest: FNV_OFFSET,
            profile: EngineProfile {
                events_per_shard: vec![0; shards as usize],
                queue_peak_per_shard: vec![0; shards as usize],
                ..EngineProfile::default()
            },
        }
    }

    /// The physical shard an actor lives on (round-robin by id — stable
    /// for a given shard count, irrelevant to every output).
    pub fn shard_of(&self, actor: ActorId) -> ShardId {
        ShardId((actor.0 % u64::from(self.cfg.shards)) as u32)
    }

    /// Registers an actor. Its RNG stream derives from `(seed, actor)`
    /// only. Returns `false` (and changes nothing) if the id is taken.
    ///
    /// Ids are expected dense from 0: each shard keeps a slot for every
    /// id up to the largest registered one, so memory is
    /// O(max id / shards) per shard and gaps cost an empty slot each.
    pub fn add_actor(&mut self, actor: ActorId, state: A) -> bool {
        let Some((shard, local)) = locate(actor, u64::from(self.cfg.shards)) else {
            return false;
        };
        let Some(shard) = self.shards.get_mut(shard) else {
            return false;
        };
        if shard.actors.len() <= local {
            shard.actors.resize_with(local + 1, || None);
        }
        match shard.actors.get_mut(local) {
            Some(slot) if slot.is_none() => {
                *slot = Some(ActorSlot {
                    state,
                    rng: DetRng::for_actor(self.cfg.seed, actor),
                    next_seq: 0,
                });
                self.actor_count += 1;
                true
            }
            _ => false,
        }
    }

    /// Number of registered actors.
    pub fn actors(&self) -> u64 {
        self.actor_count
    }

    /// Schedules an initial event on an actor at an absolute time (events
    /// in the past run at the current time). Keys derive from per-actor
    /// counters, so plan construction order never affects the run.
    ///
    /// Returns `Err` if the actor is unknown.
    pub fn schedule(&mut self, actor: ActorId, at: SimTime, ev: E) -> Result<(), ActorId> {
        let at = at.max(self.now);
        self.enqueue(actor, at, ev).map_err(|_| actor)
    }

    /// Queues `ev` for `actor` at `time`, drawing the key's `seq` from
    /// the actor's counter; hands `ev` back if the actor is unknown.
    fn enqueue(&mut self, actor: ActorId, time: SimTime, ev: E) -> Result<(), E> {
        let Some((shard, local)) = locate(actor, u64::from(self.cfg.shards)) else {
            return Err(ev);
        };
        let Some(shard) = self.shards.get_mut(shard) else {
            return Err(ev);
        };
        let Some(slot) = shard.actors.get_mut(local).and_then(Option::as_mut) else {
            return Err(ev);
        };
        let key = EventKey {
            time,
            actor,
            seq: slot.next_seq,
        };
        slot.next_seq += 1;
        shard.queue.push(Entry { key, ev });
        Ok(())
    }

    /// Read access to an actor's state (e.g. for post-run assertions).
    pub fn actor_state(&self, actor: ActorId) -> Option<&A> {
        let (shard, local) = locate(actor, u64::from(self.cfg.shards))?;
        let slot = self.shards.get(shard)?.actors.get(local)?.as_ref()?;
        Some(&slot.state)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Cross-actor messages delivered so far.
    pub fn messages_delivered(&self) -> u64 {
        self.messages
    }

    /// Messages addressed to unknown actors (dropped, but counted so the
    /// loss is observable).
    pub fn dead_letters(&self) -> u64 {
        self.dead_letters
    }

    /// Time-step rounds executed (barrier count).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The engine's self-profile: per-shard event/queue counters and
    /// merge-barrier imbalance histograms. Describes the *physical*
    /// layout, so it varies with the shard count — never fold it into
    /// an equality-compared outcome.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Records emitted via [`EventCtx::emit`].
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// FNV-1a digest over every emitted record and its key, in total
    /// order — the cheap byte-identity witness for huge runs.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The merged transcript (empty unless
    /// [`ShardConfig::record_transcript`]).
    pub fn transcript(&self) -> &[String] {
        &self.transcript
    }

    /// Physical shard count.
    pub fn shard_count(&self) -> u32 {
        self.cfg.shards
    }

    /// Worker threads a round will actually use.
    pub fn effective_threads(&self) -> u32 {
        self.cfg.threads.min(self.cfg.shards).max(1)
    }

    fn next_time(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(ShardState::head_time).min()
    }

    /// Runs events with due time `<= deadline`, then advances the clock
    /// to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.next_time() {
            if t > deadline {
                break;
            }
            self.now = t;
            self.round(t);
        }
        self.now = self.now.max(deadline);
    }

    /// Runs for `dur` of virtual time from the current instant.
    pub fn run_for(&mut self, dur: SimDuration) {
        let deadline = self.now + dur;
        self.run_until(deadline);
    }

    /// Runs until every queue is empty.
    ///
    /// # Panics
    ///
    /// Panics after 100 million rounds as a runaway guard.
    pub fn run_until_idle(&mut self) {
        let mut guard: u64 = 100_000_000;
        while let Some(t) = self.next_time() {
            self.now = t;
            self.round(t);
            guard -= 1;
            assert!(guard > 0, "run_until_idle exceeded 100M rounds; runaway schedule?");
        }
    }

    /// One time step: every shard drains its events at `t` (in key
    /// order, in parallel across shards), then the barrier merges
    /// cross-shard traffic and transcript records deterministically.
    fn round(&mut self, t: SimTime) {
        self.rounds += 1;
        let threads = self.effective_threads() as usize;
        let stride = u64::from(self.cfg.shards);
        let handler = &self.handler;
        run_shards(&mut self.shards, threads, |shard| {
            drain_step(shard, t, stride, handler)
        });

        // ---- barrier: the deterministic cross-shard merge ----
        // Everything below is ordered by partition-independent keys, so
        // the merged result is identical for any shard/thread layout.
        self.profile.rounds += 1;
        let mut batch_max = 0u64;
        let mut batch_min = u64::MAX;
        for (i, shard) in self.shards.iter().enumerate() {
            let processed = shard.out.processed;
            if let Some(n) = self.profile.events_per_shard.get_mut(i) {
                *n += processed;
            }
            self.profile.batch_events.record(processed);
            batch_max = batch_max.max(processed);
            batch_min = batch_min.min(processed);
            self.processed += processed;
        }
        if !self.shards.is_empty() {
            self.profile.barrier_imbalance.record(batch_max - batch_min);
        }

        // One shard hands over its own buffer; several append into the
        // kept merge buffer. Either way the buffer goes back afterwards,
        // so a steady run allocates nothing here.
        let mut sends = match self.shards.as_mut_slice() {
            [only] => std::mem::take(&mut only.out.sends),
            shards => {
                let mut merged = std::mem::take(&mut self.merged);
                for shard in shards {
                    merged.append(&mut shard.out.sends);
                }
                merged
            }
        };
        let mut emits: Vec<(EventKey, String)> = Vec::new();
        for shard in &mut self.shards {
            emits.append(&mut shard.out.emits);
        }
        // `(sender key, send index)` is unique, so an unstable sort is
        // deterministic; equal emit keys keep their emission order.
        sends.sort_unstable_by_key(|m| (m.from_key, m.index));
        emits.sort_by_key(|e| e.0);

        for m in sends.drain(..) {
            match self.enqueue(m.dest, m.at, m.ev) {
                Ok(()) => self.messages += 1,
                Err(_) => self.dead_letters += 1,
            }
        }
        match self.shards.as_mut_slice() {
            [only] => only.out.sends = sends,
            _ => self.merged = sends,
        }

        // Queue peaks after the merge landed its deliveries.
        for (peak, shard) in self.profile.queue_peak_per_shard.iter_mut().zip(&self.shards) {
            let depth = shard.queue.len() as u64;
            if depth > *peak {
                *peak = depth;
            }
        }

        for (key, record) in emits {
            self.digest = fnv1a(self.digest, &key.time.as_micros().to_le_bytes());
            self.digest = fnv1a(self.digest, &key.actor.0.to_le_bytes());
            self.digest = fnv1a(self.digest, &key.seq.to_le_bytes());
            self.digest = fnv1a(self.digest, record.as_bytes());
            self.emitted += 1;
            if self.cfg.record_transcript {
                self.transcript.push(format!("{key} {record}"));
            }
        }
    }
}

/// Drains one shard's events due exactly at `t`, in key order, into the
/// shard's round buffers.
fn drain_step<A, E, H>(shard: &mut ShardState<A, E>, t: SimTime, stride: u64, handler: &H)
where
    H: Fn(&mut A, &mut EventCtx<'_, E>, E),
{
    let ShardState { queue, actors, out } = shard;
    out.processed = 0;
    while queue.peek().is_some_and(|e| e.key.time == t) {
        let Some(entry) = queue.pop() else { break };
        let slot = locate(entry.key.actor, stride)
            .and_then(|(_, local)| actors.get_mut(local))
            .and_then(Option::as_mut);
        // Events are only queued for registered actors and slots are
        // never emptied, so the slot is always there.
        let Some(slot) = slot else { continue };
        let mut ctx = EventCtx {
            now: t,
            key: entry.key,
            rng: &mut slot.rng,
            next_seq: &mut slot.next_seq,
            queue,
            sends: &mut out.sends,
            emits: &mut out.emits,
            send_index: 0,
        };
        handler(&mut slot.state, &mut ctx, entry.ev);
        out.processed += 1;
    }
}

/// Steps every shard through `f`, sequentially or on `threads` scoped
/// workers over contiguous chunks.
fn run_shards<A, E, F>(shards: &mut [ShardState<A, E>], threads: usize, f: F)
where
    A: Send,
    E: Send,
    F: Fn(&mut ShardState<A, E>) + Sync,
{
    if threads <= 1 || shards.len() <= 1 {
        shards.iter_mut().for_each(f);
        return;
    }
    let chunk = shards.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .chunks_mut(chunk)
            .map(|chunk| scope.spawn(move || chunk.iter_mut().for_each(f)))
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy world: each actor counts events and forwards a decrementing
    /// hop counter to the next actor.
    fn ring_handler(n: u64) -> impl Fn(&mut u64, &mut EventCtx<'_, u32>, u32) + Sync {
        move |count, ctx, hop| {
            *count += 1;
            let draw = ctx.rng().next_u64() & 0xff;
            ctx.emit(format!("hop={hop} draw={draw}"));
            if hop > 0 {
                let next = ActorId((ctx.actor().0 + 1) % n);
                ctx.send(next, SimDuration::from_millis(3), hop - 1);
            }
        }
    }

    fn ring_run(seed: u64, actors: u64, shards: u32, threads: u32) -> (u64, Vec<String>, u64) {
        let cfg = ShardConfig {
            seed,
            shards,
            threads,
            record_transcript: true,
        };
        let mut sim = ShardSim::new(cfg, ring_handler(actors));
        for a in 0..actors {
            sim.add_actor(ActorId(a), 0u64);
        }
        for a in 0..actors {
            sim.schedule(ActorId(a), SimTime::from_millis(a % 7), 5).unwrap();
        }
        sim.run_until_idle();
        (sim.digest(), sim.transcript().to_vec(), sim.events_processed())
    }

    #[test]
    fn event_key_orders_lexicographically() {
        let k = |t: u64, a: u64, s: u64| EventKey {
            time: SimTime::from_micros(t),
            actor: ActorId(a),
            seq: s,
        };
        assert!(k(1, 9, 9) < k(2, 0, 0));
        assert!(k(1, 1, 9) < k(1, 2, 0));
        assert!(k(1, 1, 1) < k(1, 1, 2));
        assert_eq!(k(3, 3, 3), k(3, 3, 3));
    }

    #[test]
    fn transcript_is_identical_across_shard_and_thread_counts() {
        let reference = ring_run(7, 24, 1, 1);
        for shards in [2u32, 4, 16, 64] {
            for threads in [1u32, 4, ShardConfig::max_threads()] {
                let got = ring_run(7, 24, shards, threads);
                assert_eq!(got, reference, "diverged at shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn profile_accounts_for_every_event_without_touching_outputs() {
        let cfg = ShardConfig {
            seed: 7,
            shards: 4,
            threads: 2,
            record_transcript: false,
        };
        let mut sim = ShardSim::new(cfg, ring_handler(24));
        for a in 0..24 {
            sim.add_actor(ActorId(a), 0u64);
        }
        for a in 0..24 {
            sim.schedule(ActorId(a), SimTime::from_millis(a % 7), 5).unwrap();
        }
        sim.run_until_idle();
        let p = sim.profile();
        assert_eq!(p.total_events(), sim.events_processed());
        assert_eq!(p.rounds, sim.rounds());
        assert_eq!(p.events_per_shard.len(), 4);
        assert_eq!(p.batch_events.count(), p.rounds * 4);
        assert!(p.barrier_imbalance.count() > 0);
        assert!(p.table().contains("shard3 "), "table:\n{}", p.table());
        // Profile varies with layout; the run digest must not.
        let (digest_1shard, _, _) = ring_run(7, 24, 1, 1);
        assert_eq!(sim.digest(), digest_1shard);
    }

    #[test]
    fn log2_hist_buckets_and_moments() {
        let mut h = Log2Hist::new();
        for v in [0, 1, 1, 3, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1013);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 168);
        let buckets = h.buckets();
        // 0 → bucket 0 (upper 1); 1,1 → upper 2; 3 → upper 4;
        // 8 → upper 16; 1000 → upper 1024.
        assert_eq!(buckets, vec![(1, 1), (2, 2), (4, 1), (16, 1), (1024, 1)]);
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(ring_run(7, 24, 4, 2).0, ring_run(8, 24, 4, 2).0);
    }

    #[test]
    fn no_event_loss_or_duplication() {
        let (_, transcript, processed) = ring_run(11, 10, 4, 2);
        // 10 initial events with hop=5 -> each chain executes 6 events.
        assert_eq!(processed, 60);
        assert_eq!(transcript.len(), 60);
        let mut keys: Vec<&str> = transcript.iter().map(|l| l.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 60, "duplicated transcript record");
    }

    #[test]
    fn transcript_is_in_key_order() {
        let cfg = ShardConfig {
            seed: 3,
            shards: 8,
            threads: 2,
            record_transcript: true,
        };
        let mut sim = ShardSim::new(cfg, |_: &mut (), ctx: &mut EventCtx<'_, u32>, _| {
            ctx.emit("x");
        });
        // Single-digit actor ids and seqs keep the rendered key's string
        // order equal to its numeric key order, so the string comparison
        // below really checks the merge.
        for a in 0..9 {
            sim.add_actor(ActorId(a), ());
        }
        for round in 0..3 {
            for a in (0..9).rev() {
                sim.schedule(ActorId(a), SimTime::from_millis((a + round) % 4), 0)
                    .unwrap();
            }
        }
        sim.run_until_idle();
        let lines = sim.transcript();
        assert_eq!(lines.len(), 27);
        assert!(lines.windows(2).all(|w| w[0] < w[1]), "merge out of key order");
    }

    #[test]
    fn same_time_self_schedules_run_within_the_round() {
        let cfg = ShardConfig::sequential(1);
        let mut sim = ShardSim::new(cfg, |state: &mut u32, ctx: &mut EventCtx<'_, u32>, ev| {
            *state += 1;
            if ev > 0 {
                ctx.schedule_self(SimDuration::ZERO, ev - 1);
            }
        });
        sim.add_actor(ActorId(0), 0u32);
        sim.schedule(ActorId(0), SimTime::from_secs(1), 4).unwrap();
        sim.run_until_idle();
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(sim.actor_state(ActorId(0)), Some(&5));
        assert_eq!(sim.rounds(), 1, "zero-delay self-schedules stay in the round");
    }

    #[test]
    fn zero_delay_sends_are_quantised_to_the_next_step() {
        let cfg = ShardConfig::sequential(1);
        let mut sim = ShardSim::new(cfg, |_: &mut (), ctx: &mut EventCtx<'_, u32>, ev| {
            if ev > 0 {
                ctx.send(ActorId(1), SimDuration::ZERO, ev - 1);
            }
        });
        sim.add_actor(ActorId(0), ());
        sim.add_actor(ActorId(1), ());
        sim.schedule(ActorId(0), SimTime::ZERO, 1).unwrap();
        sim.run_until_idle();
        assert_eq!(sim.messages_delivered(), 1);
        assert_eq!(sim.now(), SimTime::from_micros(1));
        assert_eq!(sim.rounds(), 2);
    }

    #[test]
    fn dead_letters_are_counted_not_lost_silently() {
        let cfg = ShardConfig::sequential(1);
        let mut sim = ShardSim::new(cfg, |_: &mut (), ctx: &mut EventCtx<'_, u32>, _| {
            ctx.send(ActorId(999), SimDuration::from_millis(1), 0);
        });
        sim.add_actor(ActorId(0), ());
        sim.schedule(ActorId(0), SimTime::ZERO, 0).unwrap();
        sim.run_until_idle();
        assert_eq!(sim.dead_letters(), 1);
        assert_eq!(sim.messages_delivered(), 0);
    }

    #[test]
    fn duplicate_actor_registration_is_rejected() {
        let mut sim = ShardSim::new(
            ShardConfig::sequential(0),
            |_: &mut u8, _: &mut EventCtx<'_, u8>, _| {},
        );
        assert!(sim.add_actor(ActorId(4), 1));
        assert!(!sim.add_actor(ActorId(4), 2));
        assert_eq!(sim.actor_state(ActorId(4)), Some(&1));
        assert_eq!(sim.actors(), 1);
    }

    #[test]
    fn scheduling_on_unknown_actor_errors() {
        let mut sim = ShardSim::new(
            ShardConfig::sequential(0),
            |_: &mut u8, _: &mut EventCtx<'_, u8>, _| {},
        );
        assert_eq!(sim.schedule(ActorId(7), SimTime::ZERO, 1), Err(ActorId(7)));
    }

    /// Ids with gaps, registered out of order: a ring over `ids` in
    /// list order.
    fn gapped_run(ids: &[u64], shards: u32, threads: u32) -> (u64, Vec<String>, u64, u64) {
        let ring: Vec<u64> = ids.to_vec();
        let cfg = ShardConfig {
            seed: 9,
            shards,
            threads,
            record_transcript: true,
        };
        let mut sim = ShardSim::new(cfg, move |count: &mut u64, ctx: &mut EventCtx<'_, u32>, hop| {
            *count += 1;
            let draw = ctx.rng().next_u64() & 0xff;
            ctx.emit(format!("hop={hop} draw={draw}"));
            let at = ring.iter().position(|&a| a == ctx.actor().0).unwrap_or(0);
            let next = ring.get((at + 1) % ring.len()).copied().unwrap_or(0);
            if hop > 0 {
                ctx.send(ActorId(next), SimDuration::from_millis(2), hop - 1);
                ctx.schedule_self(SimDuration::from_millis(5), 0);
            }
        });
        let mut order = ids.to_vec();
        order.reverse();
        order.rotate_left(3);
        for &a in &order {
            assert!(sim.add_actor(ActorId(a), 0u64));
        }
        for &a in ids {
            sim.schedule(ActorId(a), SimTime::from_millis(a % 4), 4).unwrap();
        }
        sim.run_until_idle();
        (
            sim.digest(),
            sim.transcript().to_vec(),
            sim.events_processed(),
            sim.messages_delivered(),
        )
    }

    #[test]
    fn gapped_out_of_order_ids_are_layout_invariant() {
        let ids = [17u64, 3, 40, 0, 9, 25, 12, 33, 1];
        let reference = gapped_run(&ids, 1, 1);
        assert_eq!(reference.2, 9 * 9, "every chain runs 5 hops + 4 self-ticks");
        for (shards, threads) in [(4u32, 2u32), (16, ShardConfig::max_threads())] {
            let got = gapped_run(&ids, shards, threads);
            assert_eq!(got, reference, "diverged at {shards}x{threads}");
        }
    }

    #[test]
    fn gap_ids_are_unknown_actors() {
        let mut sim = ShardSim::new(
            ShardConfig {
                shards: 4,
                ..ShardConfig::sequential(0)
            },
            |_: &mut u8, ctx: &mut EventCtx<'_, u64>, dest| {
                ctx.send(ActorId(dest), SimDuration::from_millis(1), 0);
            },
        );
        for a in [0u64, 2, 10, 13] {
            assert!(sim.add_actor(ActorId(a), 1));
        }
        // 1, 5 and 6 sit below a registered id of their shard, 3's shard
        // holds no actor, and 1 << 40 is past every slot.
        for gap in [1u64, 5, 6, 3, 1 << 40] {
            assert_eq!(sim.actor_state(ActorId(gap)), None, "state of {gap}");
            assert_eq!(
                sim.schedule(ActorId(gap), SimTime::ZERO, 0),
                Err(ActorId(gap)),
                "schedule on {gap}"
            );
        }
        sim.schedule(ActorId(10), SimTime::ZERO, 6).unwrap();
        sim.schedule(ActorId(2), SimTime::ZERO, 1).unwrap();
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.dead_letters(), 2);
        assert_eq!(sim.messages_delivered(), 0);
        assert_eq!(sim.actors(), 4);
    }

    #[test]
    fn actor_count_tracks_registered_slots_only() {
        let mut sim = ShardSim::new(
            ShardConfig {
                shards: 3,
                ..ShardConfig::sequential(0)
            },
            |_: &mut u8, _: &mut EventCtx<'_, u8>, _| {},
        );
        assert_eq!(sim.actors(), 0);
        assert!(sim.add_actor(ActorId(30), 0));
        assert_eq!(sim.actors(), 1, "slots opened below id 30 are not actors");
        assert!(sim.add_actor(ActorId(0), 0));
        assert!(!sim.add_actor(ActorId(30), 1));
        assert!(sim.add_actor(ActorId(4), 0));
        assert_eq!(sim.actors(), 3);
        assert_eq!(sim.actor_state(ActorId(30)), Some(&0));
    }

    #[test]
    fn concurrent_zero_delay_self_schedules_keep_key_order() {
        let run = |shards: u32, threads: u32| {
            let cfg = ShardConfig {
                seed: 4,
                shards,
                threads,
                record_transcript: true,
            };
            let mut sim = ShardSim::new(cfg, |n: &mut u32, ctx: &mut EventCtx<'_, u32>, ev| {
                *n += 1;
                let k = ctx.key();
                ctx.emit(format!("{} {} {}", k.time.as_micros(), k.actor.0, k.seq));
                if ev > 0 {
                    ctx.schedule_self(SimDuration::ZERO, ev - 1);
                    ctx.schedule_self(SimDuration::ZERO, 0);
                }
            });
            for a in (0..6).rev() {
                sim.add_actor(ActorId(a), 0u32);
            }
            for a in 0..6 {
                sim.schedule(ActorId(a), SimTime::from_secs(1), 3).unwrap();
            }
            sim.run_until_idle();
            assert_eq!(sim.rounds(), 1, "zero-delay self-schedules stay in the round");
            sim.transcript().to_vec()
        };
        let lines = run(1, 1);
        // 3 → 2 → 1 → 0 plus one extra 0 per non-zero step: 7 per actor.
        assert_eq!(lines.len(), 6 * 7);
        let keys: Vec<(u64, u64, u64)> = lines
            .iter()
            .map(|l| {
                let mut f = l.rsplit(' ').map(|x| x.parse::<u64>().unwrap());
                let seq = f.next().unwrap();
                let actor = f.next().unwrap();
                (f.next().unwrap(), actor, seq)
            })
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "out of key order: {keys:?}");
        for (shards, threads) in [(4, 2), (16, ShardConfig::max_threads())] {
            assert_eq!(run(shards, threads), lines, "diverged at {shards}x{threads}");
        }
    }

    #[test]
    fn run_until_respects_the_deadline() {
        let mut sim = ShardSim::new(
            ShardConfig::sequential(5),
            |hits: &mut u32, ctx: &mut EventCtx<'_, u8>, _| {
                *hits += 1;
                ctx.schedule_self(SimDuration::from_secs(10), 0);
            },
        );
        sim.add_actor(ActorId(0), 0u32);
        sim.schedule(ActorId(0), SimTime::from_secs(10), 0).unwrap();
        sim.run_until(SimTime::from_secs(35));
        assert_eq!(sim.actor_state(ActorId(0)), Some(&3));
        assert_eq!(sim.now(), SimTime::from_secs(35));
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.actor_state(ActorId(0)), Some(&4));
    }
}
