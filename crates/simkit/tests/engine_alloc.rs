//! Allocation guard for `ShardSim`'s steady state.
//!
//! A counting global allocator watches a run of self-scheduling,
//! cross-sending actors after a warm-up. Once queues and round buffers
//! have reached their working size, a round may allocate a bounded
//! number of times (worker-thread spawns when threads > 1) but nothing
//! per event: no per-event context vector, no fresh per-round send or
//! emit buffers. Allocation counts are deterministic, so unlike a
//! wall-clock row this guard cannot flake on a noisy host.
//!
//! ```bash
//! cargo test -p contory-simkit --test engine_alloc
//! ```

use simkit::shard::{ActorId, EventCtx, ShardConfig, ShardSim};
use simkit::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to `System` unchanged; the counter is the
// only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[derive(Clone, Copy)]
enum Ev {
    /// Every 2 ms: ping the next actor 1 ms out, echo to self now, and
    /// tick again.
    Tick,
    /// A zero-delay self-schedule, run later in the same round.
    Echo,
    /// A cross-actor message, delivered through the barrier merge.
    Ping,
}

/// Allocations and events of `rounds` steady-state rounds of `actors`
/// ticking actors on a `shards` × `threads` engine.
fn steady_allocs(actors: u64, shards: u32, threads: u32, rounds: u64) -> (u64, u64, u64) {
    let cfg = ShardConfig {
        seed: 5,
        shards,
        threads,
        record_transcript: false,
    };
    let mut sim = ShardSim::new(cfg, move |n: &mut u64, ctx: &mut EventCtx<'_, Ev>, ev| {
        *n += 1;
        if let Ev::Tick = ev {
            let next = ActorId((ctx.actor().0 + 1) % actors);
            ctx.send(next, SimDuration::from_millis(1), Ev::Ping);
            ctx.schedule_self(SimDuration::ZERO, Ev::Echo);
            ctx.schedule_self(SimDuration::from_millis(2), Ev::Tick);
        }
    });
    for a in 0..actors {
        assert!(sim.add_actor(ActorId(a), 0u64));
        sim.schedule(ActorId(a), SimTime::ZERO, Ev::Tick).unwrap();
    }
    // Warm-up: queues and round buffers grow to their working size.
    sim.run_until(SimTime::from_millis(40));
    let (rounds0, events0) = (sim.rounds(), sim.events_processed());
    let allocs0 = ALLOCS.load(Ordering::SeqCst);
    sim.run_until(SimTime::from_millis(40 + rounds));
    let allocs = ALLOCS.load(Ordering::SeqCst) - allocs0;
    (allocs, sim.rounds() - rounds0, sim.events_processed() - events0)
}

#[test]
fn steady_state_allocations_scale_with_rounds_not_events() {
    const ROUNDS: u64 = 200;
    // Two thread spawns a round (each a few boxes and arcs) plus the
    // join-handle vector; sequential layouts need none of it.
    for (shards, threads, per_round) in [(1u32, 1u32, 0u64), (4, 1, 0), (4, 2, 16)] {
        for actors in [64u64, 1024] {
            let (allocs, rounds, events) = steady_allocs(actors, shards, threads, ROUNDS);
            assert_eq!(rounds, ROUNDS, "one round per virtual millisecond");
            assert_eq!(events, ROUNDS / 2 * 3 * actors, "tick + echo + ping per actor per 2 ms");
            assert!(
                allocs <= rounds * per_round,
                "{shards}x{threads}, {actors} actors: {allocs} allocations over {rounds} \
                 rounds and {events} events (budget {per_round} a round)"
            );
        }
    }
}
