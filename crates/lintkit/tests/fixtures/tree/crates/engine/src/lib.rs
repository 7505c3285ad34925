//! Fixture workspace: the event engine crate. `impl Sim` / `impl
//! ShardSim` methods seed the sim and shard taints; `merge::merge_events`
//! is deliberately *uncalled within this crate* so its sim taint can
//! only arrive over a cross-crate edge from `app`.

pub mod merge;

/// Single-threaded event engine.
pub struct Sim {
    now: u64,
}

/// Observer injected by a dependent crate (`app::Recorder`).
pub trait Hook {
    fn on_event(&mut self, at: u64);
}

impl Sim {
    pub fn schedule_at(&mut self, at: u64) {
        self.dispatch(at);
    }

    pub fn notify(&mut self, hook: &mut dyn Hook) {
        hook.on_event(self.now);
    }

    fn dispatch(&mut self, at: u64) {
        self.now = at;
    }
}

/// Shard-parallel event engine.
pub struct ShardSim {
    shard: usize,
}

impl ShardSim {
    pub fn step_shard(&mut self) -> usize {
        self.shard += 1;
        self.shard
    }
}
