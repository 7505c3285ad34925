//! Fixture workspace: the application crate (package `app-core`, dir
//! `app` — exercises the package-name / directory-key split). `drive`
//! is a sim root (it schedules), and its calls carry the taint across
//! the crate boundary into `enginex::merge::merge_events` and down
//! through the `pub use` re-export into `inner::score`.
//!
//! `Recorder` implements the engine's `Hook`, so the engine's
//! `hook.on_event(..)` call reaches it through the up cone;
//! `Planner::dispatch` only shares a name with the engine's private
//! `Sim::dispatch` and must stay untainted.

mod inner;

pub use inner::plan_route;

use enginex::merge::merge_events;
use enginex::{Hook, Sim};

pub fn drive(sim: &mut Sim) -> u64 {
    sim.schedule_at(5);
    merge_events(plan_route(3))
}

pub struct Recorder {
    pub last: u64,
}

impl Hook for Recorder {
    fn on_event(&mut self, at: u64) {
        self.last = at;
    }
}

pub struct Planner;

impl Planner {
    pub fn dispatch(&self, at: u64) -> u64 {
        at
    }
}
