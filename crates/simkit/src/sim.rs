//! The discrete-event scheduler.
//!
//! [`Sim`] is a cheaply-clonable handle to a shared event queue. Components
//! keep a clone and schedule closures; [`Sim::run_until_idle`] (or the
//! bounded variants) drains the queue in timestamp order, advancing the
//! virtual clock to each event's due time before running it.
//!
//! Events are ordered by `(time, seq)`: those scheduled for the same
//! instant run in scheduling order (FIFO), which keeps simulations
//! deterministic. The partitioned engine ([`crate::shard::ShardSim`])
//! has its own queue and order.

use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::rc::Rc;

struct Entry {
    at: SimTime,
    seq: u64,
    f: Box<dyn FnOnce()>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // BinaryHeap is a max-heap; invert so the earliest event pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Default)]
struct Inner {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Entry>,
    processed: u64,
}

/// Handle to a deterministic single-threaded discrete-event simulator.
///
/// Clones share the same queue and clock.
///
/// ```
/// use simkit::{Sim, SimDuration, SimTime};
/// use std::{cell::RefCell, rc::Rc};
///
/// let sim = Sim::new();
/// let order = Rc::new(RefCell::new(Vec::new()));
/// let (a, b) = (order.clone(), order.clone());
/// sim.schedule_in(SimDuration::from_millis(2), move || a.borrow_mut().push("late"));
/// sim.schedule_in(SimDuration::from_millis(1), move || b.borrow_mut().push("early"));
/// sim.run_until_idle();
/// assert_eq!(*order.borrow(), ["early", "late"]);
/// assert_eq!(sim.now(), SimTime::from_millis(2));
/// ```
#[derive(Clone, Default)]
pub struct Sim {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Sim")
            .field("now", &inner.now)
            .field("pending", &inner.queue.len())
            .field("processed", &inner.processed)
            .finish()
    }
}

impl Sim {
    /// Creates a simulator with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Sim::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.inner.borrow().processed
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// Events scheduled in the past run at the current time, never rewinding
    /// the clock.
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce() + 'static) {
        let mut inner = self.inner.borrow_mut();
        let at = at.max(inner.now);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queue.push(Entry {
            at,
            seq,
            f: Box::new(f),
        });
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule_in(&self, delay: SimDuration, f: impl FnOnce() + 'static) {
        let at = self.now() + delay;
        self.schedule_at(at, f)
    }

    /// Schedules `f` to run every `interval`, starting one `interval` from
    /// now, until `f` returns `false`. Each next tick is scheduled after
    /// `f` has run.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero (the series would never advance time).
    pub fn schedule_repeating(&self, interval: SimDuration, f: impl FnMut() -> bool + 'static) {
        assert!(!interval.is_zero(), "repeating interval must be non-zero");
        let sim = self.clone();
        let f = Rc::new(RefCell::new(f));
        fn tick(sim: Sim, interval: SimDuration, f: Rc<RefCell<dyn FnMut() -> bool>>) {
            let again = (f.borrow_mut())();
            if again {
                let s = sim.clone();
                sim.schedule_in(interval, move || tick(s, interval, f));
            }
        }
        self.schedule_in(interval, move || tick(sim.clone(), interval, f))
    }

    /// Runs the next pending event, advancing the clock to its due time.
    ///
    /// Returns `false` if the queue was empty.
    pub fn step(&self) -> bool {
        let entry = {
            let mut inner = self.inner.borrow_mut();
            let Some(e) = inner.queue.pop() else {
                return false;
            };
            debug_assert!(e.at >= inner.now, "event queue went backwards");
            inner.now = e.at;
            inner.processed += 1;
            e
        };
        // Borrow released: the event may freely schedule more events.
        (entry.f)();
        true
    }

    /// Runs events until the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics after 100 million events as a runaway guard — a simulation
    /// with an unbounded repeating timer should use [`Sim::run_until`]
    /// instead.
    pub fn run_until_idle(&self) {
        let mut guard: u64 = 100_000_000;
        while self.step() {
            guard -= 1;
            assert!(guard > 0, "run_until_idle exceeded 100M events; runaway timer?");
        }
    }

    /// Runs events with a due time `<= deadline`, then sets the clock to
    /// `deadline` (even if the queue emptied earlier).
    pub fn run_until(&self, deadline: SimTime) {
        loop {
            let due = {
                let inner = self.inner.borrow();
                match inner.queue.peek() {
                    Some(e) if e.at <= deadline => true,
                    _ => false,
                }
            };
            if !due {
                break;
            }
            self.step();
        }
        let mut inner = self.inner.borrow_mut();
        inner.now = inner.now.max(deadline);
    }

    /// Runs for `dur` of virtual time from the current instant.
    pub fn run_for(&self, dur: SimDuration) {
        let deadline = self.now() + dur;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn events_run_in_time_order() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (delay, tag) in [(30u64, "c"), (10, "a"), (20, "b")] {
            let log = log.clone();
            sim.schedule_in(SimDuration::from_millis(delay), move || {
                log.borrow_mut().push(tag)
            });
        }
        sim.run_until_idle();
        assert_eq!(*log.borrow(), ["a", "b", "c"]);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn same_time_events_run_fifo() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for tag in ["first", "second", "third"] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_millis(5), move || log.borrow_mut().push(tag));
        }
        sim.run_until_idle();
        assert_eq!(*log.borrow(), ["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_events() {
        let sim = Sim::new();
        let done = Rc::new(Cell::new(0u64));
        let d = done.clone();
        let s = sim.clone();
        sim.schedule_in(SimDuration::from_millis(1), move || {
            let d2 = d.clone();
            s.schedule_in(SimDuration::from_millis(1), move || {
                d2.set(d2.get() + 1);
            });
            d.set(d.get() + 1);
        });
        sim.run_until_idle();
        assert_eq!(done.get(), 2);
        assert_eq!(sim.now(), SimTime::from_millis(2));
    }

    #[test]
    fn past_events_run_at_current_time() {
        let sim = Sim::new();
        sim.schedule_in(SimDuration::from_millis(10), || {});
        sim.run_until_idle();
        let when = Rc::new(Cell::new(SimTime::ZERO));
        let w = when.clone();
        let s = sim.clone();
        sim.schedule_at(SimTime::from_millis(3), move || w.set(s.now()));
        sim.run_until_idle();
        assert_eq!(when.get(), SimTime::from_millis(10));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new();
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        sim.schedule_repeating(SimDuration::from_secs(1), move || {
            c.set(c.get() + 1);
            true
        });
        sim.run_until(SimTime::from_millis(3_500));
        assert_eq!(count.get(), 3);
        assert_eq!(sim.now(), SimTime::from_millis(3_500));
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(count.get(), 4);
    }

    #[test]
    fn repeating_stops_when_false() {
        let sim = Sim::new();
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        sim.schedule_repeating(SimDuration::from_millis(10), move || {
            c.set(c.get() + 1);
            c.get() < 5
        });
        sim.run_until_idle();
        assert_eq!(count.get(), 5);
        assert_eq!(sim.now(), SimTime::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn repeating_rejects_zero_interval() {
        let sim = Sim::new();
        sim.schedule_repeating(SimDuration::ZERO, || true);
    }

    #[test]
    fn run_until_with_empty_queue_advances_clock() {
        let sim = Sim::new();
        sim.run_until(SimTime::from_secs(9));
        assert_eq!(sim.now(), SimTime::from_secs(9));
    }

    #[test]
    fn clones_share_state() {
        let sim = Sim::new();
        let other = sim.clone();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        other.schedule_in(SimDuration::from_millis(1), move || f.set(true));
        sim.run_until_idle();
        assert!(fired.get());
        assert_eq!(other.now(), sim.now());
    }
}
