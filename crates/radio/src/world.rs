//! Spatial world: node identities, positions and mobility.
//!
//! All radios share one [`World`], which answers "where is node N at time
//! t?" — the only geometry question the range checks and the geographic
//! routing of Smart Messages need. Mobility is piecewise-linear waypoint
//! interpolation, enough to model sailing boats drifting along a regatta
//! course.

use simkit::{Sim, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

/// Identifier of a node (phone, communicator, GPS puck, base station…).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A point in the flat 2-D world, in metres.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Position {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Position {
    /// Origin of the world.
    pub const ORIGIN: Position = Position { x: 0.0, y: 0.0 };

    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position, in metres.
    pub fn distance_to(&self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Linear interpolation towards `other` (`t` in `[0,1]`).
    pub fn lerp(&self, other: Position, t: f64) -> Position {
        let t = t.clamp(0.0, 1.0);
        Position {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// A circular region of interest (query destinations can be regions,
/// e.g. "the waters near a guest harbour").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Region {
    /// Centre of the region.
    pub center: Position,
    /// Radius in metres.
    pub radius: f64,
}

impl Region {
    /// Creates a region.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative.
    pub fn new(center: Position, radius: f64) -> Self {
        assert!(radius >= 0.0, "region radius must be non-negative");
        Region { center, radius }
    }

    /// Whether `p` lies inside (or on the edge of) the region.
    pub fn contains(&self, p: Position) -> bool {
        self.center.distance_to(p) <= self.radius
    }
}

#[derive(Clone, Debug)]
enum Mobility {
    Fixed(Position),
    /// Piecewise-linear path: holds the first position until its time,
    /// then interpolates segment by segment, then holds the last.
    Waypoints(Vec<(SimTime, Position)>),
}

impl Mobility {
    fn position_at(&self, t: SimTime) -> Position {
        match self {
            Mobility::Fixed(p) => *p,
            Mobility::Waypoints(points) => {
                debug_assert!(!points.is_empty());
                let Some(&(first_t, first_p)) = points.first() else {
                    // Degenerate empty waypoint list: hold the origin
                    // rather than panicking inside the interpolator.
                    return Position::ORIGIN;
                };
                if t <= first_t {
                    return first_p;
                }
                for w in points.windows(2) {
                    let (t0, p0) = w[0];
                    let (t1, p1) = w[1];
                    if t <= t1 {
                        let span = (t1 - t0).as_secs_f64();
                        let frac = if span == 0.0 {
                            1.0
                        } else {
                            (t - t0).as_secs_f64() / span
                        };
                        return p0.lerp(p1, frac);
                    }
                }
                points.last().map_or(first_p, |w| w.1)
            }
        }
    }
}

struct Inner {
    sim: Sim,
    nodes: BTreeMap<NodeId, Mobility>,
    /// Nodes whose radios are dead (churn/partition fault injection):
    /// they keep a position but drop out of every topology answer.
    down: BTreeSet<NodeId>,
    next_id: u32,
}

/// Shared registry of nodes and their (possibly moving) positions.
///
/// ```
/// use radio::{Position, World};
/// use simkit::Sim;
///
/// let sim = Sim::new();
/// let world = World::new(&sim);
/// let a = world.add_node(Position::new(0.0, 0.0));
/// let b = world.add_node(Position::new(3.0, 4.0));
/// assert_eq!(world.distance(a, b), Some(5.0));
/// ```
#[derive(Clone)]
pub struct World {
    inner: Rc<RefCell<Inner>>,
}

impl World {
    /// Creates an empty world bound to a simulator clock.
    pub fn new(sim: &Sim) -> Self {
        World {
            inner: Rc::new(RefCell::new(Inner {
                sim: sim.clone(),
                nodes: BTreeMap::new(),
                down: BTreeSet::new(),
                next_id: 0,
            })),
        }
    }

    /// Registers a stationary node and returns its id.
    pub fn add_node(&self, pos: Position) -> NodeId {
        let mut inner = self.inner.borrow_mut();
        let id = NodeId(inner.next_id);
        inner.next_id += 1;
        inner.nodes.insert(id, Mobility::Fixed(pos));
        id
    }

    /// Registers a node following a waypoint path.
    ///
    /// # Panics
    ///
    /// Panics if `waypoints` is empty or not time-ordered.
    pub fn add_mobile_node(&self, waypoints: Vec<(SimTime, Position)>) -> NodeId {
        assert!(!waypoints.is_empty(), "waypoint path must be non-empty");
        assert!(
            waypoints.windows(2).all(|w| w[0].0 <= w[1].0),
            "waypoints must be time-ordered"
        );
        let mut inner = self.inner.borrow_mut();
        let id = NodeId(inner.next_id);
        inner.next_id += 1;
        inner.nodes.insert(id, Mobility::Waypoints(waypoints));
        id
    }

    /// Moves a node to a fixed position (replacing any path).
    pub fn set_position(&self, node: NodeId, pos: Position) {
        self.inner
            .borrow_mut()
            .nodes
            .insert(node, Mobility::Fixed(pos));
    }

    /// Current position of a node, if registered.
    pub fn position_of(&self, node: NodeId) -> Option<Position> {
        let inner = self.inner.borrow();
        let now = inner.sim.now();
        inner.nodes.get(&node).map(|m| m.position_at(now))
    }

    /// Distance between two nodes, if both are registered.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<f64> {
        Some(self.position_of(a)?.distance_to(self.position_of(b)?))
    }

    /// Whether two distinct registered nodes are within `range` metres
    /// *and* both up (see [`World::set_node_up`]).
    pub fn in_range(&self, a: NodeId, b: NodeId, range: f64) -> bool {
        a != b
            && self.is_node_up(a)
            && self.is_node_up(b)
            && self.distance(a, b).is_some_and(|d| d <= range)
    }

    /// Marks a node's radio dead or alive (fault injection: churn, crash,
    /// partition). A down node keeps its position and mobility but stops
    /// appearing in [`World::neighbors`], [`World::in_range`] and
    /// [`World::nodes_in_region`]. Nodes start up; unknown ids are a
    /// no-op.
    pub fn set_node_up(&self, node: NodeId, up: bool) {
        let mut inner = self.inner.borrow_mut();
        if up {
            inner.down.remove(&node);
        } else if inner.nodes.contains_key(&node) {
            inner.down.insert(node);
        }
    }

    /// Whether the node's radio is alive (unknown nodes report `false`).
    pub fn is_node_up(&self, node: NodeId) -> bool {
        let inner = self.inner.borrow();
        inner.nodes.contains_key(&node) && !inner.down.contains(&node)
    }

    /// Partitions the world: every node in `nodes` goes down at once
    /// (convenience for scripted partitions).
    pub fn partition_down(&self, nodes: &[NodeId]) {
        for &n in nodes {
            self.set_node_up(n, false);
        }
    }

    /// All registered nodes.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.inner.borrow().nodes.keys().copied().collect()
    }

    /// All *up* nodes other than `of` within `range` metres of it.
    /// A down `of` has no neighbors at all.
    pub fn neighbors(&self, of: NodeId, range: f64) -> Vec<NodeId> {
        if !self.is_node_up(of) {
            return Vec::new();
        }
        let Some(origin) = self.position_of(of) else {
            return Vec::new();
        };
        let inner = self.inner.borrow();
        let now = inner.sim.now();
        inner
            .nodes
            .iter()
            .filter(|&(&id, m)| {
                id != of
                    && !inner.down.contains(&id)
                    && m.position_at(now).distance_to(origin) <= range
            })
            .map(|(&id, _)| id)
            .collect()
    }

    /// Up nodes currently inside a region.
    pub fn nodes_in_region(&self, region: Region) -> Vec<NodeId> {
        let inner = self.inner.borrow();
        let now = inner.sim.now();
        inner
            .nodes
            .iter()
            .filter(|&(&id, m)| !inner.down.contains(&id) && region.contains(m.position_at(now)))
            .map(|(&id, _)| id)
            .collect()
    }
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("nodes", &self.inner.borrow().nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    #[test]
    fn distance_and_range() {
        let sim = Sim::new();
        let w = World::new(&sim);
        let a = w.add_node(Position::new(0.0, 0.0));
        let b = w.add_node(Position::new(6.0, 8.0));
        assert_eq!(w.distance(a, b), Some(10.0));
        assert!(w.in_range(a, b, 10.0));
        assert!(!w.in_range(a, b, 9.99));
        assert!(!w.in_range(a, a, 100.0), "a node is not its own neighbor");
    }

    #[test]
    fn unknown_node_queries_are_none() {
        let sim = Sim::new();
        let w = World::new(&sim);
        let a = w.add_node(Position::ORIGIN);
        assert_eq!(w.position_of(NodeId(99)), None);
        assert_eq!(w.distance(a, NodeId(99)), None);
    }

    #[test]
    fn waypoint_interpolation() {
        let sim = Sim::new();
        let w = World::new(&sim);
        let n = w.add_mobile_node(vec![
            (SimTime::from_secs(10), Position::new(0.0, 0.0)),
            (SimTime::from_secs(20), Position::new(100.0, 0.0)),
        ]);
        // before the path starts: first waypoint
        assert_eq!(w.position_of(n).unwrap(), Position::new(0.0, 0.0));
        sim.run_until(SimTime::from_secs(15));
        assert_eq!(w.position_of(n).unwrap(), Position::new(50.0, 0.0));
        sim.run_for(SimDuration::from_secs(100));
        assert_eq!(w.position_of(n).unwrap(), Position::new(100.0, 0.0));
    }

    #[test]
    fn neighbors_respect_mobility() {
        let sim = Sim::new();
        let w = World::new(&sim);
        let fixed = w.add_node(Position::ORIGIN);
        let roamer = w.add_mobile_node(vec![
            (SimTime::ZERO, Position::new(0.0, 5.0)),
            (SimTime::from_secs(10), Position::new(0.0, 500.0)),
        ]);
        assert_eq!(w.neighbors(fixed, 10.0), vec![roamer]);
        sim.run_until(SimTime::from_secs(10));
        assert!(w.neighbors(fixed, 10.0).is_empty());
    }

    #[test]
    fn region_membership() {
        let sim = Sim::new();
        let w = World::new(&sim);
        let inside = w.add_node(Position::new(1.0, 1.0));
        let outside = w.add_node(Position::new(50.0, 50.0));
        let r = Region::new(Position::ORIGIN, 5.0);
        let members = w.nodes_in_region(r);
        assert!(members.contains(&inside));
        assert!(!members.contains(&outside));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_waypoints_panic() {
        let sim = Sim::new();
        let w = World::new(&sim);
        w.add_mobile_node(vec![
            (SimTime::from_secs(5), Position::ORIGIN),
            (SimTime::from_secs(1), Position::ORIGIN),
        ]);
    }

    #[test]
    fn down_nodes_leave_the_topology() {
        let sim = Sim::new();
        let w = World::new(&sim);
        let a = w.add_node(Position::ORIGIN);
        let b = w.add_node(Position::new(3.0, 4.0));
        let c = w.add_node(Position::new(0.0, 1.0));
        assert!(w.is_node_up(b));
        w.set_node_up(b, false);
        assert!(!w.is_node_up(b));
        assert!(!w.in_range(a, b, 100.0));
        assert_eq!(w.neighbors(a, 100.0), vec![c]);
        assert_eq!(
            w.nodes_in_region(Region::new(Position::ORIGIN, 100.0)),
            vec![a, c]
        );
        // Position survives the outage; distance still answers.
        assert_eq!(w.distance(a, b), Some(5.0));
        w.set_node_up(b, true);
        assert_eq!(w.neighbors(a, 100.0), vec![b, c]);
    }

    #[test]
    fn down_origin_has_no_neighbors() {
        let sim = Sim::new();
        let w = World::new(&sim);
        let a = w.add_node(Position::ORIGIN);
        let _b = w.add_node(Position::new(1.0, 0.0));
        w.set_node_up(a, false);
        assert!(w.neighbors(a, 10.0).is_empty());
    }

    #[test]
    fn partition_and_unknown_nodes() {
        let sim = Sim::new();
        let w = World::new(&sim);
        let a = w.add_node(Position::ORIGIN);
        let b = w.add_node(Position::new(1.0, 0.0));
        w.partition_down(&[a, b]);
        assert!(!w.is_node_up(a) && !w.is_node_up(b));
        // Unknown ids: no-op / false.
        w.set_node_up(NodeId(77), false);
        assert!(!w.is_node_up(NodeId(77)));
        w.set_node_up(a, true);
        assert!(w.is_node_up(a));
    }

    #[test]
    fn set_position_overrides_path() {
        let sim = Sim::new();
        let w = World::new(&sim);
        let n = w.add_mobile_node(vec![(SimTime::ZERO, Position::ORIGIN)]);
        w.set_position(n, Position::new(9.0, 9.0));
        assert_eq!(w.position_of(n).unwrap(), Position::new(9.0, 9.0));
    }
}
