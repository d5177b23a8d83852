//! Geometric paths through the intersection box.
//!
//! Every movement's in-box path is either a straight segment (crossing) or
//! a quarter-circle arc (turning), in the intersection frame (origin at the
//! box center, x east, y north). Paths are parameterized by distance `s`
//! from box entry; negative `s` extends straight back along the approach
//! (through the transmission line), and `s > length` extends straight out
//! along the exit arm — so one parameterization covers the whole
//! approach–cross–depart trajectory.

use crossroads_units::{Meters, Point2, Radians};

use crate::geometry::{Approach, IntersectionGeometry, Movement, Turn};

/// A movement's path through (and beyond) the intersection box.
///
/// # Examples
///
/// ```
/// use crossroads_intersection::{Approach, IntersectionGeometry, Movement, MovementPath, Turn};
/// use crossroads_units::Meters;
///
/// let g = IntersectionGeometry::scale_model();
/// let path = MovementPath::new(&g, Movement::new(Approach::South, Turn::Straight));
/// assert_eq!(path.length(), Meters::new(1.2));
/// let (entry, _) = path.pose_at(Meters::ZERO);
/// assert!((entry.y.value() + 0.6).abs() < 1e-12); // south box edge
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MovementPath {
    movement: Movement,
    length: Meters,
    kind: PathKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PathKind {
    /// Straight crossing: entry point + heading.
    Straight { entry: Point2, heading: Radians },
    /// Quarter arc: center, radius, entry polar angle, signed sweep
    /// direction (+1 counterclockwise / left, −1 clockwise / right).
    Arc {
        center: Point2,
        radius: Meters,
        entry_angle: Radians,
        ccw: bool,
        entry: Point2,
        exit: Point2,
        exit_heading: Radians,
    },
}

/// Rotates a point about the origin.
fn rotate(p: Point2, angle: Radians) -> Point2 {
    let (sin, cos) = (angle.sin(), angle.cos());
    Point2::new(
        p.x.value() * cos - p.y.value() * sin,
        p.x.value() * sin + p.y.value() * cos,
    )
}

impl MovementPath {
    /// Builds the path for `movement` on `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if `geometry` fails validation.
    #[must_use]
    pub fn new(geometry: &IntersectionGeometry, movement: Movement) -> Self {
        geometry.validate().expect("valid intersection geometry");
        let half = geometry.box_size / 2.0;
        let off = geometry.lane_offset();
        // Construct in the canonical South-approach (northbound) frame,
        // then rotate by the approach's heading offset.
        let rot = movement.approach.heading() - Approach::South.heading();

        let kind = match movement.turn {
            Turn::Straight => {
                let entry = Point2 { x: off, y: -half };
                PathKind::Straight {
                    entry: rotate(entry, rot),
                    heading: (movement.approach.heading()).normalized(),
                }
            }
            Turn::Right => {
                let center = Point2 { x: half, y: -half };
                let radius = geometry.right_turn_radius();
                let entry = Point2 { x: off, y: -half };
                let exit = Point2 { x: half, y: -off };
                PathKind::Arc {
                    center: rotate(center, rot),
                    radius,
                    entry_angle: (Radians::new(std::f64::consts::PI) + rot).normalized(),
                    ccw: false,
                    entry: rotate(entry, rot),
                    exit: rotate(exit, rot),
                    exit_heading: (movement.approach.right().heading().normalized()
                        + Radians::new(std::f64::consts::PI))
                    .normalized(),
                }
            }
            Turn::Left => {
                let center = Point2 { x: -half, y: -half };
                let radius = geometry.left_turn_radius();
                let entry = Point2 { x: off, y: -half };
                let exit = Point2 { x: -half, y: off };
                PathKind::Arc {
                    center: rotate(center, rot),
                    radius,
                    entry_angle: (Radians::new(0.0) + rot).normalized(),
                    ccw: true,
                    entry: rotate(entry, rot),
                    exit: rotate(exit, rot),
                    exit_heading: (movement.approach.left().heading().normalized()
                        + Radians::new(std::f64::consts::PI))
                    .normalized(),
                }
            }
        };
        MovementPath {
            movement,
            length: geometry.path_length(movement),
            kind,
        }
    }

    /// The movement this path realizes.
    #[must_use]
    pub fn movement(&self) -> Movement {
        self.movement
    }

    /// In-box path length.
    #[must_use]
    pub fn length(&self) -> Meters {
        self.length
    }

    /// Maximum curvature (1/radius) anywhere along the path — zero for
    /// straight crossings, the arc curvature for turns (the approach and
    /// exit extensions are straight). Used by conservative footprint
    /// sweeps to bound how far a rigid body rotates per meter of
    /// progress.
    #[must_use]
    pub fn max_curvature(&self) -> f64 {
        match &self.kind {
            PathKind::Straight { .. } => 0.0,
            PathKind::Arc { radius, .. } => 1.0 / radius.value(),
        }
    }

    /// The line a straight crossing runs on, as its box-entry point and
    /// heading; `None` for a turn. Every pose of a straight path, its
    /// approach and exit extensions included, lies on this line and
    /// carries this heading.
    #[must_use]
    pub fn straight_line(&self) -> Option<(Point2, Radians)> {
        match self.kind {
            PathKind::Straight { entry, heading } => Some((entry, heading)),
            PathKind::Arc { .. } => None,
        }
    }

    /// Pose (position, heading) at distance `s` from box entry. `s < 0`
    /// extends along the approach arm; `s > length` along the exit arm.
    #[must_use]
    pub fn pose_at(&self, s: Meters) -> (Point2, Radians) {
        match &self.kind {
            PathKind::Straight { entry, heading } => (entry.advanced(*heading, s), *heading),
            PathKind::Arc {
                center,
                radius,
                entry_angle,
                ccw,
                entry,
                exit,
                exit_heading,
            } => {
                let approach_heading = self.movement.approach.heading();
                if s.value() < 0.0 {
                    return (entry.advanced(approach_heading, s), approach_heading);
                }
                if s > self.length {
                    return (exit.advanced(*exit_heading, s - self.length), *exit_heading);
                }
                let sweep = s.value() / radius.value();
                let angle = if *ccw {
                    entry_angle.value() + sweep
                } else {
                    entry_angle.value() - sweep
                };
                let p = Point2::new(
                    center.x.value() + radius.value() * angle.cos(),
                    center.y.value() + radius.value() * angle.sin(),
                );
                let heading = if *ccw {
                    Radians::new(angle + std::f64::consts::FRAC_PI_2)
                } else {
                    Radians::new(angle - std::f64::consts::FRAC_PI_2)
                };
                (p, heading.normalized())
            }
        }
    }

    /// Samples `n ≥ 2` poses evenly over the in-box portion.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn sample(&self, n: usize) -> Vec<(Point2, Radians)> {
        assert!(n >= 2, "need at least the two endpoints");
        #[allow(clippy::cast_precision_loss)]
        (0..n)
            .map(|i| self.pose_at(self.length * (i as f64 / (n - 1) as f64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn g() -> IntersectionGeometry {
        IntersectionGeometry::scale_model()
    }

    fn path(a: Approach, t: Turn) -> MovementPath {
        MovementPath::new(&g(), Movement::new(a, t))
    }

    fn close(p: Point2, x: f64, y: f64) -> bool {
        (p.x.value() - x).abs() < 1e-9 && (p.y.value() - y).abs() < 1e-9
    }

    #[test]
    fn south_straight_endpoints() {
        let p = path(Approach::South, Turn::Straight);
        let (entry, h) = p.pose_at(Meters::ZERO);
        assert!(close(entry, 0.3, -0.6), "entry {entry}");
        assert!((h.sin() - 1.0).abs() < 1e-12);
        let (exit, _) = p.pose_at(p.length());
        assert!(close(exit, 0.3, 0.6), "exit {exit}");
    }

    #[test]
    fn south_right_endpoints_and_heading() {
        let p = path(Approach::South, Turn::Right);
        let (entry, h0) = p.pose_at(Meters::ZERO);
        assert!(close(entry, 0.3, -0.6), "entry {entry}");
        assert!((h0.value() - FRAC_PI_2).abs() < 1e-9, "entry heading {h0}");
        let (exit, h1) = p.pose_at(p.length());
        assert!(close(exit, 0.6, -0.3), "exit {exit}");
        // Exits eastbound.
        assert!(h1.normalized().value().abs() < 1e-9, "exit heading {h1}");
    }

    #[test]
    fn south_left_endpoints_and_heading() {
        let p = path(Approach::South, Turn::Left);
        let (entry, _) = p.pose_at(Meters::ZERO);
        assert!(close(entry, 0.3, -0.6));
        let (exit, h1) = p.pose_at(p.length());
        assert!(close(exit, -0.6, 0.3), "exit {exit}");
        // Exits westbound (π).
        assert!((h1.normalized().value().abs() - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn east_straight_is_rotated_correctly() {
        // East approach: westbound, lane center at y = +0.3.
        let p = path(Approach::East, Turn::Straight);
        let (entry, h) = p.pose_at(Meters::ZERO);
        assert!(close(entry, 0.6, 0.3), "entry {entry}");
        assert!((h.cos() + 1.0).abs() < 1e-12, "heading {h}");
        let (exit, _) = p.pose_at(p.length());
        assert!(close(exit, -0.6, 0.3), "exit {exit}");
    }

    #[test]
    fn all_entries_are_on_the_box_boundary() {
        for m in Movement::all() {
            let p = MovementPath::new(&g(), m);
            let (entry, _) = p.pose_at(Meters::ZERO);
            let (exit, _) = p.pose_at(p.length());
            let on_edge = |pt: Point2| {
                let (x, y) = (pt.x.value().abs(), pt.y.value().abs());
                (x - 0.6).abs() < 1e-9 || (y - 0.6).abs() < 1e-9
            };
            assert!(on_edge(entry), "{m}: entry {entry} not on box edge");
            assert!(on_edge(exit), "{m}: exit {exit} not on box edge");
        }
    }

    #[test]
    fn negative_s_extends_along_approach() {
        let p = path(Approach::South, Turn::Left);
        let (pt, h) = p.pose_at(Meters::new(-3.0));
        // 3 m back along the south approach from (0.3, -0.6).
        assert!(close(pt, 0.3, -3.6), "{pt}");
        assert!((h.sin() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn beyond_length_extends_along_exit() {
        let p = path(Approach::South, Turn::Right);
        let (pt, h) = p.pose_at(p.length() + Meters::new(1.0));
        assert!(close(pt, 1.6, -0.3), "{pt}");
        assert!(h.normalized().value().abs() < 1e-9);
    }

    #[test]
    fn arc_points_stay_on_radius() {
        let geom = g();
        for (turn, radius) in [(Turn::Right, 0.3), (Turn::Left, 0.9)] {
            for a in Approach::ALL {
                let p = MovementPath::new(&geom, Movement::new(a, turn));
                // Interior samples should all be `radius` from the arc center.
                let samples = p.sample(21);
                // Reconstruct the center from entry pose: left turns center is
                // 90° left of heading, right turns 90° right.
                let (entry, h0) = p.pose_at(Meters::ZERO);
                let side = if turn == Turn::Left {
                    FRAC_PI_2
                } else {
                    -FRAC_PI_2
                };
                let center = entry.advanced(Radians::new(h0.value() + side), Meters::new(radius));
                for (pt, _) in samples {
                    let d = pt.distance_to(center).value();
                    assert!((d - radius).abs() < 1e-9, "{a}-{turn}: radius {d}");
                }
            }
        }
    }

    #[test]
    fn sampling_is_arc_length_uniform() {
        let p = path(Approach::West, Turn::Left);
        let pts = p.sample(41);
        let mut dists = Vec::new();
        for w in pts.windows(2) {
            dists.push(w[0].0.distance_to(w[1].0).value());
        }
        let (min, max) = dists
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &d| (lo.min(d), hi.max(d)));
        assert!(max - min < 1e-6, "chord lengths vary: {min}..{max}");
    }

    #[test]
    #[should_panic(expected = "at least the two endpoints")]
    fn sample_needs_two_points() {
        let _ = path(Approach::South, Turn::Straight).sample(1);
    }
}
