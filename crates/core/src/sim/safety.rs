//! Post-hoc safety auditing.
//!
//! The simulator records each vehicle's *executed* motion plan through
//! the box. The audit then replays every pair of temporally overlapping
//! crossings and tests their physical footprints (oriented rectangles,
//! no buffers) on a 5 ms sample grid along their paths, flagging the
//! first instant of geometric overlap — the ground-truth safety property
//! all three IMs must uphold, and the property VT-IM loses when its RTD
//! buffer is disabled (the paper's Ch. 4 argument, reproduced as failure
//! injection).
//!
//! The contact search, `first_contact`, is a conservative-advancement
//! march: a disc bound around each footprint and a whole-profile speed
//! bound prove when samples cannot touch, and those are stepped over
//! without building footprints; a pair on parallel lanes farther apart
//! than an inflated body is wide is cleared before marching. The
//! verdict and the contact instant are bit-identical to the plain
//! march, which survives only in
//! [`SafetyReport::audit_exhaustive_with_margin`] as the reference. The
//! runtime safety filter runs the same pair test online.
//!
//! Box-interval overlap alone is *not* a violation: AIM legitimately
//! platoons same-lane vehicles and interleaves spatially disjoint
//! crossings inside the box — that is precisely its tile-level advantage.

use crossroads_intersection::{IntersectionGeometry, Movement, MovementPath};
use crossroads_units::{Meters, OrientedRect, Point2, Radians, Seconds, TimePoint};
use crossroads_vehicle::{SpeedProfile, VehicleId, VehicleSpec};

/// One vehicle's physical presence in the box: the time window plus the
/// executed longitudinal plan, so positions can be replayed exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxOccupancy {
    /// Who.
    pub vehicle: VehicleId,
    /// Which movement it executed.
    pub movement: Movement,
    /// Front bumper entered the box.
    pub entered: TimePoint,
    /// Rear bumper cleared the box.
    pub exited: TimePoint,
    /// The executed longitudinal profile (path position measured from the
    /// transmission line).
    pub profile: SpeedProfile,
    /// Path position of the box entry in the profile's coordinate (the
    /// transmission-line distance).
    pub line_offset: Meters,
}

impl BoxOccupancy {
    /// Front-bumper path position relative to box entry at time `t`.
    #[must_use]
    pub fn front_at(&self, t: TimePoint) -> Meters {
        self.profile.position_at(t) - self.line_offset
    }
}

/// A pair of vehicles whose physical footprints overlapped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyViolation {
    /// First vehicle (earlier entry).
    pub first: VehicleId,
    /// Second vehicle.
    pub second: VehicleId,
    /// First instant of contact observed.
    pub at: TimePoint,
}

/// The audit result.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyReport {
    occupancies: Vec<BoxOccupancy>,
    violations: Vec<SafetyViolation>,
}

/// Audit sampling step: 5 ms resolves any contact lasting longer than the
/// blink of a bumper at scale speeds.
const AUDIT_STEP: Seconds = Seconds::new(0.005);

impl SafetyReport {
    /// Audits a completed run by geometric replay of the bare vehicle
    /// bodies (no margin): flags actual bumper contact.
    #[must_use]
    pub fn audit(
        occupancies: Vec<BoxOccupancy>,
        geometry: &IntersectionGeometry,
        spec: &VehicleSpec,
    ) -> Self {
        Self::audit_with_margin(occupancies, geometry, spec, Meters::ZERO)
    }

    /// Audits with every footprint inflated by `margin` on all sides.
    ///
    /// This is the *guarantee-level* check: an IM that claims safety under
    /// a position uncertainty of `margin` must keep the inflated envelopes
    /// exclusive. With the correct buffers the reproduction passes at
    /// `margin = E_long`; strip VT-IM's RTD buffer and it fails (Ch. 4).
    ///
    /// Pairs are found by a sweep over entry times: occupancies are sorted
    /// by box entry once, and an active set retains only those whose
    /// windows are still open, so pairs whose box intervals cannot overlap
    /// in time are never geometrically tested — O(n log n + k) candidate
    /// generation against the exhaustive audit's O(n²), with `k` the
    /// number of genuinely co-resident pairs. Each candidate's contact
    /// march steps over samples that provably cannot touch. The violation
    /// set, its order and every contact instant are identical to
    /// [`audit_exhaustive_with_margin`](Self::audit_exhaustive_with_margin).
    #[must_use]
    pub fn audit_with_margin(
        occupancies: Vec<BoxOccupancy>,
        geometry: &IntersectionGeometry,
        spec: &VehicleSpec,
        margin: Meters,
    ) -> Self {
        let paths = movement_paths(geometry);
        // Sweep: visit occupancies in entry order, keeping an active set
        // of earlier entries whose exit lies beyond the current entry.
        let mut by_entry: Vec<usize> = (0..occupancies.len()).collect();
        by_entry.sort_by(|&i, &j| {
            occupancies[i]
                .entered
                .total_cmp(occupancies[j].entered)
                .then_with(|| i.cmp(&j))
        });
        let mut active: Vec<usize> = Vec::new();
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for &j in &by_entry {
            let enter = occupancies[j].entered;
            active.retain(|&i| occupancies[i].exited > enter);
            for &i in &active {
                candidates.push((i.min(j), i.max(j)));
            }
            active.push(j);
        }
        // Replay candidates in index order — the exhaustive audit's pair
        // order — so the reported violations match it byte for byte.
        candidates.sort_unstable();
        let mut violations = Vec::new();
        for &(i, j) in &candidates {
            let (a, b) = (&occupancies[i], &occupancies[j]);
            if let Some(violation) = check_pair(a, b, &paths, spec, margin) {
                violations.push(violation);
            }
        }
        SafetyReport {
            occupancies,
            violations,
        }
    }

    /// The seed's exhaustive pairwise audit, kept verbatim as the
    /// reference implementation: every pair is interval-tested, O(n²),
    /// and every 5 ms sample of a co-resident pair is SAT-tested (the
    /// plain march). Property tests, the exhaustive re-audits of the
    /// platoon and mixed-traffic suites and `benches/des.rs` cross-check
    /// the sweep-pruned [`audit_with_margin`](Self::audit_with_margin)
    /// against it.
    #[must_use]
    pub fn audit_exhaustive_with_margin(
        occupancies: Vec<BoxOccupancy>,
        geometry: &IntersectionGeometry,
        spec: &VehicleSpec,
        margin: Meters,
    ) -> Self {
        let paths = movement_paths(geometry);
        let mut violations = Vec::new();
        for (i, a) in occupancies.iter().enumerate() {
            for b in &occupancies[i + 1..] {
                if let Some(violation) =
                    check_pair_with(a, b, &paths, spec, margin, plain_first_contact)
                {
                    violations.push(violation);
                }
            }
        }
        SafetyReport {
            occupancies,
            violations,
        }
    }

    /// No physical contact was observed.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violating pairs.
    #[must_use]
    pub fn violations(&self) -> &[SafetyViolation] {
        &self.violations
    }

    /// The raw occupancy log.
    #[must_use]
    pub fn occupancies(&self) -> &[BoxOccupancy] {
        &self.occupancies
    }
}

/// One replayable path per movement, indexed by [`Movement::index`],
/// shared by both audit variants and cached by the runtime safety filter
/// (which runs the same pair test online, before actuation, instead of
/// post-hoc) and by AIM's footprint kernels.
pub(crate) fn movement_paths(geometry: &IntersectionGeometry) -> [MovementPath; 12] {
    let all = Movement::all();
    std::array::from_fn(|i| {
        debug_assert_eq!(all[i].index(), i);
        MovementPath::new(geometry, all[i])
    })
}

/// A sampled contact search over `[start, end]`: the first sample
/// instant at which the two inflated footprints touch.
type March = fn(
    &BoxOccupancy,
    &BoxOccupancy,
    &[MovementPath; 12],
    &VehicleSpec,
    Meters,
    TimePoint,
    TimePoint,
) -> Option<TimePoint>;

/// The per-pair test the sweep audit and the runtime filter share:
/// interval overlap, then contact search. Returns the violation
/// (entry-ordered vehicle pair, first contact instant) if the footprints
/// ever touch.
///
/// Same-movement straight pairs get the *exact* first-contact time: both
/// bodies ride the same straight line with identical headings, so contact
/// reduces to the 1-D separation condition and
/// [`first_gap_violation`](crossroads_vehicle::first_gap_violation)
/// solves the crossing in closed form. Every other pair (curved paths,
/// distinct movements) is sampled by [`first_contact`], which the
/// property suite pins against the plain march on the shared grid.
pub(crate) fn check_pair(
    a: &BoxOccupancy,
    b: &BoxOccupancy,
    paths: &[MovementPath; 12],
    spec: &VehicleSpec,
    margin: Meters,
) -> Option<SafetyViolation> {
    check_pair_with(a, b, paths, spec, margin, first_contact)
}

/// [`check_pair`] with the sampled contact search supplied: the
/// exhaustive reference audit passes [`plain_first_contact`].
fn check_pair_with(
    a: &BoxOccupancy,
    b: &BoxOccupancy,
    paths: &[MovementPath; 12],
    spec: &VehicleSpec,
    margin: Meters,
    march: March,
) -> Option<SafetyViolation> {
    let start = a.entered.max(b.entered);
    let end = a.exited.min(b.exited);
    if end <= start {
        return None; // never inside together
    }
    let at =
        if a.movement == b.movement && a.movement.turn == crossroads_intersection::Turn::Straight {
            let gap = spec.length + margin * 2.0;
            crossroads_vehicle::first_gap_violation(
                &a.profile,
                &b.profile,
                b.line_offset - a.line_offset,
                gap,
                start,
                end,
            )?
        } else {
            march(a, b, paths, spec, margin, start, end)?
        };
    let (first, second) = if a.entered <= b.entered {
        (a.vehicle, b.vehicle)
    } else {
        (b.vehicle, a.vehicle)
    };
    Some(SafetyViolation { first, second, at })
}

/// Footprint centre and heading at `t`: the front bumper's path position
/// less half a body, mapped through the movement's path.
fn center_pose(
    occ: &BoxOccupancy,
    path: &MovementPath,
    spec: &VehicleSpec,
    t: TimePoint,
) -> (Point2, Radians) {
    path.pose_at(occ.front_at(t) - spec.length / 2.0)
}

/// The body at `pose`, inflated by `margin` on all sides.
fn footprint(
    (center, heading): (Point2, Radians),
    spec: &VehicleSpec,
    margin: Meters,
) -> OrientedRect {
    OrientedRect {
        center,
        heading,
        length: spec.length + margin * 2.0,
        width: spec.width + margin * 2.0,
    }
}

/// Disc clearance the skipping march keeps in hand before it steps over a
/// sample. It dominates the float error of the poses and the SAT by
/// orders of magnitude (see [`first_contact`]).
const SKIP_SLACK: Meters = Meters::new(1e-6);

/// Largest `|sin|` of the angle between two straight paths' headings
/// that [`parallel_lane_gap`] still treats as parallel. Truly parallel
/// lines (same or opposite approaches) read about `1e-16`, crossing ones
/// read 1.
const PARALLEL_SIN: f64 = 1e-12;

/// The lateral distance between two straight paths' lines when they are
/// parallel (opposite through lanes), or `None`.
fn parallel_lane_gap(pa: &MovementPath, pb: &MovementPath) -> Option<Meters> {
    let ((ea, ha), (eb, hb)) = (pa.straight_line()?, pb.straight_line()?);
    let (da, db) = ((ha.cos(), ha.sin()), (hb.cos(), hb.sin()));
    if (da.0 * db.1 - da.1 * db.0).abs() > PARALLEL_SIN {
        return None;
    }
    let (dx, dy) = ((eb.x - ea.x).value(), (eb.y - ea.y).value());
    Some(Meters::new((dx * da.1 - dy * da.0).abs()))
}

/// The contact search: the plain march's 5 ms sample grid and verdict,
/// with samples that provably cannot touch stepped over without
/// evaluating footprints (conservative advancement), and pairs on
/// parallel lanes too far apart to touch cleared without marching.
///
/// Exactness:
/// - two straight paths on parallel lines `g` apart: each inflated body
///   keeps its long axis on its own line at every sample (straight
///   extensions included), so along the shared lane normal — an edge
///   normal of both rectangles, which the plain march's SAT tests — the
///   bodies span `W + 2m` each around centres `g` apart. With
///   `g − (W + 2m) > slack` that axis separates them at every sample;
///   the heading float error (`~1e-16` per metre of travel) is orders of
///   magnitude below the slack, so the plain march finds no contact;
/// - each inflated footprint lies inside the disc of radius
///   `R = hypot(L/2 + m, W/2 + m)` around its centre;
/// - each centre moves along its path, which is 1-Lipschitz in arc
///   length (straight extensions included), no faster than its
///   profile's [`max_speed`](SpeedProfile::max_speed), a bound over the
///   whole profile — a launch accelerating through the conflict zone
///   outruns any speed sampled at an earlier instant;
/// - so once a sample finds the discs `gap` apart, a later sample with
///   `(top_a + top_b)·(t − t_eval) < gap − slack` still has them more
///   than `slack` apart. Two rectangles at distance `δ` are separated by
///   at least `δ/√2` along one of their edge normals, so the plain
///   march's SAT reports no contact there either. For the same reason
///   an evaluated sample whose discs are more than `slack` apart skips
///   its SAT test;
/// - `t` still advances by the repeated `t += AUDIT_STEP`, so the sample
///   grid and the first contact instant are bit-identical to
///   [`plain_first_contact`]'s.
fn first_contact(
    a: &BoxOccupancy,
    b: &BoxOccupancy,
    paths: &[MovementPath; 12],
    spec: &VehicleSpec,
    margin: Meters,
    start: TimePoint,
    end: TimePoint,
) -> Option<TimePoint> {
    let (pa, pb) = (&paths[a.movement.index()], &paths[b.movement.index()]);
    if parallel_lane_gap(pa, pb).is_some_and(|g| g - (spec.width + margin * 2.0) > SKIP_SLACK) {
        return None;
    }
    let reach = a.profile.max_speed() + b.profile.max_speed();
    let half_l = (spec.length / 2.0 + margin).value();
    let half_w = (spec.width / 2.0 + margin).value();
    let discs = Meters::new(half_l.hypot(half_w) * 2.0);
    // The last evaluated sample and the disc clearance it proved.
    let (mut t_eval, mut clear) = (start, Meters::ZERO);
    let mut t = start;
    while t <= end {
        if reach * (t - t_eval) < clear {
            t += AUDIT_STEP;
            continue;
        }
        let pose_a = center_pose(a, pa, spec, t);
        let pose_b = center_pose(b, pb, spec, t);
        let gap = pose_a.0.distance_to(pose_b.0) - discs;
        if gap <= SKIP_SLACK
            && footprint(pose_a, spec, margin).intersects(&footprint(pose_b, spec, margin))
        {
            return Some(t);
        }
        (t_eval, clear) = (t, gap - SKIP_SLACK);
        t += AUDIT_STEP;
    }
    None
}

/// The seed's plain march: every 5 ms sample's footprints are built and
/// SAT-tested. Only the exhaustive reference audit runs it.
fn plain_first_contact(
    a: &BoxOccupancy,
    b: &BoxOccupancy,
    paths: &[MovementPath; 12],
    spec: &VehicleSpec,
    margin: Meters,
    start: TimePoint,
    end: TimePoint,
) -> Option<TimePoint> {
    let (pa, pb) = (&paths[a.movement.index()], &paths[b.movement.index()]);
    let mut t = start;
    while t <= end {
        let ra = footprint(center_pose(a, pa, spec, t), spec, margin);
        let rb = footprint(center_pose(b, pb, spec, t), spec, margin);
        if ra.intersects(&rb) {
            return Some(t);
        }
        t += AUDIT_STEP;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_intersection::{Approach, Turn};
    use crossroads_units::MetersPerSecond;

    fn geometry() -> IntersectionGeometry {
        IntersectionGeometry::scale_model()
    }

    fn spec() -> VehicleSpec {
        VehicleSpec::scale_model()
    }

    /// An occupancy crossing at constant speed, entering the box at
    /// `enter` (profile coordinates start at the box entry: offset 0).
    fn occ(v: u32, a: Approach, turn: Turn, enter: f64, speed: f64) -> BoxOccupancy {
        let g = geometry();
        let s = spec();
        let total = g.path_length(Movement::new(a, turn)) + s.length;
        let profile = SpeedProfile::starting_at(
            TimePoint::new(enter),
            Meters::ZERO,
            MetersPerSecond::new(speed),
        );
        BoxOccupancy {
            vehicle: VehicleId(v),
            movement: Movement::new(a, turn),
            entered: TimePoint::new(enter),
            exited: TimePoint::new(enter + total.value() / speed),
            profile,
            line_offset: Meters::ZERO,
        }
    }

    fn audit(occs: Vec<BoxOccupancy>) -> SafetyReport {
        SafetyReport::audit(occs, &geometry(), &spec())
    }

    #[test]
    fn disjoint_crossings_are_safe() {
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 1.5),
            occ(2, Approach::East, Turn::Straight, 3.0, 1.5),
        ]);
        assert!(r.is_safe());
    }

    #[test]
    fn simultaneous_perpendicular_straights_collide() {
        // Both fronts hit the common crossing point together.
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 1.5),
            occ(2, Approach::East, Turn::Straight, 0.0, 1.5),
        ]);
        assert!(
            !r.is_safe(),
            "perpendicular simultaneous crossings must touch"
        );
        assert_eq!(r.violations().len(), 1);
    }

    #[test]
    fn opposing_straights_pass_cleanly() {
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 1.5),
            occ(2, Approach::North, Turn::Straight, 0.0, 1.5),
        ]);
        assert!(r.is_safe(), "opposing lanes are laterally separated");
    }

    #[test]
    fn same_lane_following_with_gap_is_safe() {
        // 1.2 s headway at 1.5 m/s = 1.8 m gap >> 0.568 m body.
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 1.5),
            occ(2, Approach::South, Turn::Straight, 1.2, 1.5),
        ]);
        assert!(r.is_safe(), "platooning with a body-length gap is legal");
    }

    #[test]
    fn same_lane_tailgating_collides() {
        // 0.2 s headway at 1.5 m/s = 0.3 m gap < 0.568 m body: contact.
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 1.5),
            occ(2, Approach::South, Turn::Straight, 0.2, 1.5),
        ]);
        assert!(!r.is_safe());
        assert_eq!(r.violations()[0].first, VehicleId(1));
    }

    #[test]
    fn staggered_perpendicular_crossings_are_safe() {
        // The east-bound vehicle crosses the shared point well after the
        // south one has passed it, though both are briefly in the box.
        let r = audit(vec![
            occ(1, Approach::South, Turn::Straight, 0.0, 3.0),
            occ(2, Approach::East, Turn::Straight, 0.55, 3.0),
        ]);
        assert!(
            r.is_safe(),
            "temporally staggered crossings through disjoint space are safe: {:?}",
            r.violations()
        );
    }

    #[test]
    fn front_at_tracks_profile() {
        let o = occ(1, Approach::South, Turn::Straight, 2.0, 1.5);
        assert!((o.front_at(TimePoint::new(2.0)).value()).abs() < 1e-12);
        assert!((o.front_at(TimePoint::new(3.0)).value() - 1.5).abs() < 1e-12);
    }
}
