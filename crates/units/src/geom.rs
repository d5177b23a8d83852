//! Minimal planar geometry: points, vectors, axis-aligned boxes and segment
//! intersection tests used by the intersection model and the AIM tile grid.

use crate::{Meters, Radians};

/// A point in the intersection's Cartesian frame (meters).
///
/// The frame follows the paper's convention: `x` grows east, `y` grows
/// north, headings are measured counterclockwise from east.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// East coordinate.
    pub x: Meters,
    /// North coordinate.
    pub y: Meters,
}

/// A displacement between two [`Point2`]s (meters).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// East component.
    pub x: Meters,
    /// North component.
    pub y: Meters,
}

impl Point2 {
    /// The origin of the intersection frame (intersection center).
    pub const ORIGIN: Point2 = Point2 {
        x: Meters::ZERO,
        y: Meters::ZERO,
    };

    /// Creates a point from raw meter coordinates.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Point2 {
            x: Meters::new(x),
            y: Meters::new(y),
        }
    }

    /// Euclidean distance to another point.
    #[must_use]
    pub fn distance_to(self, other: Point2) -> Meters {
        (other - self).length()
    }

    /// The point reached by walking `dist` along `heading`.
    #[must_use]
    pub fn advanced(self, heading: Radians, dist: Meters) -> Point2 {
        Point2 {
            x: self.x + dist * heading.cos(),
            y: self.y + dist * heading.sin(),
        }
    }
}

impl Vec2 {
    /// Creates a vector from raw meter components.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Vec2 {
            x: Meters::new(x),
            y: Meters::new(y),
        }
    }

    /// Euclidean length.
    #[must_use]
    pub fn length(self) -> Meters {
        Meters::new(self.x.value().hypot(self.y.value()))
    }

    /// The heading of this vector, counterclockwise from east.
    #[must_use]
    pub fn heading(self) -> Radians {
        Radians::new(self.y.value().atan2(self.x.value()))
    }
}

impl std::ops::Sub for Point2 {
    type Output = Vec2;
    fn sub(self, rhs: Point2) -> Vec2 {
        Vec2 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl std::ops::Add<Vec2> for Point2 {
    type Output = Point2;
    fn add(self, rhs: Vec2) -> Point2 {
        Point2 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl std::ops::Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2 {
            x: self.x * rhs,
            y: self.y * rhs,
        }
    }
}

impl std::fmt::Display for Point2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.3}, {:.3})m", self.x.value(), self.y.value())
    }
}

/// An axis-aligned rectangle, used for the intersection box and for the
/// footprint of vehicles travelling parallel to an axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner (south-west).
    pub min: Point2,
    /// Maximum corner (north-east).
    pub max: Point2,
}

impl Aabb {
    /// Creates a box from two opposite corners, normalizing their order.
    #[must_use]
    pub fn from_corners(a: Point2, b: Point2) -> Self {
        Aabb {
            min: Point2 {
                x: a.x.min(b.x),
                y: a.y.min(b.y),
            },
            max: Point2 {
                x: a.x.max(b.x),
                y: a.y.max(b.y),
            },
        }
    }

    /// Creates a box centered at `center` with the given full width (x) and
    /// height (y).
    #[must_use]
    pub fn centered(center: Point2, width: Meters, height: Meters) -> Self {
        let hw = width / 2.0;
        let hh = height / 2.0;
        Aabb {
            min: Point2 {
                x: center.x - hw,
                y: center.y - hh,
            },
            max: Point2 {
                x: center.x + hw,
                y: center.y + hh,
            },
        }
    }

    /// Box width along x.
    #[must_use]
    pub fn width(&self) -> Meters {
        self.max.x - self.min.x
    }

    /// Box height along y.
    #[must_use]
    pub fn height(&self) -> Meters {
        self.max.y - self.min.y
    }

    /// Whether `p` lies inside or on the boundary.
    #[must_use]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether two boxes overlap (closed intervals: touching counts).
    #[must_use]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// Grows the box outward by `margin` on every side. A negative margin
    /// shrinks it; the caller is responsible for not inverting the box.
    #[must_use]
    pub fn inflated(&self, margin: Meters) -> Aabb {
        Aabb {
            min: Point2 {
                x: self.min.x - margin,
                y: self.min.y - margin,
            },
            max: Point2 {
                x: self.max.x + margin,
                y: self.max.y + margin,
            },
        }
    }
}

/// An oriented rectangle: a vehicle footprint at some pose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrientedRect {
    /// Footprint center.
    pub center: Point2,
    /// Long-axis heading.
    pub heading: Radians,
    /// Extent along the heading.
    pub length: Meters,
    /// Extent across the heading.
    pub width: Meters,
}

impl OrientedRect {
    /// The four corners, counterclockwise.
    #[must_use]
    pub fn corners(&self) -> [Point2; 4] {
        let (sin, cos) = (self.heading.sin(), self.heading.cos());
        let (hl, hw) = (self.length.value() / 2.0, self.width.value() / 2.0);
        let corner = |dl: f64, dw: f64| {
            Point2::new(
                self.center.x.value() + dl * cos - dw * sin,
                self.center.y.value() + dl * sin + dw * cos,
            )
        };
        [
            corner(hl, hw),
            corner(-hl, hw),
            corner(-hl, -hw),
            corner(hl, -hw),
        ]
    }

    /// Whether two oriented rectangles overlap (separating-axis theorem
    /// over the four edge normals; touching counts as overlap).
    #[must_use]
    pub fn intersects(&self, other: &OrientedRect) -> bool {
        let a = self.corners();
        let b = other.corners();
        let axes = [
            (self.heading.cos(), self.heading.sin()),
            (-self.heading.sin(), self.heading.cos()),
            (other.heading.cos(), other.heading.sin()),
            (-other.heading.sin(), other.heading.cos()),
        ];
        for (ax, ay) in axes {
            let proj = |pts: &[Point2; 4]| {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for p in pts {
                    let d = p.x.value() * ax + p.y.value() * ay;
                    lo = lo.min(d);
                    hi = hi.max(d);
                }
                (lo, hi)
            };
            let (alo, ahi) = proj(&a);
            let (blo, bhi) = proj(&b);
            if ahi < blo || bhi < alo {
                return false; // separating axis found
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_vector_arithmetic() {
        let p = Point2::new(1.0, 2.0);
        let q = Point2::new(4.0, 6.0);
        let v = q - p;
        assert_eq!(v, Vec2::new(3.0, 4.0));
        assert_eq!(v.length(), Meters::new(5.0));
        assert_eq!(p + v, q);
        assert_eq!(p.distance_to(q), Meters::new(5.0));
    }

    #[test]
    fn advance_along_heading() {
        let p = Point2::ORIGIN.advanced(Radians::new(0.0), Meters::new(2.0));
        assert!((p.x.value() - 2.0).abs() < 1e-12);
        assert!(p.y.value().abs() < 1e-12);

        let up =
            Point2::ORIGIN.advanced(Radians::new(std::f64::consts::FRAC_PI_2), Meters::new(3.0));
        assert!(up.x.value().abs() < 1e-12);
        assert!((up.y.value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn vec_heading() {
        let v = Vec2::new(0.0, 1.0);
        assert!((v.heading().value() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn vec_scaling() {
        assert_eq!(Vec2::new(1.0, -2.0) * 2.0, Vec2::new(2.0, -4.0));
    }

    #[test]
    fn aabb_from_corners_normalizes() {
        let b = Aabb::from_corners(Point2::new(2.0, -1.0), Point2::new(-2.0, 1.0));
        assert_eq!(b.min, Point2::new(-2.0, -1.0));
        assert_eq!(b.max, Point2::new(2.0, 1.0));
        assert_eq!(b.width(), Meters::new(4.0));
        assert_eq!(b.height(), Meters::new(2.0));
    }

    #[test]
    fn aabb_centered_and_contains() {
        // The paper's 1.2 x 1.2 m intersection box.
        let b = Aabb::centered(Point2::ORIGIN, Meters::new(1.2), Meters::new(1.2));
        assert!(b.contains(Point2::ORIGIN));
        assert!(b.contains(Point2::new(0.6, 0.6)));
        assert!(!b.contains(Point2::new(0.61, 0.0)));
    }

    #[test]
    fn aabb_intersection() {
        let a = Aabb::centered(Point2::ORIGIN, Meters::new(2.0), Meters::new(2.0));
        let b = Aabb::centered(Point2::new(1.5, 0.0), Meters::new(2.0), Meters::new(2.0));
        let c = Aabb::centered(Point2::new(4.0, 0.0), Meters::new(2.0), Meters::new(2.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching edges count as intersecting (conservative for safety).
        let d = Aabb::centered(Point2::new(2.0, 0.0), Meters::new(2.0), Meters::new(2.0));
        assert!(a.intersects(&d));
    }

    #[test]
    fn oriented_rect_axis_aligned_overlap() {
        let a = OrientedRect {
            center: Point2::ORIGIN,
            heading: Radians::new(0.0),
            length: Meters::new(2.0),
            width: Meters::new(1.0),
        };
        let near = OrientedRect {
            center: Point2::new(1.5, 0.0),
            ..a
        };
        let far = OrientedRect {
            center: Point2::new(2.5, 0.0),
            ..a
        };
        assert!(a.intersects(&near));
        assert!(near.intersects(&a));
        assert!(!a.intersects(&far));
    }

    #[test]
    fn oriented_rect_perpendicular_crossing() {
        use std::f64::consts::FRAC_PI_2;
        let ns = OrientedRect {
            center: Point2::ORIGIN,
            heading: Radians::new(FRAC_PI_2),
            length: Meters::new(2.0),
            width: Meters::new(0.5),
        };
        let ew = OrientedRect {
            center: Point2::new(0.0, 0.0),
            heading: Radians::new(0.0),
            length: Meters::new(2.0),
            width: Meters::new(0.5),
        };
        assert!(ns.intersects(&ew));
        // Shift the east-west one beyond the north-south one's half-width.
        let ew_clear = OrientedRect {
            center: Point2::new(1.3, 0.0),
            ..ew
        };
        assert!(!ns.intersects(&ew_clear));
    }

    #[test]
    fn oriented_rect_diagonal_near_miss() {
        use std::f64::consts::FRAC_PI_4;
        // Two unit squares whose AABBs overlap but whose rotated bodies
        // do not: SAT must distinguish them.
        let diag = OrientedRect {
            center: Point2::ORIGIN,
            heading: Radians::new(FRAC_PI_4),
            length: Meters::new(1.0),
            width: Meters::new(1.0),
        };
        let corner_probe = OrientedRect {
            center: Point2::new(0.95, 0.95),
            heading: Radians::new(0.0),
            length: Meters::new(0.6),
            width: Meters::new(0.6),
        };
        assert!(!diag.intersects(&corner_probe));
        let overlapping = OrientedRect {
            center: Point2::new(0.6, 0.6),
            ..corner_probe
        };
        assert!(diag.intersects(&overlapping));
    }

    #[test]
    fn oriented_rect_corners_are_consistent() {
        let r = OrientedRect {
            center: Point2::new(1.0, 2.0),
            heading: Radians::new(0.3),
            length: Meters::new(0.568),
            width: Meters::new(0.296),
        };
        let c = r.corners();
        // Diagonals meet at the center.
        let mid = Point2::new(
            (c[0].x.value() + c[2].x.value()) / 2.0,
            (c[0].y.value() + c[2].y.value()) / 2.0,
        );
        assert!(mid.distance_to(r.center).value() < 1e-12);
        // Edge lengths match.
        assert!((c[0].distance_to(c[1]).value() - 0.568).abs() < 1e-12);
        assert!((c[1].distance_to(c[2]).value() - 0.296).abs() < 1e-12);
    }

    #[test]
    fn aabb_inflate_models_safety_buffer() {
        let veh = Aabb::centered(Point2::ORIGIN, Meters::new(0.568), Meters::new(0.296));
        let buffered = veh.inflated(Meters::from_millis(78.0));
        assert!((buffered.width().value() - (0.568 + 0.156)).abs() < 1e-12);
        assert!(buffered.contains(Point2::new(0.3, 0.0)));
    }
}
