//! Closed-form progress kernels for the AIM trajectory simulator.
//!
//! AIM admits a crossing by sweeping the vehicle's buffered footprint
//! through the box and reserving every space-time tile it covers. The
//! seed implementation marches that sweep in `sim_step` increments —
//! O(timesteps × tiles) per decision. The entry motions AIM actually
//! simulates are tiny piecewise-constant-acceleration curves (hold a
//! speed, or launch toward `v_max` and cruise), so the sweep has a closed
//! form: [`EntryProgress`] models the motion exactly and
//! [`EntryProgress::window`] inverts it, returning the exact time window
//! `[t_enter, t_exit]` during which the front-bumper progress lies inside
//! a band `[s_from, s_until]` of path positions. The AIM policy combines
//! those windows with a precomputed tile ↔ progress-band table to emit
//! tile intervals in O(covered tiles) — the marched implementation stays
//! alive as the differential-test oracle (`propose_marched`).
//!
//! The marched kernel samples the same curve through `distance_at`, so
//! the only differences the oracle suite may observe are the march's own
//! discretization.

use crossroads_units::kinematics;
use crossroads_units::{Meters, MetersPerSecond, Seconds};

use crate::spec::VehicleSpec;

/// Proposals slower than this crawl floor are not schedulable (matches
/// the marched kernel's rejection of `Constant` entries at ≤ 1 µm/s).
pub const CRAWL_FLOOR: f64 = 1e-6;

/// A monotone closed-form progress curve for one AIM box entry: front
/// bumper distance past the box entry plane as a function of time since
/// entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EntryProgress {
    /// Hold one speed through the box (the classic AIM query).
    Constant {
        /// The held speed; strictly above [`CRAWL_FLOOR`].
        speed: f64,
    },
    /// Accelerate from the entry speed toward `v_max`, then cruise — a
    /// standstill launch with whatever momentum the queue run-up gave.
    Launch {
        /// Speed at the entry plane, clamped to `[0, v_max]`.
        v0: f64,
        /// Acceleration applied until `v_max` (the spec's `a_max`).
        a: f64,
        /// Cruise speed after the acceleration phase (the spec's `v_max`).
        vm: f64,
        /// Duration of the acceleration phase, `(vm − v0) / a`.
        t_acc: f64,
        /// Distance covered during the acceleration phase.
        d_acc: f64,
    },
}

impl EntryProgress {
    /// A constant-speed entry, or `None` for a crawling proposal at or
    /// below [`CRAWL_FLOOR`] (never schedulable — it would occupy its
    /// entry tiles forever).
    #[must_use]
    pub fn constant(speed: MetersPerSecond) -> Option<Self> {
        if speed.value() > CRAWL_FLOOR {
            Some(EntryProgress::Constant {
                speed: speed.value(),
            })
        } else {
            None
        }
    }

    /// A launch entry: cross the entry plane at `entry_speed` while
    /// accelerating at `spec.a_max` toward `spec.v_max`, then cruise.
    #[must_use]
    pub fn launch(entry_speed: MetersPerSecond, spec: &VehicleSpec) -> Self {
        let (a, vm) = (spec.a_max.value(), spec.v_max.value());
        let v0 = entry_speed.value().clamp(0.0, vm);
        let t_acc = (vm - v0) / a;
        let d_acc = v0 * t_acc + 0.5 * a * t_acc * t_acc;
        EntryProgress::Launch {
            v0,
            a,
            vm,
            t_acc,
            d_acc,
        }
    }

    /// The curve's top speed — the cruise speed it reaches (or holds from
    /// the start). Bounds the progress any one `sim_step` can make.
    #[must_use]
    pub fn top_speed(&self) -> MetersPerSecond {
        match *self {
            EntryProgress::Constant { speed } => MetersPerSecond::new(speed),
            EntryProgress::Launch { vm, .. } => MetersPerSecond::new(vm),
        }
    }

    /// Front-bumper progress `t` seconds after entry (the marched
    /// kernel's sample at `t`).
    #[must_use]
    pub fn distance_at(&self, t: Seconds) -> Meters {
        let t = t.value();
        Meters::new(match *self {
            EntryProgress::Constant { speed } => speed * t,
            EntryProgress::Launch {
                v0,
                a,
                vm,
                t_acc,
                d_acc,
            } => {
                if t < t_acc {
                    v0 * t + 0.5 * a * t * t
                } else {
                    d_acc + vm * (t - t_acc)
                }
            }
        })
    }

    /// Earliest time (≥ 0) at which the progress reaches `s`; 0 for
    /// `s ≤ 0`. Total crossing time is `time_at(path_length + eff)`.
    ///
    /// Both entry shapes end in a strictly positive cruise, so every
    /// distance is eventually reached — the inversion is total.
    #[must_use]
    pub fn time_at(&self, s: Meters) -> Seconds {
        let s = s.value();
        if s <= 0.0 {
            return Seconds::ZERO;
        }
        match *self {
            EntryProgress::Constant { speed } => Seconds::new(s / speed),
            EntryProgress::Launch {
                v0,
                a,
                vm,
                t_acc,
                d_acc,
            } => {
                if s <= d_acc {
                    // Quadratic segment; a > 0 and s ≥ 0 keep the
                    // discriminant non-negative, so the root exists.
                    kinematics::first_time_at_distance(
                        MetersPerSecond::new(v0),
                        crossroads_units::MetersPerSecondSquared::new(a),
                        Meters::new(s),
                    )
                    .expect("accelerating segment reaches every s in [0, d_acc]")
                } else {
                    Seconds::new(t_acc + (s - d_acc) / vm)
                }
            }
        }
    }

    /// Exact occupancy window of the progress band `[s_from, s_until]`:
    /// the times at which the front bumper enters and leaves the band,
    /// clamped at entry (`t = 0`). This is the analytic replacement for
    /// marching through the band one `sim_step` at a time: any march
    /// sample whose progress lies inside the band has its sample time
    /// inside the window.
    #[must_use]
    pub fn window(&self, s_from: Meters, s_until: Meters) -> (Seconds, Seconds) {
        (self.time_at(s_from), self.time_at(s_until))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> VehicleSpec {
        VehicleSpec::scale_model()
    }

    #[test]
    fn constant_rejects_crawl() {
        assert!(EntryProgress::constant(MetersPerSecond::new(1e-7)).is_none());
        assert!(EntryProgress::constant(MetersPerSecond::ZERO).is_none());
        assert!(EntryProgress::constant(MetersPerSecond::new(0.5)).is_some());
    }

    #[test]
    fn constant_progress_and_inverse() {
        let p = EntryProgress::constant(MetersPerSecond::new(1.5)).unwrap();
        assert_eq!(p.distance_at(Seconds::new(2.0)), Meters::new(3.0));
        assert_eq!(p.time_at(Meters::new(3.0)), Seconds::new(2.0));
        assert_eq!(p.time_at(Meters::new(-1.0)), Seconds::ZERO);
    }

    #[test]
    fn launch_matches_accel_then_cruise() {
        // Scale model: a_max = 2, v_max = 3. From rest: t_acc = 1.5 s,
        // d_acc = 2.25 m.
        let p = EntryProgress::launch(MetersPerSecond::ZERO, &spec());
        assert_eq!(p.distance_at(Seconds::new(1.0)), Meters::new(1.0));
        assert_eq!(p.distance_at(Seconds::new(1.5)), Meters::new(2.25));
        assert_eq!(p.distance_at(Seconds::new(2.5)), Meters::new(5.25));
        // Inversion round-trips both segments.
        for s in [0.1, 1.0, 2.25, 4.0, 9.0] {
            let t = p.time_at(Meters::new(s));
            assert!(
                (p.distance_at(t).value() - s).abs() < 1e-12,
                "round trip at {s}"
            );
        }
    }

    #[test]
    fn launch_clamps_entry_speed() {
        let p = EntryProgress::launch(MetersPerSecond::new(99.0), &spec());
        // Already at v_max: pure cruise.
        assert_eq!(p.distance_at(Seconds::new(2.0)), Meters::new(6.0));
        assert_eq!(p.time_at(Meters::new(6.0)), Seconds::new(2.0));
    }

    #[test]
    fn window_brackets_band() {
        let p = EntryProgress::launch(MetersPerSecond::new(1.0), &spec());
        let (t_in, t_out) = p.window(Meters::new(0.5), Meters::new(2.0));
        assert!(t_in < t_out);
        assert!((p.distance_at(t_in).value() - 0.5).abs() < 1e-12);
        assert!((p.distance_at(t_out).value() - 2.0).abs() < 1e-12);
        // Bands starting before the entry plane clamp to t = 0.
        let (t0, _) = p.window(Meters::new(-0.3), Meters::new(1.0));
        assert_eq!(t0, Seconds::ZERO);
    }
}
