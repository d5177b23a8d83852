//! AIM — the query-based FCFS baseline (Dresner & Stone, Ch. 5.2).
//!
//! The vehicle proposes a time of arrival at its current speed; the IM
//! *simulates the trajectory* across a space-time tile grid and answers
//! yes or no. A rejected vehicle slows down and asks again — "in many
//! cases [it] comes to a complete stop". The repeated trajectory
//! simulation is AIM's computational burden (up to 16× Crossroads) and
//! the re-requests its network burden (up to 20×).

use std::collections::{HashMap, HashSet};

use crossroads_intersection::tiles::TileInterval;
use crossroads_intersection::{
    IntersectionGeometry, Movement, MovementPath, TileGrid, TileSchedule,
};
use crossroads_units::{Meters, Seconds, TimePoint};
use crossroads_vehicle::{EntryProgress, VehicleId, VehicleSpec};

use crate::buffer::BufferModel;
use crate::policy::{IntersectionPolicy, PolicyKind};
use crate::request::{CrossingCommand, CrossingRequest};
use crate::sim::safety::movement_paths;

/// How a proposed crossing enters the box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EntryMode {
    /// Hold this speed through the box (the classic AIM query).
    Constant(crossroads_units::MetersPerSecond),
    /// Enter at `entry_speed` while accelerating toward `v_max` (a
    /// standstill launch with a queue run-up).
    Launch {
        /// Speed at the box entry plane.
        entry_speed: crossroads_units::MetersPerSecond,
    },
}

/// One tile's coverage run in front-bumper progress space: while the
/// proposal's progress `f` lies in `[f_from, f_until]`, the (inflated)
/// buffered footprint covers `tile`. Precomputed per movement geometry;
/// combined with [`EntryProgress::window`] at decision time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TileBand {
    tile: usize,
    f_from: f64,
    f_until: f64,
}

/// Cache key for a movement's band table: every input of
/// [`build_tile_bands`] besides the policy's own grid. The table depends
/// on the movement path, the buffered footprint dimensions (bit-exact),
/// and how many progress samples the sweep takes, a count that reaches
/// past the exit to absorb the march's final-step overshoot. The
/// overshoot margin enters the sweep only through that count, so
/// proposals at nearby speeds share a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BandKey {
    movement: Movement,
    eff_bits: u64,
    width_bits: u64,
    samples: usize,
}

/// The AIM baseline.
pub struct AimPolicy {
    geometry: IntersectionGeometry,
    buffers: BufferModel,
    tiles: TileSchedule,
    /// One path per movement, indexed by [`Movement::index`].
    paths: [MovementPath; 12],
    reserved: HashSet<VehicleId>,
    /// Trajectory-simulation time step.
    sim_step: Seconds,
    /// Minimum lead the acceptance needs to reach the vehicle.
    response_margin: Seconds,
    /// Whether proposals are evaluated by the closed-form analytic
    /// kernel instead of the stepped march (see [`Self::with_analytic`]).
    analytic: bool,
    /// Precomputed tile ↔ progress-band tables for the analytic kernel.
    bands: HashMap<BandKey, Vec<TileBand>>,
    ops: u64,
    // Scratch buffers reused across decisions: the tiles covered at one
    // step, the request being assembled, and a tile → last-interval-index
    // map (`u32::MAX` = none) used to coalesce a tile's consecutive steps
    // into one interval.
    covered: Vec<usize>,
    intervals: Vec<TileInterval>,
    tile_last: Vec<u32>,
}

impl AimPolicy {
    /// Builds an AIM over an `n × n` tile grid.
    #[must_use]
    pub fn new(
        geometry: IntersectionGeometry,
        buffers: BufferModel,
        grid_side: usize,
        sim_step: Seconds,
    ) -> Self {
        assert!(sim_step.value() > 0.0, "simulation step must be positive");
        let grid = TileGrid::new(geometry.box_size, grid_side);
        AimPolicy {
            geometry,
            buffers,
            tiles: TileSchedule::new(grid),
            paths: movement_paths(&geometry),
            reserved: HashSet::new(),
            sim_step,
            response_margin: Seconds::from_millis(20.0),
            analytic: false,
            bands: HashMap::new(),
            ops: 0,
            covered: Vec::new(),
            intervals: Vec::new(),
            tile_last: Vec::new(),
        }
    }

    /// Selects the footprint kernel: `true` evaluates proposals with the
    /// closed-form analytic kernel ([`Self::propose_analytic`]), `false`
    /// (the default, and the seed behavior) with the stepped march
    /// ([`Self::propose_marched`]). The analytic tile set is a verified
    /// superset of the marched one, so flipping this never weakens the
    /// safety audit; it does change which exact intervals are reserved,
    /// hence simulation outputs are only byte-stable within one kernel.
    #[must_use]
    pub fn with_analytic(mut self, analytic: bool) -> Self {
        self.analytic = analytic;
        self
    }

    /// Read access to the tile ledger (audits).
    #[must_use]
    pub fn tiles(&self) -> &TileSchedule {
        &self.tiles
    }

    /// The space-time tiles computed by the last successful
    /// [`propose_marched`](Self::propose_marched) /
    /// [`propose_analytic`](Self::propose_analytic) call (differential
    /// tests and benches).
    #[must_use]
    pub fn footprint(&self) -> &[TileInterval] {
        &self.intervals
    }

    /// Evaluates the proposed crossing with the configured kernel,
    /// leaving the space-time tiles it would occupy in `self.intervals`
    /// (valid only when this returns `true`).
    fn simulate_trajectory(
        &mut self,
        movement: Movement,
        spec: &VehicleSpec,
        toa: TimePoint,
        entry: EntryMode,
    ) -> bool {
        if self.analytic {
            self.propose_analytic(movement, spec, toa, entry)
        } else {
            self.propose_marched(movement, spec, toa, entry)
        }
    }

    /// The seed's stepped trajectory march, kept alive as the test
    /// oracle for the analytic kernel. Simulates the proposed crossing,
    /// leaving the space-time tiles it would occupy in `self.intervals`
    /// (valid only when this returns `true`; read via
    /// [`footprint`](Self::footprint)). `entry` describes how the
    /// vehicle arrives: holding a constant speed (the classic AIM
    /// query), or launching — entering at `entry_speed` (momentum from
    /// its queue run-up) while still accelerating toward `v_max`.
    ///
    /// A tile revisited on consecutive steps extends its previous
    /// interval in place (via `self.tile_last`) instead of pushing a new
    /// one: each step's window is `[t − dt, t + 2dt)`, so successive
    /// visits overlap and the extension is the *exact union* of the
    /// per-step windows — the tile ledger sees the same occupied set,
    /// from a request of ~covered-tiles length instead of steps × tiles.
    pub fn propose_marched(
        &mut self,
        movement: Movement,
        spec: &VehicleSpec,
        toa: TimePoint,
        entry: EntryMode,
    ) -> bool {
        let eff = self.buffers.effective_length(PolicyKind::Aim, spec);
        let path = &self.paths[movement.index()];
        let total = self.geometry.path_length(movement) + eff;

        // Front-bumper progress as a function of time since entry.
        let Some(progress) = entry_progress(entry, spec) else {
            return false; // crawling proposal: not schedulable
        };

        let dt = self.sim_step.value();
        self.intervals.clear();
        self.tile_last.clear();
        self.tile_last
            .resize(self.tiles.grid().tile_count(), u32::MAX);
        let mut t = 0.0;
        // March until the rear (plus buffers) clears the box.
        loop {
            let f = progress.distance_at(Seconds::new(t)).value();
            let center_s = Meters::new(f - eff.value() / 2.0);
            let (pose, heading) = path.pose_at(center_s);
            self.tiles.grid().tiles_for_footprint_into(
                pose,
                heading,
                eff,
                spec.width,
                &mut self.covered,
            );
            self.ops += self.covered.len() as u64 + 1;
            let from = toa + Seconds::new(t - dt);
            let until = toa + Seconds::new(t + 2.0 * dt);
            for &tile in &self.covered {
                let slot = self.tile_last[tile];
                if slot != u32::MAX {
                    let prev = &mut self.intervals[slot as usize];
                    if prev.until >= from {
                        prev.until = until; // `until` grows with `t`
                        continue;
                    }
                }
                #[allow(clippy::cast_possible_truncation)]
                let next = self.intervals.len() as u32;
                self.tile_last[tile] = next;
                self.intervals.push(TileInterval { tile, from, until });
            }
            if f >= total.value() {
                return true;
            }
            t += dt;
            if t > 120.0 {
                return false; // defensive: proposal never clears the box
            }
        }
    }

    /// The closed-form analytic kernel: O(phases × covered tiles)
    /// instead of O(timesteps × tiles).
    ///
    /// The decision splits into geometry and time. Geometry — at which
    /// front-bumper progress values `f` the buffered footprint covers
    /// each tile — depends only on the movement path, the footprint
    /// dimensions and the grid, so it is precomputed once per
    /// `BandKey` by `build_tile_bands` (a conservative spatial sweep
    /// whose inflation makes each band a superset of the continuous
    /// coverage). Time is where the closed form does the work: the entry
    /// motion is piecewise-constant-acceleration, so
    /// [`EntryProgress::window`] inverts it exactly and each band maps
    /// to one `TileInterval` `[t_enter − dt, t_exit + 2dt)`.
    ///
    /// **Superset contract** (pinned by `tests/analytic_oracle.rs`):
    /// every marched sample that covers a tile has progress inside that
    /// tile's band and therefore sample time inside the analytic window,
    /// and each marched step only emits `[t − dt, t + 2dt)` — so the
    /// analytic intervals always cover the marched ones and the safety
    /// audit can never see fewer occupied tiles than the seed behavior.
    /// The accept/reject verdict also matches the march, including its
    /// defensive 120 s bail-out (mirrored on the same sample grid).
    pub fn propose_analytic(
        &mut self,
        movement: Movement,
        spec: &VehicleSpec,
        toa: TimePoint,
        entry: EntryMode,
    ) -> bool {
        let eff = self.buffers.effective_length(PolicyKind::Aim, spec);
        let total = self.geometry.path_length(movement) + eff;
        let dt = self.sim_step.value();

        let Some(prog) = entry_progress(entry, spec) else {
            return false; // crawling proposal: not schedulable
        };
        // The march succeeds at its first sample with f ≥ total and
        // bails out once t exceeds 120 s; mirror that verdict on the
        // same sample grid (the 1e-9 slack forgives the march's additive
        // accumulation of t when the crossing time lands on a sample).
        let t_total = prog.time_at(total).value();
        let clearing_sample = dt * (t_total / dt - 1e-9).ceil().max(0.0);
        if clearing_sample > 120.0 {
            return false; // defensive: proposal never clears the box
        }

        // Geometry: the movement's tile ↔ progress-band table, cached.
        // The sweep margin covers the march's final-step overshoot
        // (progress per step never exceeds top speed × dt); it reaches
        // the table only through the sample count, which keys it.
        let path = &self.paths[movement.index()];
        let grid = self.tiles.grid();
        let margin = prog.top_speed().value() * dt;
        let samples = band_samples(path, grid, eff, margin);
        let key = BandKey {
            movement,
            eff_bits: eff.value().to_bits(),
            width_bits: spec.width.value().to_bits(),
            samples,
        };
        let bands = self
            .bands
            .entry(key)
            .or_insert_with(|| build_tile_bands(path, grid, eff, spec.width, samples));

        // Time: one closed-form window per band.
        self.intervals.clear();
        for band in bands.iter() {
            let (t_enter, t_exit) =
                prog.window(Meters::new(band.f_from), Meters::new(band.f_until));
            self.intervals.push(TileInterval {
                tile: band.tile,
                from: toa + Seconds::new(t_enter.value() - dt),
                until: toa + Seconds::new(t_exit.value() + 2.0 * dt),
            });
        }
        self.ops += bands.len() as u64 + 1;
        true
    }
}

/// The closed-form progress curve of a proposal's box entry, or `None`
/// for a crawling constant-speed proposal (never schedulable).
fn entry_progress(entry: EntryMode, spec: &VehicleSpec) -> Option<EntryProgress> {
    match entry {
        EntryMode::Constant(v) => EntryProgress::constant(v),
        EntryMode::Launch { entry_speed } => Some(EntryProgress::launch(entry_speed, spec)),
    }
}

/// Progress between two band-sweep samples: an eighth of a tile side.
fn band_step(grid: &TileGrid) -> f64 {
    grid.tile_size().value() / 8.0
}

/// How many sample steps [`build_tile_bands`] takes to sweep front-bumper
/// progress over `[0, path + eff + margin]`. This count is the only way
/// the overshoot margin reaches the sweep.
fn band_samples(path: &MovementPath, grid: &TileGrid, eff: Meters, margin: f64) -> usize {
    let f_max = path.length().value() + eff.value() + margin;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let samples = (f_max / band_step(grid)).ceil() as usize;
    samples
}

/// Builds a movement's tile ↔ progress-band table: for each tile, the
/// (possibly several) runs of front-bumper progress `f` over which the
/// buffered footprint covers it, swept at `f = i·ds` for `i ∈ [0,
/// samples]` (see [`band_samples`]).
///
/// The sweep samples every `ds = tile_size / 8` of progress and inflates
/// the footprint so that the discrete samples *over*-cover the
/// continuous motion: between two samples the footprint's center moves
/// at most `ds / 2` along the path and its heading rotates at most
/// `ds / 2 × max_curvature`, so every point of the exact rectangle at an
/// intermediate `f` lies within `pad = ds × (1 + half_diagonal ×
/// curvature)` of the inflated rectangle at the nearest sample (twice
/// the displacement bound). Covered runs are additionally widened by
/// `ds` on each side. The result is a strict superset of the tiles the
/// exact footprint (and hence any march over it) covers at every `f` in
/// range — the bounded slack the oracle suite asserts.
fn build_tile_bands(
    path: &MovementPath,
    grid: &TileGrid,
    eff: Meters,
    width: Meters,
    samples: usize,
) -> Vec<TileBand> {
    let ds = band_step(grid);
    // Inflation pad: fixed-point on the (pad-dependent) half diagonal,
    // starting from the translation-only bound.
    let kappa = path.max_curvature();
    let mut pad = 2.0 * ds;
    for _ in 0..3 {
        let half_diag = 0.5 * f64::hypot(eff.value() + 2.0 * pad, width.value() + 2.0 * pad);
        pad = ds * (1.0 + half_diag * kappa);
    }
    let len_inflated = Meters::new(eff.value() + 2.0 * pad);
    let width_inflated = Meters::new(width.value() + 2.0 * pad);

    let mut bands: Vec<TileBand> = Vec::new();
    let mut band_last: Vec<u32> = vec![u32::MAX; grid.tile_count()];
    let mut covered: Vec<usize> = Vec::new();
    for i in 0..=samples {
        #[allow(clippy::cast_precision_loss)]
        let f = (i as f64) * ds;
        let center_s = Meters::new(f - eff.value() / 2.0);
        let (pose, heading) = path.pose_at(center_s);
        grid.tiles_for_footprint_into(pose, heading, len_inflated, width_inflated, &mut covered);
        let (f_from, f_until) = (f - ds, f + ds);
        for &tile in &covered {
            let slot = band_last[tile];
            if slot != u32::MAX {
                let prev = &mut bands[slot as usize];
                if prev.f_until >= f_from {
                    prev.f_until = f_until; // consecutive samples merge
                    continue;
                }
            }
            #[allow(clippy::cast_possible_truncation)]
            let next = bands.len() as u32;
            band_last[tile] = next;
            bands.push(TileBand {
                tile,
                f_from,
                f_until,
            });
        }
    }
    bands
}

impl IntersectionPolicy for AimPolicy {
    fn decide(&mut self, request: &CrossingRequest, now: TimePoint) -> CrossingCommand {
        let Some(toa) = request.proposed_arrival else {
            return CrossingCommand::AimReject; // malformed AIM request
        };
        if self.reserved.remove(&request.vehicle) {
            // A re-request from a vehicle we already admitted: its state
            // changed (or a duplicate crossed its response). Release the
            // stale reservation and evaluate the new proposal from scratch.
            self.tiles.release(request.vehicle);
        }
        if toa < now + self.response_margin {
            return CrossingCommand::AimReject; // acceptance could not land in time
        }
        let entry = if request.stopped {
            // The vehicle launches from its reported queue setback and
            // enters with whatever momentum the run-up provides.
            let entry_speed = crate::policy::common::reachable_speed(
                crossroads_units::MetersPerSecond::ZERO,
                &request.spec,
                request.distance_to_intersection,
            );
            EntryMode::Launch { entry_speed }
        } else {
            EntryMode::Constant(request.speed)
        };
        if !self.simulate_trajectory(request.movement, &request.spec, toa, entry) {
            return CrossingCommand::AimReject;
        }
        if let Some(platoon) = request.platoon_shape() {
            // PAIM: one reservation covers the column. Each follower's
            // footprint is the leader's shifted by `i × offset`, so
            // extending every tile interval's `until` by the full span is
            // a conservative superset of the union of shifted footprints.
            let offset = match entry {
                EntryMode::Constant(v) => platoon.cruise_offset(v),
                EntryMode::Launch { .. } => platoon.launch_offset(&request.spec),
            };
            let span = platoon.span(offset);
            for iv in &mut self.intervals {
                iv.until += span;
            }
        }
        if self.tiles.try_reserve(request.vehicle, &self.intervals) {
            self.reserved.insert(request.vehicle);
            CrossingCommand::AimAccept { arrival: toa }
        } else {
            CrossingCommand::AimReject
        }
    }

    fn on_exit(&mut self, vehicle: VehicleId, now: TimePoint) {
        self.tiles.release(vehicle);
        self.reserved.remove(&vehicle);
        self.tiles.prune_before(now);
    }

    fn ops(&self) -> u64 {
        self.ops
    }

    fn prune(&mut self, now: TimePoint) {
        self.tiles.prune_before(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_intersection::{Approach, Turn};
    use crossroads_units::MetersPerSecond;

    fn policy() -> AimPolicy {
        AimPolicy::new(
            IntersectionGeometry::scale_model(),
            BufferModel::scale_model(),
            8,
            Seconds::from_millis(20.0),
        )
    }

    fn request(v: u32, approach: Approach, toa: f64) -> CrossingRequest {
        CrossingRequest {
            vehicle: VehicleId(v),
            movement: Movement::new(approach, Turn::Straight),
            spec: crossroads_vehicle::VehicleSpec::scale_model(),
            transmitted_at: TimePoint::ZERO,
            distance_to_intersection: Meters::new(3.0),
            speed: MetersPerSecond::new(1.5),
            stopped: false,
            attempt: 1,
            proposed_arrival: Some(TimePoint::new(toa)),
            platoon_followers: 0,
            platoon_gap: Meters::ZERO,
        }
    }

    #[test]
    fn free_box_accepts_first_proposal() {
        let mut p = policy();
        let cmd = p.decide(&request(1, Approach::South, 2.0), TimePoint::ZERO);
        assert_eq!(
            cmd,
            CrossingCommand::AimAccept {
                arrival: TimePoint::new(2.0)
            }
        );
    }

    #[test]
    fn conflicting_simultaneous_proposal_rejected() {
        let mut p = policy();
        assert!(p
            .decide(&request(1, Approach::South, 2.0), TimePoint::ZERO)
            .is_acceptance());
        let cmd = p.decide(&request(2, Approach::East, 2.0), TimePoint::ZERO);
        assert_eq!(cmd, CrossingCommand::AimReject);
    }

    #[test]
    fn opposing_straights_cross_together() {
        let mut p = policy();
        assert!(p
            .decide(&request(1, Approach::South, 2.0), TimePoint::ZERO)
            .is_acceptance());
        // North straight uses disjoint tiles.
        assert!(p
            .decide(&request(2, Approach::North, 2.0), TimePoint::ZERO)
            .is_acceptance());
    }

    #[test]
    fn rejected_vehicle_accepted_later() {
        let mut p = policy();
        assert!(p
            .decide(&request(1, Approach::South, 2.0), TimePoint::ZERO)
            .is_acceptance());
        assert!(!p
            .decide(&request(2, Approach::East, 2.0), TimePoint::ZERO)
            .is_acceptance());
        // Re-request proposing a later arrival: the box has cleared.
        assert!(p
            .decide(&request(2, Approach::East, 4.0), TimePoint::new(0.5))
            .is_acceptance());
    }

    #[test]
    fn proposal_too_close_to_now_rejected() {
        let mut p = policy();
        let cmd = p.decide(&request(1, Approach::South, 0.005), TimePoint::ZERO);
        assert_eq!(cmd, CrossingCommand::AimReject);
    }

    #[test]
    fn same_lane_proposals_serialize_via_entry_tiles() {
        // Lane ordering is enforced physically by the simulator (a
        // follower cannot transmit past an unscheduled leader); the policy
        // itself still prevents *overlapping* same-lane crossings because
        // both sweep the entry tiles.
        let mut p = policy();
        assert!(p
            .decide(&request(1, Approach::South, 2.0), TimePoint::ZERO)
            .is_acceptance());
        let tailgate = p.decide(&request(2, Approach::South, 2.1), TimePoint::ZERO);
        assert_eq!(tailgate, CrossingCommand::AimReject);
        // With a body-clearing headway the follower is admitted.
        assert!(p
            .decide(&request(2, Approach::South, 3.5), TimePoint::new(0.2))
            .is_acceptance());
    }

    #[test]
    fn duplicate_request_is_idempotent() {
        let mut p = policy();
        assert!(p
            .decide(&request(1, Approach::South, 2.0), TimePoint::ZERO)
            .is_acceptance());
        let again = p.decide(&request(1, Approach::South, 2.0), TimePoint::new(0.1));
        assert!(again.is_acceptance());
    }

    #[test]
    fn standstill_launch_simulates_acceleration() {
        let mut p = policy();
        let mut req = request(1, Approach::South, 2.0);
        req.stopped = true;
        req.speed = MetersPerSecond::ZERO;
        req.distance_to_intersection = Meters::ZERO;
        assert!(p.decide(&req, TimePoint::ZERO).is_acceptance());
        // Its tiles span the slow launch: total reserved tile-seconds
        // exceed a fast cruise's (interval *counts* are coalescing
        // artifacts; the occupied span is the physical quantity).
        let launch_span = p.tiles().reserved_span();
        p.on_exit(VehicleId(1), TimePoint::new(10.0));
        // Compare against a top-speed cruise, which clears the box much
        // faster and therefore occupies tiles for less total time.
        let mut p2 = policy();
        let mut fast = request(2, Approach::South, 2.0);
        fast.speed = MetersPerSecond::new(3.0);
        assert!(p2.decide(&fast, TimePoint::ZERO).is_acceptance());
        assert!(launch_span > p2.tiles().reserved_span());
    }

    #[test]
    fn exit_releases_tiles_and_order() {
        let mut p = policy();
        assert!(p
            .decide(&request(1, Approach::South, 2.0), TimePoint::ZERO)
            .is_acceptance());
        assert!(p.tiles().reserved_intervals() > 0);
        p.on_exit(VehicleId(1), TimePoint::new(5.0));
        assert_eq!(p.tiles().reserved_intervals(), 0);
        assert!(!p.reserved.contains(&VehicleId(1)));
    }

    #[test]
    fn ops_grow_with_each_simulation() {
        let mut p = policy();
        let _ = p.decide(&request(1, Approach::South, 2.0), TimePoint::ZERO);
        let after_one = p.ops();
        assert!(after_one > 10, "trajectory simulation is tile-heavy");
        let _ = p.decide(&request(2, Approach::East, 2.0), TimePoint::ZERO);
        assert!(p.ops() > after_one);
    }

    #[test]
    fn distinct_cruise_speeds_share_a_few_band_tables() {
        // The sweep margin is the proposal's top speed × dt, so only
        // ⌈v_max·dt / ds⌉ + 1 distinct sample counts can key a cruise.
        let mut p = policy().with_analytic(true);
        let spec = VehicleSpec::scale_model();
        let movement = Movement::new(Approach::North, Turn::Left);
        for i in 0..1000 {
            let v = spec.v_max * (0.1 + 0.9 * f64::from(i + 1) / 1000.0);
            let entry = EntryMode::Constant(v);
            assert!(p.propose_analytic(movement, &spec, TimePoint::new(5.0), entry));
        }
        let ds = band_step(p.tiles.grid());
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let bound = (spec.v_max.value() * p.sim_step.value() / ds).ceil() as usize + 1;
        assert!(
            p.bands.len() <= bound,
            "{} cruise tables cached, bound {bound}",
            p.bands.len()
        );
    }

    #[test]
    fn missing_proposal_rejected() {
        let mut p = policy();
        let mut req = request(1, Approach::South, 2.0);
        req.proposed_arrival = None;
        assert_eq!(p.decide(&req, TimePoint::ZERO), CrossingCommand::AimReject);
    }
}
