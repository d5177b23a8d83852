//! Runtime safety filter for mixed (non-compliant) traffic.
//!
//! The policies' correctness argument assumes every vehicle executes its
//! granted profile exactly. Under mixed traffic that assumption breaks:
//! humans cross by gap acceptance without ever talking to the IM, faulty
//! vehicles mis-execute their grants, and emergency vehicles preempt the
//! box outright. This module is the policy-agnostic runtime monitor that
//! restores the safety invariant: it keeps a registry of every *committed*
//! crossing envelope (the executed [`BoxOccupancy`] each vehicle will
//! actually trace through the box) and checks each new commitment against
//! it with the same pairwise solver the post-run safety audit uses
//! ([`check_pair`]) — the closed-form gap test for same-movement straight
//! pairs, and for everything else the audit's skipping contact march,
//! which steps over the 5 ms samples that provably cannot touch and
//! returns the plain march's verdict bit for bit.
//!
//! Two asymmetries keep the filter free of false positives:
//!
//! - A **managed** candidate is only checked against *non-compliant*
//!   envelopes. Managed-managed separation is the policy's own invariant
//!   (reservation windows / tiles), so re-checking it could only disagree
//!   with the policy through margin differences — and a filter that
//!   second-guesses the policy it protects would perturb fully-compliant
//!   runs. Consequence: with pure managed traffic no check can fail, so
//!   a world builds the filter only with mixed traffic on, and arming it
//!   alone ([`SAFETY_FILTER_ENV`](crate::sim::SAFETY_FILTER_ENV)) leaves
//!   every output byte-identical.
//! - A **non-compliant** candidate (a human or emergency vehicle picking
//!   its crossing instant) is checked against *every* envelope — nobody
//!   vouches for it, so it must prove its window clear against all
//!   committed traffic.
//!
//! Each intersection's world owns one filter, so every envelope is
//! registered and queried at the box it crosses, and both corridor
//! engines see the identical registry state at the same dispatch.

use crossroads_intersection::MovementPath;
use crossroads_units::{Meters, TimePoint};
use crossroads_vehicle::{VehicleId, VehicleSpec};

use crate::sim::safety::{check_pair, movement_paths, BoxOccupancy};
use crate::sim::SimConfig;

/// One committed crossing in the registry.
struct Envelope {
    occ: BoxOccupancy,
    /// Whether the vehicle tracing this envelope is outside the managed
    /// protocol (humans, faulty executors, emergency vehicles). Managed
    /// candidates are only checked against envelopes with this flag set.
    noncompliant: bool,
}

/// The runtime monitor: the registry of committed crossing envelopes at
/// one box, plus the cached path geometry the pairwise solver needs.
pub(crate) struct SafetyFilter {
    paths: [MovementPath; 12],
    spec: VehicleSpec,
    /// Clearance margin for the conflict checks — the sensing envelope
    /// `e_long` of the buffer model, the same physical uncertainty the
    /// policies already budget for.
    margin: Meters,
    /// Whether the filter may veto/override commitments. `false` keeps
    /// the registry maintained (humans still need it to judge gaps) but
    /// lets every granted downlink through unchecked — the unprotected
    /// configuration the adversarial tests use to show the filter is
    /// load-bearing.
    veto: bool,
    envelopes: Vec<Envelope>,
}

impl SafetyFilter {
    /// Builds the monitor for one intersection.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        SafetyFilter {
            paths: movement_paths(&cfg.geometry),
            spec: cfg.spec,
            margin: cfg.buffers.e_long,
            veto: cfg.safety_filter,
            envelopes: Vec::new(),
        }
    }

    /// Whether vetoes/overrides are armed (see [`Self::veto`]).
    pub(crate) fn vetoes(&self) -> bool {
        self.veto
    }

    /// Registers a committed crossing envelope, replacing any earlier
    /// commitment by the same vehicle (a vetoed vehicle re-requests and
    /// commits again). Envelopes whose windows have fully expired are
    /// pruned on the way in, so the registry tracks the working set of the
    /// box rather than the whole run.
    pub(crate) fn register(&mut self, occ: BoxOccupancy, noncompliant: bool, now: TimePoint) {
        let v = occ.vehicle;
        self.envelopes
            .retain(|e| e.occ.exited >= now && e.occ.vehicle != v);
        self.envelopes.push(Envelope { occ, noncompliant });
    }

    /// Drops `v`'s envelope (its commitment was overridden).
    pub(crate) fn remove(&mut self, v: VehicleId) {
        self.envelopes.retain(|e| e.occ.vehicle != v);
    }

    /// First registered envelope that conflicts with the candidate
    /// crossing `cand`. A managed candidate (`check_all == false`) is
    /// tested against non-compliant envelopes only; a non-compliant
    /// candidate (`check_all == true`) against all of them. The
    /// candidate's own vehicle is always skipped.
    pub(crate) fn first_conflict(&self, cand: &BoxOccupancy, check_all: bool) -> Option<VehicleId> {
        self.envelopes
            .iter()
            .filter(|e| check_all || e.noncompliant)
            .filter(|e| e.occ.vehicle != cand.vehicle)
            .find(|e| check_pair(cand, &e.occ, &self.paths, &self.spec, self.margin).is_some())
            .map(|e| e.occ.vehicle)
    }

    /// Every registered vehicle whose envelope conflicts with the
    /// candidate crossing, written into `out` (cleared first) — the
    /// emergency-preemption path partitions these into overridable and
    /// hard conflicts.
    pub(crate) fn conflicts_into(&self, cand: &BoxOccupancy, out: &mut Vec<VehicleId>) {
        out.clear();
        out.extend(
            self.envelopes
                .iter()
                .filter(|e| e.occ.vehicle != cand.vehicle)
                .filter(|e| {
                    check_pair(cand, &e.occ, &self.paths, &self.spec, self.margin).is_some()
                })
                .map(|e| e.occ.vehicle),
        );
    }
}
