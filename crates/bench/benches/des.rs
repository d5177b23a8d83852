//! DES engine hot paths: the event queue against the seed's
//! `BinaryHeap` queue, and the sweep-pruned safety audit with its
//! skipping contact march against the exhaustive pairwise reference with
//! the plain march.
//!
//! Before any timing, the bench **hard-asserts** engine-vs-seed
//! agreement on randomized workloads — pop transcripts, with and
//! without a start-schedule prologue (which the seed queue schedules up
//! front), audit verdicts and contact instants
//! (scale-model constant-speed traffic, and full-scale multi-phase
//! traffic at margins 0 and `e_long`).
//! The timing loops run only when cargo passes `--bench`, as `cargo
//! bench --bench des` does. `ci.sh` runs `cargo test --bench des`, which
//! keeps those gates and skips the timing loops, so every CI pass
//! re-proves the rewritten engine and contact kernel behave exactly like
//! the seed.
//!
//! Self-timed (`harness = false`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crossroads_bench::timing::{bench, bench_table_header};
use crossroads_core::sim::{BoxOccupancy, SafetyReport};
use crossroads_core::BufferModel;
use crossroads_des::EventQueue;
use crossroads_intersection::{IntersectionGeometry, Movement};
use crossroads_prng::{Rng, SeedableRng, StdRng};
use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{SpeedProfile, VehicleId, VehicleSpec};

// ---------------------------------------------------------------------
// The seed's event queue as the bench baseline: a max-heap of inverted
// (time, seq) entries holding the payloads. The seed also kept a `live`
// tombstone set for cancellation; nothing cancels, so it is left out.
// ---------------------------------------------------------------------

struct SeedEntry<E> {
    at: TimePoint,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for SeedEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for SeedEntry<E> {}

impl<E> Ord for SeedEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .partial_cmp(&self.at)
            .expect("event timestamps are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for SeedEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct SeedQueue<E> {
    heap: BinaryHeap<SeedEntry<E>>,
    next_seq: u64,
}

impl<E> SeedQueue<E> {
    fn new() -> Self {
        SeedQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: TimePoint, payload: E) {
        assert!(at.is_finite(), "event timestamp must be finite, got {at}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(SeedEntry { at, seq, payload });
    }

    fn pop(&mut self) -> Option<(TimePoint, E)> {
        self.heap.pop().map(|entry| (entry.at, entry.payload))
    }
}

// ---------------------------------------------------------------------
// Randomized queue workloads, replayed identically on both queues.
// ---------------------------------------------------------------------

/// One queue operation.
#[derive(Clone, Copy)]
enum Op {
    Schedule(f64),
    Pop,
}

/// A reproducible interleaving, half schedules and half pops.
fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < 0.5 {
                Op::Schedule(rng.gen_range(0.0..1e4))
            } else {
                Op::Pop
            }
        })
        .collect()
}

/// `ops` with every scheduled time snapped down to a 250 s grid, so
/// they tie with each other and with a [`gen_prologue`] start schedule.
fn snap_to_grid(ops: &[Op]) -> Vec<Op> {
    ops.iter()
        .map(|&op| match op {
            Op::Schedule(at) => Op::Schedule((at / 250.0).floor() * 250.0),
            Op::Pop => Op::Pop,
        })
        .collect()
}

/// `n` start-event times on the same 250 s grid, in random order.
fn gen_prologue(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen_range(0.0..1e4) / 250.0).floor() * 250.0)
        .collect()
}

/// Replays `ops` on the queue, built with `prologue` as its start
/// schedule (payloads `0..prologue.len()`), returning the pop transcript
/// (time bits + payload).
fn run_queue(prologue: &[f64], ops: &[Op]) -> Vec<(u64, usize)> {
    let mut q: EventQueue<usize> = EventQueue::with_prologue(
        prologue
            .iter()
            .zip(0usize..)
            .map(|(&at, e)| (TimePoint::new(at), e)),
    );
    let mut payload = prologue.len();
    let mut pops = Vec::new();
    for &op in ops {
        match op {
            Op::Schedule(at) => {
                q.schedule(TimePoint::new(at), payload);
                payload += 1;
            }
            Op::Pop => {
                if let Some((at, e)) = q.pop() {
                    pops.push((at.value().to_bits(), e));
                }
            }
        }
    }
    while let Some((at, e)) = q.pop() {
        pops.push((at.value().to_bits(), e));
    }
    pops
}

/// Replays `ops` on the seed queue after scheduling `prologue` up
/// front; same transcript shape.
fn run_seed(prologue: &[f64], ops: &[Op]) -> Vec<(u64, usize)> {
    let mut q: SeedQueue<usize> = SeedQueue::new();
    for (e, &at) in prologue.iter().enumerate() {
        q.schedule(TimePoint::new(at), e);
    }
    let mut payload = prologue.len();
    let mut pops = Vec::new();
    for &op in ops {
        match op {
            Op::Schedule(at) => {
                q.schedule(TimePoint::new(at), payload);
                payload += 1;
            }
            Op::Pop => {
                if let Some((at, e)) = q.pop() {
                    pops.push((at.value().to_bits(), e));
                }
            }
        }
    }
    while let Some((at, e)) = q.pop() {
        pops.push((at.value().to_bits(), e));
    }
    pops
}

/// The correctness gate: on many randomized schedule/pop interleavings,
/// the queue's pop transcript must equal the seed's, both from an empty
/// queue and from a start-schedule prologue whose times tie with each
/// other and with the scheduled events.
fn assert_queue_agreement() {
    for seed in 0..32u64 {
        #[allow(clippy::cast_possible_truncation)]
        let cases = [
            (Vec::new(), gen_ops(seed, 400)),
            (
                gen_prologue(seed, 8 * (seed as usize + 1)),
                snap_to_grid(&gen_ops(seed + 1000, 400)),
            ),
        ];
        for (prologue, ops) in &cases {
            let n = prologue.len();
            assert_eq!(
                run_queue(prologue, ops),
                run_seed(prologue, ops),
                "pop transcript diverged from the seed queue (seed {seed}, prologue {n})"
            );
        }
    }
    let prologue = drain_start_schedule(true);
    let upfront = drain_start_schedule(false);
    assert_eq!(
        prologue, upfront,
        "the start-schedule drain diverged between prologue and up-front scheduling"
    );
    println!(
        "queue agreement: queue == seed on 32 randomized interleavings \
         and 32 with a prologue; start-schedule drain: {} events, \
         at most {} follow-ups live",
        prologue.events, prologue.max_live
    );
}

// ---------------------------------------------------------------------
// The simulator's start-schedule shape.
// ---------------------------------------------------------------------

/// Line crossings in perfbench's `mixed` workload (per policy run).
const START_CROSSINGS: u32 = 16_000;
/// IM outage windows in the same run; each is a crash and a restart.
const START_OUTAGES: u32 = 4_053;
/// Follow-up events each crossing chains, `CHAIN_GAP` apart.
const CHAIN: u32 = 12;
const CHAIN_GAP: f64 = 6.5;

/// A 128-byte event, the size bound of the simulator's `Event`.
#[derive(Clone, Copy)]
struct Token {
    /// Follow-ups still to chain after this event.
    left: u32,
    /// Whether this is a start event rather than a follow-up.
    start: bool,
    _body: [u64; 15],
}

/// The start schedule in schedule order: sorted line crossings about a
/// second apart, then sorted crash/restart pairs over the same span.
fn start_schedule() -> impl Iterator<Item = (TimePoint, Token)> {
    let mut rng = StdRng::seed_from_u64(17);
    let mut t = 0.0;
    let crossings = (0..START_CROSSINGS).map(move |_| {
        t += rng.gen_range(0.0..2.0);
        (TimePoint::new(t), CHAIN)
    });
    let outages = (0..START_OUTAGES).flat_map(|j| {
        let crash = f64::from(j) * 4.0 + 1.0;
        [(crash, 0), (crash + 1.5, 0)].map(|(at, left)| (TimePoint::new(at), left))
    });
    crossings.chain(outages).map(|(at, left)| {
        (
            at,
            Token {
                left,
                start: true,
                _body: [0; 15],
            },
        )
    })
}

/// What one drain of the start schedule saw.
#[derive(Debug, PartialEq)]
struct Drained {
    events: u64,
    /// Sum of the popped times' bit patterns: a cheap transcript digest.
    digest: u64,
    /// Most follow-up events queued at once.
    max_live: u32,
}

/// Drains the start schedule, each crossing chaining [`CHAIN`]
/// follow-ups, with the start events in a prologue or scheduled up
/// front.
fn drain_start_schedule(prologue: bool) -> Drained {
    let mut q = if prologue {
        EventQueue::with_prologue(start_schedule())
    } else {
        let mut q = EventQueue::new();
        for (at, token) in start_schedule() {
            q.schedule(at, token);
        }
        q
    };
    let mut out = Drained {
        events: 0,
        digest: 0,
        max_live: 0,
    };
    let mut live = 0u32;
    while let Some((at, token)) = q.pop() {
        out.events += 1;
        out.digest = out.digest.wrapping_add(at.value().to_bits());
        if !token.start {
            live -= 1;
        }
        if token.left > 0 {
            let next = Token {
                left: token.left - 1,
                start: false,
                ..token
            };
            q.schedule(at + Seconds::new(CHAIN_GAP), next);
            live += 1;
            out.max_live = out.max_live.max(live);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Randomized audit workloads.
// ---------------------------------------------------------------------

/// A constant-speed crossing entering the box at `enter`.
fn occupancy(v: u32, movement: Movement, enter: f64, speed: f64) -> BoxOccupancy {
    let g = IntersectionGeometry::scale_model();
    let s = VehicleSpec::scale_model();
    let total = g.path_length(movement) + s.length;
    BoxOccupancy {
        vehicle: VehicleId(v),
        movement,
        entered: TimePoint::new(enter),
        exited: TimePoint::new(enter + total.value() / speed),
        profile: SpeedProfile::starting_at(
            TimePoint::new(enter),
            Meters::ZERO,
            MetersPerSecond::new(speed),
        ),
        line_offset: Meters::ZERO,
    }
}

/// `n` random crossings over a span that grows with `n`, holding the
/// temporal density (and thus the co-residency rate the sweep prunes
/// against) roughly constant at the experiments' regime: ~0.5 box
/// entries per second, as in the mid-range Fig. 7.2 sweep points, where
/// each crossing is co-resident with a handful of neighbours and almost
/// every one of the n²/2 exhaustive pairs is temporally disjoint.
fn random_occupancies(seed: u64, n: usize) -> Vec<BoxOccupancy> {
    let mut rng = StdRng::seed_from_u64(seed);
    let movements = Movement::all();
    #[allow(clippy::cast_precision_loss)]
    let span = n as f64 * 2.0;
    (0..n)
        .map(|i| {
            #[allow(clippy::cast_possible_truncation)]
            let m = movements[(rng.next_u64() % 12) as usize];
            let enter = rng.gen_range(0.0..span);
            let speed = rng.gen_range(0.5..3.0);
            #[allow(clippy::cast_possible_truncation)]
            occupancy(i as u32, m, enter, speed)
        })
        .collect()
}

/// `n` random full-scale crossings with multi-phase profiles, at the
/// same ~0.5 box entries per second: cruise-then-speed-change, brake to
/// the line + hold + standstill launch, and the human gap candidate's
/// standstill launch from just behind the line, each speed target
/// mis-tracked by up to ±10 % (clamped to `v_max`) and each window
/// padded by up to 1 s before entry and after exit.
fn full_scale_occupancies(seed: u64, n: usize) -> Vec<BoxOccupancy> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = IntersectionGeometry::full_scale();
    let s = VehicleSpec::full_scale();
    let line = g.transmission_line_distance;
    let movements = Movement::all();
    #[allow(clippy::cast_precision_loss)]
    let span = n as f64 * 2.0;
    (0..n)
        .map(|i| {
            #[allow(clippy::cast_possible_truncation)]
            let movement = movements[(rng.next_u64() % 12) as usize];
            let t0 = TimePoint::new(rng.gen_range(0.0..span));
            let frac = rng.gen_range(0.2..1.0);
            let hold = Seconds::new(rng.gen_range(0.0..3.0));
            let launch = (s.v_max * rng.gen_range(0.9..1.1)).min(s.v_max);
            let profile = match rng.next_u64() % 3 {
                0 => {
                    let v0 = s.v_max * frac;
                    let mut p = SpeedProfile::starting_at(t0, line - Meters::new(25.0), v0);
                    p.push_hold(hold);
                    p.push_speed_change(launch, if launch >= v0 { s.a_max } else { s.d_max });
                    p
                }
                1 => {
                    let mut p = SpeedProfile::stop_at(
                        t0,
                        line - Meters::new(25.0),
                        s.v_max * frac,
                        line,
                        &s,
                    );
                    p.push_hold(hold);
                    p.push_speed_change(launch, s.a_max);
                    p
                }
                _ => {
                    let mut p = SpeedProfile::starting_at(
                        t0,
                        line - Meters::new(frac),
                        MetersPerSecond::ZERO,
                    );
                    p.push_speed_change(launch, s.a_max);
                    p
                }
            };
            let s_exit = line + g.path_length(movement) + s.length;
            let probe = |at: Meters| profile.time_at_position(at).unwrap_or(t0).max(t0);
            let entered = probe(line + Meters::new(1e-3)) - Seconds::new(rng.gen_range(0.0..1.0));
            let exited = probe(s_exit) + Seconds::new(rng.gen_range(0.0..1.0));
            #[allow(clippy::cast_possible_truncation)]
            BoxOccupancy {
                vehicle: VehicleId(i as u32),
                movement,
                entered,
                exited,
                profile,
                line_offset: line,
            }
        })
        .collect()
}

fn digest(report: &SafetyReport) -> Vec<(u32, u32, u64)> {
    report
        .violations()
        .iter()
        .map(|v| (v.first.0, v.second.0, v.at.value().to_bits()))
        .collect()
}

/// The audit gate: the sweep-pruned audit's verdict must equal the
/// exhaustive pairwise reference on randomized traffic, on the scale
/// model and on full-scale multi-phase traffic at margins 0 and `e_long`.
fn assert_audit_agreement() {
    let g = IntersectionGeometry::scale_model();
    let s = VehicleSpec::scale_model();
    let mut checked = 0usize;
    for seed in 0..8u64 {
        for n in [0usize, 1, 13, 64] {
            let occs = random_occupancies(seed, n);
            let sweep = SafetyReport::audit_with_margin(occs.clone(), &g, &s, Meters::ZERO);
            let pairwise = SafetyReport::audit_exhaustive_with_margin(occs, &g, &s, Meters::ZERO);
            assert_eq!(
                digest(&sweep),
                digest(&pairwise),
                "sweep audit diverged from the exhaustive audit (seed {seed}, n {n})"
            );
            checked += 1;
        }
    }
    let g = IntersectionGeometry::full_scale();
    let s = VehicleSpec::full_scale();
    let mut violations = 0usize;
    for seed in 0..8u64 {
        for margin in [Meters::ZERO, BufferModel::full_scale().e_long] {
            let occs = full_scale_occupancies(seed, 64);
            let sweep = SafetyReport::audit_with_margin(occs.clone(), &g, &s, margin);
            let pairwise = SafetyReport::audit_exhaustive_with_margin(occs, &g, &s, margin);
            assert_eq!(
                digest(&sweep),
                digest(&pairwise),
                "full-scale sweep audit diverged from the exhaustive audit \
                 (seed {seed}, margin {margin})"
            );
            violations += sweep.violations().len();
            checked += 1;
        }
    }
    assert!(
        violations > 0,
        "the full-scale sets never touch: the gate is vacuous"
    );
    println!(
        "audit agreement: sweep == exhaustive on {checked} randomized sets \
         ({violations} full-scale contacts)"
    );
}

fn main() {
    assert_queue_agreement();
    assert_audit_agreement();
    if !std::env::args().any(|a| a == "--bench") {
        println!("correctness gates only; `cargo bench` runs the timing loops");
        return;
    }

    bench_table_header("des_queue");

    // Interleaved schedules and pops, then a drain.
    for n in [256usize, 1024, 4096] {
        let ops = gen_ops(7, n * 2);
        bench(&format!("schedule_drain_seed/{n}"), || {
            run_seed(&[], black_box(&ops)).len()
        });
        bench(&format!("schedule_drain_queue/{n}"), || {
            run_queue(&[], black_box(&ops)).len()
        });
    }

    // The simulator's start schedule: 24,106 start events and about a
    // hundred follow-ups live at once. Up front, every pop and schedule
    // sifts through a heap of up to 24 k entries; as a prologue, the
    // heap holds only the follow-ups.
    bench("queue/upfront", || {
        drain_start_schedule(black_box(false)).events
    });
    bench("queue/prologue", || {
        drain_start_schedule(black_box(true)).events
    });

    bench_table_header("safety_audit");

    let g = IntersectionGeometry::scale_model();
    let s = VehicleSpec::scale_model();
    for n in [64usize, 256, 1024, 4096] {
        let occs = random_occupancies(3, n);
        bench(&format!("audit_pairwise/{n}"), || {
            SafetyReport::audit_exhaustive_with_margin(
                black_box(occs.clone()),
                &g,
                &s,
                Meters::ZERO,
            )
            .violations()
            .len()
        });
        bench(&format!("audit_sweep/{n}"), || {
            SafetyReport::audit_with_margin(black_box(occs.clone()), &g, &s, Meters::ZERO)
                .violations()
                .len()
        });
    }

    // Full-scale multi-phase crossings at the filter's margin: longer
    // windows and standstill launches, where the skipping march steps
    // over most samples of every co-resident pair.
    let g = IntersectionGeometry::full_scale();
    let s = VehicleSpec::full_scale();
    let e_long = BufferModel::full_scale().e_long;
    for n in [64usize, 256, 1024] {
        let occs = full_scale_occupancies(3, n);
        bench(&format!("audit_pairwise/full/{n}"), || {
            SafetyReport::audit_exhaustive_with_margin(black_box(occs.clone()), &g, &s, e_long)
                .violations()
                .len()
        });
        bench(&format!("audit_sweep/full/{n}"), || {
            SafetyReport::audit_with_margin(black_box(occs.clone()), &g, &s, e_long)
                .violations()
                .len()
        });
    }
}
