//! Flight-recorder digests of 24 traced K = 4 corridors, for comparing
//! two builds record for record.
//!
//! Each policy runs plain and with every extension on: perfbench's fault
//! mix (`fault_point(0.1, 2.0)`), platoons, mixed traffic and the safety
//! filter. Each of those runs at 400 vehicles with seeds 6 and 42 and at
//! 2,000 vehicles with seeds 6 and 7. The geometry is full scale, links
//! take 6 s, and `generate_corridor` draws 0.08 car/s per arterial
//! direction and 0.04 per cross lane from RNG seed `seed + 2000`. No
//! `CROSSROADS_*` knob is read.
//!
//! Every point prints its completions, its record count and the 64-bit
//! FNV-1a digest of its encoded trace. The digest covers every record,
//! dispatch stamps included, so two builds print the same line only
//! when they dispatch the same events in the same order and record the
//! same things. `expected/trace_digest` holds the committed stdout, and
//! `scripts/expected.sh` checks this binary against it.
//!
//! Run: `cargo run --release --offline -p crossroads-bench --bin trace_digest`

use crossroads_bench::fault_point;
use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::{run_corridor_traced, CorridorConfig, PlatoonConfig, SimConfig};
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_trace::codec::encode;
use crossroads_trace::Recorder;
use crossroads_traffic::{generate_corridor, CorridorDemand, MixedConfig};
use crossroads_units::Seconds;

/// Corridor length.
const K: usize = 4;

/// Append-mode recorder capacity; a point that overflows it fails.
const CAP: usize = 1 << 20;

/// (vehicles, seed) of every point.
const SIZES: [(u32, u64); 4] = [(400, 6), (400, 42), (2000, 6), (2000, 7)];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn main() {
    for policy in PolicyKind::ALL {
        for extended in [false, true] {
            for (vehicles, seed) in SIZES {
                let mut sim = SimConfig::full_scale(policy).with_seed(seed);
                if extended {
                    // `with_mixed` arms the safety filter.
                    sim = sim
                        .with_faults(fault_point(0.1, 2.0))
                        .with_platoons(PlatoonConfig::standard())
                        .with_mixed(MixedConfig::standard());
                }
                let demand = CorridorDemand {
                    k: K,
                    arterial_rate: 0.08,
                    cross_rate: 0.04,
                    total_vehicles: vehicles,
                    line_speed: sim.typical_line_speed(),
                    min_headway: Seconds::new(1.0),
                };
                let mut rng = StdRng::seed_from_u64(seed + 2000);
                let (workload, entry_ims) = generate_corridor(&demand, &mut rng);
                let config = CorridorConfig::new(sim, K).with_link_time(Seconds::new(6.0));
                let mut recorder = Recorder::fixed(CAP);
                let out = run_corridor_traced(&config, &workload, &entry_ims, &mut recorder);
                let trace = recorder.into_trace();
                let mode = if extended { "extended" } else { "plain" };
                assert_eq!(
                    trace.dropped, 0,
                    "{policy} {mode} n={vehicles} s={seed}: trace overflowed"
                );
                println!(
                    "{policy} {mode} n={vehicles} s={seed}: {}/{} completed, {} records, fnv1a {:016x}",
                    out.metrics.completed(),
                    out.spawned,
                    trace.len(),
                    fnv1a(&encode(&trace)),
                );
            }
        }
    }
}
