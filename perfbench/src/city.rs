//! `city-routing`: the simulator's host-time throughput, with no crypto.
//!
//! An E17-style density-constant city (~120 vehicles/km², road graph capped
//! at 64×64 intersections) of 10,000 vehicles runs `NetSim` rounds under
//! `GreedyGeo`, with one packet per ten vehicles injected up front, at the
//! default shard count (`VC_SHARDS`, else the core count). Building the
//! city (`Fleet::urban` waypoint planning) is set-up, hoisted out of the
//! round loop as E17 does; the latency unit is one round.
//!
//! Most of a round is the neighbour-table rebuild (`grid.query`), which is
//! what parallelising that phase would change.

use std::time::Instant;

use vc_net::message::RoutingStats;
use vc_net::netsim::NetSim;
use vc_net::routing::GreedyGeo;
use vc_obs::profile::{self, Profiler};
use vc_sim::prelude::*;

use crate::harness::{self, Budget, Layers, LoopStats, Opts, Outcome};
use crate::trace::Tracer;

/// Vehicles in the city.
pub const VEHICLES: usize = 10_000;
/// Rounds whose statistics are compared against a single-shard re-run.
const CHECK_ROUNDS: usize = 30;
/// Rounds per second of `--seconds`: about the rounds the workload's
/// commit ran per second on a 2-vCPU host. Rounds grow costlier as the
/// city evolves, so a run is a fixed number of rounds, never a time
/// budget: a faster commit runs the same rounds, not more of the costlier
/// ones.
const ROUNDS_PER_S: f64 = 34.0;

/// The fixed round count of a pass meant to last about `seconds`.
fn rounds_for(seconds: f64) -> Budget {
    Budget::Units(((seconds * ROUNDS_PER_S).ceil() as usize).max(harness::MIN_SAMPLES))
}

/// The city for `seed` at `shards` (E17's construction).
pub fn city(seed: u64, n: usize, shards: usize) -> Scenario {
    let mut rng = SimRng::seed_from(seed);
    let side_m = (n as f64 / 120.0).sqrt().max(0.5) * 1000.0;
    let cells = ((side_m / 120.0).ceil() as usize).clamp(2, 64);
    let roadnet = RoadNetwork::grid(cells, cells, side_m / cells as f64, 13.9);
    let fleet = Fleet::urban(&roadnet, n, &mut rng);
    Scenario {
        regime: Regime::InfrastructureBased,
        roadnet,
        fleet,
        channel: Channel::dsrc(),
        rsus: RsuNetwork::new(),
        cellular: Cellular::healthy(),
        canyon: None,
        seed,
        rng,
        dt: 0.5,
        shards,
    }
}

/// Bitwise fingerprint of routing statistics.
type Fingerprint = (u64, u64, u64, Vec<u32>, Vec<u64>);

fn fingerprint(s: &RoutingStats) -> Fingerprint {
    let lat = s.latencies_s.iter().map(|l| l.to_bits()).collect();
    (s.sent, s.delivered, s.transmissions, s.hops.clone(), lat)
}

/// Starts a routing run on `scenario`: one 128-byte packet per ten vehicles.
fn start(scenario: &mut Scenario) -> NetSim<'_, GreedyGeo> {
    let packets = scenario.fleet.len() / 10;
    let mut sim = NetSim::new(scenario, GreedyGeo);
    sim.send_random_pairs(packets, 128);
    sim
}

/// What a pass over the round loop yields.
struct Pass {
    /// One entry per timed loop of the pass.
    segments: Vec<LoopStats>,
    /// Statistics after [`CHECK_ROUNDS`] rounds.
    prefix: Option<RoutingStats>,
    /// Network-layer heap bytes after [`CHECK_ROUNDS`] rounds.
    heap_bytes: u64,
}

/// Runs rounds over a copy of `base`; `measure` drives the round step
/// through one or more timed loops.
fn pass(
    base: &Scenario,
    tr: &mut Tracer,
    measure: impl FnOnce(&mut dyn FnMut(u64) -> f64) -> Vec<LoopStats>,
) -> Pass {
    let vehicles = base.fleet.len() as f64;
    let mut scenario = base.clone();
    let mut sim = start(&mut scenario);
    let mut prefix = None;
    let mut heap_bytes = 0;
    let segments = measure(&mut |i| {
        tr.span("net.run_round", i, || sim.run_rounds(1));
        if i as usize + 1 == CHECK_ROUNDS {
            prefix = Some(sim.stats().clone());
            heap_bytes = sim.heap_bytes();
        }
        vehicles
    });
    Pass { segments, prefix, heap_bytes }
}

/// Re-runs the first [`CHECK_ROUNDS`] rounds on one shard and compares.
fn check(base: &Scenario, prefix: Option<&RoutingStats>, out: &mut Outcome) {
    let Some(prefix) = prefix else {
        out.mismatch(format!("fewer than {CHECK_ROUNDS} rounds ran"));
        return;
    };
    let mut scenario = base.clone();
    scenario.shards = 1;
    let mut sim = start(&mut scenario);
    sim.run_rounds(CHECK_ROUNDS);
    if fingerprint(sim.stats()) != fingerprint(prefix) {
        out.mismatch(format!(
            "stats after {CHECK_ROUNDS} rounds differ from a single-shard re-run \
             (delivered {} vs {}, transmissions {} vs {})",
            prefix.delivered,
            sim.stats().delivered,
            prefix.transmissions,
            sim.stats().transmissions
        ));
    }
    if prefix.sent == 0 || prefix.transmissions == 0 {
        out.mismatch("no packets sent or transmitted".into());
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let shards = shard_count();
    out.notes.push(format!("vehicles = {VEHICLES}, shards = {shards}"));
    if !opts.trace {
        let (base, build_s) =
            harness::repeat_setup(harness::SETUP_REPEATS, || city(opts.seed, VEHICLES, shards));
        // Starting the routing run (neighbour grid, packet injection) is
        // set-up too; it happens once per pass.
        let t0 = Instant::now();
        drop(start(&mut base.clone()));
        let start_s = t0.elapsed().as_secs_f64();
        vc_obs::mem::reset_peak();
        let p = pass(&base, &mut Tracer::off(), |step| {
            harness::timed_segments(rounds_for(opts.seconds / harness::SEGMENTS as f64), step)
        });
        let peak = harness::peak_heap_mb();
        check(&base, p.prefix.as_ref(), &mut out);
        out.attempted = harness::units(&p.segments);
        let throughput =
            ("vehicle_ticks_per_s", "vehicle-ticks/s", harness::throughput(&p.segments));
        let latencies = harness::latencies(&p.segments);
        harness::end_to_end(&mut out, throughput, &latencies, build_s + start_s, peak);
        return out;
    }

    let mut tr = Tracer::new(true, Instant::now());
    let base = tr.span("sim.build_scenario", 0, || city(opts.seed, VEHICLES, shards));
    let loop_for =
        |budget| move |step: &mut dyn FnMut(u64) -> f64| vec![harness::timed_loop(budget, 0, step)];
    let plain = pass(&base, &mut Tracer::off(), loop_for(rounds_for(opts.seconds / 2.0)));
    let rounds = harness::units(&plain.segments) as usize;
    profile::install(Profiler::new());
    let traced = pass(&base, &mut tr, loop_for(Budget::Units(rounds)));
    let prof = profile::take().expect("profiler installed above");
    check(&base, traced.prefix.as_ref(), &mut out);
    out.attempted = rounds as u64;

    let totals = tr.totals();
    let mut layers = Layers::new();
    layers.spans(&totals);
    layers.set("sim.build_scenario.busy_ms", totals["sim.build_scenario"].busy_ms());
    let self_ms = |frame: &str| prof.self_ns(&["routing.round", frame]).unwrap_or(0) as f64 / 1e6;
    for frame in ["grid.query", "shard.tick", "radio.delivery", "shard.merge"] {
        layers.set(&format!("frame.{frame}.self_ms"), self_ms(frame));
    }
    let round_ms = prof.total_ns(&["routing.round"]).unwrap_or(0) as f64 / 1e6;
    layers.set("obs.city_grid_query_share", self_ms("grid.query") / round_ms.max(1e-9));
    // Deterministic counts: a move means the results changed.
    if let Some(prefix) = &traced.prefix {
        layers.set("net.transmissions", prefix.transmissions as f64);
        layers.set("net.delivered", prefix.delivered as f64);
    }
    layers.set("net.heap_bytes", traced.heap_bytes as f64);
    layers.set("obs.trace_overhead_ratio", traced.segments[0].secs / plain.segments[0].secs);
    // The benchmark opens no crypto span here; count the crypto frames the
    // profiler saw inside the rounds instead (expected: none).
    let (crypto, stacks) = harness::crypto_stacks(&prof);
    out.notes
        .push(format!("profiled stacks in rounds = {stacks}, through crypto frames = {crypto}"));
    layers.set("obs.crypto_spans", crypto as f64);
    layers.into_outcome(&mut out);
    harness::write_trace(&mut out, "city-routing", opts.seed, &tr);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions(s: &Scenario) -> Vec<(u64, u64)> {
        s.fleet.positions().iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
    }

    #[test]
    fn same_seed_same_city_other_seed_other_city() {
        let a = city(1, 300, 1);
        assert_eq!(positions(&a), positions(&city(1, 300, 1)));
        assert_ne!(positions(&a), positions(&city(2, 300, 1)));
        assert_eq!(a.fleet.len(), 300);
    }
}
