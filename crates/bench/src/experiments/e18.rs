//! E18 — memory footprint scaling: bytes per vehicle by layer (extension;
//! paper §IV-A resource management: a vehicular cloud's host is a fleet of
//! embedded computers, so per-vehicle memory — not just CPU — bounds how
//! large a simulated (and eventually real) deployment can grow).
//!
//! Sweeps the fleet size (10k → 1M on a constant-density highway corridor,
//! 10k → 100k on a constant-density city grid) over a short GreedyGeo
//! routing workload and reports the deep heap footprint of each layer —
//! fleet + road network, network simulation state, and the observability
//! recorder — normalised to bytes per vehicle. Footprints come from
//! [`MemSize`] and `NetSim::heap_bytes` (lengths and capacities only, never allocator
//! state), so every number is deterministic and shard-count-invariant;
//! that invariance is asserted in-experiment by re-running each row at a
//! second shard count and comparing bitwise.
//!
//! The `live MB` / `peak MB` columns read the process-wide counting
//! allocator (zero when the binary does not install one). They are host
//! measurements — concurrent allocation interleaving makes the peak
//! timing-dependent — and are excluded from any byte-compare, like E16/E17
//! wall-clock columns. Steady-state allocation-freedom of the inner loops
//! is enforced separately by the `memcheck` integration tests.

use crate::table::{f1, Table};
use vc_net::netsim::NetSim;
use vc_net::routing::GreedyGeo;
use vc_obs::{MemSize, Recorder};
use vc_sim::prelude::*;

/// A highway corridor sized to the fleet (~50 vehicles/km over 4 lanes) so
/// radio degree — and with it per-round cost and per-vehicle neighbor
/// state — stays flat while `n` scales 10k → 1M.
fn highway(seed: u64, n: usize) -> Scenario {
    let mut rng = SimRng::seed_from(seed);
    let corridor = (n as f64 * 20.0).max(1_000.0);
    let roadnet = RoadNetwork::highway(corridor, 4, 33.3);
    let fleet = Fleet::highway(corridor, n, &roadnet, &mut rng);
    Scenario {
        regime: Regime::Dynamic,
        roadnet,
        fleet,
        channel: Channel::dsrc(),
        rsus: RsuNetwork::new(),
        cellular: Cellular::unavailable(),
        canyon: None,
        seed,
        rng,
        dt: 0.5,
        shards: shard_count(),
    }
}

/// A city sized to the fleet (~120 vehicles/km², 64×64-capped grid) — the
/// same shape E17 uses, so urban rows here extend that baseline.
fn city(seed: u64, n: usize) -> Scenario {
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
        shards: shard_count(),
    }
}

/// Deep per-layer footprint after a short instrumented routing run:
/// `(fleet + roadnet, net sim state, recorder)` in bytes. Derived from
/// capacities only, so the triple is bitwise shard-count-invariant.
fn footprint(base: &Scenario, shards: usize, rounds: usize) -> (u64, u64, u64) {
    let packets = (base.fleet.len() / 100).max(10);
    let mut scenario = base.clone();
    scenario.shards = shards;
    let mut sim = NetSim::new(&mut scenario, GreedyGeo);
    let mut rec = Recorder::ring(4096);
    sim.send_random_pairs_obs(packets, 128, Some(&mut rec));
    sim.run_rounds_obs(rounds, Some(&mut rec));
    let fleet = sim.scenario_mut().fleet.mem_bytes() + sim.scenario_mut().roadnet.mem_bytes();
    let net = sim.heap_bytes();
    // Normalise the hub before measuring the recorder: the in-run footprint
    // gauges exist only when `VC_MEM` enables them, so set the same three
    // keys unconditionally — the measured bytes (key strings + map entries)
    // are then identical whether memory observability was on or off, which
    // keeps this table byte-identical under `VC_MEM=0` (inertness).
    let hub = rec.hub_mut();
    hub.gauge_set("mem.fleet.bytes", fleet as f64);
    hub.gauge_set("mem.net.bytes", net as f64);
    hub.gauge_set("mem.obs.bytes", 0.0);
    let obs = rec.mem_bytes();
    rec.hub_mut().gauge_set("mem.obs.bytes", obs as f64);
    (fleet, net, obs)
}

const MB: f64 = 1024.0 * 1024.0;

/// Runs E18.
pub fn run(quick: bool, seed: u64, _rec: Option<&mut Recorder>) -> Table {
    let highway_sizes: &[usize] =
        if quick { &[1_000, 3_000] } else { &[10_000, 100_000, 1_000_000] };
    let city_sizes: &[usize] = if quick { &[1_000] } else { &[10_000, 100_000] };
    let rounds = 4;

    let mut table = Table::new(
        "E18",
        "memory footprint scaling: bytes per vehicle by layer",
        "§IV-A (resource management at fleet scale) / VC_MEM",
        &[
            "scenario",
            "vehicles",
            "fleet B/veh",
            "net B/veh",
            "obs KB",
            "total MB",
            "live MB",
            "peak MB",
        ],
    );

    let scenarios: Vec<(&str, Scenario)> = highway_sizes
        .iter()
        .map(|&n| ("highway", highway(seed, n)))
        .chain(city_sizes.iter().map(|&n| ("urban", city(seed, n))))
        .collect();

    for (kind, base) in &scenarios {
        let n = base.fleet.len();
        vc_obs::mem::reset_peak();
        let (fleet, net, obs) = footprint(base, 1, rounds);
        // Shard-count invariance: the same scenario measured under a
        // multi-worker plan must report bitwise-identical footprints.
        assert_eq!(
            footprint(base, 4, rounds),
            (fleet, net, obs),
            "footprint diverged across shard counts at {n} {kind} vehicles"
        );
        let stats = vc_obs::mem::stats();
        table.row(vec![
            (*kind).into(),
            n.to_string(),
            f1(fleet as f64 / n as f64),
            f1(net as f64 / n as f64),
            f1(obs as f64 / 1024.0),
            f1((fleet + net + obs) as f64 / MB),
            f1(stats.live_bytes as f64 / MB),
            f1(stats.peak_bytes as f64 / MB),
        ]);
    }

    table.note(
        "fleet/net/obs columns are deep footprints from MemSize (capacities only, never \
         allocator state): deterministic, shard-count-invariant (asserted in-experiment by \
         re-measuring at a second shard count), and byte-identical under VC_MEM=0. live/peak MB \
         read the process-wide counting allocator — zero without one installed, and a host \
         measurement excluded from byte-compares like E16/E17 wall clocks. steady-state \
         zero-alloc guarantees for the round loops are enforced by the memcheck tests",
    );
    table
}
