//! Micro-benches for the geometry hot paths: road-network nearest queries
//! (spatial index vs the retained linear scans), CSR neighbor-table
//! construction and in-place rebuild, canyon LOS links, and a full
//! street-aware routing round. These back the PR 5 benchdiff gate.

use vc_net::netsim::NetSim;
use vc_net::routing::StreetAware;
use vc_sim::geom::{Point, SpatialGrid};
use vc_sim::radio::NeighborTable;
use vc_sim::rng::SimRng;
use vc_sim::roadnet::RoadNetwork;
use vc_sim::scenario::ScenarioBuilder;
use vc_testkit::bench::{black_box, Suite};

fn probes(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<Point> {
    let mut rng = SimRng::seed_from(seed);
    (0..n).map(|_| Point::new(rng.range_f64(lo, hi), rng.range_f64(lo, hi))).collect()
}

/// Probe points hugging a horizontal corridor, as highway traffic does.
fn corridor_probes(n: usize, length: f64, seed: u64) -> Vec<Point> {
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|_| Point::new(rng.range_f64(-500.0, length + 500.0), rng.range_f64(-300.0, 300.0)))
        .collect()
}

fn positions(n: usize, extent: f64, seed: u64) -> Vec<Point> {
    probes(n, 0.0, extent, seed)
}

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns (diffed by benchdiff when both sides have them).
vc_obs::counting_allocator!();

fn main() {
    vc_testkit::bench::set_alloc_probe(vc_obs::mem::thread_counters);
    let mut suite = Suite::new("geom");

    // ---- nearest-road / nearest-node: index vs linear scan ----
    // 24x24 urban grid: 576 intersections, 2208 directed segments.
    let grid_map = RoadNetwork::grid(24, 24, 100.0, 13.9);
    // 20 km highway corridor: degenerate (collinear) bounding box.
    let highway_map = RoadNetwork::highway(20_000.0, 64, 33.3);
    let grid_probes = probes(256, -200.0, 2500.0, 5);
    let hw_probes = corridor_probes(256, 20_000.0, 6);

    suite.bench_elems("nearest_road/grid24/indexed", grid_probes.len() as u64, || {
        grid_probes.iter().map(|&p| grid_map.distance_to_nearest_road(p)).sum::<f64>()
    });
    suite.bench_elems("nearest_road/grid24/linear", grid_probes.len() as u64, || {
        grid_probes.iter().map(|&p| grid_map.distance_to_nearest_road_linear(p)).sum::<f64>()
    });
    suite.bench_elems("nearest_road/highway/indexed", hw_probes.len() as u64, || {
        hw_probes.iter().map(|&p| highway_map.distance_to_nearest_road(p)).sum::<f64>()
    });
    suite.bench_elems("nearest_road/highway/linear", hw_probes.len() as u64, || {
        hw_probes.iter().map(|&p| highway_map.distance_to_nearest_road_linear(p)).sum::<f64>()
    });
    suite.bench_elems("nearest_node/grid24/indexed", grid_probes.len() as u64, || {
        grid_probes.iter().filter_map(|&p| grid_map.nearest_node(p)).count()
    });
    suite.bench_elems("nearest_node/grid24/linear", grid_probes.len() as u64, || {
        grid_probes.iter().filter_map(|&p| grid_map.nearest_node_linear(p)).count()
    });

    // ---- neighbor table at scale: fresh build vs in-place rebuild ----
    for n in [1_000usize, 10_000] {
        let extent = (n as f64).sqrt() * 60.0; // keep density roughly constant
        let pos = positions(n, extent, 7);
        let online = vec![true; n];
        suite.bench_elems(&format!("neighbor_table/build/{n}"), n as u64, || {
            NeighborTable::build(black_box(&pos), &online, 300.0)
        });
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(300.0);
        suite.bench_elems(&format!("neighbor_table/rebuild/{n}"), n as u64, || {
            table.rebuild(&mut grid, black_box(&pos), &online, 300.0);
            table.len()
        });
    }

    // ---- canyon LOS link (distance_to_nearest_road per sample) ----
    let mut builder = ScenarioBuilder::new();
    builder.seed(11).vehicles(10);
    let canyon = builder.urban_canyon();
    let endpoints = probes(128, 0.0, 1000.0, 9);
    suite.bench_elems("canyon_los/link", (endpoints.len() / 2) as u64, || {
        endpoints.chunks_exact(2).map(|ab| canyon.los_factor(ab[0], ab[1])).sum::<f64>()
    });

    // ---- full street-aware routing round over the canyon map ----
    suite.bench("routing/20_rounds_40_vehicles/street_aware", || {
        let mut b = ScenarioBuilder::new();
        b.seed(13).vehicles(40);
        let mut scenario = b.urban_canyon();
        let map = scenario.roadnet.clone();
        let mut sim = NetSim::new(&mut scenario, StreetAware::new(map));
        sim.send_random_pairs(10, 256);
        sim.run_rounds(20);
        sim.stats().delivered
    });

    suite.finish();
}
