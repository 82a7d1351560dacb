//! Micro-benches for clustering and routing rounds — the per-round cost
//! basis of experiment E8.

use vc_net::cluster::{form_clusters, ClusterConfig};
use vc_net::netsim::NetSim;
use vc_net::routing::{ClusterRouting, Epidemic, GreedyGeo, MozoRouting, RoutingProtocol};
use vc_net::world::WorldView;
use vc_sim::geom::Point;
use vc_sim::radio::NeighborTable;
use vc_sim::rng::SimRng;
use vc_sim::scenario::ScenarioBuilder;
use vc_sim::time::SimTime;
use vc_testkit::bench::{black_box, Suite};

struct Snapshot {
    positions: Vec<Point>,
    velocities: Vec<Point>,
    online: Vec<bool>,
    table: NeighborTable,
}

fn snapshot(n: usize) -> Snapshot {
    let mut rng = SimRng::seed_from(7);
    let positions: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.range_f64(0.0, 1200.0), rng.range_f64(0.0, 1200.0)))
        .collect();
    let velocities: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.range_f64(-20.0, 20.0), rng.range_f64(-20.0, 20.0)))
        .collect();
    let online = vec![true; n];
    let table = NeighborTable::build(&positions, &online, 300.0);
    Snapshot { positions, velocities, online, table }
}

fn routing_rounds<P: RoutingProtocol>(proto: P) -> u64 {
    let mut builder = ScenarioBuilder::new();
    builder.seed(3).vehicles(60);
    let mut scenario = builder.urban_with_rsus();
    let mut sim = NetSim::new(&mut scenario, proto);
    sim.send_random_pairs(10, 256);
    sim.run_rounds(20);
    sim.stats().delivered
}

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns (diffed by benchdiff when both sides have them).
vc_obs::counting_allocator!();

fn main() {
    vc_testkit::bench::set_alloc_probe(vc_obs::mem::thread_counters);
    let mut suite = Suite::new("netcluster");

    // ---- neighbor table construction ----
    for n in [50usize, 200, 800] {
        let snap = snapshot(n);
        suite.bench(&format!("neighbor_table/build/{n}"), || {
            NeighborTable::build(black_box(&snap.positions), &snap.online, 300.0)
        });
    }

    // ---- cluster formation ----
    for n in [50usize, 200] {
        let snap = snapshot(n);
        let world = WorldView {
            positions: &snap.positions,
            velocities: &snap.velocities,
            online: &snap.online,
            neighbors: &snap.table,
        };
        suite.bench(&format!("clustering/form/multi_hop/{n}"), || {
            form_clusters(black_box(&world), &ClusterConfig::multi_hop(), SimTime::ZERO, None)
        });
        suite.bench(&format!("clustering/form/moving_zone/{n}"), || {
            form_clusters(black_box(&world), &ClusterConfig::moving_zone(), SimTime::ZERO, None)
        });
    }

    // ---- full routing rounds (20 rounds, 60 vehicles) ----
    suite.bench("routing/20_rounds_60_vehicles/epidemic", || black_box(routing_rounds(Epidemic)));
    suite.bench("routing/20_rounds_60_vehicles/greedy", || black_box(routing_rounds(GreedyGeo)));
    suite.bench("routing/20_rounds_60_vehicles/cluster", || {
        black_box(routing_rounds(ClusterRouting::new()))
    });
    suite.bench("routing/20_rounds_60_vehicles/mozo", || {
        black_box(routing_rounds(MozoRouting::new()))
    });

    suite.finish();
}
