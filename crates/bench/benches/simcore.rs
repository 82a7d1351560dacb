//! Micro-benches for the simulation substrate: mobility stepping, road-graph
//! routing, RNG draws.

use vc_sim::mobility::Fleet;
use vc_sim::rng::SimRng;
use vc_sim::roadnet::RoadNetwork;
use vc_testkit::bench::{black_box, Suite};

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns (diffed by benchdiff when both sides have them).
vc_obs::counting_allocator!();

fn main() {
    vc_testkit::bench::set_alloc_probe(vc_obs::mem::thread_counters);
    let mut suite = Suite::new("simcore");

    // ---- mobility stepping ----
    for n in [50usize, 400] {
        let net = RoadNetwork::grid(8, 8, 150.0, 13.9);
        let mut rng = SimRng::seed_from(2);
        let mut fleet = Fleet::urban(&net, n, &mut rng);
        suite.bench_elems(&format!("fleet/step/{n}"), n as u64, || {
            fleet.step(0.5, &net);
            black_box(fleet.len())
        });
    }

    // ---- routing on the road graph ----
    let net = RoadNetwork::grid(20, 20, 100.0, 13.9);
    let from = net.intersections()[0].id;
    let to = net.intersections()[399].id;
    suite
        .bench("roadnet/shortest_path_20x20", || net.shortest_path(black_box(from), black_box(to)));

    // ---- rng ----
    let mut rng = SimRng::seed_from(3);
    suite.bench("rng/next_u64", || black_box(rng.next_u64()));
    let mut rng2 = SimRng::seed_from(3);
    suite.bench("rng/normal", || black_box(rng2.normal(0.0, 1.0)));

    suite.finish();
}
