//! Micro-benches for the sharded parallel simulation core: the mobility
//! step at explicit shard counts (the E16 hot loop) and a full sharded
//! routing round. These back the PR 6 benchdiff gate; on a single-CPU host
//! every shard count reports roughly the same time, which is itself the
//! honest baseline for multi-core runners.

use vc_net::netsim::NetSim;
use vc_net::routing::Epidemic;
use vc_sim::mobility::Fleet;
use vc_sim::rng::SimRng;
use vc_sim::roadnet::RoadNetwork;
use vc_sim::scenario::ScenarioBuilder;
use vc_testkit::bench::{black_box, Suite};

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns (diffed by benchdiff when both sides have them).
vc_obs::counting_allocator!();

fn main() {
    vc_testkit::bench::set_alloc_probe(vc_obs::mem::thread_counters);
    let mut suite = Suite::new("parallel");

    // ---- sharded mobility step (vehicle-ticks throughput) ----
    let n = if suite.is_quick() { 2_000usize } else { 20_000 };
    let net = RoadNetwork::grid(16, 16, 120.0, 13.9);
    for shards in [1usize, 2, 4, 8] {
        let mut rng = SimRng::seed_from(2);
        let mut fleet = Fleet::urban(&net, n, &mut rng);
        suite.bench_elems(&format!("fleet/step_sharded/{n}/shards/{shards}"), n as u64, || {
            fleet.step_sharded(0.5, &net, shards);
            black_box(fleet.len())
        });
    }

    // ---- full sharded routing rounds (copies fan out past the planner
    //      threshold, so the radio phase genuinely threads) ----
    for shards in [1usize, 4] {
        suite.bench(&format!("netsim/10_rounds_150v_epidemic/shards/{shards}"), || {
            let mut b = ScenarioBuilder::new();
            b.seed(11).vehicles(150);
            let mut scenario = b.urban_with_rsus();
            scenario.shards = shards;
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.send_random_pairs(30, 128);
            sim.run_rounds(10);
            sim.stats().delivered
        });
    }

    suite.finish();
}
