//! Micro-benches for the PR 7 observability surfaces: the causal sampling
//! decision (on every `NetSim::send`, so it must stay branch-cheap), the
//! shard-local `EventBuf` fill + coordinator absorb path, the per-tick
//! time-series diff, and a fully traced routing run at each sample rate
//! (the E17 overhead, as a gated benchdiff entry).

use vc_net::netsim::NetSim;
use vc_net::routing::Epidemic;
use vc_obs::{EventBuf, Recorder, SampleRate, Sampler};
use vc_sim::scenario::ScenarioBuilder;
use vc_sim::time::SimTime;
use vc_testkit::bench::{black_box, Suite};

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns (diffed by benchdiff when both sides have them).
vc_obs::counting_allocator!();

fn main() {
    vc_testkit::bench::set_alloc_probe(vc_obs::mem::thread_counters);
    let mut suite = Suite::new("obs");

    // ---- sampling decision: a pure hash per packet id ----
    for (label, rate) in
        [("off", SampleRate::OFF), ("1_in_100", SampleRate::one_in(100)), ("all", SampleRate::ALL)]
    {
        let sampler = Sampler::new(42, rate);
        let mut id = 0u64;
        suite.bench_elems(&format!("causal/decide/{label}"), 1024, || {
            let mut hits = 0u32;
            for _ in 0..1024 {
                id = id.wrapping_add(1);
                hits += sampler.decide(id).is_some() as u32;
            }
            black_box(hits)
        });
    }

    // ---- shard-local buffer fill + canonical-order absorb ----
    suite.bench_elems("recorder/buf_fill_absorb/256", 256, || {
        let mut rec = Recorder::new();
        let mut buf = EventBuf::new();
        let t = SimTime::from_secs(1);
        for i in 0..256u64 {
            buf.event(t, "net", "radio.rx", vec![("latency_us", i.into())]);
        }
        rec.absorb(buf);
        black_box(rec.len())
    });

    // ---- per-tick time-series diff against a busy hub ----
    suite.bench("timeseries/tick_128_counters", || {
        let mut rec = Recorder::new();
        rec.enable_timeseries(64);
        for tick in 0..32u64 {
            for c in 0..128u64 {
                rec.hub_mut().counter_add(COUNTER_NAMES[c as usize % COUNTER_NAMES.len()], c);
            }
            rec.timeseries_tick(SimTime::from_secs(tick));
        }
        rec.timeseries().map(|ts| ts.len()).unwrap_or(0)
    });

    // ---- traced routing rounds by sample rate (the E17 overhead) ----
    for (label, rate) in
        [("off", SampleRate::OFF), ("1_in_10", SampleRate::one_in(10)), ("all", SampleRate::ALL)]
    {
        suite.bench(&format!("netsim/10_rounds_150v_traced/{label}"), || {
            let mut b = ScenarioBuilder::new();
            b.seed(11).vehicles(150);
            let mut scenario = b.urban_with_rsus();
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.set_sampler(Sampler::new(11, rate));
            let mut rec = Recorder::new();
            sim.send_random_pairs_obs(30, 128, Some(&mut rec));
            sim.run_rounds_obs(10, Some(&mut rec));
            black_box(rec.len());
            sim.stats().delivered
        });
    }

    suite.finish();
}

// Distinct static names so the diff walks a realistically wide counter map.
const COUNTER_NAMES: [&str; 8] = [
    "net.radio.tx",
    "net.radio.rx",
    "net.radio.drop",
    "net.routing.forward",
    "net.routing.deliver",
    "net.causal.origin",
    "net.causal.hop",
    "net.causal.deliver",
];
