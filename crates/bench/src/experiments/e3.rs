//! E3 — availability under infrastructure failure, and emergency-mode
//! propagation (paper §IV-A.2: "in the event of a disaster … a heavy
//! reliance on infrastructures may greatly undermine the v-cloud
//! availability"; §V-A emergency-mode management).
//!
//! With a recorder attached (`experiments --trace`), E3 doubles as the
//! workspace's observability showcase: it emits `sim` (world ticks, radio),
//! `net` (post-disaster re-clustering), `auth` (emergency re-join
//! handshake spans, pseudonym switches), and `cloud` (scheduler lifecycle,
//! membership, mode gossip) events. Every traced call does the same work
//! with or without a recorder, so the table is identical with or without
//! tracing.

use crate::table::{f1, pct, Table};
use vc_auth::prelude::*;
use vc_cloud::prelude::*;
use vc_net::world::WorldView;
use vc_obs::{reborrow, Recorder};
use vc_sim::prelude::*;

/// Runs E3.
pub fn run(quick: bool, seed: u64, mut rec: Option<&mut Recorder>) -> Table {
    let vehicles = if quick { 30 } else { 60 };
    let tasks = if quick { 30 } else { 80 };
    let pre_ticks = if quick { 100 } else { 200 };
    let post_ticks = if quick { 200 } else { 400 };

    let mut table = Table::new(
        "E3",
        "disaster: RSU failure and emergency response",
        "§IV-A.2 / §V-A (dynamic v-clouds for emergency response)",
        &[
            "architecture",
            "RSU fail",
            "completed pre",
            "completed post",
            "post completion",
            "members post",
        ],
    );

    for kind in [ArchitectureKind::InfrastructureBased, ArchitectureKind::Dynamic] {
        for fail_fraction in [0.0, 0.5, 1.0] {
            let setup = vc_obs::profile::frame("setup");
            let mut builder = ScenarioBuilder::new();
            builder.seed(seed).vehicles(vehicles);
            let scenario = builder.urban_with_rsus();
            let mut sim = CloudSim::new(scenario, kind, SchedulerConfig::default(), Kinematic);
            sim.submit_batch(tasks / 2, 80.0, None);
            drop(setup);
            sim.run_ticks(pre_ticks, reborrow(&mut rec));
            let pre = sim.scheduler().stats().completed;

            // Disaster strikes.
            let mut rng = SimRng::seed_from(seed ^ 0xD15A57E4);
            sim.scenario.rsus.fail_fraction(fail_fraction, &mut rng);
            sim.scenario.cellular = Cellular::unavailable();
            if let Some(r) = reborrow(&mut rec) {
                r.event(
                    sim.now(),
                    "cloud",
                    "disaster",
                    vec![("rsu_fail", fail_fraction.into()), ("arch", kind.to_string().into())],
                );
            }

            sim.submit_batch(tasks / 2, 80.0, None);
            sim.run_ticks(post_ticks, reborrow(&mut rec));
            let total = sim.scheduler().stats().completed;
            let post = total - pre;
            let members_post = sim.membership().members.len();

            table.row(vec![
                kind.to_string(),
                pct(fail_fraction),
                pre.to_string(),
                post.to_string(),
                pct(post as f64 / (tasks / 2) as f64),
                members_post.to_string(),
            ]);
        }
    }

    // Emergency-mode gossip propagation on the post-disaster fleet.
    let mut builder = ScenarioBuilder::new();
    builder.seed(seed).vehicles(vehicles);
    let mut scenario = builder.disaster(1.0);
    scenario.run_ticks(20);
    let mut mode = ModeManager::new(scenario.fleet.len());
    mode.inject(VehicleId(0), OperatingMode::Emergency);
    let channel = scenario.channel.clone();
    let mut rounds = 0usize;
    let mut coverage = mode.coverage(OperatingMode::Emergency);
    while coverage < 0.95 && rounds < 400 {
        let at = SimTime::ZERO + SimDuration::from_secs_f64(rounds as f64 * scenario.dt);
        {
            let _sim = vc_obs::profile::frame("sim.tick");
            scenario.tick(at, reborrow(&mut rec));
        }
        let table_nb = scenario.neighbor_table();
        let positions = scenario.fleet.positions();
        mode.gossip_round(
            &table_nb,
            positions,
            &channel,
            &mut scenario.rng,
            OperatingMode::Emergency,
            at,
            reborrow(&mut rec),
        );
        coverage = mode.coverage(OperatingMode::Emergency);
        rounds += 1;
    }
    table.note(format!(
        "emergency-mode V2V gossip: {} coverage after {} rounds ({} s simulated) with zero infrastructure",
        pct(coverage),
        rounds,
        f1(rounds as f64 * scenario.dt),
    ));

    // How the surviving fleet self-organizes with every RSU dark: one
    // clustering pass over the post-gossip world (§IV-A.2's dynamic
    // architecture forming without infrastructure).
    let gossip_end = SimTime::ZERO + SimDuration::from_secs_f64(rounds as f64 * scenario.dt);
    let neighbors = scenario.neighbor_table();
    let world = WorldView {
        positions: scenario.fleet.positions(),
        velocities: scenario.fleet.velocities(),
        online: scenario.fleet.online_flags(),
        neighbors: &neighbors,
    };
    let clustering = vc_net::cluster::form_clusters(
        &world,
        &vc_net::cluster::ClusterConfig::multi_hop(),
        gossip_end,
        reborrow(&mut rec),
    );
    table.note(format!(
        "post-disaster self-organization: {} clusters across {} vehicles, no infrastructure",
        clustering.heads().count(),
        vehicles,
    ));

    // Emergency re-join (§V-A): survivors re-authenticate into the ad-hoc
    // cloud — pairwise handshakes with the responder vehicle plus a
    // pseudonym switch on admission. Latency is modeled one-hop sim time,
    // so the numbers (and any trace) are deterministic.
    let mut ta = TrustedAuthority::new(&seed.to_be_bytes());
    let mut registry = PseudonymRegistry::new();
    let rejoiners = 8usize;
    let wallets: Vec<PseudonymWallet> = (0..=rejoiners)
        .map(|i| {
            let identity = RealIdentity::for_vehicle(VehicleId(i as u32));
            ta.register(identity.clone(), VehicleId(i as u32));
            registry
                .issue_wallet(
                    &ta,
                    &identity,
                    8,
                    SimTime::ZERO,
                    SimTime::from_secs(100_000),
                    &i.to_be_bytes(),
                )
                .expect("wallet issuance")
        })
        .collect();
    let ta_key = ta.public_key();
    let params = HandshakeObsParams {
        ta_key: &ta_key,
        crl: registry.crl(),
        window: SimDuration::from_secs(5),
        hop: SimDuration::from_millis(3),
    };
    let mut admitted = 0usize;
    let mut joiners = wallets;
    let broker = joiners.remove(0);
    for (i, joiner) in joiners.iter_mut().enumerate() {
        let start = gossip_end + SimDuration::from_millis(100 * i as u64);
        if run_handshake(
            joiner,
            &broker,
            &params,
            start,
            seed.wrapping_add(i as u64),
            reborrow(&mut rec),
        )
        .is_ok()
        {
            admitted += 1;
            // Fresh pseudonym on admission: the pre-disaster identifier is
            // assumed burned.
            joiner.rotate(start + SimDuration::from_millis(10), reborrow(&mut rec));
        }
    }
    table.note(format!(
        "emergency re-join: {admitted}/{rejoiners} authenticated handshakes (6 ms modeled RTT each) with fresh pseudonyms on admission",
    ));
    table.note("expected shape: infrastructure architecture degrades with RSU failures (members→0 at 100%); dynamic architecture is indifferent to them");
    table
}
