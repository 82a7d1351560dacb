//! Property-based tests for clustering and routing invariants.

use vc_net::cluster::{form_clusters, ClusterConfig};
use vc_net::message::{Packet, PacketId};
use vc_net::netsim::NetSim;
use vc_net::routing::{ClusterRouting, Epidemic, GreedyGeo, MozoRouting, RoutingProtocol};
use vc_net::world::WorldView;
use vc_obs::{SampleRate, Sampler};
use vc_sim::geom::Point;
use vc_sim::node::VehicleId;
use vc_sim::radio::NeighborTable;
use vc_sim::rng::SimRng;
use vc_sim::time::SimTime;
use vc_testkit::prop::strategy::{any_u16, any_u32, any_u64, from_fn, FromFn};
use vc_testkit::{prop, prop_assert, prop_assert_eq, prop_assert_ne};

#[derive(Debug, Clone)]
struct World {
    positions: Vec<Point>,
    velocities: Vec<Point>,
    online: Vec<bool>,
}

fn gen_world(rng: &mut SimRng, n: usize) -> World {
    let positions = (0..n)
        .map(|_| Point::new(rng.range_f64(-1000.0, 1000.0), rng.range_f64(-1000.0, 1000.0)))
        .collect();
    let velocities = (0..n)
        .map(|_| Point::new(rng.range_f64(-30.0, 30.0), rng.range_f64(-30.0, 30.0)))
        .collect();
    // Ensure at least vehicle 0 is online so protocols have a holder.
    let mut online: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
    online[0] = true;
    World { positions, velocities, online }
}

fn world_strategy(max_n: usize) -> FromFn<impl Fn(&mut SimRng) -> World> {
    from_fn(move |rng| {
        let n = rng.range_u64(2, max_n as u64) as usize;
        gen_world(rng, n)
    })
}

/// Two independently generated worlds of the same (random) size — the
/// before/after pair the maintenance invariants check.
fn world_pair() -> FromFn<impl Fn(&mut SimRng) -> (World, World)> {
    from_fn(|rng| {
        let n = rng.range_u64(2, 24) as usize;
        (gen_world(rng, n), gen_world(rng, n))
    })
}

/// Fingerprint of a full instrumented sharded run: statistics (latencies as
/// raw bits), the serialized event stream, and the end-state fleet
/// kinematics. Equal fingerprints mean bitwise-equal runs.
type RunFingerprint = (u64, u64, u64, Vec<u32>, Vec<u64>, Vec<u8>, Vec<(u64, u64)>);

fn sharded_run_fingerprint<P: RoutingProtocol>(
    seed: u64,
    vehicles: usize,
    packets: usize,
    rounds: usize,
    shard_count: usize,
    protocol: P,
) -> RunFingerprint {
    traced_run_fingerprint(seed, vehicles, packets, rounds, shard_count, protocol, SampleRate::OFF)
}

/// [`sharded_run_fingerprint`] with causal tracing at an explicit sample
/// rate (the sampler is seeded from the run seed, like the default).
#[allow(clippy::too_many_arguments)]
fn traced_run_fingerprint<P: RoutingProtocol>(
    seed: u64,
    vehicles: usize,
    packets: usize,
    rounds: usize,
    shard_count: usize,
    protocol: P,
    rate: SampleRate,
) -> RunFingerprint {
    let mut b = vc_sim::scenario::ScenarioBuilder::new();
    b.seed(seed).vehicles(vehicles);
    let mut scenario = b.urban_with_rsus();
    scenario.shards = shard_count;
    let mut rec = vc_obs::Recorder::new();
    let (stats, events) = {
        let mut sim = NetSim::new(&mut scenario, protocol);
        sim.set_sampler(Sampler::new(seed, rate));
        sim.send_random_pairs_obs(packets, 128, Some(&mut rec));
        sim.run_rounds_obs(rounds, Some(&mut rec));
        let stats = sim.into_stats();
        let mut events = Vec::new();
        rec.write_jsonl(&mut events).expect("serialize events");
        (stats, events)
    };
    let lat_bits: Vec<u64> = stats.latencies_s.iter().map(|l| l.to_bits()).collect();
    let pos_bits: Vec<(u64, u64)> =
        scenario.fleet.positions().iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
    (stats.sent, stats.delivered, stats.transmissions, stats.hops, lat_bits, events, pos_bits)
}

prop! {
    #![cases(64)]

    // The CSR NeighborTable must equal the old nested-Vec build: per vehicle
    // a sorted list of the online others strictly within range, empty for
    // offline vehicles. Both the fresh build and an in-place rebuild over a
    // dirty grid/table are checked against a brute-force reference.
    #[test]
    fn neighbor_table_matches_naive_reference(w in world_strategy(40)) {
        let range = 300.0;
        let table = NeighborTable::build(&w.positions, &w.online, range);
        let mut reused = NeighborTable::new();
        // Deliberately mismatched cell size and pre-polluted buckets: the
        // result may not depend on either.
        let mut grid = vc_sim::geom::SpatialGrid::new(145.0);
        grid.insert(9999, Point::new(0.0, 0.0));
        reused.rebuild(&mut grid, &w.positions, &w.online, range);
        let n = w.positions.len();
        prop_assert_eq!(table.len(), n);
        prop_assert_eq!(reused.len(), n);
        for i in 0..n {
            let id = VehicleId(i as u32);
            let mut expect: Vec<VehicleId> = Vec::new();
            if w.online[i] {
                for j in 0..n {
                    if j != i
                        && w.online[j]
                        && w.positions[j].distance_sq(w.positions[i]) < range * range
                    {
                        expect.push(VehicleId(j as u32));
                    }
                }
            }
            prop_assert_eq!(table.of(id), expect.as_slice());
            prop_assert_eq!(reused.of(id), expect.as_slice());
        }
    }

    // Clustering invariants: every online vehicle gets a head; heads head
    // themselves; members lists are consistent; offline vehicles excluded.
    #[test]
    fn clustering_invariants(w in world_strategy(40)) {
        let table = NeighborTable::build(&w.positions, &w.online, 300.0);
        let world = WorldView {
            positions: &w.positions,
            velocities: &w.velocities,
            online: &w.online,
            neighbors: &table,
        };
        for cfg in [ClusterConfig::multi_hop(), ClusterConfig::moving_zone()] {
            let clustering = form_clusters(&world, &cfg, SimTime::ZERO, None);
            for i in 0..w.positions.len() {
                let id = VehicleId(i as u32);
                match clustering.head_of(id) {
                    Some(head) => {
                        prop_assert!(w.online[i], "offline vehicle got a head");
                        prop_assert_eq!(clustering.head_of(head), Some(head));
                        prop_assert!(clustering.members(head).contains(&id));
                    }
                    None => prop_assert!(!w.online[i], "online vehicle without a head"),
                }
            }
            // Members partition the online set.
            let mut assigned: Vec<VehicleId> = clustering
                .heads()
                .flat_map(|h| clustering.members(h).to_vec())
                .collect();
            assigned.sort();
            let mut online_ids: Vec<VehicleId> = (0..w.positions.len())
                .filter(|&i| w.online[i])
                .map(|i| VehicleId(i as u32))
                .collect();
            online_ids.sort();
            prop_assert_eq!(assigned, online_ids);
        }
    }

    // Maintenance invariants mirror the from-scratch invariants: every
    // online vehicle gets a head, heads head themselves, members partition
    // the online set — regardless of what the previous round looked like.
    #[test]
    fn maintenance_invariants((before, after) in world_pair()) {
        let cfg = ClusterConfig::multi_hop();
        let table_before = NeighborTable::build(&before.positions, &before.online, 300.0);
        let world_before = WorldView {
            positions: &before.positions,
            velocities: &before.velocities,
            online: &before.online,
            neighbors: &table_before,
        };
        let previous = form_clusters(&world_before, &cfg, SimTime::ZERO, None);
        let table_after = NeighborTable::build(&after.positions, &after.online, 300.0);
        let world_after = WorldView {
            positions: &after.positions,
            velocities: &after.velocities,
            online: &after.online,
            neighbors: &table_after,
        };
        let next = vc_net::cluster::maintain_clusters(&previous, &world_after, &cfg, 0.5, SimTime::ZERO, None);
        for i in 0..after.positions.len() {
            let id = VehicleId(i as u32);
            match next.head_of(id) {
                Some(head) => {
                    prop_assert!(after.online[i]);
                    prop_assert_eq!(next.head_of(head), Some(head));
                    prop_assert!(next.members(head).contains(&id));
                }
                None => prop_assert!(!after.online[i]),
            }
        }
        let mut assigned: Vec<VehicleId> =
            next.heads().flat_map(|h| next.members(h).to_vec()).collect();
        assigned.sort();
        assigned.dedup();
        let mut online_ids: Vec<VehicleId> = (0..after.positions.len())
            .filter(|&i| after.online[i])
            .map(|i| VehicleId(i as u32))
            .collect();
        online_ids.sort();
        prop_assert_eq!(assigned, online_ids);
    }

    // Routing safety: protocols only ever forward to actual neighbors that
    // have not carried the packet, and never to the holder itself.
    #[test]
    fn routing_forwards_only_to_fresh_neighbors(w in world_strategy(30), dst_pick in any_u16(), carried_mask in any_u32()) {
        let table = NeighborTable::build(&w.positions, &w.online, 300.0);
        let world = WorldView {
            positions: &w.positions,
            velocities: &w.velocities,
            online: &w.online,
            neighbors: &table,
        };
        let n = w.positions.len();
        let dst = VehicleId((dst_pick as usize % n) as u32);
        let packet = Packet::new(PacketId(1), VehicleId(0), dst, 256, SimTime::ZERO);
        let carried = |v: VehicleId| carried_mask & (1 << (v.0 % 32)) != 0;

        let mut cluster = ClusterRouting::new();
        cluster.begin_round(&world);
        let mut mozo = MozoRouting::new();
        mozo.begin_round(&world);
        let protocols: Vec<&dyn RoutingProtocol> = vec![&Epidemic, &GreedyGeo, &cluster, &mozo];
        for proto in protocols {
            for holder_idx in 0..n {
                let holder = VehicleId(holder_idx as u32);
                if !w.online[holder_idx] {
                    continue;
                }
                for hop in proto.next_hops(holder, &packet, &world, &carried) {
                    prop_assert_ne!(hop, holder, "{} forwarded to self", proto.name());
                    prop_assert!(
                        table.of(holder).contains(&hop),
                        "{} forwarded to non-neighbor", proto.name()
                    );
                    prop_assert!(!carried(hop), "{} forwarded to carrier", proto.name());
                }
            }
        }
    }

    // Single-copy protocols return at most one next hop; epidemic returns
    // each fresh neighbor exactly once.
    #[test]
    fn hop_multiplicity(w in world_strategy(25)) {
        let table = NeighborTable::build(&w.positions, &w.online, 300.0);
        let world = WorldView {
            positions: &w.positions,
            velocities: &w.velocities,
            online: &w.online,
            neighbors: &table,
        };
        let n = w.positions.len();
        let packet = Packet::new(PacketId(1), VehicleId(0), VehicleId((n - 1) as u32), 256, SimTime::ZERO);
        let never = |_: VehicleId| false;
        let mut cluster = ClusterRouting::new();
        cluster.begin_round(&world);
        let mut mozo = MozoRouting::new();
        mozo.begin_round(&world);
        for holder_idx in 0..n {
            let holder = VehicleId(holder_idx as u32);
            prop_assert!(GreedyGeo.next_hops(holder, &packet, &world, &never).len() <= 1);
            prop_assert!(cluster.next_hops(holder, &packet, &world, &never).len() <= 1);
            prop_assert!(mozo.next_hops(holder, &packet, &world, &never).len() <= 1);
            let epi = Epidemic.next_hops(holder, &packet, &world, &never);
            let mut dedup = epi.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), epi.len(), "epidemic duplicated a target");
        }
    }

    // ---- sharded round determinism ----

    #[test]
    fn sharded_netsim_run_is_bitwise_equal_to_sequential(
        seed in any_u64(),
        shards in 2usize..9,
        vehicles in 30usize..70,
        packets in 5usize..20,
        rounds in 5usize..20,
        protocol in 0u8..3,
    ) {
        // A full instrumented run: the merged event stream (every radio
        // tx/rx/drop and routing forward/deliver, in order), the final
        // statistics (latencies compared bit for bit), and the end-state
        // fleet kinematics must all be identical at any shard count.
        let (sequential, sharded) = match protocol {
            0 => (
                sharded_run_fingerprint(seed, vehicles, packets, rounds, 1, Epidemic),
                sharded_run_fingerprint(seed, vehicles, packets, rounds, shards, Epidemic),
            ),
            1 => (
                sharded_run_fingerprint(seed, vehicles, packets, rounds, 1, GreedyGeo),
                sharded_run_fingerprint(seed, vehicles, packets, rounds, shards, GreedyGeo),
            ),
            _ => (
                sharded_run_fingerprint(seed, vehicles, packets, rounds, 1, MozoRouting::new()),
                sharded_run_fingerprint(
                    seed, vehicles, packets, rounds, shards, MozoRouting::new(),
                ),
            ),
        };
        prop_assert_eq!(sequential, sharded);
    }

    // Causal tracing composes with sharding: at any sample rate (off, all,
    // or one-in-N) the traced event stream — causal.origin/hop/deliver/drop
    // included — byte-compares between the sequential and sharded runs,
    // because the sampling decision is a pure function of (seed, packet id)
    // and worker event buffers merge in canonical order.
    #[test]
    fn traced_sharded_run_is_bitwise_equal_at_any_sample_rate(
        seed in any_u64(),
        shards in 2usize..9,
        rate_pick in 0u8..4,
        vehicles in 30usize..70,
        packets in 5usize..20,
        rounds in 5usize..20,
    ) {
        let rate = match rate_pick {
            0 => SampleRate::OFF,
            1 => SampleRate::ALL,
            2 => SampleRate::one_in(2),
            _ => SampleRate::one_in(7),
        };
        let sequential = traced_run_fingerprint(seed, vehicles, packets, rounds, 1, Epidemic, rate);
        let sharded =
            traced_run_fingerprint(seed, vehicles, packets, rounds, shards, Epidemic, rate);
        prop_assert_eq!(sequential, sharded);
    }
}

// ---------------------------------------------------------------------------
// `vc_net::svc` wire-frame properties: the daemon's length-prefixed protocol
// must round-trip arbitrary frames, survive arbitrarily fragmented reads,
// and reject truncated or oversized input with errors, never panics.

/// A reader that hands out the underlying bytes in pseudo-random small
/// pieces (1..=7 bytes), exercising every short-read path in `read_frame`.
struct SplitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    rng: SimRng,
}

impl std::io::Read for SplitReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.bytes.len() {
            return Ok(0);
        }
        let chunk =
            (self.rng.range_u64(1, 7) as usize).min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..chunk].copy_from_slice(&self.bytes[self.pos..self.pos + chunk]);
        self.pos += chunk;
        Ok(chunk)
    }
}

fn gen_svc_string(rng: &mut SimRng, max_len: u64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-._ {}\"";
    let len = rng.range_u64(0, max_len) as usize;
    (0..len).map(|_| ALPHABET[rng.index(ALPHABET.len())] as char).collect()
}

fn gen_svc_times(rng: &mut SimRng) -> svc::JobTimes {
    svc::JobTimes {
        accepted_ns: rng.next_u64(),
        started_ns: rng.next_u64(),
        finished_ns: rng.next_u64(),
    }
}

/// One arbitrary frame of any kind, with arbitrary field contents and
/// payload lengths (chunk data up to 2 KiB).
fn gen_svc_frame(rng: &mut SimRng) -> svc::Frame {
    use svc::Frame;
    match rng.range_u64(0, 14) {
        0 => Frame::Submit {
            scenario: gen_svc_string(rng, 64),
            seed: rng.next_u64(),
            ticks: rng.next_u64() as u32,
            flags: rng.next_u64() as u32,
        },
        1 => Frame::Status { job: rng.next_u64() },
        2 => Frame::Result { job: rng.next_u64() },
        3 => Frame::Cancel { job: rng.next_u64() },
        4 => Frame::Metrics,
        5 => Frame::Shutdown,
        6 => Frame::Accepted { job: rng.next_u64() },
        7 => Frame::Rejected {
            reason: [
                svc::RejectReason::QueueFull,
                svc::RejectReason::Draining,
                svc::RejectReason::UnknownScenario,
                svc::RejectReason::BudgetExceeded,
                svc::RejectReason::BadRequest,
            ][rng.index(5)],
            detail: gen_svc_string(rng, 128),
        },
        8 => Frame::JobStatus {
            job: rng.next_u64(),
            phase: svc::JobPhase::from_u8(rng.range_u64(0, 4) as u8).unwrap(),
            queue_depth: rng.next_u64() as u32,
            times: gen_svc_times(rng),
        },
        9 => Frame::ResultHeader {
            job: rng.next_u64(),
            phase: svc::JobPhase::from_u8(rng.range_u64(0, 4) as u8).unwrap(),
            checksum: rng.next_u64(),
            stats_len: rng.next_u64(),
            trace_len: rng.next_u64(),
            times: gen_svc_times(rng),
        },
        10 => {
            let len = rng.range_u64(0, 2048) as usize;
            Frame::Chunk {
                job: rng.next_u64(),
                channel: if rng.chance(0.5) { svc::Channel::Stats } else { svc::Channel::Trace },
                data: (0..len).map(|_| rng.next_u64() as u8).collect(),
            }
        }
        11 => Frame::ResultEnd { job: rng.next_u64() },
        12 => Frame::MetricsReply { json: gen_svc_string(rng, 256) },
        13 => Frame::Okay,
        _ => Frame::Error { detail: gen_svc_string(rng, 128) },
    }
}

fn svc_frame_strategy() -> FromFn<impl Fn(&mut SimRng) -> vc_net::svc::Frame> {
    from_fn(gen_svc_frame)
}

/// A short pseudo-random sequence of frames (1..=8).
fn svc_burst_strategy() -> FromFn<impl Fn(&mut SimRng) -> Vec<vc_net::svc::Frame>> {
    from_fn(|rng| {
        let n = rng.range_u64(1, 8) as usize;
        (0..n).map(|_| gen_svc_frame(rng)).collect()
    })
}

use vc_net::svc;

prop! {
    #![cases(96)]

    // Every frame kind round-trips through encode/decode bit-exactly.
    #[test]
    fn svc_frames_roundtrip(frame in svc_frame_strategy()) {
        let payload = frame.encode();
        prop_assert!(payload.len() <= svc::MAX_FRAME_LEN);
        prop_assert_eq!(svc::Frame::decode(&payload), Ok(frame));
    }

    // A burst of frames written to one stream is recovered intact even when
    // the transport delivers the bytes in tiny fragments that split length
    // prefixes and payloads at arbitrary boundaries.
    #[test]
    fn svc_streams_survive_split_reads(frames in svc_burst_strategy(), split_seed in any_u64()) {
        let mut wire = Vec::new();
        for frame in &frames {
            svc::write_frame(&mut wire, frame).unwrap();
        }
        let mut reader =
            SplitReader { bytes: &wire, pos: 0, rng: SimRng::seed_from(split_seed) };
        let mut decoded = Vec::new();
        while let Some(frame) = svc::read_decode(&mut reader).unwrap() {
            decoded.push(frame);
        }
        prop_assert_eq!(decoded, frames);
    }

    // Any strict prefix of a frame payload decodes to an error — never a
    // panic, and never a silently-successful partial parse.
    #[test]
    fn svc_truncated_frames_error_not_panic(frame in svc_frame_strategy(), cut_pick in any_u64()) {
        let payload = frame.encode();
        let cut = (cut_pick % payload.len() as u64) as usize;
        prop_assert!(svc::Frame::decode(&payload[..cut]).is_err());
        // And at the stream level: a frame whose payload stops early is an
        // UnexpectedEof, not a hang or a panic.
        let mut wire = Vec::new();
        svc::write_frame(&mut wire, &frame).unwrap();
        let short = &wire[..4 + cut];
        let err = svc::read_decode(&mut std::io::Cursor::new(short)).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    // Oversized declared lengths are rejected before any allocation: at the
    // stream level (length prefix beyond MAX_FRAME_LEN) and at the field
    // level (string/bytes length beyond the cap or the remaining payload).
    #[test]
    fn svc_oversized_lengths_are_rejected(
        excess in any_u32(),
        tail in any_u16(),
        job in any_u64(),
    ) {
        let declared = svc::MAX_FRAME_LEN as u64 + 1 + excess as u64 % (u32::MAX as u64 >> 1);
        let mut wire = (declared as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&tail.to_be_bytes());
        let err = svc::read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Field level: an ERROR frame whose detail claims more bytes than
        // the payload holds must fail with a length error.
        let mut w = vc_net::bytebuf::ByteWriter::with_capacity(16);
        w.put_u8(0x89); // K_ERROR
        w.put_u32(1 + (excess % 1024) + tail as u32);
        w.put_u64(job); // 8 bytes of "detail", fewer than declared
        prop_assert!(svc::Frame::decode(&w.into_vec()).is_err());
    }
}
