//! The packet-level network simulation driver.
//!
//! Couples a [`Scenario`] (mobility + radio) with a [`RoutingProtocol`]:
//! each round the fleet moves, the neighbor table is rebuilt, and every
//! live packet copy gets one forwarding opportunity over the lossy channel.
//!
//! ## Parallel rounds
//!
//! The radio-bound hot loop fans out over worker threads in contiguous
//! copy-index shards ([`map_shards`]). Each copy draws from its own RNG
//! stream ([`SimRng::stream`] keyed by a per-round nonce and the copy's
//! canonical index), workers compute pure `CopyOutcome`s against the
//! start-of-round snapshot, and the coordinator merges outcomes back in
//! canonical index order — emitting events, updating statistics, and
//! deduplicating same-round deliveries/forwards deterministically. The
//! shard count (`VC_SHARDS`) therefore changes wall-clock only: results
//! are bitwise identical for every value, including 1.
//!
//! ## Shard-local recorders and causal traces
//!
//! When a [`Recorder`] is attached, each worker buffers its copy's radio
//! events in the `CopyOutcome`'s shard-local [`EventBuf`]; the
//! coordinator absorbs the buffers in canonical copy order before replaying
//! the copy's routing/causal events, so the merged stream byte-compares at
//! every shard count. Packets selected by the deterministic [`Sampler`]
//! additionally carry a trace id and emit a
//! `causal.origin` → `causal.hop`* → `causal.deliver`/`causal.drop` chain
//! (see `vc_obs::causal`).

use crate::message::{Packet, PacketId, RoutingStats};
use crate::routing::RoutingProtocol;
use crate::world::WorldView;
use std::collections::HashSet;
use vc_obs::{reborrow, EventBuf, MemSize, Recorder, Sampler};
use vc_sim::geom::SpatialGrid;
use vc_sim::node::VehicleId;
use vc_sim::radio::NeighborTable;
use vc_sim::rng::SimRng;
use vc_sim::scenario::Scenario;
use vc_sim::shard::map_shards;
use vc_sim::time::{SimDuration, SimTime};

/// One live copy of a packet.
#[derive(Debug, Clone)]
struct Copy {
    packet_idx: usize,
    holder: VehicleId,
    hops: u32,
    /// Accumulated per-hop radio latency, seconds.
    radio_latency_s: f64,
}

/// Per-packet simulation state.
#[derive(Debug)]
struct PacketState {
    packet: Packet,
    carried: HashSet<VehicleId>,
    delivered: bool,
}

/// One transmission attempt computed by a shard worker, replayed (events +
/// statistics) by the coordinator during the merge.
#[derive(Debug)]
struct Attempt {
    target: VehicleId,
    bytes: usize,
    contenders: usize,
    dist_m: f64,
    /// `Some(one-hop latency)` on success, `None` on channel loss.
    latency: Option<SimDuration>,
}

/// What happened to one copy this round, as seen by its shard worker.
#[derive(Debug)]
enum Fate {
    /// Copy died before acting (packet already delivered, holder offline).
    Dead,
    /// Copy made no progress (failed direct attempt, TTL-frozen): it stays.
    Held,
    /// Direct delivery to the destination succeeded with this hop latency.
    Delivered(SimDuration),
    /// The protocol relayed; `keeps` is whether the holder retains its copy.
    Forwarded { keeps: bool },
}

/// A shard worker's full report for one copy.
#[derive(Debug)]
struct CopyOutcome {
    attempts: Vec<Attempt>,
    fate: Fate,
    /// Shard-local radio events (empty unless a recorder is attached),
    /// absorbed by the coordinator in canonical copy order.
    events: EventBuf,
}

/// The network simulation: inject packets, run rounds, read statistics.
pub struct NetSim<'a, P: RoutingProtocol> {
    scenario: &'a mut Scenario,
    protocol: P,
    packets: Vec<PacketState>,
    copies: Vec<Copy>,
    stats: RoutingStats,
    next_id: u64,
    now: SimTime,
    /// Neighbor table and spatial grid reused across rounds (CSR storage and
    /// grid buckets are rebuilt in place each round instead of reallocated).
    table: NeighborTable,
    grid: SpatialGrid,
    /// Decides which packets carry a causal trace. Keyed by the scenario
    /// seed, so the traced set is reproducible and shard-count-invariant.
    sampler: Sampler,
    /// Start-of-round delivery snapshot, reused across rounds so the
    /// steady-state round loop stays allocation-free.
    delivered_snap: Vec<bool>,
}

/// Evaluates one link attempt from `from` to `to` against the read-only
/// channel model, drawing loss and latency from the copy's own RNG stream.
fn attempt_link(
    scenario: &Scenario,
    world: &WorldView<'_>,
    from: VehicleId,
    to: VehicleId,
    bytes: usize,
    rng: &mut SimRng,
) -> Attempt {
    let (a, b) = (world.pos(from), world.pos(to));
    let contenders = world.neighbors.degree(from);
    let latency = if rng.chance(scenario.delivery_probability(a, b)) {
        Some(scenario.channel.latency(contenders, bytes, rng))
    } else {
        None
    };
    Attempt { target: to, bytes, contenders, dist_m: a.distance(b), latency }
}

/// Pure per-copy round logic, run by shard workers. Reads only the
/// start-of-round snapshot (`delivered_before`, the world view, packet
/// states) and the copy's private RNG stream, so the result is independent
/// of scheduling and shard count.
#[allow(clippy::too_many_arguments)]
fn copy_outcome<P: RoutingProtocol>(
    index: usize,
    copy: &Copy,
    state: &PacketState,
    delivered_before: bool,
    scenario: &Scenario,
    world: &WorldView<'_>,
    protocol: &P,
    round_key: u64,
    now: SimTime,
    record: bool,
) -> CopyOutcome {
    let mut events = EventBuf::new();
    // A copy dies when its packet was delivered (as of the round snapshot)
    // or its holder went offline (offline vehicles keep nothing running).
    if delivered_before || !world.is_online(copy.holder) {
        return CopyOutcome { attempts: Vec::new(), fate: Fate::Dead, events };
    }
    let mut rng = SimRng::stream(round_key, index as u64);
    let dst = state.packet.dst;
    // Direct delivery when the destination is a live neighbor.
    if world.is_online(dst) && world.neighbors.of(copy.holder).contains(&dst) {
        let attempt =
            attempt_link(scenario, world, copy.holder, dst, state.packet.size_bytes, &mut rng);
        if record {
            buf_attempt(&mut events, now, &attempt);
        }
        let fate = match attempt.latency {
            Some(lat) => Fate::Delivered(lat),
            None => Fate::Held,
        };
        return CopyOutcome { attempts: vec![attempt], fate, events };
    }
    // Out of hop budget: the copy may still deliver directly later, but may
    // not be relayed further.
    if copy.hops >= state.packet.ttl_hops {
        return CopyOutcome { attempts: Vec::new(), fate: Fate::Held, events };
    }
    // Ask the protocol for relays.
    let hops =
        protocol.next_hops(copy.holder, &state.packet, world, &|v| state.carried.contains(&v));
    let mut attempts = Vec::with_capacity(hops.len());
    let mut forwarded = false;
    for target in hops {
        debug_assert!(target != copy.holder);
        let attempt =
            attempt_link(scenario, world, copy.holder, target, state.packet.size_bytes, &mut rng);
        forwarded |= attempt.latency.is_some();
        if record {
            buf_attempt(&mut events, now, &attempt);
        }
        attempts.push(attempt);
    }
    // Store-carry-forward: the holder keeps its copy unless the protocol
    // handed it off (single-copy protocols move, epidemic replicates and
    // also keeps).
    let keeps = !forwarded || protocol.name() == "epidemic";
    CopyOutcome { attempts, fate: Fate::Forwarded { keeps }, events }
}

impl<'a, P: RoutingProtocol> NetSim<'a, P> {
    /// Creates a simulation over an existing scenario.
    pub fn new(scenario: &'a mut Scenario, protocol: P) -> Self {
        // Cell size only affects query cost, never results, so sizing it
        // once from the current channel range is safe even if the range is
        // later mutated between rounds.
        let grid = SpatialGrid::new(scenario.channel.range_m.max(1.0));
        let sampler = Sampler::from_env(scenario.seed);
        NetSim {
            scenario,
            protocol,
            packets: Vec::new(),
            copies: Vec::new(),
            stats: RoutingStats::default(),
            next_id: 0,
            now: SimTime::ZERO,
            table: NeighborTable::new(),
            grid,
            sampler,
            delivered_snap: Vec::new(),
        }
    }

    /// Replaces the causal-trace sampler (in-process rate sweeps — see E17 —
    /// and tests; the default samples at the process-wide `VC_TRACE_SAMPLE`
    /// rate keyed by the scenario seed). Affects only packets sent after
    /// the call.
    pub fn set_sampler(&mut self, sampler: Sampler) {
        self.sampler = sampler;
    }

    /// The active causal-trace sampler.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Injects a packet from `src` to `dst` with the given payload size.
    pub fn send(&mut self, src: VehicleId, dst: VehicleId, size_bytes: usize) -> PacketId {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        let mut packet = Packet::new(id, src, dst, size_bytes, self.now);
        // Sampling is a pure hash of (scenario seed, packet id): no RNG
        // state is consumed, so traced and untraced runs stay identical.
        packet.trace = self.sampler.decide(id.0);
        let idx = self.packets.len();
        let mut carried = HashSet::new();
        carried.insert(src);
        self.packets.push(PacketState { packet, carried, delivered: false });
        self.copies.push(Copy { packet_idx: idx, holder: src, hops: 0, radio_latency_s: 0.0 });
        self.stats.sent += 1;
        id
    }

    /// [`NetSim::send`] with instrumentation: when the sampler selected the
    /// packet, emits `causal.origin` opening its trace chain.
    pub fn send_obs(
        &mut self,
        src: VehicleId,
        dst: VehicleId,
        size_bytes: usize,
        mut rec: Option<&mut Recorder>,
    ) -> PacketId {
        let id = self.send(src, dst, size_bytes);
        let trace = self.packets.last().and_then(|s| s.packet.trace);
        if let (Some(trace), Some(rec)) = (trace, reborrow(&mut rec)) {
            rec.event(
                self.now,
                "net",
                "causal.origin",
                vec![
                    ("trace", trace.as_u64().into()),
                    ("packet", id.0.into()),
                    ("src", src.0.into()),
                    ("dst", dst.0.into()),
                ],
            );
        }
        id
    }

    /// Injects `n` packets between random distinct online vehicle pairs.
    pub fn send_random_pairs(&mut self, n: usize, size_bytes: usize) {
        self.send_random_pairs_obs(n, size_bytes, None);
    }

    /// [`NetSim::send_random_pairs`] with instrumentation: emits
    /// `causal.origin` for every sampled packet. RNG draws are identical to
    /// the plain path.
    pub fn send_random_pairs_obs(
        &mut self,
        n: usize,
        size_bytes: usize,
        mut rec: Option<&mut Recorder>,
    ) {
        let online = self.scenario.fleet.online_ids();
        if online.len() < 2 {
            return;
        }
        for _ in 0..n {
            let a = online[self.scenario.rng.index(online.len())];
            let mut b = a;
            while b == a {
                b = online[self.scenario.rng.index(online.len())];
            }
            self.send_obs(a, b, size_bytes, reborrow(&mut rec));
        }
    }

    /// Runs `rounds` simulation rounds (each advances mobility by the
    /// scenario's `dt` and gives every live copy one forwarding chance).
    pub fn run_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.round(None);
        }
    }

    /// [`NetSim::run_rounds`] with instrumentation: each round emits `sim`
    /// radio tx/rx/drop events for every transmission attempt (buffered
    /// shard-locally by the workers, merged in canonical order) plus `net`
    /// events `routing.forward` (relay accepted a copy) and
    /// `routing.deliver` (destination reached, with hop count and
    /// end-to-end latency). Packets selected by the sampler additionally
    /// emit `causal.hop` / `causal.deliver` / `causal.drop` chain events,
    /// and each round ends with a [`Recorder::timeseries_tick`]. The
    /// simulation — including the RNG streams — is identical to the
    /// untraced path.
    pub fn run_rounds_obs(&mut self, rounds: usize, mut rec: Option<&mut Recorder>) {
        for _ in 0..rounds {
            self.round(reborrow(&mut rec));
        }
    }

    fn round(&mut self, mut rec: Option<&mut Recorder>) {
        let _round = vc_obs::profile::frame("routing.round");
        {
            let _tick = vc_obs::profile::frame("shard.tick");
            self.scenario.tick(self.now, None);
        }
        self.now += SimDuration::from_secs_f64(self.scenario.dt);
        // One nonce per round seeds every copy's private stream; drawing it
        // on the coordinator keeps `scenario.rng` shard-count independent.
        let round_key = self.scenario.rng.next_u64();
        let scenario: &Scenario = self.scenario;
        {
            let _grid = vc_obs::profile::frame("grid.query");
            self.table.rebuild(
                &mut self.grid,
                scenario.fleet.positions(),
                scenario.fleet.online_flags(),
                scenario.channel.range_m,
            );
        }
        let world = WorldView {
            positions: scenario.fleet.positions(),
            velocities: scenario.fleet.velocities(),
            online: scenario.fleet.online_flags(),
            neighbors: &self.table,
        };
        self.protocol.begin_round(&world);

        // Snapshot delivery flags so every worker (and every shard count)
        // sees the same start-of-round state. The buffer is a reused field
        // (taken for the duration of the round to keep the merge loop's
        // mutable packet borrows legal), so steady-state rounds allocate
        // nothing here.
        let mut delivered_snap = std::mem::take(&mut self.delivered_snap);
        delivered_snap.clear();
        delivered_snap.extend(self.packets.iter().map(|s| s.delivered));
        let copies = std::mem::take(&mut self.copies);
        let record = rec.is_some();
        let now = self.now;
        let outcomes: Vec<CopyOutcome> = {
            let _delivery = vc_obs::profile::frame("radio.delivery");
            let (packets, protocol) = (&self.packets, &self.protocol);
            map_shards(copies.len(), scenario.shards, |range| {
                range
                    .map(|i| {
                        let copy = &copies[i];
                        copy_outcome(
                            i,
                            copy,
                            &packets[copy.packet_idx],
                            delivered_snap[copy.packet_idx],
                            scenario,
                            &world,
                            protocol,
                            round_key,
                            now,
                            record,
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };

        // Sequential merge in canonical copy order: absorb each worker's
        // shard-local event buffer, replay routing/causal events and
        // statistics, dedupe same-round deliveries (first in canonical
        // order wins) and duplicate forwards to an already-carried target.
        let _merge = vc_obs::profile::frame("shard.merge");
        let mut surviving: Vec<Copy> = Vec::with_capacity(copies.len());
        let mut new_copies: Vec<Copy> = Vec::new();
        for (copy, outcome) in copies.into_iter().zip(outcomes) {
            if let Some(rec) = reborrow(&mut rec) {
                rec.absorb(outcome.events);
            }
            let trace = self.packets[copy.packet_idx].packet.trace;
            match outcome.fate {
                Fate::Dead => {
                    // Delivered-elsewhere deaths are silent; a holder going
                    // offline ends a traced chain with a visible drop.
                    if !delivered_snap[copy.packet_idx] {
                        if let (Some(trace), Some(rec)) = (trace, reborrow(&mut rec)) {
                            rec.event(
                                now,
                                "net",
                                "causal.drop",
                                vec![
                                    ("trace", trace.as_u64().into()),
                                    ("hop", copy.hops.into()),
                                    ("holder", copy.holder.0.into()),
                                ],
                            );
                        }
                    }
                }
                Fate::Held => {
                    self.stats.transmissions += outcome.attempts.len() as u64;
                    surviving.push(copy);
                }
                Fate::Delivered(lat) => {
                    self.stats.transmissions += 1;
                    let state = &mut self.packets[copy.packet_idx];
                    if !state.delivered {
                        state.delivered = true;
                        let e2e = now.saturating_since(state.packet.created).as_secs_f64()
                            + copy.radio_latency_s
                            + lat.as_secs_f64();
                        self.stats.delivered += 1;
                        self.stats.latencies_s.push(e2e);
                        self.stats.hops.push(copy.hops + 1);
                        let dst = state.packet.dst;
                        let pid = state.packet.id.0;
                        if let Some(rec) = reborrow(&mut rec) {
                            rec.event(
                                now,
                                "net",
                                "routing.deliver",
                                vec![
                                    ("packet", pid.into()),
                                    ("hops", (copy.hops + 1).into()),
                                    ("e2e_s", e2e.into()),
                                ],
                            );
                        }
                        if let (Some(trace), Some(rec)) = (trace, reborrow(&mut rec)) {
                            rec.event(
                                now,
                                "net",
                                "causal.deliver",
                                vec![
                                    ("trace", trace.as_u64().into()),
                                    ("hops", (copy.hops + 1).into()),
                                    ("relay", copy.holder.0.into()),
                                    ("dst", dst.0.into()),
                                    ("e2e_s", e2e.into()),
                                ],
                            );
                        }
                    }
                    // An earlier copy (in canonical order) already delivered
                    // the packet this round: this one dies silently.
                }
                Fate::Forwarded { keeps } => {
                    for attempt in &outcome.attempts {
                        self.stats.transmissions += 1;
                        if attempt.latency.is_none() {
                            continue;
                        }
                        let state = &mut self.packets[copy.packet_idx];
                        // Duplicate forward to a target another copy already
                        // reached this round: the transmission happened (and
                        // was counted above) but spawns no second copy.
                        if state.carried.insert(attempt.target) {
                            let pid = state.packet.id.0;
                            new_copies.push(Copy {
                                packet_idx: copy.packet_idx,
                                holder: attempt.target,
                                hops: copy.hops + 1,
                                radio_latency_s: copy.radio_latency_s
                                    + attempt.latency.map_or(0.0, |l| l.as_secs_f64()),
                            });
                            if let Some(rec) = reborrow(&mut rec) {
                                rec.event(
                                    now,
                                    "net",
                                    "routing.forward",
                                    vec![
                                        ("packet", pid.into()),
                                        ("from", copy.holder.0.into()),
                                        ("to", attempt.target.0.into()),
                                    ],
                                );
                            }
                            if let (Some(trace), Some(rec)) = (trace, reborrow(&mut rec)) {
                                rec.event(
                                    now,
                                    "net",
                                    "causal.hop",
                                    vec![
                                        ("trace", trace.as_u64().into()),
                                        ("hop", (copy.hops + 1).into()),
                                        ("from", copy.holder.0.into()),
                                        ("to", attempt.target.0.into()),
                                        (
                                            "latency_us",
                                            attempt.latency.map_or(0, |l| l.as_micros()).into(),
                                        ),
                                    ],
                                );
                            }
                        }
                    }
                    if keeps {
                        surviving.push(copy);
                    }
                }
            }
        }
        surviving.extend(new_copies);
        self.copies = surviving;
        self.delivered_snap = delivered_snap;
        // One time-series sample per round (no-op unless the recorder's
        // windowed mode is enabled). When memory observability is on
        // (`VC_MEM` unset or non-zero), deep-footprint gauges ride the
        // tick; they are derived from lengths and capacities only — never
        // allocator state — so the exported series stays byte-identical
        // at every shard count. The gauges only ever surface through the
        // time series, so they are computed only when it is armed —
        // `rec.mem_bytes()` walks the retained events, and paying that
        // every round on a plain traced run would be pure overhead.
        if let Some(rec) = reborrow(&mut rec) {
            if vc_obs::mem::enabled() && rec.timeseries().is_some() {
                let fleet = self.scenario.fleet.mem_bytes() + self.scenario.roadnet.mem_bytes();
                let net = self.heap_bytes();
                let obs = rec.mem_bytes();
                let hub = rec.hub_mut();
                hub.gauge_set("mem.fleet.bytes", fleet as f64);
                hub.gauge_set("mem.net.bytes", net as f64);
                hub.gauge_set("mem.obs.bytes", obs as f64);
            }
            rec.timeseries_tick(now);
        }
    }

    /// Mutable access to the underlying scenario (for failure injection
    /// between rounds: taking vehicles offline, failing RSUs).
    pub fn scenario_mut(&mut self) -> &mut Scenario {
        self.scenario
    }

    /// Statistics so far.
    pub fn stats(&self) -> &RoutingStats {
        &self.stats
    }

    /// Consumes the sim, returning final statistics.
    pub fn into_stats(self) -> RoutingStats {
        self.stats
    }

    /// Number of live copies (diagnostic).
    pub fn live_copies(&self) -> usize {
        self.copies.len()
    }

    /// Deep heap footprint of the network layer's own state — packet
    /// states (including carried-by sets), live copies, per-delivery
    /// statistics, the neighbor table, and the spatial grid — in bytes.
    ///
    /// Derived from lengths and capacities only, never from allocator
    /// state, so the value is identical at every shard count.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let packets = (self.packets.capacity() * size_of::<PacketState>()) as u64
            + self
                .packets
                .iter()
                .map(|s| s.carried.capacity() as u64 * (size_of::<VehicleId>() as u64 + 1))
                .sum::<u64>();
        let copies = (self.copies.capacity() * size_of::<Copy>()) as u64;
        let stats = (self.stats.latencies_s.capacity() * size_of::<f64>()) as u64
            + (self.stats.hops.capacity() * size_of::<u32>()) as u64;
        let snap = self.delivered_snap.capacity() as u64;
        packets + copies + stats + snap + self.table.mem_bytes() + self.grid.mem_bytes()
    }
}

/// Buffers one transmission attempt's event pair into a worker's
/// shard-local buffer: `radio.tx` for the attempt, then `radio.rx` (with
/// latency) or `radio.drop` — byte-identical to the sequential probe path
/// once the coordinator absorbs the buffers in canonical order.
fn buf_attempt(buf: &mut EventBuf, now: SimTime, attempt: &Attempt) {
    buf.event(
        now,
        "sim",
        "radio.tx",
        vec![("bytes", attempt.bytes.into()), ("contenders", attempt.contenders.into())],
    );
    match attempt.latency {
        Some(latency) => {
            buf.event(now, "sim", "radio.rx", vec![("latency_us", latency.as_micros().into())]);
        }
        None => buf.event(now, "sim", "radio.drop", vec![("dist_m", attempt.dist_m.into())]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{ClusterRouting, Epidemic, GreedyGeo, MozoRouting};
    use vc_sim::scenario::ScenarioBuilder;

    fn dense_urban(seed: u64, n: usize) -> vc_sim::scenario::Scenario {
        let mut b = ScenarioBuilder::new();
        b.seed(seed).vehicles(n);
        b.urban_with_rsus()
    }

    #[test]
    fn epidemic_delivers_in_connected_network() {
        let mut scenario = dense_urban(1, 60);
        let mut sim = NetSim::new(&mut scenario, Epidemic);
        sim.send_random_pairs(20, 256);
        sim.run_rounds(120);
        let stats = sim.stats();
        assert!(stats.delivery_ratio() > 0.8, "epidemic ratio {}", stats.delivery_ratio());
        assert!(stats.transmissions > stats.delivered, "flooding has overhead");
    }

    #[test]
    fn greedy_delivers_some_with_less_overhead_than_epidemic() {
        let mut s1 = dense_urban(2, 60);
        let mut epi = NetSim::new(&mut s1, Epidemic);
        epi.send_random_pairs(20, 256);
        epi.run_rounds(120);
        let e = epi.into_stats();

        let mut s2 = dense_urban(2, 60);
        let mut gre = NetSim::new(&mut s2, GreedyGeo);
        gre.send_random_pairs(20, 256);
        gre.run_rounds(120);
        let g = gre.into_stats();

        assert!(g.delivered > 0, "greedy delivered nothing");
        assert!(
            g.transmissions < e.transmissions,
            "greedy {} vs epidemic {} transmissions",
            g.transmissions,
            e.transmissions
        );
    }

    #[test]
    fn cluster_delivers() {
        let mut s = dense_urban(3, 60);
        let mut sim = NetSim::new(&mut s, ClusterRouting::new());
        sim.send_random_pairs(20, 256);
        sim.run_rounds(120);
        let stats = sim.into_stats();
        assert!(stats.delivered > 5, "cluster delivered only {}", stats.delivered);
    }

    #[test]
    fn mozo_delivers() {
        let mut s = dense_urban(3, 60);
        let mut sim = NetSim::new(&mut s, MozoRouting::new());
        sim.send_random_pairs(20, 256);
        sim.run_rounds(120);
        let stats = sim.into_stats();
        assert!(stats.delivered > 5, "mozo delivered only {}", stats.delivered);
    }

    #[test]
    fn delivery_to_self_neighborhood_is_fast() {
        // src and dst adjacent in a parking lot: first round should deliver.
        let mut b = ScenarioBuilder::new();
        b.seed(4).vehicles(10);
        let mut scenario = b.parking_lot();
        let mut sim = NetSim::new(&mut scenario, GreedyGeo);
        sim.send(VehicleId(0), VehicleId(1), 128);
        sim.run_rounds(5);
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().hops, vec![1]);
    }

    #[test]
    fn stats_account_for_losses() {
        // Two isolated vehicles far apart: nothing delivers.
        let mut b = ScenarioBuilder::new();
        b.seed(5).vehicles(2);
        let mut scenario = b.highway_no_infra();
        // Force them far apart.
        scenario.fleet.set_online(VehicleId(0), true);
        let mut sim = NetSim::new(&mut scenario, GreedyGeo);
        sim.send(VehicleId(0), VehicleId(1), 128);
        sim.run_rounds(3);
        assert_eq!(sim.stats().sent, 1);
    }

    #[test]
    fn instrumented_run_matches_plain_and_emits_events() {
        let run_plain = || {
            let mut scenario = dense_urban(8, 40);
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.send_random_pairs(10, 128);
            sim.run_rounds(40);
            let s = sim.into_stats();
            (s.sent, s.delivered, s.transmissions)
        };
        let mut rec = Recorder::new();
        let run_traced = {
            let mut scenario = dense_urban(8, 40);
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.send_random_pairs(10, 128);
            sim.run_rounds_obs(40, Some(&mut rec));
            let s = sim.into_stats();
            (s.sent, s.delivered, s.transmissions)
        };
        assert_eq!(run_plain(), run_traced, "tracing must not perturb the run");
        // Radio events cover every transmission; routing events cover
        // deliveries and forwards.
        let (_, delivered, transmissions) = run_traced;
        assert_eq!(rec.hub().counter("sim.radio.tx"), transmissions);
        assert_eq!(rec.hub().counter("net.routing.deliver"), delivered);
        assert!(rec.hub().counter("net.routing.forward") > 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut scenario = dense_urban(seed, 40);
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.send_random_pairs(10, 128);
            sim.run_rounds(60);
            let s = sim.into_stats();
            (s.delivered, s.transmissions)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn sharded_rounds_match_sequential_bitwise() {
        // Enough copies in flight (epidemic over a big fleet) to exceed
        // MIN_ITEMS_PER_SHARD and genuinely exercise the threaded path.
        let run = |shards: usize| {
            let mut scenario = dense_urban(11, 150);
            scenario.shards = shards;
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.send_random_pairs(30, 128);
            let mut peak_copies = 0;
            for _ in 0..30 {
                sim.run_rounds(1);
                peak_copies = peak_copies.max(sim.live_copies());
            }
            let s = sim.into_stats();
            let lat_bits: Vec<u64> = s.latencies_s.iter().map(|l| l.to_bits()).collect();
            (s.sent, s.delivered, s.transmissions, s.hops, lat_bits, peak_copies)
        };
        let sequential = run(1);
        assert!(sequential.5 > MIN_COPIES_FOR_FANOUT, "test must exercise the parallel path");
        for shards in [2usize, 4, 8] {
            assert_eq!(run(shards), sequential, "diverged at {shards} shards");
        }
    }

    /// The determinism test above is only meaningful if the copy population
    /// outgrows the planner's collapse threshold.
    const MIN_COPIES_FOR_FANOUT: usize = vc_sim::shard::MIN_ITEMS_PER_SHARD;

    use vc_obs::SampleRate;

    #[test]
    fn causal_tracing_does_not_perturb_the_run() {
        let run = |rate: SampleRate, rec: Option<&mut Recorder>| {
            let mut scenario = dense_urban(9, 40);
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.set_sampler(Sampler::new(9, rate));
            let mut rec = rec;
            sim.send_random_pairs_obs(10, 128, reborrow(&mut rec));
            sim.run_rounds_obs(40, rec);
            let s = sim.into_stats();
            let lat_bits: Vec<u64> = s.latencies_s.iter().map(|l| l.to_bits()).collect();
            (s.sent, s.delivered, s.transmissions, s.hops, lat_bits)
        };
        let plain = run(SampleRate::OFF, None);
        let mut rec = Recorder::new();
        let traced = run(SampleRate::ALL, Some(&mut rec));
        assert_eq!(plain, traced, "causal tracing must not perturb the run");
        assert!(rec.hub().counter("net.causal.origin") > 0);
    }

    #[test]
    fn causal_chains_cover_every_sampled_packet() {
        let mut scenario = dense_urban(12, 60);
        let mut sim = NetSim::new(&mut scenario, Epidemic);
        sim.set_sampler(Sampler::new(12, SampleRate::ALL));
        let mut rec = Recorder::new();
        sim.send_random_pairs_obs(20, 128, Some(&mut rec));
        sim.run_rounds_obs(80, Some(&mut rec));
        let stats = sim.into_stats();
        // At rate 1 every packet opens a chain and every delivery closes one.
        assert_eq!(rec.hub().counter("net.causal.origin"), stats.sent);
        assert_eq!(rec.hub().counter("net.causal.deliver"), stats.delivered);
        // Every causal event's trace id refers back to an emitted origin.
        let origins: HashSet<u64> = rec
            .events()
            .filter(|e| e.kind == "causal.origin")
            .filter_map(|e| e.fields.iter().find(|(k, _)| *k == "trace"))
            .filter_map(|(_, v)| match v {
                vc_obs::Value::U64(t) => Some(*t),
                _ => None,
            })
            .collect();
        for event in rec.events().filter(|e| e.kind.starts_with("causal.")) {
            let Some((_, vc_obs::Value::U64(trace))) =
                event.fields.iter().find(|(k, _)| *k == "trace")
            else {
                panic!("{} missing trace field", event.kind);
            };
            assert!(origins.contains(trace), "{} orphaned trace {trace}", event.kind);
        }
    }

    #[test]
    fn heap_bytes_and_mem_gauges_are_shard_count_invariant() {
        // Deep-footprint numbers come from lengths/capacities, so every
        // shard count must report bit-identical gauges and totals.
        let run = |shards: usize| {
            let mut scenario = dense_urban(11, 150);
            scenario.shards = shards;
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            let mut rec = Recorder::new();
            rec.enable_timeseries(64);
            sim.send_random_pairs_obs(30, 128, Some(&mut rec));
            sim.run_rounds_obs(30, Some(&mut rec));
            let gauges: Vec<(String, u64)> =
                rec.hub().gauges().map(|(k, v)| (k.to_owned(), v.to_bits())).collect();
            (sim.heap_bytes(), gauges)
        };
        let (bytes, gauges) = run(1);
        assert!(bytes > 0, "a live sim owns heap");
        if vc_obs::mem::enabled() {
            for name in ["mem.fleet.bytes", "mem.net.bytes", "mem.obs.bytes"] {
                assert!(gauges.iter().any(|(k, _)| k == name), "missing gauge {name}");
            }
        }
        for shards in [2usize, 4] {
            assert_eq!(run(shards), (bytes, gauges.clone()), "diverged at {shards} shards");
        }
    }

    #[test]
    fn traced_event_stream_is_shard_count_invariant() {
        let run = |shards: usize| {
            let mut scenario = dense_urban(11, 150);
            scenario.shards = shards;
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.set_sampler(Sampler::new(11, SampleRate::one_in(3)));
            let mut rec = Recorder::new();
            sim.send_random_pairs_obs(30, 128, Some(&mut rec));
            sim.run_rounds_obs(30, Some(&mut rec));
            let mut out = Vec::new();
            rec.write_jsonl(&mut out).unwrap();
            (out, sim.live_copies())
        };
        let (sequential, _) = run(1);
        assert!(
            String::from_utf8_lossy(&sequential).contains("causal.origin"),
            "sampling 1/3 must trace something here"
        );
        for shards in [2usize, 4, 8] {
            assert_eq!(run(shards).0, sequential, "trace bytes diverged at {shards} shards");
        }
    }
}
