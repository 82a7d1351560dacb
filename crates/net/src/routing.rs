//! Routing protocols over the VANET: an epidemic baseline, greedy
//! geographic forwarding, cluster-based routing, and moving-zone routing.
//!
//! These are the four families §IV-A.1 of the paper surveys. Each protocol
//! answers one question per round: *given a packet copy held at a vehicle,
//! which neighbors should receive it next?* The [`NetSim`](crate::netsim)
//! driver turns those answers into radio transmissions.

use crate::cluster::{form_clusters, ClusterConfig, Clustering};
use crate::message::Packet;
use crate::world::WorldView;
use vc_sim::node::VehicleId;
use vc_sim::time::SimTime;

/// A routing protocol's per-round forwarding logic.
///
/// `Sync` is a supertrait: [`NetSim`](crate::netsim::NetSim) consults
/// `next_hops` from shard worker threads in parallel (the `&self` receiver
/// already keeps the round read-only; `Sync` lets workers share it).
pub trait RoutingProtocol: Sync {
    /// Short name for tables.
    fn name(&self) -> &'static str;

    /// Called once per round before any forwarding decisions, with the fresh
    /// world snapshot (protocols rebuild clusters/zones here).
    fn begin_round(&mut self, world: &WorldView<'_>);

    /// Next hops for the copy of `packet` held at `holder`. `carried`
    /// reports whether a vehicle already holds (or held) a copy — protocols
    /// use it to avoid loops. Direct delivery to the destination is handled
    /// by the driver; this is only consulted when the destination is not a
    /// neighbor.
    fn next_hops(
        &self,
        holder: VehicleId,
        packet: &Packet,
        world: &WorldView<'_>,
        carried: &dyn Fn(VehicleId) -> bool,
    ) -> Vec<VehicleId>;
}

/// Epidemic flooding: hand a copy to every neighbor that has not carried the
/// packet. Maximal delivery, maximal overhead — the upper-bound baseline.
#[derive(Debug, Default)]
pub struct Epidemic;

impl RoutingProtocol for Epidemic {
    fn name(&self) -> &'static str {
        "epidemic"
    }

    fn begin_round(&mut self, _world: &WorldView<'_>) {}

    fn next_hops(
        &self,
        holder: VehicleId,
        _packet: &Packet,
        world: &WorldView<'_>,
        carried: &dyn Fn(VehicleId) -> bool,
    ) -> Vec<VehicleId> {
        world.neighbors.of(holder).iter().copied().filter(|&n| !carried(n)).collect()
    }
}

/// Greedy geographic forwarding (GPSR-like, greedy mode only): forward to
/// the single neighbor strictly closest to the destination's position,
/// stalling in local minima. Assumes a location service for the destination
/// — the standard assumption in geographic VANET routing evaluations.
#[derive(Debug, Default)]
pub struct GreedyGeo;

impl RoutingProtocol for GreedyGeo {
    fn name(&self) -> &'static str {
        "greedy-geo"
    }

    fn begin_round(&mut self, _world: &WorldView<'_>) {}

    fn next_hops(
        &self,
        holder: VehicleId,
        packet: &Packet,
        world: &WorldView<'_>,
        carried: &dyn Fn(VehicleId) -> bool,
    ) -> Vec<VehicleId> {
        let dest_pos = world.pos(packet.dst);
        let my_dist = world.pos(holder).distance(dest_pos);
        world
            .neighbors
            .of(holder)
            .iter()
            .copied()
            .filter(|&n| !carried(n))
            .map(|n| (world.pos(n).distance(dest_pos), n))
            .filter(|&(d, _)| d < my_dist)
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)))
            .map(|(_, n)| vec![n])
            .unwrap_or_default()
    }
}

/// Cluster-based routing: members push packets to their cluster head; heads
/// forward toward the destination over the head/gateway backbone. Fewer
/// transmissions than flooding, better local-minimum behaviour than pure
/// greedy because heads are well-connected by construction.
#[derive(Debug)]
pub struct ClusterRouting {
    config: ClusterConfig,
    clustering: Clustering,
}

impl ClusterRouting {
    /// Creates with standard multi-hop clustering.
    pub fn new() -> Self {
        ClusterRouting { config: ClusterConfig::multi_hop(), clustering: Clustering::default() }
    }

    /// Creates with a custom configuration (for the E8 ablations).
    pub fn with_config(config: ClusterConfig) -> Self {
        ClusterRouting { config, clustering: Clustering::default() }
    }

    /// The clustering computed this round (for inspection by experiments).
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }
}

impl Default for ClusterRouting {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for ClusterRouting {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn begin_round(&mut self, world: &WorldView<'_>) {
        self.clustering = form_clusters(world, &self.config, SimTime::ZERO, None);
    }

    fn next_hops(
        &self,
        holder: VehicleId,
        packet: &Packet,
        world: &WorldView<'_>,
        carried: &dyn Fn(VehicleId) -> bool,
    ) -> Vec<VehicleId> {
        let dest_pos = world.pos(packet.dst);
        let my_dist = world.pos(holder).distance(dest_pos);
        let neighbors = world.neighbors.of(holder);

        // If the destination's head is a neighbor, go there.
        if let Some(dest_head) = self.clustering.head_of(packet.dst) {
            if neighbors.contains(&dest_head) && !carried(dest_head) {
                return vec![dest_head];
            }
        }

        if !self.clustering.is_head(holder) {
            // Member: push to own head when fresh, even if not geographically
            // closer (the backbone handles direction).
            if let Some(head) = self.clustering.head_of(holder) {
                if head != holder && neighbors.contains(&head) && !carried(head) {
                    return vec![head];
                }
            }
        }

        // Head (or member whose head already carried it): forward along the
        // backbone — prefer neighbor heads, then any neighbor — requiring
        // geographic progress to avoid loops.
        let mut best: Option<(bool, f64, VehicleId)> = None;
        for &n in neighbors {
            if carried(n) {
                continue;
            }
            let d = world.pos(n).distance(dest_pos);
            if d >= my_dist {
                continue;
            }
            let is_head = self.clustering.is_head(n);
            // Order: heads first, then distance.
            let key = (is_head, d, n);
            best = match best {
                None => Some(key),
                Some(cur) => {
                    let better = (key.0 && !cur.0) || (key.0 == cur.0 && key.1 < cur.1);
                    if better {
                        Some(key)
                    } else {
                        Some(cur)
                    }
                }
            };
        }
        best.map(|(_, _, n)| vec![n]).unwrap_or_default()
    }
}

/// Moving-zone routing (MoZo-like): zones of velocity-similar vehicles with
/// captains; forwarding greedily minimizes the *predicted* distance to the
/// destination a short horizon ahead, which exploits zone coherence in
/// highly dynamic traffic.
#[derive(Debug)]
pub struct MozoRouting {
    config: ClusterConfig,
    zones: Clustering,
    /// Prediction horizon in seconds.
    pub horizon_s: f64,
}

impl MozoRouting {
    /// Creates with the standard moving-zone configuration and a 2 s horizon.
    pub fn new() -> Self {
        MozoRouting {
            config: ClusterConfig::moving_zone(),
            zones: Clustering::default(),
            horizon_s: 2.0,
        }
    }

    /// The zones computed this round.
    pub fn zones(&self) -> &Clustering {
        &self.zones
    }
}

impl Default for MozoRouting {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for MozoRouting {
    fn name(&self) -> &'static str {
        "mozo"
    }

    fn begin_round(&mut self, world: &WorldView<'_>) {
        self.zones = form_clusters(world, &self.config, SimTime::ZERO, None);
    }

    fn next_hops(
        &self,
        holder: VehicleId,
        packet: &Packet,
        world: &WorldView<'_>,
        carried: &dyn Fn(VehicleId) -> bool,
    ) -> Vec<VehicleId> {
        let h = self.horizon_s;
        let dest_future = world.predicted_pos(packet.dst, h);
        let my_future_dist = world.predicted_pos(holder, h).distance(dest_future);
        let mut best: Option<(f64, bool, VehicleId)> = None;
        for &n in world.neighbors.of(holder) {
            if carried(n) {
                continue;
            }
            let d = world.predicted_pos(n, h).distance(dest_future);
            if d >= my_future_dist {
                continue;
            }
            let captain = self.zones.is_head(n);
            let better = match best {
                None => true,
                Some((bd, bcap, _)) => {
                    d < bd - 1e-9 || ((d - bd).abs() <= 1e-9 && captain && !bcap)
                }
            };
            if better {
                best = Some((d, captain, n));
            }
        }
        best.map(|(_, _, n)| vec![n]).unwrap_or_default()
    }
}

/// Street-centric routing (intersection-sequence forwarding, after the
/// IDVR/street-centric family the paper surveys in §IV-A.1): packets follow
/// the road graph intersection by intersection, so every hop runs along a
/// street — which is exactly what survives in urban-canyon radio where
/// through-block links are attenuated.
///
/// Requires the road network (vehicles carry maps); the destination's
/// position comes from the usual location service assumption.
#[derive(Debug)]
pub struct StreetAware {
    net: vc_sim::roadnet::RoadNetwork,
}

impl StreetAware {
    /// Creates the protocol with a copy of the road map.
    pub fn new(net: vc_sim::roadnet::RoadNetwork) -> Self {
        StreetAware { net }
    }
}

impl RoutingProtocol for StreetAware {
    fn name(&self) -> &'static str {
        "street-aware"
    }

    fn begin_round(&mut self, _world: &WorldView<'_>) {}

    fn next_hops(
        &self,
        holder: VehicleId,
        packet: &Packet,
        world: &WorldView<'_>,
        carried: &dyn Fn(VehicleId) -> bool,
    ) -> Vec<VehicleId> {
        let my_pos = world.pos(holder);
        let dest_pos = world.pos(packet.dst);
        // Waypoint: the next intersection along the road path toward the
        // destination's nearest intersection.
        let anchors = {
            let _nearest = vc_obs::profile::frame("roadnet.nearest");
            (self.net.nearest_node(my_pos), self.net.nearest_node(dest_pos))
        };
        let target = match anchors {
            (Some(here), Some(there)) if here != there => {
                match self.net.shortest_path(here, there) {
                    Some(path) if path.len() >= 2 => {
                        // If we're still far from `here`, aim at it first.
                        if my_pos.distance(self.net.pos(here)) > 30.0 {
                            self.net.pos(here)
                        } else {
                            self.net.pos(path[1])
                        }
                    }
                    _ => dest_pos,
                }
            }
            _ => dest_pos,
        };
        let my_target_dist = my_pos.distance(target);
        let my_dest_dist = my_pos.distance(dest_pos);
        // Forward to the fresh neighbor making the most progress toward the
        // waypoint; accept destination progress as a fallback criterion.
        let mut best: Option<(f64, VehicleId)> = None;
        for &n in world.neighbors.of(holder) {
            if carried(n) {
                continue;
            }
            let p = world.pos(n);
            let toward_target = p.distance(target);
            let improves =
                toward_target < my_target_dist - 1e-9 || p.distance(dest_pos) < my_dest_dist - 1e-9;
            if !improves {
                continue;
            }
            let better = match best {
                None => true,
                Some((bd, bn)) => {
                    toward_target < bd - 1e-9 || ((toward_target - bd).abs() <= 1e-9 && n < bn)
                }
            };
            if better {
                best = Some((toward_target, n));
            }
        }
        best.map(|(_, n)| vec![n]).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_sim::geom::Point;
    use vc_sim::radio::NeighborTable;

    struct Fixture {
        positions: Vec<Point>,
        velocities: Vec<Point>,
        online: Vec<bool>,
        neighbors: NeighborTable,
    }

    impl Fixture {
        fn new(positions: Vec<Point>, velocities: Vec<Point>, range: f64) -> Self {
            let online = vec![true; positions.len()];
            let neighbors = NeighborTable::build(&positions, &online, range);
            Fixture { positions, velocities, online, neighbors }
        }

        fn world(&self) -> WorldView<'_> {
            WorldView {
                positions: &self.positions,
                velocities: &self.velocities,
                online: &self.online,
                neighbors: &self.neighbors,
            }
        }
    }

    fn chain(n: usize, spacing: f64) -> Fixture {
        let positions = (0..n).map(|i| Point::new(i as f64 * spacing, 0.0)).collect();
        Fixture::new(positions, vec![Point::new(0.0, 0.0); n], spacing * 1.5)
    }

    fn pkt(src: u32, dst: u32) -> Packet {
        Packet::new(crate::message::PacketId(1), VehicleId(src), VehicleId(dst), 256, SimTime::ZERO)
    }

    #[test]
    fn epidemic_gives_to_all_fresh_neighbors() {
        let f = chain(4, 100.0);
        let w = f.world();
        let p = pkt(0, 3);
        let proto = Epidemic;
        let hops = proto.next_hops(VehicleId(1), &p, &w, &|v| v == VehicleId(0));
        // Neighbors of 1 are 0 and 2; 0 already carried.
        assert_eq!(hops, vec![VehicleId(2)]);
    }

    #[test]
    fn greedy_picks_closest_to_dest() {
        let f = chain(5, 100.0);
        let w = f.world();
        let p = pkt(0, 4);
        let proto = GreedyGeo;
        let hops = proto.next_hops(VehicleId(1), &p, &w, &|_| false);
        assert_eq!(hops, vec![VehicleId(2)], "must pick the forward neighbor");
    }

    #[test]
    fn greedy_stalls_in_local_minimum() {
        // Holder is closest to dest among its neighborhood; greedy returns none.
        let positions = vec![
            Point::new(0.0, 0.0),    // 0 holder
            Point::new(-100.0, 0.0), // 1 behind
            Point::new(5000.0, 0.0), // 2 dest far away, unreachable
        ];
        let f = Fixture::new(positions, vec![Point::new(0.0, 0.0); 3], 150.0);
        let w = f.world();
        let p = pkt(0, 2);
        assert!(GreedyGeo.next_hops(VehicleId(0), &p, &w, &|_| false).is_empty());
    }

    #[test]
    fn cluster_member_pushes_to_head() {
        let f = chain(3, 50.0);
        let w = f.world();
        let mut proto = ClusterRouting::new();
        proto.begin_round(&w);
        let head = proto.clustering().heads().next().unwrap();
        // Find a member that is not the head and ask it to forward to a far dest.
        let member = (0..3)
            .map(VehicleId)
            .find(|&v| !proto.clustering().is_head(v))
            .expect("has a non-head member");
        let p = pkt(member.0, if head.0 == 2 { 0 } else { 2 });
        let hops = proto.next_hops(member, &p, &w, &|_| false);
        // Either the head directly or the destination's head (same here).
        assert_eq!(hops.len(), 1);
    }

    #[test]
    fn cluster_head_requires_progress() {
        // Head with only backward neighbors makes no hop.
        let positions = vec![Point::new(0.0, 0.0), Point::new(-60.0, 0.0), Point::new(9000.0, 0.0)];
        let f = Fixture::new(positions, vec![Point::new(0.0, 0.0); 3], 100.0);
        let w = f.world();
        let mut proto = ClusterRouting::new();
        proto.begin_round(&w);
        let p = pkt(0, 2);
        let head = proto.clustering().head_of(VehicleId(0)).unwrap();
        let hops =
            proto.next_hops(head, &p, &w, &|v| v != head && !w.neighbors.of(head).contains(&v));
        // All candidates are behind; nothing closer exists.
        assert!(hops.len() <= 1);
        if let Some(&h) = hops.first() {
            assert!(
                w.pos(h).distance(w.pos(VehicleId(2))) < w.pos(head).distance(w.pos(VehicleId(2)))
            );
        }
    }

    #[test]
    fn mozo_uses_predicted_positions() {
        // Neighbor A is currently closer, but B is moving toward the dest and
        // will be much closer at the horizon; MoZo must pick B.
        let positions = vec![
            Point::new(0.0, 0.0),    // 0 holder
            Point::new(100.0, 50.0), // 1 A: near but moving away
            Point::new(80.0, -50.0), // 2 B: slightly farther but converging
            Point::new(1000.0, 0.0), // 3 dest
        ];
        let velocities = vec![
            Point::new(0.0, 0.0),
            Point::new(-30.0, 0.0), // A retreats
            Point::new(35.0, 0.0),  // B advances
            Point::new(0.0, 0.0),
        ];
        let f = Fixture::new(positions, velocities, 200.0);
        let w = f.world();
        let mut proto = MozoRouting::new();
        proto.begin_round(&w);
        let p = pkt(0, 3);
        let hops = proto.next_hops(VehicleId(0), &p, &w, &|_| false);
        assert_eq!(hops, vec![VehicleId(2)]);
    }

    #[test]
    fn protocols_never_return_carried_nodes() {
        let f = chain(6, 80.0);
        let w = f.world();
        let p = pkt(0, 5);
        let carried = |v: VehicleId| v.0.is_multiple_of(2); // evens carried
        let mut cluster = ClusterRouting::new();
        cluster.begin_round(&w);
        let mut mozo = MozoRouting::new();
        mozo.begin_round(&w);
        let protos: Vec<&dyn RoutingProtocol> = vec![&Epidemic, &GreedyGeo, &cluster, &mozo];
        for proto in protos {
            for holder in 0..6 {
                for hop in proto.next_hops(VehicleId(holder), &p, &w, &carried) {
                    assert!(!carried(hop), "{} returned a carried node", proto.name());
                }
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names = ["epidemic", "greedy-geo", "cluster", "mozo"];
        assert_eq!(Epidemic.name(), names[0]);
        assert_eq!(GreedyGeo.name(), names[1]);
        assert_eq!(ClusterRouting::new().name(), names[2]);
        assert_eq!(MozoRouting::new().name(), names[3]);
        let net = vc_sim::roadnet::RoadNetwork::grid(2, 2, 100.0, 10.0);
        assert_eq!(StreetAware::new(net).name(), "street-aware");
    }

    #[test]
    fn street_aware_follows_intersections() {
        // A 3x3 grid, 200 m blocks. Holder at the SW corner, destination at
        // the NE corner. Two candidate relays: one diagonally across the
        // block (closer to the destination as the crow flies), one along the
        // street toward the next intersection. Street-aware must pick the
        // street relay; plain greedy picks the diagonal one.
        let net = vc_sim::roadnet::RoadNetwork::grid(3, 3, 200.0, 13.9);
        let positions = vec![
            Point::new(0.0, 0.0),     // 0: holder at intersection (0,0)
            Point::new(120.0, 120.0), // 1: mid-block diagonal relay
            Point::new(150.0, 0.0),   // 2: street relay toward (200,0)
            Point::new(400.0, 400.0), // 3: destination at the far corner
        ];
        let velocities = vec![Point::new(0.0, 0.0); 4];
        let online = vec![true; 4];
        let table = NeighborTable::build(&positions, &online, 250.0);
        let world = WorldView {
            positions: &positions,
            velocities: &velocities,
            online: &online,
            neighbors: &table,
        };
        let p = pkt(0, 3);
        let greedy_pick = GreedyGeo.next_hops(VehicleId(0), &p, &world, &|_| false);
        assert_eq!(greedy_pick, vec![VehicleId(1)], "greedy cuts the corner");
        let street = StreetAware::new(net);
        let street_pick = street.next_hops(VehicleId(0), &p, &world, &|_| false);
        assert_eq!(street_pick, vec![VehicleId(2)], "street-aware follows the road");
    }

    #[test]
    fn street_aware_handles_degenerate_maps() {
        // Empty road network: falls back to pure greedy toward the dest.
        let net = vc_sim::roadnet::RoadNetwork::new();
        let positions = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0), Point::new(300.0, 0.0)];
        let velocities = vec![Point::new(0.0, 0.0); 3];
        let online = vec![true; 3];
        let table = NeighborTable::build(&positions, &online, 150.0);
        let world = WorldView {
            positions: &positions,
            velocities: &velocities,
            online: &online,
            neighbors: &table,
        };
        let p = pkt(0, 2);
        let street = StreetAware::new(net);
        assert_eq!(street.next_hops(VehicleId(0), &p, &world, &|_| false), vec![VehicleId(1)]);
    }
}
