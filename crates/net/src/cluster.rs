//! Vehicle clustering: stability-scored multi-hop cluster formation and
//! moving-zone formation.
//!
//! Two instantiations of one mechanism:
//!
//! * **Passive multi-hop clustering** (after Zhang et al. \[46\] in the paper):
//!   the most *stable* node in an N-hop neighborhood becomes cluster head
//!   (CH); members attach to the nearest head within N hops.
//! * **Moving zones** (after Lin et al. \[22\], the paper authors' MoZo): the
//!   same election restricted to edges between vehicles with *similar
//!   velocity vectors*, so a zone holds together as it moves.
//!
//! Cluster heads later serve as the coordinators the paper's v-cloud layer
//! builds on ("the head node of a cluster can serve as the coordinator of a
//! group of vehicles", §IV-A.1).

use crate::world::WorldView;
use std::collections::{BTreeMap, VecDeque};
use vc_obs::Recorder;
use vc_sim::node::VehicleId;
use vc_sim::time::SimTime;

/// Parameters for cluster formation.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Maximum hop distance from a member to its head.
    pub max_hops: u32,
    /// Weight of connectivity (degree) in the head-election score.
    pub weight_degree: f64,
    /// Weight of kinematic stability (low relative speed) in the score.
    pub weight_stability: f64,
    /// When `Some(v)`, only links between vehicles whose velocity vectors
    /// differ by less than `v` m/s count (moving-zone mode).
    pub velocity_similarity: Option<f64>,
}

impl ClusterConfig {
    /// Standard multi-hop clustering: 2 hops, mixed score.
    pub fn multi_hop() -> Self {
        ClusterConfig {
            max_hops: 2,
            weight_degree: 1.0,
            weight_stability: 1.0,
            velocity_similarity: None,
        }
    }

    /// Moving-zone mode: 2 hops, velocity-similar links only (5 m/s band).
    pub fn moving_zone() -> Self {
        ClusterConfig {
            max_hops: 2,
            weight_degree: 1.0,
            weight_stability: 2.0,
            velocity_similarity: Some(5.0),
        }
    }
}

/// The result of a clustering round.
#[derive(Debug, Clone, Default)]
pub struct Clustering {
    /// Head of each vehicle's cluster, indexed by vehicle id (None when
    /// offline).
    head_of: Vec<Option<VehicleId>>,
    /// Members per head (heads include themselves).
    members: BTreeMap<VehicleId, Vec<VehicleId>>,
}

impl Clustering {
    /// The head governing `id`, or `None` if the vehicle is offline.
    pub fn head_of(&self, id: VehicleId) -> Option<VehicleId> {
        self.head_of.get(id.0 as usize).copied().flatten()
    }

    /// `true` when `id` is itself a cluster head.
    pub fn is_head(&self, id: VehicleId) -> bool {
        self.head_of(id) == Some(id)
    }

    /// Members of the cluster headed by `head` (empty if not a head).
    pub fn members(&self, head: VehicleId) -> &[VehicleId] {
        self.members.get(&head).map_or(&[], |v| v.as_slice())
    }

    /// All cluster heads.
    pub fn heads(&self) -> impl Iterator<Item = VehicleId> + '_ {
        self.members.keys().copied()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.members.len()
    }

    /// Mean cluster size.
    pub fn mean_cluster_size(&self) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        self.members.values().map(|m| m.len()).sum::<usize>() as f64 / self.members.len() as f64
    }

    /// `true` when the two vehicles are in the same cluster.
    pub fn same_cluster(&self, a: VehicleId, b: VehicleId) -> bool {
        match (self.head_of(a), self.head_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

/// Election score for one vehicle: well-connected and kinematically calm
/// vehicles make good heads.
fn head_score(world: &WorldView<'_>, id: VehicleId, cfg: &ClusterConfig) -> f64 {
    let neighbors = eligible_neighbors(world, id, cfg);
    let degree = neighbors.len() as f64;
    let rel_speed = if neighbors.is_empty() {
        0.0
    } else {
        neighbors.iter().map(|&n| (world.vel(id) - world.vel(n)).norm()).sum::<f64>()
            / neighbors.len() as f64
    };
    cfg.weight_degree * degree - cfg.weight_stability * rel_speed
}

/// Neighbors of `id` that pass the (optional) velocity-similarity filter.
fn eligible_neighbors(world: &WorldView<'_>, id: VehicleId, cfg: &ClusterConfig) -> Vec<VehicleId> {
    world
        .neighbors
        .of(id)
        .iter()
        .copied()
        .filter(|&n| world.is_online(n))
        .filter(|&n| match cfg.velocity_similarity {
            Some(band) => (world.vel(id) - world.vel(n)).norm() < band,
            None => true,
        })
        .collect()
}

/// Forms clusters over the current world snapshot.
///
/// Deterministic: score ties break by lower vehicle id. The election-score
/// pass (the formation hot loop) fans out over shard workers; scores are a
/// pure function of the snapshot, and shard results concatenate in
/// canonical index order, so the shard count never changes the outcome.
///
/// With a recorder, emits one `net`/`cluster.elect` event at sim-time `at`
/// carrying the cluster count and mean size. The clustering is the same
/// with or without one.
pub fn form_clusters(
    world: &WorldView<'_>,
    cfg: &ClusterConfig,
    at: SimTime,
    rec: Option<&mut Recorder>,
) -> Clustering {
    let _form = vc_obs::profile::frame("cluster.form");
    let n = world.len();
    let mut head_of: Vec<Option<VehicleId>> = vec![None; n];
    // Rank candidates by score (desc), id (asc).
    let mut candidates: Vec<(f64, VehicleId)> =
        vc_sim::shard::map_shards(n, vc_sim::shard::shard_count(), |range| {
            range
                .map(|i| VehicleId(i as u32))
                .filter(|&id| world.is_online(id))
                .map(|id| (head_score(world, id, cfg), id))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores").then(a.1.cmp(&b.1)));

    let mut members: BTreeMap<VehicleId, Vec<VehicleId>> = BTreeMap::new();
    for &(_, candidate) in &candidates {
        if head_of[candidate.0 as usize].is_some() {
            continue;
        }
        // candidate becomes a head; claim unassigned vehicles within max_hops.
        let mut claimed = vec![candidate];
        head_of[candidate.0 as usize] = Some(candidate);
        let mut queue = VecDeque::new();
        queue.push_back((candidate, 0u32));
        let mut visited = vec![false; n];
        visited[candidate.0 as usize] = true;
        while let Some((cur, depth)) = queue.pop_front() {
            if depth == cfg.max_hops {
                continue;
            }
            for next in eligible_neighbors(world, cur, cfg) {
                let idx = next.0 as usize;
                if visited[idx] {
                    continue;
                }
                visited[idx] = true;
                if head_of[idx].is_none() {
                    head_of[idx] = Some(candidate);
                    claimed.push(next);
                }
                queue.push_back((next, depth + 1));
            }
        }
        claimed.sort();
        members.insert(candidate, claimed);
    }
    let clustering = Clustering { head_of, members };
    if let Some(rec) = rec {
        rec.event(
            at,
            "net",
            "cluster.elect",
            vec![
                ("clusters", clustering.cluster_count().into()),
                ("mean_size", clustering.mean_cluster_size().into()),
            ],
        );
    }
    clustering
}

/// Incremental cluster maintenance (paper §V-A: "how to handle the
/// splitting, merging, re-allocation of the groups").
///
/// Instead of re-electing from scratch every round (which swaps heads on
/// small score changes), maintenance keeps the previous round's heads while
/// they remain *adequate*: still online, and still connected to at least
/// `retention_quorum` of their previous members. Members re-attach to the
/// nearest surviving head within `max_hops`; only uncovered vehicles run a
/// fresh election among themselves. Heads therefore change when clusters
/// genuinely split or merge, not on score jitter — the continuity the cloud
/// layer's brokers need.
///
/// With a recorder, emits one `net`/`cluster.maintain` event at sim-time
/// `at` carrying the resulting cluster count and the head-churn fraction
/// versus `previous`. The maintenance is the same with or without one.
pub fn maintain_clusters(
    previous: &Clustering,
    world: &WorldView<'_>,
    cfg: &ClusterConfig,
    retention_quorum: f64,
    at: SimTime,
    rec: Option<&mut Recorder>,
) -> Clustering {
    let n = world.len();
    let mut head_of: Vec<Option<VehicleId>> = vec![None; n];
    let mut members: BTreeMap<VehicleId, Vec<VehicleId>> = BTreeMap::new();

    // 1. Retain adequate heads.
    let mut surviving_heads: Vec<VehicleId> = Vec::new();
    for head in previous.heads() {
        if !world.is_online(head) {
            continue;
        }
        let old_members = previous.members(head);
        if old_members.len() <= 1 {
            surviving_heads.push(head);
            continue;
        }
        let reachable = old_members
            .iter()
            .filter(|&&m| m != head)
            .filter(|&&m| world.is_online(m))
            .filter(|&&m| within_hops(world, head, m, cfg))
            .count();
        let quorum = ((old_members.len() - 1) as f64 * retention_quorum).ceil() as usize;
        if reachable >= quorum.max(1).min(old_members.len() - 1) {
            surviving_heads.push(head);
        }
    }

    // 2. Re-attach everyone to the nearest surviving head (BFS from heads,
    //    nearest-first, deterministic by head id).
    surviving_heads.sort();
    for &head in &surviving_heads {
        head_of[head.0 as usize] = Some(head);
        members.entry(head).or_default().push(head);
    }
    let mut frontier: VecDeque<(VehicleId, VehicleId, u32)> =
        surviving_heads.iter().map(|&h| (h, h, 0)).collect();
    while let Some((node, head, depth)) = frontier.pop_front() {
        if depth == cfg.max_hops {
            continue;
        }
        for next in eligible_neighbors(world, node, cfg) {
            let idx = next.0 as usize;
            if head_of[idx].is_some() {
                continue;
            }
            head_of[idx] = Some(head);
            members.entry(head).or_default().push(next);
            frontier.push_back((next, head, depth + 1));
        }
    }

    // 3. Fresh election among uncovered vehicles (splits / newcomers).
    let uncovered: Vec<VehicleId> =
        world.online_ids().filter(|id| head_of[id.0 as usize].is_none()).collect();
    if !uncovered.is_empty() {
        let mut candidates: Vec<(f64, VehicleId)> =
            uncovered.iter().map(|&id| (head_score(world, id, cfg), id)).collect();
        candidates
            .sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores").then(a.1.cmp(&b.1)));
        for &(_, candidate) in &candidates {
            if head_of[candidate.0 as usize].is_some() {
                continue;
            }
            head_of[candidate.0 as usize] = Some(candidate);
            members.entry(candidate).or_default().push(candidate);
            let mut queue = VecDeque::new();
            queue.push_back((candidate, 0u32));
            while let Some((cur, depth)) = queue.pop_front() {
                if depth == cfg.max_hops {
                    continue;
                }
                for next in eligible_neighbors(world, cur, cfg) {
                    let idx = next.0 as usize;
                    if head_of[idx].is_some() {
                        continue;
                    }
                    head_of[idx] = Some(candidate);
                    members.entry(candidate).or_default().push(next);
                    queue.push_back((next, depth + 1));
                }
            }
        }
    }
    for m in members.values_mut() {
        m.sort();
        m.dedup();
    }
    let next = Clustering { head_of, members };
    if let Some(rec) = rec {
        let churn = head_churn(previous, &next, world.len());
        rec.event(
            at,
            "net",
            "cluster.maintain",
            vec![("clusters", next.cluster_count().into()), ("head_churn", churn.into())],
        );
    }
    next
}

/// Is `b` within `cfg.max_hops` of `a` over eligible links?
fn within_hops(world: &WorldView<'_>, a: VehicleId, b: VehicleId, cfg: &ClusterConfig) -> bool {
    if a == b {
        return true;
    }
    let mut visited = vec![false; world.len()];
    visited[a.0 as usize] = true;
    let mut queue = VecDeque::new();
    queue.push_back((a, 0u32));
    while let Some((cur, depth)) = queue.pop_front() {
        if depth == cfg.max_hops {
            continue;
        }
        for next in eligible_neighbors(world, cur, cfg) {
            if next == b {
                return true;
            }
            let idx = next.0 as usize;
            if !visited[idx] {
                visited[idx] = true;
                queue.push_back((next, depth + 1));
            }
        }
    }
    false
}

/// Measures head-churn between two consecutive clusterings: the fraction of
/// vehicles whose head changed (a stability metric for the E8 ablation).
pub fn head_churn(before: &Clustering, after: &Clustering, n_vehicles: usize) -> f64 {
    if n_vehicles == 0 {
        return 0.0;
    }
    let changed = (0..n_vehicles as u32)
        .filter(|&i| before.head_of(VehicleId(i)) != after.head_of(VehicleId(i)))
        .count();
    changed as f64 / n_vehicles as f64
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

    fn still(n: usize) -> Vec<Point> {
        vec![Point::new(0.0, 0.0); n]
    }

    #[test]
    fn dense_blob_forms_one_cluster() {
        // 5 vehicles all in range of each other, same velocity.
        let positions = (0..5).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let f = Fixture::new(positions, still(5), 300.0);
        let c = form_clusters(&f.world(), &ClusterConfig::multi_hop(), SimTime::ZERO, None);
        assert_eq!(c.cluster_count(), 1);
        let head = c.heads().next().unwrap();
        assert_eq!(c.members(head).len(), 5);
        assert!(c.is_head(head));
        for i in 0..5 {
            assert!(c.same_cluster(VehicleId(i), head));
        }
    }

    #[test]
    fn far_apart_vehicles_are_singleton_clusters() {
        let positions = (0..3).map(|i| Point::new(i as f64 * 10_000.0, 0.0)).collect();
        let f = Fixture::new(positions, still(3), 300.0);
        let c = form_clusters(&f.world(), &ClusterConfig::multi_hop(), SimTime::ZERO, None);
        assert_eq!(c.cluster_count(), 3);
        assert!((c.mean_cluster_size() - 1.0).abs() < 1e-12);
        assert!(!c.same_cluster(VehicleId(0), VehicleId(1)));
    }

    #[test]
    fn max_hops_limits_membership() {
        // A chain 0-1-2-3-4 with 100m spacing, range 150 (only adjacent hear).
        let positions = (0..5).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect();
        let f = Fixture::new(positions, still(5), 150.0);
        let mut cfg = ClusterConfig::multi_hop();
        cfg.max_hops = 1;
        let c = form_clusters(&f.world(), &cfg, SimTime::ZERO, None);
        // With 1 hop, no cluster can span 5 chain nodes.
        assert!(c.cluster_count() >= 2, "got {} clusters", c.cluster_count());
        for head in c.heads() {
            assert!(c.members(head).len() <= 3);
        }
    }

    #[test]
    fn stable_node_wins_election() {
        // Three vehicles in mutual range; v1 moves fast relative to others.
        let positions = vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0), Point::new(100.0, 0.0)];
        let velocities = vec![Point::new(10.0, 0.0), Point::new(-30.0, 0.0), Point::new(10.0, 0.0)];
        let f = Fixture::new(positions, velocities, 300.0);
        let c = form_clusters(&f.world(), &ClusterConfig::multi_hop(), SimTime::ZERO, None);
        let head = c.heads().next().unwrap();
        assert_ne!(head, VehicleId(1), "the erratic vehicle must not be head");
    }

    #[test]
    fn moving_zone_splits_opposing_traffic() {
        // Two platoons in mutual radio range but opposite directions.
        let positions: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 20.0, 0.0)).collect();
        let mut velocities = vec![Point::new(30.0, 0.0); 3];
        velocities.extend(vec![Point::new(-30.0, 0.0); 3]);
        let f = Fixture::new(positions, velocities, 300.0);
        let zones = form_clusters(&f.world(), &ClusterConfig::moving_zone(), SimTime::ZERO, None);
        assert_eq!(zones.cluster_count(), 2, "opposing platoons must form separate zones");
        assert!(zones.same_cluster(VehicleId(0), VehicleId(2)));
        assert!(!zones.same_cluster(VehicleId(0), VehicleId(3)));
        // Plain clustering would merge them all:
        let plain = form_clusters(&f.world(), &ClusterConfig::multi_hop(), SimTime::ZERO, None);
        assert_eq!(plain.cluster_count(), 1);
    }

    #[test]
    fn offline_vehicles_are_unclustered() {
        let positions: Vec<Point> = (0..3).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let velocities = still(3);
        let online = vec![true, false, true];
        let neighbors = NeighborTable::build(&positions, &online, 300.0);
        let world = WorldView {
            positions: &positions,
            velocities: &velocities,
            online: &online,
            neighbors: &neighbors,
        };
        let c = form_clusters(&world, &ClusterConfig::multi_hop(), SimTime::ZERO, None);
        assert_eq!(c.head_of(VehicleId(1)), None);
        assert!(c.head_of(VehicleId(0)).is_some());
    }

    #[test]
    fn clustering_is_deterministic() {
        let positions: Vec<Point> =
            (0..10).map(|i| Point::new((i * 37 % 200) as f64, (i * 61 % 200) as f64)).collect();
        let f = Fixture::new(positions, still(10), 120.0);
        let a = form_clusters(&f.world(), &ClusterConfig::multi_hop(), SimTime::ZERO, None);
        let b = form_clusters(&f.world(), &ClusterConfig::multi_hop(), SimTime::ZERO, None);
        for i in 0..10 {
            assert_eq!(a.head_of(VehicleId(i)), b.head_of(VehicleId(i)));
        }
    }

    #[test]
    fn every_online_vehicle_has_a_head() {
        let positions: Vec<Point> =
            (0..30).map(|i| Point::new((i * 53 % 500) as f64, (i * 71 % 500) as f64)).collect();
        let f = Fixture::new(positions, still(30), 150.0);
        let c = form_clusters(&f.world(), &ClusterConfig::multi_hop(), SimTime::ZERO, None);
        for i in 0..30 {
            let head = c.head_of(VehicleId(i)).expect("assigned");
            // Head consistency: the head's own head is itself.
            assert_eq!(c.head_of(head), Some(head));
            assert!(c.members(head).contains(&VehicleId(i)));
        }
    }

    #[test]
    fn maintenance_keeps_adequate_heads() {
        let positions: Vec<Point> = (0..5).map(|i| Point::new(i as f64 * 20.0, 0.0)).collect();
        let f = Fixture::new(positions, still(5), 300.0);
        let cfg = ClusterConfig::multi_hop();
        let first = form_clusters(&f.world(), &cfg, SimTime::ZERO, None);
        let head = first.heads().next().unwrap();
        // Nothing moved: maintenance keeps the same head for everyone.
        let second = maintain_clusters(&first, &f.world(), &cfg, 0.5, SimTime::ZERO, None);
        for i in 0..5 {
            assert_eq!(second.head_of(VehicleId(i)), Some(head));
        }
        assert_eq!(head_churn(&first, &second, 5), 0.0);
    }

    #[test]
    fn maintenance_splits_when_cluster_partitions() {
        // Start together, then half the cluster drives 10 km away.
        let positions: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 20.0, 0.0)).collect();
        let f = Fixture::new(positions, still(6), 300.0);
        let cfg = ClusterConfig::multi_hop();
        let first = form_clusters(&f.world(), &cfg, SimTime::ZERO, None);
        assert_eq!(first.cluster_count(), 1);
        let mut far_positions = f.positions.clone();
        for p in far_positions.iter_mut().skip(3) {
            p.x += 10_000.0;
        }
        let f2 = Fixture::new(far_positions, still(6), 300.0);
        let second = maintain_clusters(&first, &f2.world(), &cfg, 0.5, SimTime::ZERO, None);
        assert_eq!(second.cluster_count(), 2, "split produces a second cluster");
        // Everyone still has a valid head.
        for i in 0..6 {
            let h = second.head_of(VehicleId(i)).unwrap();
            assert_eq!(second.head_of(h), Some(h));
        }
    }

    #[test]
    fn maintenance_drops_offline_heads() {
        let positions: Vec<Point> = (0..4).map(|i| Point::new(i as f64 * 20.0, 0.0)).collect();
        let f = Fixture::new(positions.clone(), still(4), 300.0);
        let cfg = ClusterConfig::multi_hop();
        let first = form_clusters(&f.world(), &cfg, SimTime::ZERO, None);
        let head = first.heads().next().unwrap();
        let mut online = vec![true; 4];
        online[head.0 as usize] = false;
        let neighbors = NeighborTable::build(&positions, &online, 300.0);
        let velocities = still(4);
        let world = WorldView {
            positions: &positions,
            velocities: &velocities,
            online: &online,
            neighbors: &neighbors,
        };
        let second = maintain_clusters(&first, &world, &cfg, 0.5, SimTime::ZERO, None);
        assert_eq!(second.head_of(head), None, "offline head unassigned");
        for i in 0..4u32 {
            if VehicleId(i) != head {
                let h = second.head_of(VehicleId(i)).expect("re-elected");
                assert_ne!(h, head);
            }
        }
    }

    #[test]
    fn maintenance_churns_less_than_reelection_under_jitter() {
        // Small random position jitter each round: full re-election may swap
        // heads on score noise; maintenance must not churn at all (the
        // cluster never actually partitions).
        use vc_sim::rng::SimRng;
        let mut rng = SimRng::seed_from(31);
        let base: Vec<Point> = (0..8).map(|i| Point::new(i as f64 * 25.0, 0.0)).collect();
        let cfg = ClusterConfig::multi_hop();
        let f0 = Fixture::new(base.clone(), still(8), 300.0);
        let mut maintained = form_clusters(&f0.world(), &cfg, SimTime::ZERO, None);
        let mut reelected = maintained.clone();
        let mut churn_maintained = 0.0;
        let mut churn_reelected = 0.0;
        for _ in 0..20 {
            let jittered: Vec<Point> = base
                .iter()
                .map(|p| *p + Point::new(rng.range_f64(-15.0, 15.0), rng.range_f64(-15.0, 15.0)))
                .collect();
            let velocities: Vec<Point> =
                (0..8).map(|_| Point::new(rng.range_f64(-3.0, 3.0), 0.0)).collect();
            let f = Fixture::new(jittered, velocities, 300.0);
            let next_maintained =
                maintain_clusters(&maintained, &f.world(), &cfg, 0.5, SimTime::ZERO, None);
            let next_reelected = form_clusters(&f.world(), &cfg, SimTime::ZERO, None);
            churn_maintained += head_churn(&maintained, &next_maintained, 8);
            churn_reelected += head_churn(&reelected, &next_reelected, 8);
            maintained = next_maintained;
            reelected = next_reelected;
        }
        assert!(
            churn_maintained <= churn_reelected,
            "maintenance churn {churn_maintained} must not exceed re-election churn {churn_reelected}"
        );
        assert_eq!(churn_maintained, 0.0, "no partition ever happens here");
    }

    #[test]
    fn recorder_changes_no_clustering_and_emits() {
        let positions: Vec<Point> =
            (0..12).map(|i| Point::new((i * 41 % 300) as f64, (i * 59 % 300) as f64)).collect();
        let f = Fixture::new(positions, still(12), 150.0);
        let cfg = ClusterConfig::multi_hop();
        let heads = |c: &Clustering| (0..12).map(|i| c.head_of(VehicleId(i))).collect::<Vec<_>>();
        let mut rec = Recorder::new();
        let plain = form_clusters(&f.world(), &cfg, SimTime::from_secs(1), None);
        let traced = form_clusters(&f.world(), &cfg, SimTime::from_secs(1), Some(&mut rec));
        assert_eq!(heads(&plain), heads(&traced));
        let plain_next = maintain_clusters(&plain, &f.world(), &cfg, 0.5, SimTime::ZERO, None);
        let traced_next = maintain_clusters(
            &traced,
            &f.world(),
            &cfg,
            0.5,
            SimTime::from_secs(2),
            Some(&mut rec),
        );
        assert_eq!(heads(&plain_next), heads(&traced_next));
        assert_eq!(rec.hub().counter("net.cluster.elect"), 1);
        assert_eq!(rec.hub().counter("net.cluster.maintain"), 1);
        let elect = rec.events().next().unwrap();
        assert_eq!(elect.at, SimTime::from_secs(1));
        assert!(elect.fields.iter().any(|(k, _)| *k == "clusters"));
    }

    #[test]
    fn churn_metric() {
        let positions = (0..4).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let f = Fixture::new(positions, still(4), 300.0);
        let a = form_clusters(&f.world(), &ClusterConfig::multi_hop(), SimTime::ZERO, None);
        let b = a.clone();
        assert_eq!(head_churn(&a, &b, 4), 0.0);
        let empty = Clustering::default();
        assert_eq!(head_churn(&a, &empty, 4), 1.0);
        assert_eq!(head_churn(&a, &empty, 0), 0.0);
    }
}
