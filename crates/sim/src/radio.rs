//! Wireless channel models: V2V radio, roadside units, and cellular uplink.
//!
//! The model is intentionally at the abstraction level of the VANET
//! literature the paper surveys: probabilistic reception that degrades with
//! distance (log-distance shadowing folded into a piecewise curve),
//! contention delay growing with local density, and store-and-forward
//! latency per hop. RSUs give fixed coverage disks with a wired backhaul;
//! the cellular path models the paper's "jamming or inaccessibility of the
//! Internet/cellular network at the scene" failure mode (§I).

use crate::geom::{Point, SpatialGrid};
use crate::node::VehicleId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use vc_obs::{MemSize, Recorder};

/// V2V channel parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Nominal maximum range, meters (DSRC ≈ 300 m).
    pub range_m: f64,
    /// Fraction of the range with near-certain reception.
    pub reliable_fraction: f64,
    /// Data rate in bits per second (DSRC ≈ 6 Mb/s).
    pub bitrate_bps: f64,
    /// Mean extra MAC contention delay per contending neighbor, seconds.
    pub contention_per_neighbor_s: f64,
    /// Background loss probability even in perfect range.
    pub base_loss: f64,
}

impl Channel {
    /// A DSRC-like default channel.
    pub fn dsrc() -> Self {
        Channel {
            range_m: 300.0,
            reliable_fraction: 0.6,
            bitrate_bps: 6_000_000.0,
            contention_per_neighbor_s: 0.000_3,
            base_loss: 0.02,
        }
    }

    /// Reception probability at `dist` meters: 1−`base_loss` inside the
    /// reliable zone, linearly falling to zero at `range_m`.
    pub fn reception_probability(&self, dist: f64) -> f64 {
        if dist < 0.0 {
            return 0.0;
        }
        let reliable = self.range_m * self.reliable_fraction;
        if dist <= reliable {
            1.0 - self.base_loss
        } else if dist >= self.range_m {
            0.0
        } else {
            let f = 1.0 - (dist - reliable) / (self.range_m - reliable);
            (1.0 - self.base_loss) * f
        }
    }

    /// Attempts a single-hop transmission of `bytes` over `dist` meters with
    /// `contenders` other transmitters nearby. Returns the one-hop latency on
    /// success, `None` on loss.
    ///
    /// With a recorder, emits `sim` events `radio.tx` for the attempt and
    /// then `radio.rx` (with `latency_us`) or `radio.drop` for the outcome,
    /// stamped `at`. The RNG stream is the same with or without one.
    pub fn try_deliver(
        &self,
        at: SimTime,
        dist: f64,
        contenders: usize,
        bytes: usize,
        rng: &mut SimRng,
        rec: Option<&mut Recorder>,
    ) -> Option<SimDuration> {
        let outcome = rng
            .chance(self.reception_probability(dist))
            .then(|| self.latency(contenders, bytes, rng));
        if let Some(rec) = rec {
            record_delivery(rec, at, bytes, contenders, outcome, dist);
        }
        outcome
    }

    /// One-hop latency assuming successful reception: serialization plus
    /// exponential contention backoff scaled by local density.
    pub fn latency(&self, contenders: usize, bytes: usize, rng: &mut SimRng) -> SimDuration {
        let serialization = bytes as f64 * 8.0 / self.bitrate_bps;
        let contention_mean = self.contention_per_neighbor_s * (contenders as f64 + 1.0);
        let contention = rng.exp(contention_mean.max(1e-9));
        SimDuration::from_secs_f64(serialization + contention + 0.000_5)
    }
}

/// Emits the `radio.tx` + `radio.rx`/`radio.drop` pair for one attempt.
pub(crate) fn record_delivery(
    rec: &mut Recorder,
    at: SimTime,
    bytes: usize,
    contenders: usize,
    outcome: Option<SimDuration>,
    dist: f64,
) {
    rec.event(
        at,
        "sim",
        "radio.tx",
        vec![("bytes", bytes.into()), ("contenders", contenders.into())],
    );
    match outcome {
        Some(latency) => {
            rec.event(at, "sim", "radio.rx", vec![("latency_us", latency.as_micros().into())])
        }
        None => rec.event(at, "sim", "radio.drop", vec![("dist_m", dist.into())]),
    }
}

/// Identifier of a roadside unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RsuId(pub u32);

/// A roadside unit: fixed position, coverage disk, wired backhaul.
#[derive(Debug, Clone)]
pub struct Rsu {
    /// This RSU's id.
    pub id: RsuId,
    /// Mast position.
    pub pos: Point,
    /// Coverage radius, meters (typically larger than V2V).
    pub range_m: f64,
    /// Whether the unit is powered and connected (disasters switch this off).
    pub online: bool,
}

/// The deployed roadside infrastructure.
#[derive(Debug, Clone, Default)]
pub struct RsuNetwork {
    rsus: Vec<Rsu>,
    /// One-way wired backhaul latency between any two RSUs / the core.
    pub backhaul_latency: SimDuration,
}

impl RsuNetwork {
    /// Creates an empty deployment with 5 ms backhaul.
    pub fn new() -> Self {
        RsuNetwork { rsus: Vec::new(), backhaul_latency: SimDuration::from_millis(5) }
    }

    /// Adds an RSU and returns its id.
    pub fn add(&mut self, pos: Point, range_m: f64) -> RsuId {
        let id = RsuId(self.rsus.len() as u32);
        self.rsus.push(Rsu { id, pos, range_m, online: true });
        id
    }

    /// Places RSUs on a regular grid covering `width x height` meters with
    /// the given spacing, each with `range_m` coverage.
    pub fn grid_deployment(width: f64, height: f64, spacing: f64, range_m: f64) -> Self {
        let mut net = RsuNetwork::new();
        let mut y = 0.0;
        while y <= height {
            let mut x = 0.0;
            while x <= width {
                net.add(Point::new(x, y), range_m);
                x += spacing;
            }
            y += spacing;
        }
        net
    }

    /// All RSUs.
    pub fn rsus(&self) -> &[Rsu] {
        &self.rsus
    }

    /// Number of RSUs.
    pub fn len(&self) -> usize {
        self.rsus.len()
    }

    /// `true` when no RSUs are deployed.
    pub fn is_empty(&self) -> bool {
        self.rsus.is_empty()
    }

    /// Mutable access to an RSU (e.g. to fail it).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn rsu_mut(&mut self, id: RsuId) -> &mut Rsu {
        &mut self.rsus[id.0 as usize]
    }

    /// The nearest online RSU covering `pos`, if any (ties go to the lowest
    /// id, as `Iterator::min_by` keeps the first minimal element).
    pub fn covering(&self, pos: Point) -> Option<&Rsu> {
        // One distance_sq per RSU: the old filter took a square root per
        // candidate and the comparator then recomputed both squared
        // distances. `d2 <= range²` selects the same set as `d <= range`.
        let mut best: Option<(f64, &Rsu)> = None;
        for r in &self.rsus {
            if !r.online {
                continue;
            }
            let d2 = r.pos.distance_sq(pos);
            if d2 > r.range_m * r.range_m {
                continue;
            }
            match best {
                Some((bd2, _)) if d2 >= bd2 => {}
                _ => best = Some((d2, r)),
            }
        }
        best.map(|(_, r)| r)
    }

    /// Fraction of RSUs currently online.
    pub fn online_fraction(&self) -> f64 {
        if self.rsus.is_empty() {
            return 0.0;
        }
        self.rsus.iter().filter(|r| r.online).count() as f64 / self.rsus.len() as f64
    }

    /// Takes a random `fraction` of RSUs offline (disaster injection).
    pub fn fail_fraction(&mut self, fraction: f64, rng: &mut SimRng) {
        let n = self.rsus.len();
        let k = ((n as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let victims = rng.sample_indices(n, k);
        for i in victims {
            self.rsus[i].online = false;
        }
    }
}

/// Cellular uplink model: high latency, may be congested or jammed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cellular {
    /// Whether the network is reachable at all.
    pub available: bool,
    /// Mean round-trip latency, seconds.
    pub rtt_mean_s: f64,
    /// Extra mean delay per concurrent user beyond `congestion_knee`.
    pub congestion_per_user_s: f64,
    /// Number of users the cell absorbs before congestion delay kicks in.
    pub congestion_knee: usize,
}

impl Cellular {
    /// A healthy LTE-like cell.
    pub fn healthy() -> Self {
        Cellular {
            available: true,
            rtt_mean_s: 0.05,
            congestion_per_user_s: 0.002,
            congestion_knee: 50,
        }
    }

    /// A jammed / destroyed cell (paper §I: "jamming or inaccessibility").
    pub fn unavailable() -> Self {
        Cellular {
            available: false,
            rtt_mean_s: 0.0,
            congestion_per_user_s: 0.0,
            congestion_knee: 0,
        }
    }

    /// Round-trip latency with `active_users` concurrent users, or `None`
    /// when the cell is unreachable.
    pub fn rtt(&self, active_users: usize, rng: &mut SimRng) -> Option<SimDuration> {
        if !self.available {
            return None;
        }
        let overload = active_users.saturating_sub(self.congestion_knee) as f64;
        let mean = self.rtt_mean_s + overload * self.congestion_per_user_s;
        Some(SimDuration::from_secs_f64(rng.exp(mean)))
    }
}

/// A snapshot of who can hear whom, rebuilt each protocol round.
///
/// Stored in CSR (compressed sparse row) layout: one flat `Vec<VehicleId>`
/// plus per-vehicle offsets, so rebuilding touches two growable buffers
/// instead of allocating one `Vec` per vehicle per round. Each vehicle's
/// slice is sorted ascending, so the layout choice is invisible through
/// [`NeighborTable::of`].
#[derive(Debug, Clone)]
pub struct NeighborTable {
    /// `offsets[i]..offsets[i + 1]` bounds vehicle `i`'s slice of `flat`.
    offsets: Vec<u32>,
    flat: Vec<VehicleId>,
}

impl Default for NeighborTable {
    fn default() -> Self {
        NeighborTable::new()
    }
}

impl NeighborTable {
    /// An empty table over zero vehicles; fill it with
    /// [`NeighborTable::rebuild`].
    pub fn new() -> Self {
        NeighborTable { offsets: vec![0], flat: Vec::new() }
    }

    /// Builds the table from vehicle positions (id = index) and a channel
    /// range. Offline vehicles should be passed with a position but excluded
    /// via `online`.
    pub fn build(positions: &[Point], online: &[bool], range_m: f64) -> Self {
        let mut table = NeighborTable::new();
        let mut grid = SpatialGrid::new(range_m.max(1.0));
        table.rebuild(&mut grid, positions, online, range_m);
        table
    }

    /// Rebuilds this table in place, reusing its flat storage and `grid`'s
    /// buckets (the grid is cleared first, so it may carry entries from a
    /// previous round). Produces exactly what [`NeighborTable::build`] does —
    /// each slice is sorted, so the result is independent of the grid's cell
    /// size and scan order.
    ///
    /// # Panics
    ///
    /// Panics if `positions` and `online` differ in length.
    pub fn rebuild(
        &mut self,
        grid: &mut SpatialGrid,
        positions: &[Point],
        online: &[bool],
        range_m: f64,
    ) {
        assert_eq!(positions.len(), online.len());
        grid.clear();
        for (i, &p) in positions.iter().enumerate() {
            if online[i] {
                grid.insert(i, p);
            }
        }
        self.offsets.clear();
        self.offsets.push(0);
        self.flat.clear();
        for (i, &p) in positions.iter().enumerate() {
            if online[i] {
                let start = self.flat.len();
                grid.for_each_within(p, range_m, |j, _| {
                    if j != i {
                        self.flat.push(VehicleId(j as u32));
                    }
                });
                self.flat[start..].sort_unstable();
            }
            self.offsets.push(self.flat.len() as u32);
        }
    }

    /// Neighbors of a vehicle, sorted ascending.
    pub fn of(&self, id: VehicleId) -> &[VehicleId] {
        let i = id.0 as usize;
        &self.flat[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree (neighbor count) of a vehicle.
    pub fn degree(&self, id: VehicleId) -> usize {
        self.of(id).len()
    }

    /// Mean degree over all vehicles.
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.flat.len() as f64 / self.len() as f64
    }

    /// Number of vehicles tracked.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl MemSize for NeighborTable {
    /// Deep heap bytes of the CSR arrays, by capacity (the reserved
    /// memory, which in-place rebuilds keep across rounds). Deterministic
    /// and shard-count invariant, so the `mem.net.bytes` gauge built on it
    /// can ride in byte-compared time-series output.
    fn mem_bytes(&self) -> u64 {
        (self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.flat.capacity() * std::mem::size_of::<VehicleId>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reception_curve_shape() {
        let ch = Channel::dsrc();
        assert!((ch.reception_probability(0.0) - 0.98).abs() < 1e-12);
        assert!((ch.reception_probability(100.0) - 0.98).abs() < 1e-12);
        assert_eq!(ch.reception_probability(300.0), 0.0);
        assert_eq!(ch.reception_probability(1000.0), 0.0);
        assert_eq!(ch.reception_probability(-5.0), 0.0);
        let mid = ch.reception_probability(240.0);
        assert!(mid > 0.0 && mid < 0.98, "mid-zone prob {mid}");
        // Monotone non-increasing.
        let mut last = 1.0;
        for d in 0..40 {
            let p = ch.reception_probability(d as f64 * 10.0);
            assert!(p <= last + 1e-12);
            last = p;
        }
    }

    #[test]
    fn delivery_always_fails_out_of_range() {
        let ch = Channel::dsrc();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            assert!(ch.try_deliver(SimTime::ZERO, 400.0, 0, 100, &mut rng, None).is_none());
        }
    }

    #[test]
    fn delivery_mostly_succeeds_close() {
        let ch = Channel::dsrc();
        let mut rng = SimRng::seed_from(2);
        let ok = (0..1000)
            .filter(|_| ch.try_deliver(SimTime::ZERO, 50.0, 3, 200, &mut rng, None).is_some())
            .count();
        assert!(ok > 950, "only {ok}/1000 delivered");
    }

    #[test]
    fn latency_grows_with_density() {
        let ch = Channel::dsrc();
        let mut rng = SimRng::seed_from(3);
        let mean = |contenders: usize, rng: &mut SimRng| {
            (0..2000).map(|_| ch.latency(contenders, 300, rng).as_secs_f64()).sum::<f64>() / 2000.0
        };
        let sparse = mean(1, &mut rng);
        let dense = mean(100, &mut rng);
        assert!(dense > sparse * 2.0, "sparse {sparse}, dense {dense}");
    }

    #[test]
    fn latency_grows_with_size() {
        let ch = Channel::dsrc();
        let mut rng = SimRng::seed_from(4);
        let small = ch.latency(0, 100, &mut rng).as_secs_f64();
        // serialization dominates for a megabyte at 6 Mb/s (~1.3 s)
        let big = ch.latency(0, 1_000_000, &mut rng).as_secs_f64();
        assert!(big > 1.0, "big transfer too fast: {big}");
        assert!(small < 0.1);
    }

    #[test]
    fn recorded_delivery_matches_unrecorded_stream() {
        let ch = Channel::dsrc();
        let mut plain_rng = SimRng::seed_from(11);
        let mut traced_rng = SimRng::seed_from(11);
        let mut rec = Recorder::new();
        for i in 0..50 {
            // Mix of in-range and out-of-range attempts.
            let dist = if i % 3 == 0 { 400.0 } else { 50.0 };
            let plain = ch.try_deliver(SimTime::ZERO, dist, 2, 100, &mut plain_rng, None);
            let traced =
                ch.try_deliver(SimTime::ZERO, dist, 2, 100, &mut traced_rng, Some(&mut rec));
            assert_eq!(plain, traced, "attempt {i}");
        }
        assert_eq!(plain_rng.next_u64(), traced_rng.next_u64(), "RNG streams diverged");
        let count = |kind| rec.hub().counter(&format!("sim.{kind}"));
        assert_eq!(count("radio.tx"), 50);
        assert_eq!(count("radio.rx") + count("radio.drop"), 50);
        assert!(count("radio.rx") > 0 && count("radio.drop") > 0);
        assert_eq!(rec.len(), 100);
    }

    #[test]
    fn rsu_coverage_and_failure() {
        let mut net = RsuNetwork::new();
        let a = net.add(Point::new(0.0, 0.0), 500.0);
        let _b = net.add(Point::new(2000.0, 0.0), 500.0);
        assert_eq!(net.covering(Point::new(100.0, 0.0)).unwrap().id, a);
        assert!(net.covering(Point::new(1000.0, 0.0)).is_none());
        net.rsu_mut(a).online = false;
        assert!(net.covering(Point::new(100.0, 0.0)).is_none());
        assert_eq!(net.online_fraction(), 0.5);
    }

    #[test]
    fn rsu_covering_picks_nearest() {
        let mut net = RsuNetwork::new();
        let _a = net.add(Point::new(0.0, 0.0), 1000.0);
        let b = net.add(Point::new(300.0, 0.0), 1000.0);
        assert_eq!(net.covering(Point::new(250.0, 0.0)).unwrap().id, b);
    }

    #[test]
    fn rsu_grid_deployment_covers_area() {
        let net = RsuNetwork::grid_deployment(1000.0, 1000.0, 500.0, 400.0);
        assert_eq!(net.len(), 9);
        // Center of a cell is within range of some RSU.
        assert!(net.covering(Point::new(250.0, 250.0)).is_some());
    }

    #[test]
    fn rsu_fail_fraction() {
        let mut net = RsuNetwork::grid_deployment(1000.0, 1000.0, 250.0, 300.0);
        let total = net.len();
        let mut rng = SimRng::seed_from(5);
        net.fail_fraction(0.5, &mut rng);
        let failed = ((total as f64) * 0.5).round() as usize;
        let online = net.rsus().iter().filter(|r| r.online).count();
        assert_eq!(online, total - failed);
    }

    #[test]
    fn cellular_unavailable_returns_none() {
        let mut rng = SimRng::seed_from(6);
        assert!(Cellular::unavailable().rtt(1, &mut rng).is_none());
        assert!(Cellular::healthy().rtt(1, &mut rng).is_some());
    }

    #[test]
    fn cellular_congestion_raises_latency() {
        let cell = Cellular::healthy();
        let mut rng = SimRng::seed_from(7);
        let mean = |users: usize, rng: &mut SimRng| {
            (0..2000).map(|_| cell.rtt(users, rng).unwrap().as_secs_f64()).sum::<f64>() / 2000.0
        };
        let idle = mean(1, &mut rng);
        let packed = mean(500, &mut rng);
        assert!(packed > idle * 5.0, "idle {idle}, packed {packed}");
    }

    #[test]
    fn neighbor_table_symmetry_and_exclusion() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0), Point::new(1000.0, 0.0)];
        let online = vec![true, true, true];
        let table = NeighborTable::build(&positions, &online, 300.0);
        assert_eq!(table.of(VehicleId(0)), &[VehicleId(1)]);
        assert_eq!(table.of(VehicleId(1)), &[VehicleId(0)]);
        assert!(table.of(VehicleId(2)).is_empty());
        assert!((table.mean_degree() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn neighbor_table_rebuild_matches_build() {
        let mut rng = SimRng::seed_from(9);
        let mut table = NeighborTable::new();
        assert!(table.is_empty());
        let mut grid = SpatialGrid::new(300.0);
        // Rebuild over successive random worlds: stale grid buckets and
        // stale flat storage must not leak into the next round's table.
        for round in 0..5 {
            let n = 30 + round * 17;
            let positions: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.range_f64(0.0, 1500.0), rng.range_f64(0.0, 1500.0)))
                .collect();
            let online: Vec<bool> = (0..n).map(|i| i % 7 != 0).collect();
            table.rebuild(&mut grid, &positions, &online, 300.0);
            let fresh = NeighborTable::build(&positions, &online, 300.0);
            assert_eq!(table.len(), fresh.len());
            for i in 0..n {
                assert_eq!(table.of(VehicleId(i as u32)), fresh.of(VehicleId(i as u32)));
            }
            assert_eq!(table.mean_degree(), fresh.mean_degree());
        }
    }

    #[test]
    fn rsu_covering_tie_prefers_lowest_id() {
        let mut net = RsuNetwork::new();
        let a = net.add(Point::new(0.0, 0.0), 500.0);
        let _b = net.add(Point::new(200.0, 0.0), 500.0);
        // Equidistant from both masts: min_by semantics keep the first.
        assert_eq!(net.covering(Point::new(100.0, 0.0)).unwrap().id, a);
    }

    #[test]
    fn neighbor_table_offline_isolated() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let table = NeighborTable::build(&positions, &[true, false], 300.0);
        assert!(table.of(VehicleId(0)).is_empty());
        assert!(table.of(VehicleId(1)).is_empty());
    }
}
