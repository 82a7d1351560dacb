//! Property-based tests for the simulation substrate.

use vc_sim::geom::{Point, Rect, Segment, SpatialGrid};
use vc_sim::mobility::Fleet;
use vc_sim::rng::SimRng;
use vc_sim::roadnet::{NodeId, RoadNetwork};
use vc_sim::time::{SimDuration, SimTime};
use vc_testkit::prop::strategy::{any_u64, from_fn, vec, FromFn};
use vc_testkit::{prop, prop_assert, prop_assert_eq};

fn pt() -> FromFn<impl Fn(&mut SimRng) -> Point> {
    from_fn(|rng| Point::new(rng.range_f64(-1e4, 1e4), rng.range_f64(-1e4, 1e4)))
}

/// A random road network: clustered intersections with random directed
/// roads, including node-only and road-free degenerate shapes.
fn roadnet() -> FromFn<impl Fn(&mut SimRng) -> RoadNetwork> {
    from_fn(|rng| {
        let n = rng.range_u64(1, 40) as usize;
        let mut net = RoadNetwork::new();
        for _ in 0..n {
            net.add_intersection(Point::new(
                rng.range_f64(-2000.0, 2000.0),
                rng.range_f64(-2000.0, 2000.0),
            ));
        }
        if n >= 2 {
            for _ in 0..rng.range_u64(0, 80) {
                let a = rng.index(n);
                let b = rng.index(n);
                if a != b {
                    net.add_road(NodeId(a), NodeId(b), 13.9, 1);
                }
            }
        }
        net
    })
}

prop! {
    #![cases(128)]

    // ---- time ----

    #[test]
    fn time_add_sub_roundtrip(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(base);
        let d = SimDuration::from_micros(delta);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
    }

    #[test]
    fn saturating_since_never_panics(a in any_u64(), b in any_u64()) {
        let x = SimTime::from_micros(a);
        let y = SimTime::from_micros(b);
        let d = x.saturating_since(y);
        if a >= b {
            prop_assert_eq!(d.as_micros(), a - b);
        } else {
            prop_assert_eq!(d, SimDuration::ZERO);
        }
    }

    // ---- geometry ----

    #[test]
    fn distance_is_a_metric(a in pt(), b in pt(), c in pt()) {
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9, "symmetry");
        prop_assert!(a.distance(a) < 1e-12, "identity");
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9, "triangle");
    }

    #[test]
    fn normalized_is_unit_or_zero(a in pt()) {
        let n = a.normalized().norm();
        prop_assert!(n < 1e-12 || (n - 1.0).abs() < 1e-9);
    }

    #[test]
    fn segment_projection_is_closest(a in pt(), b in pt(), p in pt(), t in 0.0f64..1.0) {
        let seg = Segment::new(a, b);
        let best = seg.distance_to(p);
        let other = seg.at(t).distance(p);
        prop_assert!(best <= other + 1e-9);
    }

    #[test]
    fn rect_clamp_is_inside(a in pt(), b in pt(), p in pt()) {
        let r = Rect::new(a, b);
        prop_assert!(r.contains(r.clamp(p)));
    }

    // ---- spatial grid vs brute force ----

    #[test]
    fn grid_matches_brute_force(points in vec(pt(), 1..80),
                                center in pt(), radius in 1.0f64..500.0) {
        let mut grid = SpatialGrid::new(100.0);
        grid.rebuild(points.iter().copied());
        let mut got = grid.within(center, radius);
        got.sort();
        let mut expect: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(center) < radius)
            .map(|(i, _)| i)
            .collect();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    // ---- road index vs linear scan ----

    // The spatial index must be invisible: same nearest node (ties included)
    // and bit-identical nearest-road distances as the retained linear scans.
    // Query points range far beyond the network bounding box to stress the
    // expanding-ring start and termination.
    #[test]
    fn road_index_nearest_node_matches_linear(net in roadnet(), p in pt()) {
        prop_assert_eq!(net.nearest_node(p), net.nearest_node_linear(p));
    }

    #[test]
    fn road_index_nearest_road_matches_linear_bitwise(net in roadnet(), p in pt()) {
        let fast = net.distance_to_nearest_road(p);
        let slow = net.distance_to_nearest_road_linear(p);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
    }

    // The three SpatialGrid query forms are one implementation: identical
    // hits in identical order.
    #[test]
    fn grid_query_forms_agree(points in vec(pt(), 1..80),
                              center in pt(), radius in 1.0f64..500.0) {
        let mut grid = SpatialGrid::new(100.0);
        grid.rebuild(points.iter().copied());
        let direct = grid.within(center, radius);
        let mut buffered = Vec::new();
        grid.within_into(center, radius, &mut buffered);
        prop_assert_eq!(&buffered, &direct);
        let mut visited = Vec::new();
        grid.for_each_within(center, radius, |i, _| visited.push(i));
        prop_assert_eq!(&visited, &direct);
    }

    // ---- rng ----

    #[test]
    fn rng_range_respects_bounds(seed in any_u64(), lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            let x = rng.range_u64(lo, lo + span);
            prop_assert!(x >= lo && x < lo + span);
        }
    }

    #[test]
    fn rng_shuffle_is_permutation(seed in any_u64(), n in 1usize..50) {
        let mut rng = SimRng::seed_from(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    // ---- sharded mobility determinism ----

    #[test]
    fn sharded_fleet_step_is_bitwise_equal_to_sequential(
        seed in any_u64(),
        regime in 0u8..3,
        shards in 2usize..9,
        n in 520usize..800,
        ticks in 1usize..5,
    ) {
        // Sizes start past MIN_ITEMS_PER_SHARD so the plan genuinely fans
        // out; every (regime, seed, shard count) must reproduce the
        // sequential trajectory bit for bit.
        let net = RoadNetwork::grid(5, 5, 120.0, 13.9);
        let mk = || {
            let mut rng = SimRng::seed_from(seed);
            match regime {
                0 => Fleet::urban(&net, n, &mut rng),
                1 => Fleet::highway(3_000.0, n, &net, &mut rng),
                _ => Fleet::parking_lot(Point::new(0.0, 0.0), n, &net, &mut rng),
            }
        };
        let mut seq = mk();
        let mut par = mk();
        for _ in 0..ticks {
            seq.step_sharded(0.5, &net, 1);
            par.step_sharded(0.5, &net, shards);
        }
        for i in 0..n {
            prop_assert_eq!(seq.positions()[i].x.to_bits(), par.positions()[i].x.to_bits());
            prop_assert_eq!(seq.positions()[i].y.to_bits(), par.positions()[i].y.to_bits());
            prop_assert_eq!(seq.velocities()[i].x.to_bits(), par.velocities()[i].x.to_bits());
            prop_assert_eq!(seq.velocities()[i].y.to_bits(), par.velocities()[i].y.to_bits());
        }
    }
}
