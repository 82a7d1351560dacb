//! Planar geometry for road networks and radio range computations.
//!
//! Positions are in meters on a flat plane — adequate at city scale and what
//! the VANET literature's simulators use.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use vc_obs::MemSize;

/// A point (or displacement) in the plane, in meters.
///
/// ```
/// use vc_sim::geom::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East coordinate, meters.
    pub x: f64,
    /// North coordinate, meters.
    pub y: f64,
}

/// The origin.
pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

impl Point {
    /// Creates a point from coordinates in meters.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, meters.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared distance — cheaper when only comparing.
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector length (distance from the origin).
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Unit vector in the same direction, or zero for the zero vector.
    pub fn normalized(self) -> Point {
        let n = self.norm();
        if n == 0.0 {
            ORIGIN
        } else {
            self / n
        }
    }

    /// Dot product, treating both points as vectors.
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product magnitude (signed area of the parallelogram).
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Heading of this vector in radians, in `(-pi, pi]`, east = 0,
    /// counter-clockwise positive.
    pub fn heading(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Unit vector pointing along `heading` radians.
    pub fn from_heading(heading: f64) -> Point {
        Point::new(heading.cos(), heading.sin())
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// Midpoint between `self` and `other`.
    pub fn midpoint(self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment from `a` to `b`.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length in meters.
    pub fn length(self) -> f64 {
        self.a.distance(self.b)
    }

    /// Point at parameter `t in [0, 1]` along the segment (clamped).
    pub fn at(self, t: f64) -> Point {
        self.a.lerp(self.b, t.clamp(0.0, 1.0))
    }

    /// Parameter of the closest point on the segment to `p`, in `[0, 1]`.
    pub fn project(self, p: Point) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.dot(d);
        if len_sq == 0.0 {
            return 0.0;
        }
        ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0)
    }

    /// Distance from `p` to the closest point on the segment.
    pub fn distance_to(self, p: Point) -> f64 {
        p.distance(self.at(self.project(p)))
    }
}

/// An axis-aligned bounding rectangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// `true` when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Width in meters.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in meters.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Center point.
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Grows the rectangle by `margin` meters on every side.
    pub fn inflate(&self, margin: f64) -> Rect {
        Rect {
            min: self.min - Point::new(margin, margin),
            max: self.max + Point::new(margin, margin),
        }
    }

    /// Clamps `p` into the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.min.x, self.max.x), p.y.clamp(self.min.y, self.max.y))
    }
}

/// A uniform spatial hash grid for neighbor queries.
///
/// VANET protocols repeatedly ask "who is within radio range of me?"; a
/// linear scan is O(n^2) per round. This grid buckets positions by cell of
/// side `cell_size` (pick the radio range) so range queries touch at most 9
/// cells.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_size: f64,
    cells: std::collections::HashMap<(i64, i64), Vec<(usize, Point)>>,
}

impl SpatialGrid {
    /// Creates an empty grid with the given cell size (meters).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive.
    pub fn new(cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        SpatialGrid { cell_size, cells: std::collections::HashMap::new() }
    }

    /// Cell side length in meters, as passed to [`SpatialGrid::new`].
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    fn key(&self, p: Point) -> (i64, i64) {
        ((p.x / self.cell_size).floor() as i64, (p.y / self.cell_size).floor() as i64)
    }

    /// Inserts an item with an opaque index at a position.
    pub fn insert(&mut self, index: usize, pos: Point) {
        self.cells.entry(self.key(pos)).or_default().push((index, pos));
    }

    /// Clears all entries, keeping allocated buckets for reuse.
    pub fn clear(&mut self) {
        for bucket in self.cells.values_mut() {
            bucket.clear();
        }
    }

    /// Rebuilds the grid from an iterator of positions (index = iteration
    /// order), reusing previously allocated buckets.
    pub fn rebuild<I: IntoIterator<Item = Point>>(&mut self, positions: I) {
        self.clear();
        for (i, p) in positions.into_iter().enumerate() {
            self.insert(i, p);
        }
    }

    /// Calls `visit(index, pos)` for every item strictly within `radius` of
    /// `center`, in deterministic (cell-scan, then insertion) order. This is
    /// the allocation-free core of [`SpatialGrid::within`]; hot per-round
    /// loops should prefer it (or [`SpatialGrid::within_into`]).
    ///
    /// A non-finite or non-positive `radius` visits nothing: a negative or
    /// NaN radius is a caller bug, and an infinite one would otherwise
    /// degenerate into scanning unbounded cell ranges.
    pub fn for_each_within(&self, center: Point, radius: f64, mut visit: impl FnMut(usize, Point)) {
        if !radius.is_finite() || radius <= 0.0 {
            return;
        }
        let r_cells = (radius / self.cell_size).ceil() as i64;
        let (cx, cy) = self.key(center);
        let r_sq = radius * radius;
        for dx in -r_cells..=r_cells {
            for dy in -r_cells..=r_cells {
                if let Some(bucket) = self.cells.get(&(cx + dx, cy + dy)) {
                    for &(idx, pos) in bucket {
                        if pos.distance_sq(center) < r_sq {
                            visit(idx, pos);
                        }
                    }
                }
            }
        }
    }

    /// Appends the indices of every item strictly within `radius` of
    /// `center` to `out` without clearing it — callers own the buffer so a
    /// per-round query loop reuses one allocation.
    pub fn within_into(&self, center: Point, radius: f64, out: &mut Vec<usize>) {
        self.for_each_within(center, radius, |idx, _| out.push(idx));
    }

    /// All item indices strictly within `radius` of `center` (excluding
    /// entries at distance exactly ≥ radius). Allocates a fresh `Vec`; see
    /// [`SpatialGrid::within_into`] / [`SpatialGrid::for_each_within`] for
    /// the reusable forms.
    pub fn within(&self, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.within_into(center, radius, &mut out);
        out
    }
}

impl MemSize for SpatialGrid {
    /// Deep heap bytes: hash-table slots (one `(key, bucket)` pair plus a
    /// control byte per slot of capacity, the SwissTable layout) plus each
    /// cell bucket's capacity. Iteration order is randomized but the sum
    /// is order-independent, so the figure is deterministic.
    fn mem_bytes(&self) -> u64 {
        let slot = std::mem::size_of::<((i64, i64), Vec<(usize, Point)>)>() as u64 + 1;
        let buckets: usize =
            self.cells.values().map(|v| v.capacity() * std::mem::size_of::<(usize, Point)>()).sum();
        self.cells.capacity() as u64 * slot + buckets as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(b - a, Point::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn distance_and_norm() {
        assert_eq!(Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)), 5.0);
        assert_eq!(Point::new(3.0, 4.0).norm(), 5.0);
        let u = Point::new(10.0, 0.0).normalized();
        assert!((u.x - 1.0).abs() < 1e-12 && u.y == 0.0);
        assert_eq!(ORIGIN.normalized(), ORIGIN);
    }

    #[test]
    fn heading_roundtrip() {
        for &h in &[0.0, 0.5, 1.0, -2.0, 3.0] {
            let v = Point::from_heading(h);
            assert!((v.heading() - h).abs() < 1e-12, "heading {h}");
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Point::new(5.0, 10.0));
    }

    #[test]
    fn segment_projection_clamps() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.project(Point::new(5.0, 3.0)), 0.5);
        assert_eq!(s.project(Point::new(-5.0, 0.0)), 0.0);
        assert_eq!(s.project(Point::new(50.0, 0.0)), 1.0);
        assert_eq!(s.distance_to(Point::new(5.0, 3.0)), 3.0);
        assert_eq!(s.distance_to(Point::new(13.0, 4.0)), 5.0);
    }

    #[test]
    fn degenerate_segment() {
        let s = Segment::new(Point::new(2.0, 2.0), Point::new(2.0, 2.0));
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.project(Point::new(9.0, 9.0)), 0.0);
        assert_eq!(s.at(0.7), Point::new(2.0, 2.0));
    }

    #[test]
    fn rect_contains_and_clamp() {
        let r = Rect::new(Point::new(10.0, 10.0), Point::new(0.0, 0.0));
        assert_eq!(r.min, ORIGIN);
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(r.contains(Point::new(0.0, 10.0)));
        assert!(!r.contains(Point::new(-0.1, 5.0)));
        assert_eq!(r.clamp(Point::new(20.0, -5.0)), Point::new(10.0, 0.0));
        assert_eq!(r.center(), Point::new(5.0, 5.0));
        assert_eq!(r.inflate(1.0).width(), 12.0);
    }

    #[test]
    fn spatial_grid_matches_brute_force() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from(17);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.range_f64(0.0, 1000.0), rng.range_f64(0.0, 1000.0)))
            .collect();
        let mut grid = SpatialGrid::new(100.0);
        grid.rebuild(pts.iter().copied());
        for probe in 0..20 {
            let center = pts[probe * 7];
            let radius = 150.0;
            let mut expected: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.distance(center) < radius)
                .map(|(i, _)| i)
                .collect();
            let mut got = grid.within(center, radius);
            expected.sort();
            got.sort();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn spatial_grid_visitor_and_buffer_forms_match_within() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from(23);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.range_f64(0.0, 500.0), rng.range_f64(0.0, 500.0)))
            .collect();
        let mut grid = SpatialGrid::new(60.0);
        grid.rebuild(pts.iter().copied());
        let center = Point::new(250.0, 250.0);
        let expected = grid.within(center, 120.0);
        let mut buffered = Vec::new();
        grid.within_into(center, 120.0, &mut buffered);
        assert_eq!(buffered, expected);
        let mut visited = Vec::new();
        grid.for_each_within(center, 120.0, |idx, pos| {
            assert_eq!(pos, pts[idx]);
            visited.push(idx);
        });
        assert_eq!(visited, expected);
        // within_into appends without clearing: the caller owns the buffer.
        grid.within_into(center, 120.0, &mut buffered);
        assert_eq!(buffered.len(), expected.len() * 2);
    }

    #[test]
    fn spatial_grid_rejects_pathological_radii() {
        let mut grid = SpatialGrid::new(10.0);
        grid.insert(0, Point::new(1.0, 1.0));
        let center = Point::new(0.0, 0.0);
        // A negative radius used to probe the center cell with a positive
        // r² (bogus hits); NaN and ±inf produced nonsense cell ranges.
        for bad in [-5.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(grid.within(center, bad).is_empty(), "radius {bad} must match nothing");
            let mut visited = 0;
            grid.for_each_within(center, bad, |_, _| visited += 1);
            assert_eq!(visited, 0, "radius {bad} must visit nothing");
        }
        // Sanity: a real radius still works.
        assert_eq!(grid.within(center, 5.0), vec![0]);
    }

    #[test]
    fn spatial_grid_clear_keeps_working() {
        let mut grid = SpatialGrid::new(10.0);
        grid.insert(0, Point::new(1.0, 1.0));
        assert_eq!(grid.within(Point::new(0.0, 0.0), 5.0), vec![0]);
        grid.clear();
        assert!(grid.within(Point::new(0.0, 0.0), 5.0).is_empty());
        grid.insert(3, Point::new(2.0, 2.0));
        assert_eq!(grid.within(Point::new(0.0, 0.0), 5.0), vec![3]);
    }
}
