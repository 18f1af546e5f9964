//! 3-D geometry in the paper's units (feet) and the 1 ft³ cube grid.
//!
//! The paper's simulator "approximates the media by dividing the space into
//! small cubes and then computing the strength of a signal at each cube
//! according to the distance from the signal source to the center of the
//! cube", with 1 ft³ cubes; "a station … resides at the center of a cube".
//! We reproduce that by snapping every station position to the nearest cube
//! center before any distance is computed.

/// A point in space, in feet. `z` is height; the paper places pads 6 ft below
/// base-station (ceiling) height.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Point {
    /// Construct a point from coordinates in feet.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Point { x, y, z }
    }

    /// Euclidean distance to `other`, in feet.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other`, in square feet — the value
    /// [`Point::distance`] takes the square root of. Between two cube
    /// centres every coordinate delta is a whole number of feet, so this
    /// is an exact integer.
    pub(crate) fn distance_squared(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        dx * dx + dy * dy + dz * dz
    }
}

/// Snap a point to the center of its 1 ft³ cube.
///
/// Cube `(i, j, k)` spans `[i, i+1) × [j, j+1) × [k, k+1)` ft and has center
/// `(i+0.5, j+0.5, k+0.5)`.
pub fn cube_center(p: Point) -> Point {
    Point {
        x: p.x.floor() + 0.5,
        y: p.y.floor() + 0.5,
        z: p.z.floor() + 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0, 0.0);
        let b = Point::new(3.0, 4.0, 0.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        let c = Point::new(2.0, 3.0, 6.0);
        assert!((a.distance(c) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.5, -3.0);
        let b = Point::new(-4.0, 0.5, 9.0);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn cube_center_snaps_to_half_integers() {
        let p = cube_center(Point::new(3.2, 7.9, 0.0));
        assert_eq!(p, Point::new(3.5, 7.5, 0.5));
    }

    #[test]
    fn cube_center_is_idempotent() {
        let p = cube_center(Point::new(-1.3, 2.7, 11.999));
        assert_eq!(cube_center(p), p);
    }

    #[test]
    fn negative_coordinates_snap_to_their_own_cube() {
        let p = cube_center(Point::new(-0.2, -1.8, 0.0));
        assert_eq!(p, Point::new(-0.5, -1.5, 0.5));
    }

    #[test]
    fn stations_in_same_cube_are_colocated() {
        let a = cube_center(Point::new(4.1, 4.2, 6.0));
        let b = cube_center(Point::new(4.9, 4.8, 6.7));
        assert_eq!(a.distance(b), 0.0);
    }
}
