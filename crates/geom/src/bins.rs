use crate::{Point, Rect};

/// Index of a bin inside a [`BinGrid`]: `(column, row)`.
pub type BinIdx = (usize, usize);

/// A uniform spatial grid over a rectangular region.
///
/// `BinGrid` carries a scalar payload per bin (typically occupied cell area
/// or routing demand) and offers the point↔bin mapping used by the placer's
/// density spreading, the bin-based FM partitioner and the global router.
///
/// # Examples
///
/// ```
/// use m3d_geom::{BinGrid, Point, Rect};
///
/// let mut grid = BinGrid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10, 10);
/// let idx = grid.bin_of(Point::new(15.0, 95.0));
/// assert_eq!(idx, (1, 9));
/// *grid.value_mut(idx) += 3.0;
/// assert_eq!(grid.value(idx), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BinGrid {
    region: Rect,
    nx: usize,
    ny: usize,
    values: Vec<f64>,
}

impl BinGrid {
    /// Creates a grid of `nx * ny` bins covering `region`, all values zero.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero or the region has zero area.
    #[must_use]
    pub fn new(region: Rect, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "bin grid must have at least one bin");
        assert!(
            region.area() > 0.0,
            "bin grid region must have positive area"
        );
        BinGrid {
            region,
            nx,
            ny,
            values: vec![0.0; nx * ny],
        }
    }

    /// The covered region.
    #[must_use]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of columns.
    #[must_use]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of rows.
    #[must_use]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Width of one bin in microns.
    #[must_use]
    pub fn bin_width(&self) -> f64 {
        self.region.width() / self.nx as f64
    }

    /// Height of one bin in microns.
    #[must_use]
    pub fn bin_height(&self) -> f64 {
        self.region.height() / self.ny as f64
    }

    /// Maps a point to the bin containing it; points outside the region are
    /// clamped to the nearest boundary bin.
    #[must_use]
    pub fn bin_of(&self, p: Point) -> BinIdx {
        let fx = (p.x - self.region.llx()) / self.bin_width();
        let fy = (p.y - self.region.lly()) / self.bin_height();
        let cx = (fx.floor() as isize).clamp(0, self.nx as isize - 1) as usize;
        let cy = (fy.floor() as isize).clamp(0, self.ny as isize - 1) as usize;
        (cx, cy)
    }

    fn flat(&self, idx: BinIdx) -> usize {
        idx.1 * self.nx + idx.0
    }

    /// Payload value of bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn value(&self, idx: BinIdx) -> f64 {
        assert!(idx.0 < self.nx && idx.1 < self.ny, "bin index out of range");
        self.values[self.flat(idx)]
    }

    /// Mutable payload value of bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn value_mut(&mut self, idx: BinIdx) -> &mut f64 {
        assert!(idx.0 < self.nx && idx.1 < self.ny, "bin index out of range");
        let flat = self.flat(idx);
        &mut self.values[flat]
    }

    /// Resets every bin value to zero.
    pub fn clear(&mut self) {
        self.values.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of all bin values.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Maximum bin value (zero for an all-zero grid).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0_f64, f64::max)
    }

    /// Iterates over `(BinIdx, value)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (BinIdx, f64)> + '_ {
        let nx = self.nx;
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| ((i % nx, i / nx), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> BinGrid {
        BinGrid::new(Rect::new(0.0, 0.0, 100.0, 50.0), 10, 5)
    }

    #[test]
    fn bin_dimensions() {
        let g = grid();
        assert_eq!(g.bin_width(), 10.0);
        assert_eq!(g.bin_height(), 10.0);
    }

    #[test]
    fn point_to_bin_mapping() {
        let g = grid();
        assert_eq!(g.bin_of(Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.bin_of(Point::new(99.9, 49.9)), (9, 4));
        // Clamping outside the region.
        assert_eq!(g.bin_of(Point::new(-5.0, 500.0)), (0, 4));
        assert_eq!(g.bin_of(Point::new(200.0, -1.0)), (9, 0));
    }

    #[test]
    fn values_accumulate() {
        let mut g = grid();
        *g.value_mut((3, 2)) += 5.0;
        *g.value_mut((3, 2)) += 2.5;
        *g.value_mut((0, 0)) = 1.0;
        assert_eq!(g.value((3, 2)), 7.5);
        assert_eq!(g.total(), 8.5);
        assert_eq!(g.max(), 7.5);
        g.clear();
        assert_eq!(g.total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = BinGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), 0, 5);
    }
}
