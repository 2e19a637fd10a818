use std::fmt;

/// A two-dimensional lookup table with bilinear interpolation — the NLDM
/// (non-linear delay model) table format used by Liberty-style timing
/// libraries.
///
/// Rows are indexed by input slew (ns), columns by output load (fF); values
/// are delays or output slews (ns). Lookups outside the characterized range
/// are clamped to the boundary, mirroring what sign-off tools do (and why
/// the paper worries about boundary-cell slews leaving the characterized
/// range).
///
/// # Examples
///
/// ```
/// use m3d_tech::Lut2d;
///
/// let lut = Lut2d::new(
///     vec![0.01, 0.1],
///     vec![1.0, 10.0],
///     vec![vec![0.02, 0.05], vec![0.03, 0.08]],
/// ).expect("valid table");
/// let mid = lut.lookup(0.055, 5.5);
/// assert!(mid > 0.02 && mid < 0.08);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lut2d {
    slew_index: Vec<f64>,
    load_index: Vec<f64>,
    /// `values[i][j]` corresponds to `slew_index[i]`, `load_index[j]`.
    values: Vec<Vec<f64>>,
}

/// Error building a [`Lut2d`] from inconsistent axes or values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildLutError(String);

impl fmt::Display for BuildLutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid lookup table: {}", self.0)
    }
}

impl std::error::Error for BuildLutError {}

impl Lut2d {
    /// Builds a table from its axes and a row-major value matrix.
    ///
    /// # Errors
    ///
    /// Returns an error if either axis is empty or not strictly increasing,
    /// or if the value matrix shape does not match the axes.
    pub fn new(
        slew_index: Vec<f64>,
        load_index: Vec<f64>,
        values: Vec<Vec<f64>>,
    ) -> Result<Self, BuildLutError> {
        if slew_index.is_empty() || load_index.is_empty() {
            return Err(BuildLutError("axes must be non-empty".into()));
        }
        if !strictly_increasing(&slew_index) {
            return Err(BuildLutError(
                "slew axis must be strictly increasing".into(),
            ));
        }
        if !strictly_increasing(&load_index) {
            return Err(BuildLutError(
                "load axis must be strictly increasing".into(),
            ));
        }
        if values.len() != slew_index.len() {
            return Err(BuildLutError(format!(
                "expected {} rows, got {}",
                slew_index.len(),
                values.len()
            )));
        }
        for row in &values {
            if row.len() != load_index.len() {
                return Err(BuildLutError(format!(
                    "expected {} columns, got {}",
                    load_index.len(),
                    row.len()
                )));
            }
        }
        Ok(Lut2d {
            slew_index,
            load_index,
            values,
        })
    }

    /// Generates a table by sampling `f(slew, load)` on the given axes.
    ///
    /// # Panics
    ///
    /// Panics if the axes are empty or not strictly increasing (library
    /// generation is internal, so malformed axes are a programming error).
    #[must_use]
    pub fn from_fn(
        slew_index: Vec<f64>,
        load_index: Vec<f64>,
        f: impl Fn(f64, f64) -> f64,
    ) -> Self {
        let values = slew_index
            .iter()
            .map(|&s| load_index.iter().map(|&l| f(s, l)).collect())
            .collect();
        Lut2d::new(slew_index, load_index, values).expect("generated axes must be valid")
    }

    /// Characterized input-slew range `(min, max)` in ns.
    #[must_use]
    pub fn slew_range(&self) -> (f64, f64) {
        (
            self.slew_index[0],
            *self.slew_index.last().expect("non-empty"),
        )
    }

    /// Characterized load range `(min, max)` in fF.
    #[must_use]
    pub fn load_range(&self) -> (f64, f64) {
        (
            self.load_index[0],
            *self.load_index.last().expect("non-empty"),
        )
    }

    /// Bilinear interpolation at `(slew, load)`, clamped to the table
    /// boundary outside the characterized range.
    #[must_use]
    pub fn lookup(&self, slew: f64, load: f64) -> f64 {
        let (i0, i1, ti) = bracket(&self.slew_index, slew);
        let (j0, j1, tj) = bracket(&self.load_index, load);
        let v00 = self.values[i0][j0];
        let v01 = self.values[i0][j1];
        let v10 = self.values[i1][j0];
        let v11 = self.values[i1][j1];
        let a = v00 + (v01 - v00) * tj;
        let b = v10 + (v11 - v10) * tj;
        a + (b - a) * ti
    }
}

fn strictly_increasing(axis: &[f64]) -> bool {
    axis.windows(2).all(|w| w[1] > w[0])
}

/// Finds bracketing indices and the interpolation fraction for `x` on
/// `axis`; clamps outside the range.
fn bracket(axis: &[f64], x: f64) -> (usize, usize, f64) {
    if axis.len() == 1 || x <= axis[0] {
        return (0, 0, 0.0);
    }
    let last = axis.len() - 1;
    if x >= axis[last] {
        return (last, last, 0.0);
    }
    // axis is strictly increasing; find the segment containing x.
    let mut hi = 1;
    while axis[hi] < x {
        hi += 1;
    }
    let lo = hi - 1;
    let t = (x - axis[lo]) / (axis[hi] - axis[lo]);
    (lo, hi, t)
}

/// Builds a logarithmically spaced axis from `lo` to `hi` with `n` points.
///
/// # Panics
///
/// Panics if `n < 2` or `lo`/`hi` are not positive and increasing.
#[must_use]
pub(crate) fn log_axis(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && lo > 0.0 && hi > lo, "invalid log axis");
    let step = (hi / lo).ln() / (n - 1) as f64;
    (0..n).map(|i| lo * (step * i as f64).exp()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Lut2d {
        Lut2d::new(
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![vec![0.0, 1.0], vec![2.0, 3.0]],
        )
        .unwrap()
    }

    #[test]
    fn lookup_hits_corners_exactly() {
        let l = simple();
        assert_eq!(l.lookup(0.0, 0.0), 0.0);
        assert_eq!(l.lookup(0.0, 1.0), 1.0);
        assert_eq!(l.lookup(1.0, 0.0), 2.0);
        assert_eq!(l.lookup(1.0, 1.0), 3.0);
    }

    #[test]
    fn lookup_interpolates_center() {
        let l = simple();
        assert!((l.lookup(0.5, 0.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn lookup_clamps_outside_range() {
        let l = simple();
        assert_eq!(l.lookup(-5.0, -5.0), 0.0);
        assert_eq!(l.lookup(5.0, 5.0), 3.0);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Lut2d::new(vec![], vec![1.0], vec![]).is_err());
        assert!(Lut2d::new(vec![1.0, 1.0], vec![1.0], vec![vec![0.0], vec![0.0]]).is_err());
        assert!(Lut2d::new(vec![0.0, 1.0], vec![1.0], vec![vec![0.0]]).is_err());
        assert!(Lut2d::new(
            vec![0.0, 1.0],
            vec![1.0],
            vec![vec![0.0, 1.0], vec![0.0, 1.0]]
        )
        .is_err());
    }

    #[test]
    fn from_fn_matches_function_on_grid() {
        let f = |s: f64, l: f64| 2.0 * s + 3.0 * l;
        let lut = Lut2d::from_fn(vec![0.1, 0.2, 0.4], vec![1.0, 2.0], f);
        assert!((lut.lookup(0.2, 2.0) - f(0.2, 2.0)).abs() < 1e-12);
        // Bilinear interpolation of a bilinear function is exact.
        assert!((lut.lookup(0.15, 1.5) - f(0.15, 1.5)).abs() < 1e-12);
    }

    #[test]
    fn log_axis_spans_range() {
        let a = log_axis(0.001, 1.0, 7);
        assert_eq!(a.len(), 7);
        assert!((a[0] - 0.001).abs() < 1e-12);
        assert!((a[6] - 1.0).abs() < 1e-9);
        assert!(a.windows(2).all(|w| w[1] > w[0]));
    }
}
