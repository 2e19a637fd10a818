use crate::cell::{CellKind, Drive, MasterCell, TimingArc};
use crate::device::{Corner, CornerParams, DeviceModel};
use crate::lut::{log_axis, Lut2d};

/// Track height of a standard-cell library row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrackHeight {
    /// 9 M1 tracks — small, slow, low-power.
    Nine,
    /// 12 M1 tracks — large, fast, high-power.
    Twelve,
}

impl TrackHeight {
    /// Number of routing tracks.
    #[must_use]
    pub fn tracks(self) -> u32 {
        match self {
            TrackHeight::Nine => 9,
            TrackHeight::Twelve => 12,
        }
    }
}

impl std::fmt::Display for TrackHeight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}T", self.tracks())
    }
}

/// A generated standard-cell library for one technology corner.
///
/// Equivalent to a Liberty `.lib` plus a LEF: every [`CellKind`] ×
/// [`Drive`] combination is characterized with NLDM tables derived from
/// the corner's [`DeviceModel`].
///
/// # Examples
///
/// ```
/// use m3d_tech::{Library, CellKind, Drive};
///
/// let lib = Library::twelve_track();
/// let nand = lib.cell(CellKind::Nand2, Drive::X2).expect("characterized");
/// assert!(nand.delay(0.02, 5.0) > 0.0);
/// assert_eq!(lib.vdd, 0.90);
/// ```
#[derive(Debug, Clone)]
pub struct Library {
    /// Library name, e.g. `"28nm_12T"`.
    pub name: String,
    /// Track height of all rows in this library.
    pub track: TrackHeight,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Effective threshold voltage in volts.
    pub vth: f64,
    /// Row (cell) height in microns.
    pub cell_height_um: f64,
    /// Placement site width in microns.
    pub site_width_um: f64,
    /// Dense `[kind][drive]` table: `LIBRARY_KINDS` × `Drive::ALL` in
    /// declaration order, so [`Library::cell`] is one multiply-add.
    cells: Vec<MasterCell>,
}

impl Library {
    /// Characterized input-slew axis (ns) shared by every generated table.
    fn slew_axis() -> Vec<f64> {
        log_axis(0.002, 2.0, 7)
    }

    /// Characterized load axis (fF) shared by every generated table.
    fn load_axis() -> Vec<f64> {
        log_axis(0.2, 400.0, 7)
    }

    /// Generates a library from corner parameters.
    #[must_use]
    pub fn from_corner(track: TrackHeight, params: CornerParams) -> Self {
        let model = DeviceModel::new(params.clone());
        let mut cells = Vec::new();
        for kind in CellKind::LIBRARY_KINDS {
            for drive in Drive::ALL {
                assert_eq!(cells.len(), Library::slot(kind, drive));
                cells.push(characterize(&model, &params, track, kind, drive));
            }
        }
        Library {
            name: params.name.to_string(),
            track,
            vdd: params.vdd,
            vth: params.vth,
            cell_height_um: params.cell_height_um,
            site_width_um: params.site_width_um,
            cells,
        }
    }

    /// The fast, large 12-track library at 0.90 V.
    #[must_use]
    pub fn twelve_track() -> Self {
        Library::from_corner(TrackHeight::Twelve, CornerParams::twelve_track())
    }

    /// The slow, small 9-track library at 0.81 V.
    #[must_use]
    pub fn nine_track() -> Self {
        Library::from_corner(TrackHeight::Nine, CornerParams::nine_track())
    }

    /// The 12-track library characterized at `corner`
    /// ([`Corner::Typical`] reproduces [`Library::twelve_track`]
    /// bit for bit).
    #[must_use]
    pub fn twelve_track_at(corner: Corner) -> Self {
        Library::from_corner(TrackHeight::Twelve, CornerParams::twelve_track_at(corner))
    }

    /// The 9-track library characterized at `corner`
    /// ([`Corner::Typical`] reproduces [`Library::nine_track`]
    /// bit for bit).
    #[must_use]
    pub fn nine_track_at(corner: Corner) -> Self {
        Library::from_corner(TrackHeight::Nine, CornerParams::nine_track_at(corner))
    }

    /// Looks up a characterized cell, or `None` for `Macro`/unknown combos.
    #[must_use]
    pub fn cell(&self, kind: CellKind, drive: Drive) -> Option<&MasterCell> {
        self.cells.get(Library::slot(kind, drive))
    }

    /// Position of `(kind, drive)` in the dense table. `Macro` is declared
    /// after every library kind, so its slots fall past the table's end.
    fn slot(kind: CellKind, drive: Drive) -> usize {
        kind as usize * Drive::ALL.len() + drive as usize
    }

    /// Iterates over every characterized cell.
    pub fn iter(&self) -> impl Iterator<Item = &MasterCell> {
        self.cells.iter()
    }

    /// Characterized input-slew range `(min, max)` in ns.
    #[must_use]
    pub fn slew_range(&self) -> (f64, f64) {
        let axis = Library::slew_axis();
        (axis[0], *axis.last().expect("non-empty axis"))
    }

    /// Area (µm²) of the given kind/drive, without constructing the cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not characterized (e.g. `Macro`).
    #[must_use]
    pub fn cell_area(&self, kind: CellKind, drive: Drive) -> f64 {
        self.cell(kind, drive)
            .unwrap_or_else(|| panic!("cell {kind} {drive} not in library {}", self.name))
            .area_um2
    }
}

/// Characterizes one cell of the library: geometry from track height and
/// logical width, electricals from the alpha-power device model scaled by
/// logical effort.
fn characterize(
    model: &DeviceModel,
    params: &CornerParams,
    _track: TrackHeight,
    kind: CellKind,
    drive: Drive,
) -> MasterCell {
    let le = kind.logical_effort();
    let pe = kind.parasitic_effort();
    let w = drive.factor() * params.width_factor;

    // Geometry: width grows sub-linearly with drive (folding).
    let width_sites = kind.base_width_sites() * (1.0 + 0.55 * (drive.factor() - 1.0));
    let width_um = width_sites * params.site_width_um;
    let height_um = params.cell_height_um;

    // Pin capacitance: logical effort scales the input transistor width.
    let input_cap_ff = model.input_cap_ff(drive.factor()) * le;

    // Timing tables: the inverter model with effort-scaled drive/parasitics.
    let slew_axis = Library::slew_axis();
    let load_axis = Library::load_axis();
    let eff_width = w / le;
    let delay = Lut2d::from_fn(slew_axis.clone(), load_axis.clone(), |s, l| {
        model.stage_delay_ns(eff_width, s, l) + pe_extra(model, eff_width, pe)
    });
    let slew = Lut2d::from_fn(slew_axis, load_axis, |s, l| {
        model.output_slew_ns(eff_width, s, l)
    });

    // Leakage scales with total transistor width (~ effort * drive).
    let leakage_uw = model.leakage_uw(w * pe.max(1.0) * 0.6);
    let internal_energy_fj = model.internal_energy_fj(drive.factor() * pe);

    let (setup_ns, clk_to_q_ns) = if kind.is_sequential() {
        let base = model.stage_delay_ns(eff_width, 0.02, input_cap_ff * 2.0);
        (base * 1.2, base * 3.0)
    } else {
        (0.0, 0.0)
    };

    MasterCell {
        name: format!("{kind}_{drive}_{}", params.name),
        kind,
        drive,
        width_um,
        height_um,
        area_um2: width_um * height_um,
        input_cap_ff,
        leakage_uw,
        internal_energy_fj,
        arc: TimingArc { delay, slew },
        setup_ns,
        clk_to_q_ns,
    }
}

/// Extra fixed parasitic delay for complex gates (ns).
fn pe_extra(model: &DeviceModel, eff_width: f64, pe: f64) -> f64 {
    let unit = model.stage_delay_ns(eff_width, 0.0, 0.0);
    unit * (pe - 1.0) * 0.35
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_and_drives_are_characterized() {
        let lib = Library::twelve_track();
        for kind in CellKind::LIBRARY_KINDS {
            for drive in Drive::ALL {
                let cell = lib
                    .cell(kind, drive)
                    .unwrap_or_else(|| panic!("{kind} {drive}"));
                assert_eq!((cell.kind, cell.drive), (kind, drive));
                assert!(cell.area_um2 > 0.0);
                assert!(cell.input_cap_ff > 0.0);
                assert!(cell.leakage_uw > 0.0);
                assert!(cell.delay(0.02, 2.0) > 0.0);
                assert!(cell.output_slew(0.02, 2.0) > 0.0);
            }
        }
    }

    #[test]
    fn stronger_drive_is_faster_and_bigger() {
        let lib = Library::twelve_track();
        let x1 = lib.cell(CellKind::Nand2, Drive::X1).unwrap();
        let x4 = lib.cell(CellKind::Nand2, Drive::X4).unwrap();
        assert!(x4.delay(0.02, 20.0) < x1.delay(0.02, 20.0));
        assert!(x4.area_um2 > x1.area_um2);
        assert!(x4.input_cap_ff > x1.input_cap_ff);
        assert!(x4.leakage_uw > x1.leakage_uw);
    }

    #[test]
    fn complex_gates_are_slower_than_inverters() {
        let lib = Library::twelve_track();
        let inv = lib.cell(CellKind::Inv, Drive::X1).unwrap();
        let xor = lib.cell(CellKind::Xor2, Drive::X1).unwrap();
        assert!(xor.delay(0.02, 5.0) > inv.delay(0.02, 5.0));
    }

    #[test]
    fn sequential_cells_have_setup_and_clk_to_q() {
        let lib = Library::nine_track();
        let dff = lib.cell(CellKind::Dff, Drive::X1).unwrap();
        assert!(dff.setup_ns > 0.0);
        assert!(dff.clk_to_q_ns > 0.0);
        let inv = lib.cell(CellKind::Inv, Drive::X1).unwrap();
        assert_eq!(inv.setup_ns, 0.0);
    }

    #[test]
    fn nine_track_rows_are_three_quarters_height() {
        let f = Library::twelve_track();
        let s = Library::nine_track();
        assert!((s.cell_height_um / f.cell_height_um - 0.75).abs() < 1e-9);
        assert_eq!(s.site_width_um, f.site_width_um);
    }

    #[test]
    fn iter_covers_all_cells() {
        let lib = Library::twelve_track();
        let n = lib.iter().count();
        assert_eq!(n, CellKind::LIBRARY_KINDS.len() * Drive::ALL.len());
    }

    #[test]
    fn macro_kind_is_not_in_library() {
        let lib = Library::twelve_track();
        assert!(lib.cell(CellKind::Macro, Drive::X1).is_none());
    }
}
