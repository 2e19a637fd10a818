//! Domain codecs: how netlists, placements, parasitics, technology
//! stacks and the [`SessionArtifact`] checkpoint map onto the byte
//! format.
//!
//! Two rules govern every decoder here:
//!
//! 1. **Validate before allocating** — counts and lengths go through
//!    [`Reader::get_len`]'s remaining-bytes bound, so corrupted fields
//!    cannot drive allocations.
//! 2. **Validate before constructing** — every cross-reference a domain
//!    type's accessors assume (pin slots ↔ net lists, one position per
//!    cell, one parasitic model per net) is checked here, so a decoded
//!    value can never panic downstream constructors like
//!    [`Parasitics::from_models`].

use crate::codec::{Reader, Writer};
use crate::error::{DecodeError, StoreError};
use m3d_flow::{BaseDesign, PseudoCheckpoint};
use m3d_geom::{Point, Rect};
use m3d_netlist::{
    CellClass, CellId, MacroSpec, Net, NetId, Netlist, NetlistParts, PinRef, NO_NET,
};
use m3d_place::Placement;
use m3d_sta::{NetModel, Parasitics};
use m3d_tech::{CellKind, Drive, Library, Tier, TierStack, TrackHeight};
use std::sync::Arc;

// ---------------------------------------------------------------------
// technology enums
// ---------------------------------------------------------------------

fn cell_kind_tag(kind: CellKind) -> u8 {
    match kind {
        CellKind::Inv => 0,
        CellKind::Buf => 1,
        CellKind::Nand2 => 2,
        CellKind::Nand3 => 3,
        CellKind::Nor2 => 4,
        CellKind::Nor3 => 5,
        CellKind::And2 => 6,
        CellKind::Or2 => 7,
        CellKind::Xor2 => 8,
        CellKind::Xnor2 => 9,
        CellKind::Aoi21 => 10,
        CellKind::Oai21 => 11,
        CellKind::Mux2 => 12,
        CellKind::Dff => 13,
        CellKind::ClkBuf => 14,
        CellKind::ClkInv => 15,
        CellKind::LevelShifter => 16,
        CellKind::Macro => 17,
    }
}

fn cell_kind_from_tag(tag: u8) -> Result<CellKind, DecodeError> {
    Ok(match tag {
        0 => CellKind::Inv,
        1 => CellKind::Buf,
        2 => CellKind::Nand2,
        3 => CellKind::Nand3,
        4 => CellKind::Nor2,
        5 => CellKind::Nor3,
        6 => CellKind::And2,
        7 => CellKind::Or2,
        8 => CellKind::Xor2,
        9 => CellKind::Xnor2,
        10 => CellKind::Aoi21,
        11 => CellKind::Oai21,
        12 => CellKind::Mux2,
        13 => CellKind::Dff,
        14 => CellKind::ClkBuf,
        15 => CellKind::ClkInv,
        16 => CellKind::LevelShifter,
        17 => CellKind::Macro,
        found => {
            return Err(DecodeError::InvalidTag {
                what: "cell kind",
                found,
            })
        }
    })
}

fn drive_tag(drive: Drive) -> u8 {
    match drive {
        Drive::X1 => 0,
        Drive::X2 => 1,
        Drive::X4 => 2,
        Drive::X8 => 3,
        Drive::X16 => 4,
    }
}

fn drive_from_tag(tag: u8) -> Result<Drive, DecodeError> {
    Ok(match tag {
        0 => Drive::X1,
        1 => Drive::X2,
        2 => Drive::X4,
        3 => Drive::X8,
        4 => Drive::X16,
        found => {
            return Err(DecodeError::InvalidTag {
                what: "drive",
                found,
            })
        }
    })
}

/// The five preset technology stacks the store can name on disk.
///
/// Stacks are serialized *by name*, not by value: the presets are
/// deterministic functions of the library constructors, so a one-byte
/// tag reproduces the stack exactly and a record can never smuggle in a
/// subtly altered library. A custom stack is [`StoreError::Unencodable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackSpec {
    /// 2-D, 9-track.
    TwoD9,
    /// 2-D, 12-track.
    TwoD12,
    /// Homogeneous 3-D, 9-track both tiers.
    Homo3d9,
    /// Homogeneous 3-D, 12-track both tiers.
    Homo3d12,
    /// The paper's heterogeneous 12-bottom/9-top stack.
    Hetero,
}

impl StackSpec {
    /// Classifies `stack` as one of the presets.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Unencodable`] for a stack that is not one of
    /// the five presets (custom corner libraries, custom pairings).
    pub fn of(stack: &TierStack) -> Result<StackSpec, StoreError> {
        let is_preset = |lib: &Library| {
            let preset = match lib.track {
                TrackHeight::Nine => Library::nine_track(),
                TrackHeight::Twelve => Library::twelve_track(),
            };
            lib.name == preset.name && lib.vdd == preset.vdd
        };
        let bottom = stack.library(Tier::Bottom);
        let top = stack.library(Tier::Top);
        if !is_preset(bottom) || !is_preset(top) {
            return Err(StoreError::Unencodable(
                "technology stack uses a non-preset library".into(),
            ));
        }
        // The presets all carry the default metal stack; a modified BEOL
        // (e.g. an F2F hybrid-bond via swapped in by a technology
        // scenario) would rehydrate as the monolithic default, so it
        // must be rejected rather than silently renamed.
        if stack.metal != m3d_tech::MetalStack::six_layer_28nm() {
            return Err(StoreError::Unencodable(
                "technology stack uses a non-default metal stack".into(),
            ));
        }
        let spec = match (stack.is_3d(), bottom.track, top.track) {
            (false, TrackHeight::Nine, _) => StackSpec::TwoD9,
            (false, TrackHeight::Twelve, _) => StackSpec::TwoD12,
            (true, TrackHeight::Nine, TrackHeight::Nine) => StackSpec::Homo3d9,
            (true, TrackHeight::Twelve, TrackHeight::Twelve) => StackSpec::Homo3d12,
            (true, TrackHeight::Twelve, TrackHeight::Nine) => StackSpec::Hetero,
            (true, TrackHeight::Nine, TrackHeight::Twelve) => {
                return Err(StoreError::Unencodable(
                    "9-bottom/12-top stack is not a preset".into(),
                ))
            }
        };
        Ok(spec)
    }

    /// Rebuilds the preset stack.
    #[must_use]
    pub fn build(self) -> TierStack {
        match self {
            StackSpec::TwoD9 => TierStack::two_d(Library::nine_track()),
            StackSpec::TwoD12 => TierStack::two_d(Library::twelve_track()),
            StackSpec::Homo3d9 => TierStack::homogeneous_3d(Library::nine_track()),
            StackSpec::Homo3d12 => TierStack::homogeneous_3d(Library::twelve_track()),
            StackSpec::Hetero => TierStack::heterogeneous(),
        }
    }

    fn tag(self) -> u8 {
        match self {
            StackSpec::TwoD9 => 0,
            StackSpec::TwoD12 => 1,
            StackSpec::Homo3d9 => 2,
            StackSpec::Homo3d12 => 3,
            StackSpec::Hetero => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<StackSpec, DecodeError> {
        Ok(match tag {
            0 => StackSpec::TwoD9,
            1 => StackSpec::TwoD12,
            2 => StackSpec::Homo3d9,
            3 => StackSpec::Homo3d12,
            4 => StackSpec::Hetero,
            found => {
                return Err(DecodeError::InvalidTag {
                    what: "stack spec",
                    found,
                })
            }
        })
    }
}

// ---------------------------------------------------------------------
// netlist
// ---------------------------------------------------------------------

fn put_net_id(w: &mut Writer, id: NetId) {
    w.put_u32(id.index() as u32);
}

fn get_net_id(r: &mut Reader<'_>) -> Result<NetId, DecodeError> {
    Ok(NetId::from_index(r.get_u32()? as usize))
}

fn put_pin_ref(w: &mut Writer, pr: &PinRef) {
    w.put_u32(pr.cell.index() as u32);
    w.put_u8(pr.pin);
}

fn get_pin_ref(r: &mut Reader<'_>) -> Result<PinRef, DecodeError> {
    let cell = CellId::from_index(r.get_u32()? as usize);
    let pin = r.get_u8()?;
    Ok(PinRef::new(cell, pin))
}

fn put_slots(w: &mut Writer, slots: &[u32]) {
    w.put_seq(slots, |w, &raw| {
        let net = (raw != NO_NET).then(|| NetId::from_index(raw as usize));
        w.put_opt(net.as_ref(), |w, id| put_net_id(w, *id));
    });
}

/// Reads one pin-slot list into `out` (a buffer reused across cells).
fn get_slots(r: &mut Reader<'_>, out: &mut Vec<Option<NetId>>) -> Result<(), DecodeError> {
    out.clear();
    for _ in 0..r.get_len(1)? {
        out.push(r.get_opt(get_net_id)?);
    }
    Ok(())
}

fn put_cell(w: &mut Writer, netlist: &Netlist, id: CellId) {
    let cell = netlist.cell(id);
    w.put_str(netlist.cell_name(id));
    match &cell.class {
        CellClass::Gate { kind, drive } => {
            w.put_u8(0);
            w.put_u8(cell_kind_tag(*kind));
            w.put_u8(drive_tag(*drive));
        }
        CellClass::Macro(spec) => {
            w.put_u8(1);
            w.put_f64(spec.width_um);
            w.put_f64(spec.height_um);
            w.put_f64(spec.input_cap_ff);
            w.put_f64(spec.access_delay_ns);
            w.put_f64(spec.setup_ns);
            w.put_f64(spec.leakage_uw);
            w.put_f64(spec.internal_energy_fj);
        }
        CellClass::PrimaryInput => w.put_u8(2),
        CellClass::PrimaryOutput => w.put_u8(3),
    }
    w.put_u16(cell.block);
    put_slots(w, netlist.cell_inputs(id));
    put_slots(w, netlist.cell_outputs(id));
    w.put_bool(cell.fixed);
}

/// Scratch pin-slot buffers, reused across every cell of one decode.
type SlotBuffers = (Vec<Option<NetId>>, Vec<Option<NetId>>);

fn get_cell(
    r: &mut Reader<'_>,
    parts: &mut NetlistParts,
    (inputs, outputs): &mut SlotBuffers,
) -> Result<(), DecodeError> {
    let name = r.get_str_ref()?;
    let class = match r.get_u8()? {
        0 => CellClass::Gate {
            kind: cell_kind_from_tag(r.get_u8()?)?,
            drive: drive_from_tag(r.get_u8()?)?,
        },
        1 => CellClass::Macro(Box::new(MacroSpec {
            width_um: r.get_f64()?,
            height_um: r.get_f64()?,
            input_cap_ff: r.get_f64()?,
            access_delay_ns: r.get_f64()?,
            setup_ns: r.get_f64()?,
            leakage_uw: r.get_f64()?,
            internal_energy_fj: r.get_f64()?,
        })),
        2 => CellClass::PrimaryInput,
        3 => CellClass::PrimaryOutput,
        found => {
            return Err(DecodeError::InvalidTag {
                what: "cell class",
                found,
            })
        }
    };
    let block = r.get_u16()?;
    get_slots(r, inputs)?;
    get_slots(r, outputs)?;
    let fixed = r.get_bool()?;
    parts
        .push_cell(name, class, block, fixed, inputs, outputs)
        .map_err(|e| DecodeError::Invalid(e.to_string()))
}

fn put_net(w: &mut Writer, netlist: &Netlist, id: NetId) {
    let net = netlist.net(id);
    w.put_str(netlist.net_name(id));
    w.put_opt(net.driver.as_ref(), put_pin_ref);
    w.put_seq(&net.sinks, put_pin_ref);
    w.put_bool(net.is_clock);
}

fn get_net(r: &mut Reader<'_>, parts: &mut NetlistParts) -> Result<(), DecodeError> {
    let name = r.get_str_ref()?;
    let net = Net {
        driver: r.get_opt(get_pin_ref)?,
        sinks: r.get_seq(5, get_pin_ref)?,
        is_clock: r.get_bool()?,
    };
    parts.push_net(name, net);
    Ok(())
}

pub(crate) fn put_netlist(w: &mut Writer, netlist: &Netlist) {
    w.put_str(&netlist.name);
    let blocks: Vec<String> = (0..netlist.block_count() as u16)
        .map(|t| netlist.block_name(t).to_string())
        .collect();
    w.put_seq(&blocks, |w, b| w.put_str(b));
    w.put_u64(netlist.cell_count() as u64);
    for id in netlist.cell_ids() {
        put_cell(w, netlist, id);
    }
    w.put_u64(netlist.net_count() as u64);
    for id in netlist.net_ids() {
        put_net(w, netlist, id);
    }
    w.put_opt(netlist.clock().as_ref(), |w, id| put_net_id(w, *id));
}

pub(crate) fn get_netlist(r: &mut Reader<'_>) -> Result<Netlist, DecodeError> {
    let name = r.get_str()?;
    let blocks = r.get_seq(8, |r| r.get_str())?;
    let mut parts = NetlistParts::new(name, blocks);
    let n_cells = r.get_len(1)?;
    parts.reserve(n_cells, 0);
    let mut slots = SlotBuffers::default();
    for _ in 0..n_cells {
        get_cell(r, &mut parts, &mut slots)?;
    }
    let n_nets = r.get_len(1)?;
    parts.reserve(0, n_nets);
    for _ in 0..n_nets {
        get_net(r, &mut parts)?;
    }
    let clock = r.get_opt(get_net_id)?;
    // from_parts re-checks every cross-reference, so indices corrupted
    // in-range (same length, different target) still cannot build a
    // netlist whose accessors would panic.
    Netlist::from_parts(parts, clock).map_err(|e| DecodeError::Invalid(e.to_string()))
}

// ---------------------------------------------------------------------
// physical artifacts
// ---------------------------------------------------------------------

fn put_rect(w: &mut Writer, rect: &Rect) {
    w.put_f64(rect.llx());
    w.put_f64(rect.lly());
    w.put_f64(rect.urx());
    w.put_f64(rect.ury());
}

fn get_rect(r: &mut Reader<'_>) -> Result<Rect, DecodeError> {
    let (llx, lly) = (r.get_f64()?, r.get_f64()?);
    let (urx, ury) = (r.get_f64()?, r.get_f64()?);
    Ok(Rect::new(llx, lly, urx, ury))
}

fn put_placement(w: &mut Writer, placement: &Placement) {
    put_rect(w, &placement.die);
    w.put_seq(&placement.positions, |w, p| {
        w.put_f64(p.x);
        w.put_f64(p.y);
    });
}

/// Decodes a placement and pins its position count to `cell_count`: a
/// placement indexed by cell id must cover exactly the netlist's cells.
fn get_placement(r: &mut Reader<'_>, cell_count: usize) -> Result<Placement, DecodeError> {
    let die = get_rect(r)?;
    let positions = r.get_seq(16, |r| Ok(Point::new(r.get_f64()?, r.get_f64()?)))?;
    if positions.len() != cell_count {
        return Err(DecodeError::Invalid(format!(
            "placement covers {} cells, netlist has {cell_count}",
            positions.len()
        )));
    }
    Ok(Placement { positions, die })
}

fn put_parasitics(w: &mut Writer, parasitics: &Parasitics) {
    w.put_u64(parasitics.len() as u64);
    for k in 0..parasitics.len() {
        let m = parasitics.net(NetId::from_index(k));
        w.put_f64(m.wire_cap_ff);
        w.put_f64(m.wire_delay_ns);
    }
}

/// Decodes per-net parasitics and pins the model count to `net_count`,
/// so [`Parasitics::from_models`]'s one-model-per-net precondition holds
/// by construction.
fn get_parasitics(r: &mut Reader<'_>, netlist: &Netlist) -> Result<Parasitics, DecodeError> {
    let n = r.get_len(16)?;
    if n != netlist.net_count() {
        return Err(DecodeError::Invalid(format!(
            "parasitics cover {n} nets, netlist has {}",
            netlist.net_count()
        )));
    }
    let mut models = Vec::with_capacity(n);
    for _ in 0..n {
        models.push(NetModel {
            wire_cap_ff: r.get_f64()?,
            wire_delay_ns: r.get_f64()?,
        });
    }
    Ok(Parasitics::from_models(netlist, models))
}

// ---------------------------------------------------------------------
// session checkpoints
// ---------------------------------------------------------------------

/// The persistent form of a flow session's computed prefix: the buffered
/// base netlist plus, when it has been computed, the pseudo-3-D
/// checkpoint. Rehydrating one through the session builder's
/// `checkpoints(base, pseudo)` skips both `prepare_base` and the
/// pseudo-3-D stage on the warm path.
#[derive(Debug, Clone)]
pub struct SessionArtifact {
    /// The buffered base checkpoint.
    pub base: BaseDesign,
    /// The pseudo-3-D checkpoint, when it was computed before persisting.
    pub pseudo: Option<PseudoCheckpoint>,
}

impl SessionArtifact {
    /// Encodes the artifact.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Unencodable`] when the pseudo checkpoint's
    /// stack is not one of the five presets.
    pub fn encode(&self) -> Result<Vec<u8>, StoreError> {
        let pseudo_spec = self
            .pseudo
            .as_ref()
            .map(|p| StackSpec::of(&p.stack))
            .transpose()?;
        let mut w = Writer::new();
        put_netlist(&mut w, &self.base.netlist);
        match (&self.pseudo, pseudo_spec) {
            (Some(p), Some(spec)) => {
                w.put_u8(1);
                put_placement(&mut w, &p.placement);
                put_parasitics(&mut w, &p.parasitics);
                put_rect(&mut w, &p.die);
                w.put_u8(spec.tag());
            }
            _ => w.put_u8(0),
        }
        Ok(w.into_bytes())
    }

    /// Decodes an artifact.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for any malformed, truncated or
    /// inconsistent payload.
    pub fn decode(bytes: &[u8]) -> Result<SessionArtifact, DecodeError> {
        let mut r = Reader::new(bytes);
        let netlist = get_netlist(&mut r)?;
        let pseudo = match r.get_u8()? {
            0 => None,
            1 => {
                let placement = get_placement(&mut r, netlist.cell_count())?;
                let parasitics = get_parasitics(&mut r, &netlist)?;
                let die = get_rect(&mut r)?;
                let spec = StackSpec::from_tag(r.get_u8()?)?;
                Some(PseudoCheckpoint {
                    placement: Arc::new(placement),
                    parasitics: Arc::new(parasitics),
                    die,
                    stack: Arc::new(spec.build()),
                })
            }
            found => {
                return Err(DecodeError::InvalidTag {
                    what: "option",
                    found,
                })
            }
        };
        r.finish()?;
        Ok(SessionArtifact {
            base: BaseDesign {
                netlist: Arc::new(netlist),
            },
            pseudo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_specs_round_trip_and_reject_custom() {
        for spec in [
            StackSpec::TwoD9,
            StackSpec::TwoD12,
            StackSpec::Homo3d9,
            StackSpec::Homo3d12,
            StackSpec::Hetero,
        ] {
            let stack = spec.build();
            assert_eq!(StackSpec::of(&stack).unwrap(), spec);
            assert_eq!(StackSpec::from_tag(spec.tag()).unwrap(), spec);
        }
        let mut custom = Library::nine_track();
        custom.vdd = 0.75;
        assert!(matches!(
            StackSpec::of(&TierStack::two_d(custom)),
            Err(StoreError::Unencodable(_))
        ));
        let flipped = TierStack::three_d(Library::nine_track(), Library::twelve_track());
        assert!(matches!(
            StackSpec::of(&flipped),
            Err(StoreError::Unencodable(_))
        ));
        assert!(StackSpec::from_tag(9).is_err());
    }

    #[test]
    fn stack_specs_reject_non_default_metal_stacks() {
        // A derated library already fails the preset check by name, but a
        // scenario that only swaps the inter-tier via (F2F hybrid bond)
        // keeps both libraries pristine — the metal guard must catch it,
        // or a warm restart would silently rebuild a monolithic stack.
        let f2f = TierStack::heterogeneous().with_stacking(m3d_tech::StackingStyle::F2fHybridBond);
        assert!(matches!(
            StackSpec::of(&f2f),
            Err(StoreError::Unencodable(_))
        ));
        let monolithic =
            TierStack::heterogeneous().with_stacking(m3d_tech::StackingStyle::Monolithic);
        assert_eq!(StackSpec::of(&monolithic).unwrap(), StackSpec::Hetero);
    }
}
