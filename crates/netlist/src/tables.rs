//! What a [`crate::Netlist`] shares with its clones: the nets, the pin
//! array and the name arena, behind one `Arc` ([`Structure`]). An edit
//! through a shared handle copies the structure first (`Arc::make_mut`),
//! so a clone never moves; one handle (not three) keeps construction to
//! one uniqueness check per call.

use crate::net::{Net, NetId};

/// Sentinel for an unconnected pin slot in [`crate::Netlist::cell_pins`].
pub const NO_NET: u32 = u32::MAX;

/// A netlist's connectivity and names: everything but the cell table.
#[derive(Debug, Clone)]
pub(crate) struct Structure {
    pub(crate) nets: Vec<Net>,
    pub(crate) pins: Pins,
    pub(crate) names: Names,
}

impl Structure {
    pub(crate) fn new() -> Structure {
        Structure {
            nets: Vec::new(),
            pins: Pins::new(),
            names: Names::new(),
        }
    }

    pub(crate) fn shrink_to_fit(&mut self) {
        self.nets.shrink_to_fit();
        self.pins.shrink_to_fit();
        self.names.shrink_to_fit();
    }
}

/// Names of one kind packed into one string: name `i` is
/// `bytes[off[i]..off[i + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct NameTable {
    bytes: String,
    off: Vec<u32>,
}

impl NameTable {
    fn new() -> NameTable {
        NameTable {
            bytes: String::new(),
            off: vec![0],
        }
    }

    pub(crate) fn push(&mut self, name: &str) {
        self.bytes.push_str(name);
        self.off
            .push(u32::try_from(self.bytes.len()).expect("name arena exceeds 4 GiB"));
    }

    pub(crate) fn get(&self, i: usize) -> &str {
        &self.bytes[self.off[i] as usize..self.off[i + 1] as usize]
    }

    fn reserve(&mut self, names: usize) {
        self.off.reserve_exact(names);
    }

    fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.off.shrink_to_fit();
    }
}

/// The per-netlist name arena: every cell name and every net name, in id
/// order, as two [`NameTable`]s — cells and nets are created interleaved,
/// so each kind keeps its own contiguous offsets.
#[derive(Debug, Clone)]
pub(crate) struct Names {
    pub(crate) cells: NameTable,
    pub(crate) nets: NameTable,
}

impl Names {
    pub(crate) fn new() -> Names {
        Names {
            cells: NameTable::new(),
            nets: NameTable::new(),
        }
    }

    /// Bytes of name text held (offsets excluded).
    pub(crate) fn text_bytes(&self) -> usize {
        self.cells.bytes.len() + self.nets.bytes.len()
    }

    pub(crate) fn reserve(&mut self, cells: usize, nets: usize) {
        self.cells.reserve(cells);
        self.nets.reserve(nets);
    }

    pub(crate) fn shrink_to_fit(&mut self) {
        self.cells.shrink_to_fit();
        self.nets.shrink_to_fit();
    }
}

/// A raw pin slot as an optional net.
pub(crate) fn net_of(raw: u32) -> Option<NetId> {
    (raw != NO_NET).then(|| NetId::from_index(raw as usize))
}

/// Every pin slot of every cell in one array: cell `i`'s slots are
/// `slot[off[i]..off[i + 1]]`, its input pins in pin order followed by
/// its output pins, each a raw net index or [`NO_NET`].
#[derive(Debug, Clone)]
pub(crate) struct Pins {
    pub(crate) off: Vec<u32>,
    pub(crate) slot: Vec<u32>,
}

impl Pins {
    pub(crate) fn new() -> Pins {
        Pins {
            off: vec![0],
            slot: Vec::new(),
        }
    }

    /// Appends one cell's `count` unconnected slots.
    pub(crate) fn push_cell(&mut self, count: usize) {
        self.slot.resize(self.slot.len() + count, NO_NET);
        self.off
            .push(u32::try_from(self.slot.len()).expect("pin array exceeds 4 Gi slots"));
    }

    /// The slots of cell `i`.
    pub(crate) fn of(&self, i: usize) -> &[u32] {
        &self.slot[self.off[i] as usize..self.off[i + 1] as usize]
    }

    pub(crate) fn reserve(&mut self, cells: usize) {
        self.off.reserve_exact(cells);
    }

    pub(crate) fn shrink_to_fit(&mut self) {
        self.off.shrink_to_fit();
        self.slot.shrink_to_fit();
    }
}
