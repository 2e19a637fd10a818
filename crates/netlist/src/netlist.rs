use crate::cell::{Cell, CellClass, CellId, MacroSpec};
use crate::levels::LevelsMemo;
use crate::net::{Net, NetId, PinRef};
use crate::stats::NetlistStats;
use crate::tables::{net_of, Pins, Structure, NO_NET};
use m3d_tech::{CellKind, Drive};
use std::fmt;
use std::sync::Arc;

/// Error returned by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateNetlistError {
    /// A net has no driver pin.
    UndrivenNet(String),
    /// A gate input pin is unconnected.
    UnconnectedPin(String, u8),
    /// The combinational logic contains a cycle through the named cell.
    CombinationalCycle(String),
    /// A sequential cell is not connected to the clock net.
    UnclockedRegister(String),
}

impl fmt::Display for ValidateNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateNetlistError::UndrivenNet(n) => write!(f, "net `{n}` has no driver"),
            ValidateNetlistError::UnconnectedPin(c, p) => {
                write!(f, "cell `{c}` input pin {p} is unconnected")
            }
            ValidateNetlistError::CombinationalCycle(c) => {
                write!(f, "combinational cycle through cell `{c}`")
            }
            ValidateNetlistError::UnclockedRegister(c) => {
                write!(f, "sequential cell `{c}` has no clock connection")
            }
        }
    }
}

impl std::error::Error for ValidateNetlistError {}

/// Error returned by [`Netlist::from_parts`] and [`NetlistParts::push_cell`]:
/// the supplied pieces do not form a structurally consistent netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistPartsError {
    /// The block table is empty (a netlist always has at least `"top"`).
    NoBlocks,
    /// A cell references a block tag outside the block table.
    BlockOutOfRange {
        /// Offending cell index.
        cell: usize,
        /// The out-of-range tag.
        block: u16,
    },
    /// A cell has more input or output pins than a pin index can address.
    TooManyPins {
        /// Offending cell index.
        cell: usize,
    },
    /// A cell pin references a net index outside the net table.
    NetOutOfRange {
        /// Offending cell index.
        cell: usize,
    },
    /// A net's driver or sink references a cell index outside the cell
    /// table, or a pin index outside that cell's pin list.
    PinOutOfRange {
        /// Offending net index.
        net: usize,
    },
    /// A net's driver and the driving cell's output slot disagree.
    DriverMismatch {
        /// Offending net index.
        net: usize,
    },
    /// A net's sink list and the sink cells' input slots disagree.
    SinkMismatch {
        /// Offending net index.
        net: usize,
    },
    /// The clock net index is out of range or its `is_clock` flag does not
    /// match the netlist's clock designation.
    ClockMismatch,
}

impl fmt::Display for NetlistPartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistPartsError::NoBlocks => write!(f, "block table is empty"),
            NetlistPartsError::BlockOutOfRange { cell, block } => {
                write!(f, "cell {cell} references unknown block {block}")
            }
            NetlistPartsError::TooManyPins { cell } => {
                write!(f, "cell {cell} has more pins than a pin index addresses")
            }
            NetlistPartsError::NetOutOfRange { cell } => {
                write!(f, "cell {cell} references an out-of-range net")
            }
            NetlistPartsError::PinOutOfRange { net } => {
                write!(f, "net {net} references an out-of-range cell or pin")
            }
            NetlistPartsError::DriverMismatch { net } => {
                write!(f, "net {net} driver does not mirror the cell's output slot")
            }
            NetlistPartsError::SinkMismatch { net } => {
                write!(
                    f,
                    "net {net} sink list does not mirror the cells' input slots"
                )
            }
            NetlistPartsError::ClockMismatch => {
                write!(f, "clock designation is out of range or inconsistent")
            }
        }
    }
}

impl std::error::Error for NetlistPartsError {}

/// A gate-level netlist: cells, nets, hierarchy blocks and a clock.
///
/// Storage is flat. Cells (what each instance *is*, 24 bytes) are the
/// only per-netlist copy; nets, the pin array and the name arena sit
/// behind one `Arc`, so a clone shares them and costs one `memcpy` of the
/// cell table. Sizing ([`Netlist::set_drive`]) touches cells only; a
/// structural edit copies the table it writes when a clone still shares
/// it, and starts a fresh [`Netlist::levels`] memo.
///
/// The netlist is the one holder of connectivity: every kernel reads its
/// pin array and its nets directly, and what they derive from it — the
/// levelization and the net↔cell [`crate::Incidence`] — is built from it.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    cells: Vec<Cell>,
    pub(crate) structure: Arc<Structure>,
    blocks: Vec<String>,
    clock: Option<NetId>,
    pub(crate) levels: LevelsMemo,
}

/// The structure behind `structure`, unshared, for an edit that changes
/// connectivity or the cell set: the levelization memo starts over. Only
/// a memo a clone shares is replaced, so bulk construction allocates no
/// memo per edit.
fn restructure<'s>(
    structure: &'s mut Arc<Structure>,
    levels: &mut LevelsMemo,
) -> &'s mut Structure {
    match Arc::get_mut(levels) {
        Some(own) => drop(own.take()),
        None => *levels = LevelsMemo::default(),
    }
    Arc::make_mut(structure)
}

fn pin_count(count: usize) -> Option<u8> {
    u8::try_from(count).ok()
}

/// Where input (`input`) or output pin `pin` of cell `cell` sits in the
/// pin array, if the cell has that pin.
fn slot_at(cells: &[Cell], pins: &Pins, cell: usize, input: bool, pin: u8) -> Option<usize> {
    let c = &cells[cell];
    let (base, count) = if input {
        (0, c.n_in)
    } else {
        (c.n_in, c.n_out)
    };
    (pin < count).then(|| pins.off[cell] as usize + usize::from(base) + usize::from(pin))
}

/// The pin slot behind input (`input`) or output pin `pin` of `cell`.
fn slot_mut<'p>(
    cells: &[Cell],
    pins: &'p mut Pins,
    cell: CellId,
    input: bool,
    pin: u8,
) -> &'p mut u32 {
    let Some(at) = slot_at(cells, pins, cell.index(), input, pin) else {
        let kind = if input { "input" } else { "output" };
        panic!("{kind} pin {pin} out of range on {cell}");
    };
    &mut pins.slot[at]
}

/// [`Netlist::connect`] on an already-unshared structure.
fn connect(cells: &[Cell], s: &mut Structure, (net, sink, pin): (NetId, CellId, u8)) {
    assert!(net.index() < s.nets.len(), "net {net} out of range");
    let slot = slot_mut(cells, &mut s.pins, sink, true, pin);
    assert!(*slot == NO_NET, "input pin already connected");
    *slot = net.0;
    s.nets[net.index()].sinks.push(PinRef::new(sink, pin));
}

impl Netlist {
    /// Creates an empty netlist with a default hierarchy block `"top"`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            cells: Vec::new(),
            structure: Arc::new(Structure::new()),
            blocks: vec!["top".to_string()],
            clock: None,
            levels: LevelsMemo::default(),
        }
    }

    // ---- construction -------------------------------------------------

    /// Registers a hierarchy block and returns its tag.
    pub fn add_block(&mut self, name: impl Into<String>) -> u16 {
        self.blocks.push(name.into());
        (self.blocks.len() - 1) as u16
    }

    /// Name of block `tag`.
    ///
    /// # Panics
    ///
    /// Panics if the tag is unknown.
    #[must_use]
    pub fn block_name(&self, tag: u16) -> &str {
        &self.blocks[tag as usize]
    }

    /// Number of hierarchy blocks (including the default `"top"`).
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Adds a standard-cell gate. Sequential gates get one extra input pin
    /// for the clock (always the last pin).
    pub fn add_gate(
        &mut self,
        name: impl AsRef<str>,
        kind: CellKind,
        drive: Drive,
        block: u16,
    ) -> CellId {
        let n_in = kind.input_count() + usize::from(kind.is_sequential());
        self.push_cell(
            name.as_ref(),
            CellClass::Gate { kind, drive },
            block,
            (n_in, 1),
            false,
        )
    }

    /// Adds a hard macro with `n_inputs` data inputs, `n_outputs` outputs,
    /// plus a trailing clock pin. Macros are fixed (not moved by placement).
    ///
    /// # Panics
    ///
    /// Panics if either pin count exceeds what a `u8` pin index addresses.
    pub fn add_macro(
        &mut self,
        name: impl AsRef<str>,
        spec: MacroSpec,
        n_inputs: usize,
        n_outputs: usize,
        block: u16,
    ) -> CellId {
        self.push_cell(
            name.as_ref(),
            CellClass::Macro(Box::new(spec)),
            block,
            (n_inputs + 1, n_outputs),
            true,
        )
    }

    /// Adds a primary input port (one output pin, no inputs).
    pub fn add_input(&mut self, name: impl AsRef<str>) -> CellId {
        self.push_cell(name.as_ref(), CellClass::PrimaryInput, 0, (0, 1), false)
    }

    /// Adds a primary output port (one input pin, no outputs).
    pub fn add_output(&mut self, name: impl AsRef<str>) -> CellId {
        self.push_cell(name.as_ref(), CellClass::PrimaryOutput, 0, (1, 0), false)
    }

    fn push_cell(
        &mut self,
        name: &str,
        class: CellClass,
        block: u16,
        (n_in, n_out): (usize, usize),
        fixed: bool,
    ) -> CellId {
        let (Some(n_in), Some(n_out)) = (pin_count(n_in), pin_count(n_out)) else {
            panic!("cell `{name}` has more pins than a pin index addresses");
        };
        let id = CellId(self.cells.len() as u32);
        let s = restructure(&mut self.structure, &mut self.levels);
        s.pins.push_cell(usize::from(n_in) + usize::from(n_out));
        s.names.cells.push(name);
        self.cells.push(Cell {
            class,
            block,
            fixed,
            n_in,
            n_out,
        });
        id
    }

    /// Reassembles a netlist from raw tables — the deserialization entry
    /// point (persistent stores, wire decoders). Every cross-reference is
    /// checked before the netlist is built, so untrusted tables cannot
    /// construct a netlist whose accessors would panic: block tags and
    /// net/cell/pin indices must be in range, net driver/sink lists must
    /// exactly mirror the cells' pin slots, and the clock designation must
    /// be consistent with the nets' `is_clock` flags.
    ///
    /// This checks *referential* integrity only; semantic invariants
    /// (drivers present, pins connected, acyclic logic) remain the job of
    /// [`Netlist::validate`], exactly as for an incrementally built
    /// netlist.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistPartsError`] violation found.
    pub fn from_parts(
        parts: NetlistParts,
        clock: Option<NetId>,
    ) -> Result<Self, NetlistPartsError> {
        let NetlistParts {
            name,
            blocks,
            cells,
            mut structure,
        } = parts;
        let Structure { nets, pins, .. } = &structure;
        if blocks.is_empty() {
            return Err(NetlistPartsError::NoBlocks);
        }
        let n_cells = cells.len();
        let n_nets = nets.len();
        for (i, cell) in cells.iter().enumerate() {
            if cell.block as usize >= blocks.len() {
                return Err(NetlistPartsError::BlockOutOfRange {
                    cell: i,
                    block: cell.block,
                });
            }
            if !pins
                .of(i)
                .iter()
                .all(|&r| r == NO_NET || (r as usize) < n_nets)
            {
                return Err(NetlistPartsError::NetOutOfRange { cell: i });
            }
        }
        let slot = |pin: PinRef, input: bool| {
            (pin.cell.index() < n_cells)
                .then(|| slot_at(&cells, pins, pin.cell.index(), input, pin.pin))
                .flatten()
                .map(|at| pins.slot[at])
        };
        for (i, net) in nets.iter().enumerate() {
            if let Some(drv) = net.driver {
                match slot(drv, false) {
                    None => return Err(NetlistPartsError::PinOutOfRange { net: i }),
                    Some(raw) if raw != i as u32 => {
                        return Err(NetlistPartsError::DriverMismatch { net: i })
                    }
                    Some(_) => {}
                }
            }
            for sink in &net.sinks {
                match slot(*sink, true) {
                    None => return Err(NetlistPartsError::PinOutOfRange { net: i }),
                    Some(raw) if raw != i as u32 => {
                        return Err(NetlistPartsError::SinkMismatch { net: i })
                    }
                    Some(_) => {}
                }
            }
        }
        // Mirror direction two: every populated pin slot must appear in
        // its net's driver/sink records (counting handles duplicates).
        let mut input_refs = vec![0usize; n_nets];
        let mut output_refs = vec![0usize; n_nets];
        for (i, cell) in cells.iter().enumerate() {
            let (ins, outs) = pins.of(i).split_at(usize::from(cell.n_in));
            for &raw in ins.iter().filter(|&&r| r != NO_NET) {
                input_refs[raw as usize] += 1;
            }
            for &raw in outs.iter().filter(|&&r| r != NO_NET) {
                output_refs[raw as usize] += 1;
            }
        }
        for (i, net) in nets.iter().enumerate() {
            if output_refs[i] != usize::from(net.driver.is_some()) {
                return Err(NetlistPartsError::DriverMismatch { net: i });
            }
            if input_refs[i] != net.sinks.len() {
                return Err(NetlistPartsError::SinkMismatch { net: i });
            }
        }
        match clock {
            Some(c) if c.index() >= n_nets || !nets[c.index()].is_clock => {
                return Err(NetlistPartsError::ClockMismatch);
            }
            _ => {}
        }
        if nets
            .iter()
            .enumerate()
            .any(|(i, n)| n.is_clock && clock != Some(NetId(i as u32)))
        {
            return Err(NetlistPartsError::ClockMismatch);
        }
        structure.shrink_to_fit();
        Ok(Netlist {
            name,
            cells,
            structure: Arc::new(structure),
            blocks,
            clock,
            levels: LevelsMemo::default(),
        })
    }

    /// Creates a net driven by output pin `pin` of `driver`.
    ///
    /// # Panics
    ///
    /// Panics if the pin index is out of range or already drives a net.
    pub fn add_net(&mut self, name: impl AsRef<str>, driver: CellId, pin: u8) -> NetId {
        let s = restructure(&mut self.structure, &mut self.levels);
        let id = NetId(s.nets.len() as u32);
        let slot = slot_mut(&self.cells, &mut s.pins, driver, false, pin);
        assert!(*slot == NO_NET, "output pin already drives a net");
        *slot = id.0;
        s.names.nets.push(name.as_ref());
        s.nets.push(Net {
            driver: Some(PinRef::new(driver, pin)),
            ..Net::default()
        });
        id
    }

    /// Connects input pin `pin` of `sink` to `net`.
    ///
    /// # Panics
    ///
    /// Panics if the net or pin index is out of range or the pin is
    /// already connected.
    pub fn connect(&mut self, net: NetId, sink: CellId, pin: u8) {
        connect(
            &self.cells,
            restructure(&mut self.structure, &mut self.levels),
            (net, sink, pin),
        );
    }

    /// Connects every `(net, sink, pin)` edge in order — the netlist
    /// [`Netlist::connect`] would build edge by edge — but grows each
    /// net's sink list once, to its exact final length, so a bulk builder
    /// leaves no capacity slack behind. An empty batch is no edit: a
    /// structure shared with a clone stays shared.
    ///
    /// # Panics
    ///
    /// As [`Netlist::connect`], on the first offending edge.
    pub fn connect_all(&mut self, edges: &[(NetId, CellId, u8)]) {
        if edges.is_empty() {
            return;
        }
        let s = restructure(&mut self.structure, &mut self.levels);
        let mut added = vec![0u32; s.nets.len()];
        for (net, ..) in edges {
            added[net.index()] += 1;
        }
        for (net, &n) in s.nets.iter_mut().zip(&added) {
            if n > 0 {
                net.sinks.reserve_exact(n as usize);
            }
        }
        for &edge in edges {
            connect(&self.cells, s, edge);
        }
    }

    /// Disconnects every sink of `net` past its first `keep` and returns
    /// them in sink order. Their input pins are left unconnected for the
    /// caller to reconnect (net splitting: fanout buffering).
    pub fn detach_sinks(&mut self, net: NetId, keep: usize) -> Vec<PinRef> {
        let s = restructure(&mut self.structure, &mut self.levels);
        let sinks = &mut s.nets[net.index()].sinks;
        let spill = sinks.split_off(keep.min(sinks.len()));
        sinks.shrink_to_fit();
        for pin in &spill {
            *slot_mut(&self.cells, &mut s.pins, pin.cell, true, pin.pin) = NO_NET;
        }
        spill
    }

    /// Drops the capacity slack bulk construction leaves in the flat
    /// tables (cells, nets, pins, names): a handful of reallocations,
    /// none per cell or net. A structure still shared with a clone came
    /// from that clone and is already exact.
    pub fn shrink_to_fit(&mut self) {
        self.cells.shrink_to_fit();
        self.blocks.shrink_to_fit();
        if let Some(s) = Arc::get_mut(&mut self.structure) {
            s.shrink_to_fit();
        }
    }

    /// Marks `net` as the clock net.
    pub fn set_clock(&mut self, net: NetId) {
        let nets = &mut restructure(&mut self.structure, &mut self.levels).nets;
        if let Some(old) = self.clock {
            nets[old.index()].is_clock = false;
        }
        nets[net.index()].is_clock = true;
        self.clock = Some(net);
    }

    /// The clock net, if defined.
    #[must_use]
    pub fn clock(&self) -> Option<NetId> {
        self.clock
    }

    /// Changes the drive strength of a gate (cell sizing).
    ///
    /// # Panics
    ///
    /// Panics if the cell is not a gate.
    pub fn set_drive(&mut self, cell: CellId, drive: Drive) {
        match &mut self.cells[cell.index()].class {
            CellClass::Gate { drive: d, .. } => *d = drive,
            _ => panic!("set_drive on a non-gate cell"),
        }
    }

    // ---- access --------------------------------------------------------

    /// The cell behind `id`.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Name of `cell`.
    #[must_use]
    pub fn cell_name(&self, cell: CellId) -> &str {
        self.structure.names.cells.get(cell.index())
    }

    /// All pin slots of `cell`: input slots in pin order, then output
    /// slots in pin order. Entries are raw net indices, [`NO_NET`] for an
    /// unconnected pin.
    #[must_use]
    pub fn cell_pins(&self, cell: CellId) -> &[u32] {
        self.structure.pins.of(cell.index())
    }

    /// The input pin slots of `cell` (raw, [`NO_NET`] = unconnected).
    #[must_use]
    pub fn cell_inputs(&self, cell: CellId) -> &[u32] {
        &self.cell_pins(cell)[..self.cell(cell).input_count()]
    }

    /// The output pin slots of `cell` (raw, [`NO_NET`] = unconnected).
    #[must_use]
    pub fn cell_outputs(&self, cell: CellId) -> &[u32] {
        &self.cell_pins(cell)[self.cell(cell).input_count()..]
    }

    /// The net on input pin `pin` of `cell`, if connected.
    #[must_use]
    pub fn input_net(&self, cell: CellId, pin: usize) -> Option<NetId> {
        net_of(*self.cell_inputs(cell).get(pin)?)
    }

    /// The net driven by output pin `pin` of `cell`, if any.
    #[must_use]
    pub fn output_net(&self, cell: CellId, pin: usize) -> Option<NetId> {
        net_of(*self.cell_outputs(cell).get(pin)?)
    }

    /// Iterates over the nets on `cell`'s connected input pins.
    pub fn input_nets(&self, cell: CellId) -> impl Iterator<Item = NetId> + '_ {
        self.cell_inputs(cell).iter().filter_map(|&r| net_of(r))
    }

    /// Iterates over the nets `cell` drives.
    pub fn output_nets(&self, cell: CellId) -> impl Iterator<Item = NetId> + '_ {
        self.cell_outputs(cell).iter().filter_map(|&r| net_of(r))
    }

    /// The net behind `id`.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.structure.nets[id.index()]
    }

    /// Name of `net`.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        self.structure.names.nets.get(net.index())
    }

    /// Total bytes of name text in the arena (cell and net names; offsets
    /// excluded).
    #[must_use]
    pub fn name_arena_bytes(&self) -> usize {
        self.structure.names.text_bytes()
    }

    /// Number of cells (gates + macros + ports).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.structure.nets.len()
    }

    /// Number of standard-cell gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.cells.iter().filter(|c| c.class.is_gate()).count()
    }

    /// Number of hard macros.
    #[must_use]
    pub fn macro_count(&self) -> usize {
        self.cells.iter().filter(|c| c.class.is_macro()).count()
    }

    /// Iterates over all cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        (0..self.cells.len() as u32).map(CellId)
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.net_count() as u32).map(NetId)
    }

    /// Iterates over `(CellId, &Cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Iterates over `(NetId, &Net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.structure
            .nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Ids of all sequential cells (DFFs and macros).
    #[must_use]
    pub fn sequential_cells(&self) -> Vec<CellId> {
        self.cells()
            .filter(|(_, c)| c.is_sequential() || c.class.is_macro())
            .map(|(id, _)| id)
            .collect()
    }

    /// Computes summary statistics.
    #[must_use]
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::compute(self)
    }

    // ---- validation & ordering ------------------------------------------

    /// Checks structural invariants: every net driven, every input pin
    /// connected, registers clocked (when a clock net exists), and no
    /// combinational cycles.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidateNetlistError> {
        for (id, net) in self.nets() {
            if net.driver.is_none() {
                return Err(ValidateNetlistError::UndrivenNet(
                    self.net_name(id).to_string(),
                ));
            }
        }
        for id in self.cell_ids() {
            if let Some(pin) = self.cell_inputs(id).iter().position(|&r| r == NO_NET) {
                return Err(ValidateNetlistError::UnconnectedPin(
                    self.cell_name(id).to_string(),
                    pin as u8,
                ));
            }
        }
        if self.clock.is_some() {
            for (id, cell) in self.cells() {
                if cell.is_sequential() {
                    let net = self.input_net(id, cell.input_count() - 1);
                    let clocked = net.is_some_and(|n| self.net(n).is_clock) || {
                        // Clock may arrive through a clock-buffer tree.
                        net.is_some_and(|n| self.net_in_clock_tree(n))
                    };
                    if !clocked {
                        return Err(ValidateNetlistError::UnclockedRegister(
                            self.cell_name(id).to_string(),
                        ));
                    }
                }
            }
        }
        self.combinational_order().map(|_| ())
    }

    /// Walks driver chains of clock buffers/inverters back to the clock net.
    fn net_in_clock_tree(&self, mut net: NetId) -> bool {
        for _ in 0..64 {
            if self.net(net).is_clock {
                return true;
            }
            let Some(drv) = self.net(net).driver else {
                return false;
            };
            match self.cell(drv.cell).class.gate_kind() {
                Some(k) if k.is_clock_cell() => match self.input_net(drv.cell, 0) {
                    Some(up) => net = up,
                    None => return false,
                },
                _ => return false,
            }
        }
        false
    }

    /// Topological order of the *combinational* gates (Kahn's algorithm
    /// over the pin array and the nets' sink lists): the ready queue is
    /// seeded in ascending cell index and successors are released in
    /// output-pin, then sink-list order. Sequential cells, macros and ports
    /// act as sources/sinks and are not included in the returned order.
    /// This is the one order every levelization reads.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateNetlistError::CombinationalCycle`] if the
    /// combinational logic is cyclic (the culprit is reported by name).
    pub fn combinational_order(&self) -> Result<Vec<CellId>, ValidateNetlistError> {
        let n = self.cell_count();
        let nets = &self.structure.nets;
        let is_comb: Vec<bool> = self
            .cells
            .iter()
            .map(|c| !c.class.is_timing_boundary())
            .collect();
        let comb_total = is_comb.iter().filter(|&&c| c).count();
        // A gate's indegree counts its input pins driven by a gate — one
        // per sink entry of a net with a combinational driver.
        let mut indegree = vec![0u32; n];
        for net in nets {
            if net.driver.is_some_and(|d| is_comb[d.cell.index()]) {
                for sink in &net.sinks {
                    indegree[sink.cell.index()] += 1;
                }
            }
        }
        // The order is its own FIFO ready queue: a gate is appended when
        // its last driver is popped, and popped at `head`.
        let mut order = Vec::with_capacity(comb_total);
        order.extend(
            (0..n)
                .filter(|&i| is_comb[i] && indegree[i] == 0)
                .map(|i| CellId(i as u32)),
        );
        let mut head = 0;
        while let Some(&id) = order.get(head) {
            head += 1;
            for net in self.output_nets(id) {
                for sink in &nets[net.index()].sinks {
                    let j = sink.cell.index();
                    if is_comb[j] {
                        indegree[j] -= 1;
                        if indegree[j] == 0 {
                            order.push(sink.cell);
                        }
                    }
                }
            }
        }
        if order.len() != comb_total {
            let culprit = (0..n)
                .find(|&i| is_comb[i] && indegree[i] > 0)
                .map(|i| self.cell_name(CellId(i as u32)).to_string())
                .unwrap_or_default();
            return Err(ValidateNetlistError::CombinationalCycle(culprit));
        }
        Ok(order)
    }
}

/// The raw tables of a netlist in storage order, filled cell by cell and
/// net by net and checked by [`Netlist::from_parts`] — the staging form a
/// decoder writes into. Names go straight into the arena and pin slots
/// into the flat pin array; nothing is allocated per cell.
#[derive(Debug, Clone)]
pub struct NetlistParts {
    name: String,
    blocks: Vec<String>,
    cells: Vec<Cell>,
    structure: Structure,
}

impl NetlistParts {
    /// Empty tables for a design with the given block table.
    #[must_use]
    pub fn new(name: impl Into<String>, blocks: Vec<String>) -> Self {
        NetlistParts {
            name: name.into(),
            blocks,
            cells: Vec::new(),
            structure: Structure::new(),
        }
    }

    /// Reserves room for exactly `cells` more cells and `nets` more nets.
    pub fn reserve(&mut self, cells: usize, nets: usize) {
        self.cells.reserve_exact(cells);
        self.structure.nets.reserve_exact(nets);
        self.structure.pins.reserve(cells);
        self.structure.names.reserve(cells, nets);
    }

    /// Appends the next cell: its name, what it is, and its input and
    /// output pin slots in pin order.
    ///
    /// # Errors
    ///
    /// [`NetlistPartsError::TooManyPins`] when either slot list is longer
    /// than a `u8` pin index addresses.
    pub fn push_cell(
        &mut self,
        name: &str,
        class: CellClass,
        block: u16,
        fixed: bool,
        inputs: &[Option<NetId>],
        outputs: &[Option<NetId>],
    ) -> Result<(), NetlistPartsError> {
        let (Some(n_in), Some(n_out)) = (pin_count(inputs.len()), pin_count(outputs.len())) else {
            return Err(NetlistPartsError::TooManyPins {
                cell: self.cells.len(),
            });
        };
        let raw = |slot: &Option<NetId>| slot.map_or(NO_NET, |n| n.0);
        let s = &mut self.structure;
        s.pins.slot.extend(inputs.iter().chain(outputs).map(raw));
        s.pins
            .off
            .push(u32::try_from(s.pins.slot.len()).expect("pin array exceeds 4 Gi slots"));
        s.names.cells.push(name);
        self.cells.push(Cell {
            class,
            block,
            fixed,
            n_in,
            n_out,
        });
        Ok(())
    }

    /// Appends the next net.
    pub fn push_net(&mut self, name: &str, net: Net) {
        self.structure.names.nets.push(name);
        self.structure.nets.push(net);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// inv chain: in -> INV -> INV -> out
    fn chain() -> Netlist {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let g1 = n.add_gate("g1", CellKind::Inv, Drive::X1, 0);
        let g2 = n.add_gate("g2", CellKind::Inv, Drive::X1, 0);
        let y = n.add_output("y");
        let na = n.add_net("na", a, 0);
        let n1 = n.add_net("n1", g1, 0);
        let n2 = n.add_net("n2", g2, 0);
        n.connect(na, g1, 0);
        n.connect(n1, g2, 0);
        n.connect(n2, y, 0);
        n
    }

    #[test]
    fn chain_is_valid_and_ordered() {
        let n = chain();
        assert!(n.validate().is_ok());
        let order = n.combinational_order().unwrap();
        assert_eq!(order.len(), 2);
        // g1 must precede g2.
        assert_eq!(n.cell_name(order[0]), "g1");
    }

    #[test]
    fn unconnected_pin_is_detected() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let g = n.add_gate("g", CellKind::Nand2, Drive::X1, 0);
        let na = n.add_net("na", a, 0);
        n.connect(na, g, 0);
        // pin 1 left dangling
        let _ny = n.add_net("ny", g, 0);
        assert!(matches!(
            n.validate(),
            Err(ValidateNetlistError::UnconnectedPin(_, 1))
        ));
    }

    #[test]
    fn combinational_cycle_is_detected() {
        let mut n = Netlist::new("cyc");
        let g1 = n.add_gate("g1", CellKind::Inv, Drive::X1, 0);
        let g2 = n.add_gate("g2", CellKind::Inv, Drive::X1, 0);
        let n1 = n.add_net("n1", g1, 0);
        let n2 = n.add_net("n2", g2, 0);
        n.connect(n1, g2, 0);
        n.connect(n2, g1, 0);
        assert_eq!(
            n.validate(),
            Err(ValidateNetlistError::CombinationalCycle("g1".into())),
            "the first cell left with indegree, by name"
        );
    }

    #[test]
    fn register_breaks_cycles() {
        let mut n = Netlist::new("loop");
        let clk_in = n.add_input("clk");
        let ff = n.add_gate("ff", CellKind::Dff, Drive::X1, 0);
        let g = n.add_gate("g", CellKind::Inv, Drive::X1, 0);
        let clk = n.add_net("clk", clk_in, 0);
        n.set_clock(clk);
        let q = n.add_net("q", ff, 0);
        let d = n.add_net("d", g, 0);
        n.connect(q, g, 0);
        n.connect(d, ff, 0); // data
        n.connect(clk, ff, 1); // clock pin
        assert!(n.validate().is_ok());
    }

    #[test]
    fn unclocked_register_is_detected() {
        let mut n = Netlist::new("noclk");
        let a = n.add_input("a");
        let b = n.add_input("b"); // pretend data used as clock
        let ff = n.add_gate("ff", CellKind::Dff, Drive::X1, 0);
        let na = n.add_net("na", a, 0);
        let nb = n.add_net("nb", b, 0);
        let clk_src = n.add_input("clk");
        let clk = n.add_net("clk", clk_src, 0);
        n.set_clock(clk);
        n.connect(na, ff, 0);
        n.connect(nb, ff, 1); // wrong net on the clock pin
        let _q = n.add_net("q", ff, 0);
        assert!(matches!(
            n.validate(),
            Err(ValidateNetlistError::UnclockedRegister(_))
        ));
    }

    #[test]
    fn clock_through_buffer_is_accepted() {
        let mut n = Netlist::new("buffered");
        let clk_in = n.add_input("clk");
        let clk = n.add_net("clk", clk_in, 0);
        n.set_clock(clk);
        let buf = n.add_gate("cb", CellKind::ClkBuf, Drive::X4, 0);
        n.connect(clk, buf, 0);
        let clk_b = n.add_net("clk_b", buf, 0);
        let ff = n.add_gate("ff", CellKind::Dff, Drive::X1, 0);
        let d_src = n.add_input("d");
        let d = n.add_net("d", d_src, 0);
        n.connect(d, ff, 0);
        n.connect(clk_b, ff, 1);
        let _q = n.add_net("q", ff, 0);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn counts_and_iterators() {
        let n = chain();
        assert_eq!(n.cell_count(), 4);
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.macro_count(), 0);
        assert_eq!(n.net_count(), 3);
        assert_eq!(n.cell_ids().count(), 4);
        assert_eq!(n.nets().count(), 3);
        let names: usize = n.cell_ids().map(|id| n.cell_name(id).len()).sum::<usize>()
            + n.net_ids().map(|id| n.net_name(id).len()).sum::<usize>();
        assert_eq!(
            n.name_arena_bytes(),
            names,
            "the arena holds exactly the names"
        );
    }

    #[test]
    fn set_drive_changes_gate() {
        let mut n = chain();
        let g1 = n.cell_ids().find(|&id| n.cell_name(id) == "g1").unwrap();
        n.set_drive(g1, Drive::X8);
        assert_eq!(n.cell(g1).class.gate_drive(), Some(Drive::X8));
    }

    type Slots = Vec<Option<NetId>>;

    /// Tears a netlist into the tables `from_parts` accepts, letting the
    /// caller corrupt cells (with their input/output slots) and nets.
    fn parts_of(
        n: &Netlist,
        blocks: Vec<String>,
        mut cell_edit: impl FnMut(usize, &mut Cell, &mut Slots, &mut Slots),
        mut net_edit: impl FnMut(usize, &mut Net),
    ) -> NetlistParts {
        let mut parts = NetlistParts::new(n.name.clone(), blocks);
        parts.reserve(n.cell_count(), n.net_count());
        let slots = |raw: &[u32]| raw.iter().map(|&r| net_of(r)).collect::<Slots>();
        for (id, c) in n.cells() {
            let (mut cell, mut ins, mut outs) = (
                c.clone(),
                slots(n.cell_inputs(id)),
                slots(n.cell_outputs(id)),
            );
            cell_edit(id.index(), &mut cell, &mut ins, &mut outs);
            parts
                .push_cell(
                    n.cell_name(id),
                    cell.class,
                    cell.block,
                    cell.fixed,
                    &ins,
                    &outs,
                )
                .unwrap();
        }
        for (id, net) in n.nets() {
            let mut net = net.clone();
            net_edit(id.index(), &mut net);
            parts.push_net(n.net_name(id), net);
        }
        parts
    }

    fn blocks_of(n: &Netlist) -> Vec<String> {
        (0..n.block_count() as u16)
            .map(|t| n.block_name(t).to_string())
            .collect()
    }

    fn intact(n: &Netlist) -> NetlistParts {
        parts_of(n, blocks_of(n), |_, _, _, _| {}, |_, _| {})
    }

    #[test]
    fn from_parts_round_trips_a_built_netlist() {
        let n = chain();
        let rebuilt = Netlist::from_parts(intact(&n), n.clock()).unwrap();
        assert!(!Arc::ptr_eq(&rebuilt.levels(), &n.levels()), "a fresh memo");
        assert_eq!(*rebuilt.levels(), *n.levels());
        assert_eq!(rebuilt.cell_count(), n.cell_count());
        assert_eq!(rebuilt.net_count(), n.net_count());
        assert!(rebuilt.validate().is_ok());
        for id in n.cell_ids() {
            assert_eq!(rebuilt.cell(id), n.cell(id));
            assert_eq!(rebuilt.cell_name(id), n.cell_name(id));
            assert_eq!(rebuilt.cell_pins(id), n.cell_pins(id));
        }
        for id in n.net_ids() {
            assert_eq!(rebuilt.net(id), n.net(id));
            assert_eq!(rebuilt.net_name(id), n.net_name(id));
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_tables() {
        let n = chain();
        let blocks = blocks_of(&n);
        let clock = n.clock();
        let cells = |edit: &dyn Fn(usize, &mut Cell, &mut Slots)| {
            parts_of(
                &n,
                blocks.clone(),
                |i, c, ins, _| edit(i, c, ins),
                |_, _| {},
            )
        };
        let nets = |edit: &dyn Fn(usize, &mut Net)| {
            parts_of(&n, blocks.clone(), |_, _, _, _| {}, |i, net| edit(i, net))
        };

        // Empty block table.
        assert!(matches!(
            Netlist::from_parts(parts_of(&n, Vec::new(), |_, _, _, _| {}, |_, _| {}), clock),
            Err(NetlistPartsError::NoBlocks)
        ));
        // Out-of-range block tag.
        let bad = cells(&|i, c, _| {
            if i == 0 {
                c.block = 7;
            }
        });
        assert!(matches!(
            Netlist::from_parts(bad, clock),
            Err(NetlistPartsError::BlockOutOfRange { cell: 0, block: 7 })
        ));
        // Out-of-range net index in a pin slot.
        let bad = cells(&|i, _, ins| {
            if i == 1 {
                ins[0] = Some(NetId(99));
            }
        });
        assert!(matches!(
            Netlist::from_parts(bad, clock),
            Err(NetlistPartsError::NetOutOfRange { cell: 1 })
        ));
        // Driver pointing at a non-existent cell.
        let bad = nets(&|i, net| {
            if i == 0 {
                net.driver = Some(PinRef::new(CellId(42), 0));
            }
        });
        assert!(matches!(
            Netlist::from_parts(bad, clock),
            Err(NetlistPartsError::PinOutOfRange { net: 0 })
        ));
        // Sink list that the cells' input slots do not mirror.
        let bad = nets(&|i, net| {
            if i == 0 {
                net.sinks.clear();
            }
        });
        assert!(matches!(
            Netlist::from_parts(bad, clock),
            Err(NetlistPartsError::SinkMismatch { net: 0 })
        ));
        // Clock designating a net whose flag disagrees.
        assert!(matches!(
            Netlist::from_parts(intact(&n), Some(NetId(0))),
            Err(NetlistPartsError::ClockMismatch)
        ));
        // A pin list no `u8` pin index can address.
        let mut parts = NetlistParts::new("x", blocks_of(&n));
        assert_eq!(
            parts.push_cell(
                "wide",
                CellClass::PrimaryOutput,
                0,
                false,
                &[None; 256],
                &[]
            ),
            Err(NetlistPartsError::TooManyPins { cell: 0 })
        );
    }

    #[test]
    fn clones_share_structure_and_edits_copy_it() {
        let n = chain();
        let mut m = n.clone();
        assert!(Arc::ptr_eq(&n.structure, &m.structure));
        let memo = m.levels();
        assert!(
            Arc::ptr_eq(&n.levels(), &memo),
            "a memo built after the clone is shared"
        );
        m.set_drive(CellId(1), Drive::X4);
        assert!(
            Arc::ptr_eq(&n.structure, &m.structure),
            "sizing leaves structure shared"
        );
        m.connect_all(&[]);
        m.shrink_to_fit();
        assert!(
            Arc::ptr_eq(&n.structure, &m.structure),
            "an empty batch and a trim are no edits"
        );
        assert!(Arc::ptr_eq(&m.levels(), &memo), "nor is sizing");
        let spill = m.detach_sinks(NetId(0), 0);
        assert!(!Arc::ptr_eq(&m.levels(), &memo) && Arc::ptr_eq(&n.levels(), &memo));
        assert_eq!(spill, vec![PinRef::new(CellId(1), 0)]);
        assert!(
            !Arc::ptr_eq(&n.structure, &m.structure),
            "a structural edit copies"
        );
        assert_eq!(m.input_net(CellId(1), 0), None);
        assert_eq!(
            n.input_net(CellId(1), 0),
            Some(NetId(0)),
            "the original is untouched"
        );
        m.connect(NetId(0), CellId(1), 0);
        assert_eq!(m.net(NetId(0)), n.net(NetId(0)));
    }

    #[test]
    fn connect_all_builds_what_connect_builds_without_slack() {
        let mut a = Netlist::new("a");
        let src = a.add_input("s");
        let sinks: Vec<CellId> = (0..5).map(|i| a.add_output(format!("o{i}"))).collect();
        let net = a.add_net("s", src, 0);
        let mut b = a.clone();
        for &c in &sinks {
            a.connect(net, c, 0);
        }
        let edges: Vec<_> = sinks.iter().map(|&c| (net, c, 0)).collect();
        b.connect_all(&edges);
        assert_eq!(a.net(net), b.net(net));
        assert_eq!(b.net(net).sinks.capacity(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_pin_past_the_cell_panics_instead_of_writing_its_neighbour() {
        let mut n = Netlist::new("oob");
        let a = n.add_input("a");
        let g = n.add_gate("g", CellKind::Inv, Drive::X1, 0);
        let _next = n.add_gate("h", CellKind::Inv, Drive::X1, 0);
        let na = n.add_net("na", a, 0);
        n.connect(na, g, 1);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut n = Netlist::new("dup");
        let a = n.add_input("a");
        let g = n.add_gate("g", CellKind::Inv, Drive::X1, 0);
        let na = n.add_net("na", a, 0);
        n.connect(na, g, 0);
        n.connect(na, g, 0);
    }
}
