use crate::cell::CellId;
use std::fmt;

/// Dense handle to a net inside a [`crate::Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index (valid only within the owning netlist).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. Only meaningful for indices obtained
    /// from the same netlist.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NetId(index as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A reference to one pin: a cell plus a pin index on that cell.
///
/// For driver pins the index addresses the cell's output pins; for sink
/// pins it addresses the input pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PinRef {
    /// The cell.
    pub cell: CellId,
    /// Pin index within the cell's input or output pin list.
    pub pin: u8,
}

impl PinRef {
    /// Creates a pin reference.
    #[must_use]
    pub fn new(cell: CellId, pin: u8) -> Self {
        PinRef { cell, pin }
    }
}

impl fmt::Display for PinRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.p{}", self.cell, self.pin)
    }
}

/// One net: a single driver pin fanning out to sink pins. Its name lives
/// in the netlist's name arena ([`crate::Netlist::net_name`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Net {
    /// The driving output pin. `None` only during construction.
    pub driver: Option<PinRef>,
    /// Sink input pins.
    pub sinks: Vec<PinRef>,
    /// `true` for the clock net (excluded from signal routing/timing and
    /// handled by CTS).
    pub is_clock: bool,
}

impl Net {
    /// Number of pins (driver + sinks).
    #[must_use]
    pub fn degree(&self) -> usize {
        usize::from(self.driver.is_some()) + self.sinks.len()
    }

    /// Fanout (number of sinks).
    #[must_use]
    pub fn fanout(&self) -> usize {
        self.sinks.len()
    }

    /// Iterates over all cells on the net (driver first, then sinks; a
    /// cell may appear multiple times if it has several pins on the net).
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.driver
            .iter()
            .map(|p| p.cell)
            .chain(self.sinks.iter().map(|p| p.cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_counts_driver_and_sinks() {
        let mut net = Net::default();
        assert_eq!(net.degree(), 0);
        net.driver = Some(PinRef::new(CellId(0), 0));
        net.sinks.push(PinRef::new(CellId(1), 0));
        net.sinks.push(PinRef::new(CellId(2), 1));
        assert_eq!(net.degree(), 3);
        assert_eq!(net.fanout(), 2);
        let cells: Vec<_> = net.cells().collect();
        assert_eq!(cells, vec![CellId(0), CellId(1), CellId(2)]);
    }

    #[test]
    fn net_id_round_trips() {
        let id = NetId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "n7");
    }

    #[test]
    fn pin_ref_display() {
        let p = PinRef::new(CellId(3), 2);
        assert_eq!(p.to_string(), "c3.p2");
    }
}
