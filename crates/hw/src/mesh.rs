//! Which tiles of a mesh a chip instantiates.
//!
//! A compiled program names a small fraction of the physical mesh (the
//! paper's 10-core MLP touches about twenty of 28 × 28 tiles), and an
//! idle tile can never hold state: ops, transfers, weights, thresholds
//! and I/O slots are all compiled ahead of time. [`TileSlots`] is the one
//! mesh-index → slot table both chip models share: a chip stores its
//! *live* tiles densely, in row-major order, and every per-tile walk —
//! instantiation, clears, resets, lane scrubs, digests — costs
//! `O(live)`, not `O(rows × cols)`.

use shenjing_core::{CoreCoord, Direction, Error, Result};

use crate::sched::PortDst;

/// Marks an idle mesh position in the slot table.
const IDLE: u32 = u32::MAX;

/// The live tiles of a `rows × cols` mesh and their storage slots.
///
/// Slots are assigned in ascending row-major mesh order, so walking the
/// slots `0..len()` visits the live tiles in the same relative order a
/// row-major scan of the whole mesh would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSlots {
    rows: u16,
    cols: u16,
    /// `[row-major mesh index]` → slot, or [`IDLE`].
    slot_of: Vec<u32>,
    /// `[slot]` → coordinate, ascending row-major.
    coords: Vec<CoreCoord>,
}

impl TileSlots {
    /// Every tile of the mesh live: slot = row-major mesh index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when either dimension is zero.
    pub fn all(rows: u16, cols: u16) -> Result<TileSlots> {
        let coords = (0..rows).flat_map(|r| (0..cols).map(move |c| CoreCoord::new(r, c)));
        TileSlots::from_live(rows, cols, coords)
    }

    /// Only the given tiles live (duplicates are fine).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when either dimension is zero and
    /// [`Error::OutOfBounds`] for a coordinate off the mesh.
    pub fn from_live(
        rows: u16,
        cols: u16,
        live: impl IntoIterator<Item = CoreCoord>,
    ) -> Result<TileSlots> {
        if rows == 0 || cols == 0 {
            return Err(Error::config("chip dimensions must be positive"));
        }
        let mut slot_of = vec![IDLE; rows as usize * cols as usize];
        for coord in live {
            if coord.row >= rows || coord.col >= cols {
                return Err(Error::out_of_bounds(format!(
                    "live tile {coord} outside the {rows}x{cols} mesh"
                )));
            }
            slot_of[coord.row as usize * cols as usize + coord.col as usize] = 0;
        }
        let mut coords = Vec::new();
        for (mesh, slot) in slot_of.iter_mut().enumerate().filter(|(_, s)| **s != IDLE) {
            *slot = coords.len() as u32;
            coords
                .push(CoreCoord::new((mesh / cols as usize) as u16, (mesh % cols as usize) as u16));
        }
        Ok(TileSlots { rows, cols, slot_of, coords })
    }

    /// Mesh rows.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Mesh columns.
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Number of live tiles.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether no tile is live.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Whether `coord` lies on the mesh (live or idle).
    pub fn on_mesh(&self, coord: CoreCoord) -> bool {
        coord.row < self.rows && coord.col < self.cols
    }

    /// The slot of the live tile at `coord`; `None` when the tile is
    /// idle or `coord` is off the mesh.
    pub fn slot(&self, coord: CoreCoord) -> Option<usize> {
        if !self.on_mesh(coord) {
            return None;
        }
        let slot = self.slot_of[coord.row as usize * self.cols as usize + coord.col as usize];
        (slot != IDLE).then_some(slot as usize)
    }

    /// [`slot`](TileSlots::slot) as a checked lookup.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] for coordinates off the mesh and
    /// for idle tiles (which the chip does not instantiate).
    pub fn require(&self, coord: CoreCoord) -> Result<usize> {
        self.slot(coord).ok_or_else(|| {
            let why = if self.on_mesh(coord) { "idle on" } else { "off" };
            Error::out_of_bounds(format!(
                "tile {coord} is {why} this {}x{} chip",
                self.rows, self.cols
            ))
        })
    }

    /// The coordinate of the live tile stored at `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot >= len()`.
    pub fn coord(&self, slot: usize) -> CoreCoord {
        self.coords[slot]
    }

    /// The live tiles' coordinates in slot order (ascending row-major).
    pub fn coords(&self) -> &[CoreCoord] {
        &self.coords
    }

    /// The on-mesh neighbor of `coord` in direction `dir`, if any.
    pub fn neighbor(&self, coord: CoreCoord, dir: Direction) -> Option<CoreCoord> {
        coord.neighbor(dir).filter(|d| self.on_mesh(*d))
    }

    /// Where the output port `dir` of the tile at `coord` leads.
    pub fn link(&self, coord: CoreCoord, dir: Direction) -> PortDst {
        match self.neighbor(coord, dir) {
            None => PortDst::OffEdge,
            Some(d) => self.slot(d).map_or(PortDst::Idle, PortDst::Tile),
        }
    }
}

/// The error a pending output facing off the mesh raises. The reference
/// scan probes planes in ascending order, PS before spike within a
/// plane; this names the register it would have found first.
pub(crate) fn off_edge(
    cycle: u64,
    ps_first: Option<u16>,
    spike_first: Option<u16>,
    src: CoreCoord,
    dir: Direction,
) -> Error {
    let ps_fires_first = match (ps_first, spike_first) {
        (Some(p), Some(s)) => p <= s,
        (ps, _) => ps.is_some(),
    };
    let what = if ps_fires_first { "ps data" } else { "spike" };
    Error::InvalidSchedule {
        cycle,
        reason: format!("{what} driven off the mesh edge at {src} port {dir}"),
    }
}

/// The error a pending output facing an idle (uninstantiated) tile
/// raises. Unreachable for a mesh built from the program it runs: every
/// port destination is live by construction.
pub(crate) fn into_idle(cycle: u64, src: CoreCoord, dir: Direction) -> Error {
    Error::InvalidSchedule {
        cycle,
        reason: format!("data driven into an idle tile from {src} port {dir}"),
    }
}

/// The error a compacted schedule naming a slot the chip lacks raises.
pub(crate) fn bad_slot(slot: usize) -> Error {
    Error::out_of_bounds(format!("compacted schedule tile slot {slot}"))
}

/// Stamps a tile-local schedule error with the cycle it occurred in.
pub(crate) fn annotate_cycle(e: Error, cycle: u64) -> Error {
    match e {
        Error::InvalidSchedule { reason, .. } => Error::InvalidSchedule { cycle, reason },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_live_slots_are_mesh_indices() {
        let slots = TileSlots::all(2, 3).unwrap();
        assert_eq!(slots.len(), 6);
        assert_eq!(slots.slot(CoreCoord::new(1, 2)), Some(5));
        assert_eq!(slots.coord(4), CoreCoord::new(1, 1));
        assert_eq!(slots.slot(CoreCoord::new(2, 0)), None, "off the mesh");
        assert!(TileSlots::all(0, 3).is_err());
    }

    #[test]
    fn sparse_slots_are_dense_and_row_major() {
        let live = [CoreCoord::new(3, 1), CoreCoord::new(0, 2), CoreCoord::new(3, 1)];
        let slots = TileSlots::from_live(4, 4, live).unwrap();
        assert_eq!(slots.coords(), &[CoreCoord::new(0, 2), CoreCoord::new(3, 1)]);
        assert_eq!(slots.slot(CoreCoord::new(3, 1)), Some(1));
        assert_eq!(slots.slot(CoreCoord::new(0, 0)), None, "idle");
        assert!(slots.on_mesh(CoreCoord::new(0, 0)));
        assert!(slots.require(CoreCoord::new(0, 0)).is_err());
        assert!(slots.require(CoreCoord::new(9, 9)).is_err());
        assert_eq!(slots.neighbor(CoreCoord::new(0, 2), Direction::North), None);
        assert_eq!(
            slots.neighbor(CoreCoord::new(0, 2), Direction::South),
            Some(CoreCoord::new(1, 2)),
            "an idle neighbor is still on the mesh"
        );
        assert!(TileSlots::from_live(4, 4, [CoreCoord::new(4, 0)]).is_err());
    }
}
