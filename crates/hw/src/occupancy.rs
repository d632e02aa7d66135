//! Per-direction occupancy bitmasks over the router output registers.
//!
//! The transfer phase of the chip fabric used to probe every
//! `(direction, plane)` output register of every tile each cycle —
//! `4 × core_neurons` loads per router even when nothing was in flight.
//! [`PortOccupancy`] is the bookkeeping the sequential routers use
//! instead: one bit per output register, grouped by direction so the
//! fabric can jump straight to the occupied planes with a word scan.
//! Payloads stay in the routers' register vectors; the mask only indexes
//! them. (The batched routers keep the same words inside their
//! `LaneRegs` register files and move whole ports by them.)
//!
//! Layout: word `port.encode() * words + w` masks planes
//! `64*w .. 64*w + 64` of that port, with `words = ceil(planes / 64)`.

use shenjing_core::Direction;

/// Occupancy bits of the `4 × planes` output registers of one router.
#[derive(Debug, Clone)]
pub(crate) struct PortOccupancy {
    /// Mask words per direction: `ceil(planes / 64)`.
    words: usize,
    bits: Vec<u64>,
}

impl PortOccupancy {
    /// An all-free mask over `planes` planes per direction.
    pub(crate) fn new(planes: u16) -> PortOccupancy {
        let words = (planes as usize).div_ceil(64);
        PortOccupancy { words, bits: vec![0; words * 4] }
    }

    #[inline]
    fn base(&self, port: Direction) -> usize {
        port.encode() as usize * self.words
    }

    /// Marks `(port, plane)` occupied.
    #[inline]
    pub(crate) fn set(&mut self, port: Direction, plane: u16) {
        let base = self.base(port);
        self.bits[base + plane as usize / 64] |= 1u64 << (plane as usize % 64);
    }

    /// Marks `(port, plane)` free.
    #[inline]
    pub(crate) fn clear(&mut self, port: Direction, plane: u16) {
        let base = self.base(port);
        self.bits[base + plane as usize / 64] &= !(1u64 << (plane as usize % 64));
    }

    /// The lowest occupied plane at `port`, if any (a word scan).
    #[inline]
    pub(crate) fn first(&self, port: Direction) -> Option<u16> {
        let base = self.base(port);
        self.bits[base..base + self.words].iter().enumerate().find_map(|(w, &word)| {
            (word != 0).then(|| (w * 64 + word.trailing_zeros() as usize) as u16)
        })
    }

    /// Whether any register of any port is occupied.
    #[inline]
    pub(crate) fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    /// Marks every plane of `port` occupied (bulk whole-port writes).
    #[inline]
    pub(crate) fn fill(&mut self, port: Direction, planes: u16) {
        let base = self.base(port);
        for (w, word) in self.bits[base..base + self.words].iter_mut().enumerate() {
            let remaining = planes as usize - (w * 64).min(planes as usize);
            *word = if remaining >= 64 { u64::MAX } else { (1u64 << remaining) - 1 };
        }
    }

    /// Frees every register of every port.
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_first_clear_roundtrip() {
        let mut occ = PortOccupancy::new(256);
        assert_eq!(occ.words, 4);
        assert_eq!(occ.first(Direction::East), None);
        occ.set(Direction::East, 200);
        occ.set(Direction::East, 7);
        occ.set(Direction::West, 63);
        assert_eq!(occ.first(Direction::East), Some(7));
        assert_eq!(occ.first(Direction::West), Some(63));
        assert_eq!(occ.first(Direction::North), None);
        occ.clear(Direction::East, 7);
        assert_eq!(occ.first(Direction::East), Some(200));
        occ.clear(Direction::East, 200);
        occ.clear(Direction::West, 63);
        assert!(!occ.any());
    }

    #[test]
    fn sub_word_plane_counts() {
        // A 16-plane tile still gets one full word per direction.
        let mut occ = PortOccupancy::new(16);
        assert_eq!(occ.words, 1);
        occ.set(Direction::South, 15);
        assert_eq!(occ.first(Direction::South), Some(15));
        assert!(occ.any());
    }

    #[test]
    fn fill_and_reset() {
        let mut occ = PortOccupancy::new(80);
        occ.fill(Direction::North, 80);
        assert_eq!(occ.first(Direction::North), Some(0));
        for p in 0..80u16 {
            occ.clear(Direction::North, p);
        }
        assert!(!occ.any(), "fill covers exactly the tile's planes");
        occ.set(Direction::East, 3);
        occ.reset();
        assert!(!occ.any());
    }
}
