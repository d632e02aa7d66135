//! The register files of the batched routers.
//!
//! A [`LaneRegs`] is `ports × planes` registers of `batch` payload lanes
//! each, laid out `[port][plane][lane]`, with no occupancy bit: which
//! registers hold data when is the program's, proven once by
//! [`crate::occupancy`]. Because a port's planes are contiguous,
//! everything that moves NoC traffic — router `SEND` / `BYPASS` and the
//! chip's transfer phase — walks a plane set 64 planes a word: one slice
//! copy per run of adjacent planes. Copies move whole registers,
//! unoccupied lanes included (nothing reads those); arithmetic stays on
//! the occupied lanes.
//!
//! One bit per register says whether it is *live*: a register written
//! without being live holds the default value in every lane without
//! storing it, so moving it moves one bit and no payload. The spike
//! routers use this to make the spike NoC event-driven (liveness depends
//! on the data), so a plane on which no lane spikes costs its share of a
//! word operation per hop; the PS routers write every register live.

use crate::plane::PlaneSet;

/// The maximal runs of set bits in `word`, as ascending `(start, end)`
/// bit offsets.
pub(crate) fn runs(mut word: u64) -> impl Iterator<Item = (usize, usize)> {
    std::iter::from_fn(move || {
        if word == 0 {
            return None;
        }
        let start = word.trailing_zeros() as usize;
        let end = start + (word >> start).trailing_ones() as usize;
        word = if end == 64 { 0 } else { word >> end << end };
        Some((start, end))
    })
}

/// One register file of a batched router (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct LaneRegs<T> {
    planes: usize,
    batch: usize,
    /// Plane words per port: `ceil(planes / 64)`.
    words: usize,
    /// `[port][word]`: meaningful on the registers the latest write put
    /// there; stale elsewhere.
    live: Vec<u64>,
    val: Vec<T>,
}

impl<T: Copy + Default> LaneRegs<T> {
    /// `ports × planes` registers of `batch` lanes.
    pub(crate) fn new(ports: usize, planes: u16, batch: usize) -> LaneRegs<T> {
        let planes = planes as usize;
        let words = planes.div_ceil(64);
        LaneRegs {
            planes,
            batch,
            words,
            live: vec![0; ports * words],
            val: vec![T::default(); ports * planes * batch],
        }
    }

    /// Plane words per port.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The planes of word `w` of `port` whose registers are live
    /// (meaningful on the planes the latest write put there only).
    #[inline]
    pub(crate) fn live_word(&self, port: usize, w: usize) -> u64 {
        self.live[port * self.words + w]
    }

    /// Marks the registers `sel` of word `w` written, those in `live`
    /// holding payload (to be written by the caller) and the rest
    /// all-default.
    #[inline]
    pub(crate) fn set_live(&mut self, port: usize, w: usize, sel: u64, live: u64) {
        let at = port * self.words + w;
        self.live[at] = self.live[at] & !sel | live & sel;
    }

    /// The payload lanes of planes `p0..p1` of `port`, `[plane][lane]`.
    #[inline]
    pub(crate) fn rows(&self, port: usize, p0: usize, p1: usize) -> &[T] {
        let base = port * self.planes;
        &self.val[(base + p0) * self.batch..(base + p1) * self.batch]
    }

    /// Mutable [`rows`](LaneRegs::rows).
    #[inline]
    pub(crate) fn rows_mut(&mut self, port: usize, p0: usize, p1: usize) -> &mut [T] {
        let base = port * self.planes;
        &mut self.val[(base + p0) * self.batch..(base + p1) * self.batch]
    }

    /// The transfer phase of one mesh link: moves the registers `planes`
    /// of output port `port` into the same planes of `dst`'s input port
    /// `dst_port` — their live bits, and the payload of the live ones, a
    /// run of planes at a time. Returns the number of registers moved.
    pub(crate) fn drain_into(
        &self,
        port: usize,
        dst: &mut LaneRegs<T>,
        dst_port: usize,
        planes: &PlaneSet,
    ) -> u64 {
        let mut moved = 0;
        for w in 0..self.words {
            let sel = planes.word(w, self.planes as u16);
            if sel == 0 {
                continue;
            }
            let live = self.live_word(port, w) & sel;
            dst.set_live(dst_port, w, sel, live);
            for (p0, p1) in runs(live) {
                let (p0, p1) = (w * 64 + p0, w * 64 + p1);
                dst.rows_mut(dst_port, p0, p1).copy_from_slice(self.rows(port, p0, p1));
            }
            moved += u64::from(sel.count_ones());
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_split_a_word_into_maximal_spans() {
        assert_eq!(runs(0).count(), 0);
        assert_eq!(runs(u64::MAX).collect::<Vec<_>>(), [(0, 64)]);
        assert_eq!(runs(0b0110_1101).collect::<Vec<_>>(), [(0, 1), (2, 4), (5, 7)]);
        assert_eq!(runs(1 << 63 | 1).collect::<Vec<_>>(), [(0, 1), (63, 64)]);
        assert_eq!(runs(0xF << 60).collect::<Vec<_>>(), [(60, 64)]);
    }

    #[test]
    fn drain_moves_the_given_planes_across_word_boundaries() {
        // 130 planes = 3 plane words; 2 lanes.
        let mut out = LaneRegs::<i16>::new(4, 130, 2);
        let mut input = LaneRegs::<i16>::new(4, 130, 2);
        let sent = [0u16, 1, 63, 64, 65, 129];
        for plane in sent {
            let p = plane as usize;
            out.set_live(2, p / 64, 1 << (p % 64), u64::MAX);
            out.rows_mut(2, p, p + 1).copy_from_slice(&[plane as i16, -(plane as i16)]);
        }
        // A register outside the moved set keeps its payload where it is.
        out.rows_mut(2, 2, 3).fill(7);
        let planes = PlaneSet::from_indices(sent);
        assert_eq!(out.drain_into(2, &mut input, 3, &planes), 6);
        for plane in sent {
            let p = plane as usize;
            assert_eq!(input.rows(3, p, p + 1), [plane as i16, -(plane as i16)]);
        }
        assert_eq!(input.rows(3, 2, 3), [0, 0], "unsent planes stay untouched");
        assert_eq!(input.rows(2, 0, 1), [0, 0], "other ports stay untouched");
        assert_eq!(input.live_word(3, 2), 0b10, "live bits travel with the planes");
        // Bits past the file's last plane move nothing.
        assert_eq!(out.drain_into(2, &mut input, 3, &PlaneSet::from_indices([130u16, 200])), 0);
    }

    #[test]
    fn registers_that_are_not_live_move_as_bits_and_read_as_default() {
        let mut out = LaneRegs::<bool>::new(4, 8, 2);
        let mut input = LaneRegs::<bool>::new(4, 8, 2);
        // Stale payload under a register written without being live.
        out.rows_mut(0, 3, 4).fill(true);
        input.rows_mut(1, 3, 4).fill(true);
        out.set_live(0, 0, 0b1000, 0);
        assert_eq!(out.drain_into(0, &mut input, 1, &PlaneSet::from_indices([3u16])), 1);
        assert_eq!(input.live_word(1, 0) & 0b1000, 0, "it arrives as the default value");
        assert_eq!(input.rows(1, 3, 4), [true, true], "and the stale payload is never copied");
        // Written live, the same register moves its payload again.
        out.set_live(0, 0, 0b1000, 0b1000);
        out.rows_mut(0, 3, 4).copy_from_slice(&[false, true]);
        out.drain_into(0, &mut input, 1, &PlaneSet::from_indices([3u16]));
        assert_eq!(
            (input.live_word(1, 0) & 0b1000, input.rows(1, 3, 4)),
            (0b1000, &[false, true][..])
        );
    }
}
