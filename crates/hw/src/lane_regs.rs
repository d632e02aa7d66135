//! The register files of the batched routers.
//!
//! A [`LaneRegs`] is `ports × planes` registers of `batch` payload lanes
//! each, laid out `[port][plane][lane]`, with one occupancy bit per
//! register (`[port][word]`, 64 planes a word). Because a port's planes
//! are contiguous in both arrays, everything that moves NoC traffic —
//! router `SEND` / `BYPASS` and the chip's transfer phase — walks a port
//! an occupancy word at a time: one test per word, one slice copy per run
//! of adjacent planes. Copies move whole registers, unoccupied lanes
//! included (nothing reads those); arithmetic stays on the occupied lanes.
//!
//! A second bit per register says whether it is *live*: an occupied
//! register that is not live holds the default value in every lane
//! without storing it, so moving it moves two bits and no payload. The
//! spike routers use this to make the spike NoC event-driven — a plane
//! on which no lane spikes costs its share of a word operation per hop;
//! the PS routers keep every occupied register live.

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
    /// Occupancy words per port: `ceil(planes / 64)`.
    words: usize,
    occ: Vec<u64>,
    /// Meaningful where `occ` is set; stale elsewhere.
    live: Vec<u64>,
    val: Vec<T>,
    /// What a register that is not live reads as: `batch` defaults.
    idle: Vec<T>,
}

impl<T: Copy + Default> LaneRegs<T> {
    /// `ports × planes` free registers of `batch` lanes.
    pub(crate) fn new(ports: usize, planes: u16, batch: usize) -> LaneRegs<T> {
        let planes = planes as usize;
        let words = planes.div_ceil(64);
        LaneRegs {
            planes,
            batch,
            words,
            occ: vec![0; ports * words],
            live: vec![0; ports * words],
            val: vec![T::default(); ports * planes * batch],
            idle: vec![T::default(); batch],
        }
    }

    /// Occupancy words per port.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Occupancy word `w` of `port`: planes `64 * w ..`.
    #[inline]
    pub(crate) fn word(&self, port: usize, w: usize) -> u64 {
        self.occ[port * self.words + w]
    }

    /// The planes of word `w` of `port` whose registers are live
    /// (meaningful under [`word`](LaneRegs::word)'s bits only).
    #[inline]
    pub(crate) fn live_word(&self, port: usize, w: usize) -> u64 {
        self.live[port * self.words + w]
    }

    /// Marks the free registers `sel` of word `w` occupied, those in
    /// `live` holding payload (to be written by the caller) and the rest
    /// all-default.
    #[inline]
    pub(crate) fn fill(&mut self, port: usize, w: usize, sel: u64, live: u64) {
        let at = port * self.words + w;
        self.occ[at] |= sel;
        self.live[at] = self.live[at] & !sel | live & sel;
    }

    /// Frees the registers `sel` of word `w`.
    #[inline]
    pub(crate) fn free(&mut self, port: usize, w: usize, sel: u64) {
        self.occ[port * self.words + w] &= !sel;
    }

    /// Whether register `(port, plane)` holds data.
    #[inline]
    pub(crate) fn occupied(&self, port: usize, plane: u16) -> bool {
        self.word(port, plane as usize / 64) & (1 << (plane % 64)) != 0
    }

    /// The lowest occupied plane of `port`, if any.
    pub(crate) fn first(&self, port: usize) -> Option<u16> {
        (0..self.words).find_map(|w| {
            let word = self.word(port, w);
            (word != 0).then(|| (w * 64 + word.trailing_zeros() as usize) as u16)
        })
    }

    /// Frees every register.
    pub(crate) fn reset(&mut self) {
        self.occ.fill(0);
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

    /// The `[lane]` payload of register `(port, plane)`, if it holds data.
    pub(crate) fn row(&self, port: usize, plane: u16) -> Option<&[T]> {
        let (w, bit, p) = (plane as usize / 64, 1 << (plane % 64), plane as usize);
        let live = self.live_word(port, w) & bit != 0;
        (self.word(port, w) & bit != 0).then(|| {
            if live {
                self.rows(port, p, p + 1)
            } else {
                &self.idle[..]
            }
        })
    }

    /// The transfer phase of one mesh link: moves every pending register
    /// of output port `port` into the same planes of `dst`'s input port
    /// `dst_port`, an occupancy word and a run of live planes at a time.
    /// Returns the number of registers moved, or the lowest plane whose
    /// input register still held unconsumed data.
    pub(crate) fn drain_into(
        &mut self,
        port: usize,
        dst: &mut LaneRegs<T>,
        dst_port: usize,
    ) -> std::result::Result<u64, u16> {
        let mut moved = 0;
        for w in 0..self.words {
            let pending = self.word(port, w);
            if pending == 0 {
                continue;
            }
            let held = dst.word(dst_port, w) & pending;
            if held != 0 {
                return Err((w * 64 + held.trailing_zeros() as usize) as u16);
            }
            let live = self.live_word(port, w) & pending;
            self.free(port, w, pending);
            dst.fill(dst_port, w, pending, live);
            for (p0, p1) in runs(live) {
                let (p0, p1) = (w * 64 + p0, w * 64 + p1);
                dst.rows_mut(dst_port, p0, p1).copy_from_slice(self.rows(port, p0, p1));
            }
            moved += u64::from(pending.count_ones());
        }
        Ok(moved)
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
    fn drain_moves_runs_and_occupancy_across_word_boundaries() {
        // 130 planes = 3 occupancy words; 2 lanes.
        let mut out = LaneRegs::<i16>::new(4, 130, 2);
        let mut input = LaneRegs::<i16>::new(4, 130, 2);
        for plane in [0u16, 1, 63, 64, 65, 129] {
            let p = plane as usize;
            out.fill(2, p / 64, 1 << (p % 64), u64::MAX);
            out.rows_mut(2, p, p + 1).copy_from_slice(&[plane as i16, -(plane as i16)]);
        }
        assert_eq!(out.first(2), Some(0));
        assert_eq!(out.drain_into(2, &mut input, 3), Ok(6));
        assert_eq!(out.first(2), None, "the source port is drained");
        for plane in [0u16, 1, 63, 64, 65, 129] {
            assert_eq!(input.row(3, plane).map(|r| r[1]), Some(-(plane as i16)));
        }
        assert_eq!(input.row(3, 2), None, "unsent planes stay free");
        assert_eq!(input.row(2, 0), None, "other ports stay free");

        // A second delivery onto unconsumed data names the lowest plane.
        out.fill(2, 1, 0b1, 0);
        out.fill(2, 2, 0b10, 0);
        assert_eq!(out.drain_into(2, &mut input, 3), Err(64));
    }

    #[test]
    fn registers_that_are_not_live_move_as_bits_and_read_as_default() {
        let mut out = LaneRegs::<bool>::new(4, 8, 2);
        let mut input = LaneRegs::<bool>::new(4, 8, 2);
        // Stale payload under a register that is occupied but not live.
        out.rows_mut(0, 3, 4).fill(true);
        input.rows_mut(1, 3, 4).fill(true);
        out.fill(0, 0, 0b1000, 0);
        assert_eq!(out.row(0, 3), Some(&[false, false][..]));
        assert_eq!(out.drain_into(0, &mut input, 1), Ok(1));
        assert_eq!(input.row(1, 3).map(|r| r[0]), Some(false), "the stale payload stays unread");
        input.free(1, 0, 0b1000);
        assert_eq!(input.row(1, 3), None);
        // Refilled live, the same register reads its payload again.
        input.fill(1, 0, 0b1000, 0b1000);
        assert_eq!(input.row(1, 3).map(|r| r[0]), Some(true));
    }
}
