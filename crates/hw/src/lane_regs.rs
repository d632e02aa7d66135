//! The register files of the batched routers, sized by the program.
//!
//! A [`LaneRegs`] is `ports × planes` registers of one payload lane per
//! frame of the pass (the stride is the occupancy), with no occupancy
//! bit: which registers hold data when is the program's, proven once by
//! [`crate::occupancy`] — and so is which registers can *ever* hold data,
//! the check's [`Footprint`](crate::occupancy::Footprint). A file stores
//! payload for its footprint's planes only, packed `[port][plane][lane]`
//! in plane order. A run of adjacent footprint planes is contiguous
//! there, so everything that moves NoC traffic or integrates — router
//! `SUM` / `SEND` / `BYPASS` / `SPIKE` and the chip's transfer phase —
//! walks a plane set 64 planes a word: one slice per run of adjacent
//! planes, found with one rank (the rows stored before the run's plane
//! word plus a popcount within it).
//!
//! One bit per register says whether it is *live*: a register written
//! without being live holds the default value in every lane without
//! storing it, so moving it moves one bit and no payload. The spike
//! routers use this to make the spike NoC event-driven (liveness depends
//! on the data), so a plane on which no lane spikes costs its share of a
//! word operation per hop; the PS routers write every register live.

use std::ops::Range;

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
    planes: u16,
    /// The lane stride: the lanes of the pass.
    lanes: usize,
    /// Stored registers: footprint planes over every port.
    rows: usize,
    /// Plane words per port.
    words: usize,
    /// `[port][word]`: the word's footprint planes — the only ones
    /// stored — and the stored rows before its first plane.
    index: Vec<(u64, usize)>,
    /// `[port][word]`: meaningful on the registers the latest write put
    /// there; stale elsewhere.
    live: Vec<u64>,
    /// `[stored plane][lane]`, in `(port, plane)` order; allocated for the
    /// capacity, used over the first `rows × lanes` elements.
    val: Vec<T>,
}

impl<T: Copy + Default> LaneRegs<T> {
    /// The registers `footprint` names (`[port][word]`) of a
    /// `planes`-plane file, stored for `batch` lanes and strided to all.
    pub(crate) fn new(footprint: &[u64], planes: u16, batch: usize) -> LaneRegs<T> {
        let mut rows = 0;
        let index = footprint
            .iter()
            .map(|&w| {
                rows += w.count_ones() as usize;
                (w, rows - w.count_ones() as usize)
            })
            .collect();
        LaneRegs {
            planes,
            lanes: batch,
            rows,
            words: usize::from(planes).div_ceil(64),
            index,
            live: vec![0; footprint.len()],
            val: vec![T::default(); rows * batch],
        }
    }

    /// Re-strides the file in place, at most to its capacity: payload
    /// is stale until written, so the IF state is filled first.
    pub(crate) fn set_lanes(&mut self, lanes: usize) {
        self.lanes = lanes;
    }

    /// Plane words per port.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Bytes of payload the file stores per lane.
    pub(crate) fn lane_bytes(&self) -> usize {
        self.rows * std::mem::size_of::<T>()
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

    /// Whether `plane` of `port` lies in the footprint.
    fn holds(&self, port: usize, plane: usize) -> bool {
        plane < usize::from(self.planes)
            && self.index[port * self.words + plane / 64].0 >> (plane % 64) & 1 == 1
    }

    /// The stored row of `plane` of `port`, one rank: the stored rows
    /// before its word plus the footprint planes below it in the word.
    #[inline]
    fn row(&self, port: usize, plane: usize) -> usize {
        let (used, rank) = self.index[port * self.words + plane / 64];
        rank + (used & ((1 << (plane % 64)) - 1)).count_ones() as usize
    }

    /// Where planes `p0..p1` of `port` are stored: a run of footprint
    /// planes is contiguous. Every plane of the run must lie in the
    /// footprint.
    #[inline]
    fn span(&self, port: usize, p0: usize, p1: usize) -> Range<usize> {
        debug_assert!(
            (p0..p1).all(|p| self.holds(port, p)),
            "planes {p0}..{p1} of port {port} lie outside the footprint"
        );
        let first = self.row(port, p0);
        first * self.lanes..(first + p1 - p0) * self.lanes
    }

    /// The payload lanes of planes `p0..p1` of `port`, `[plane][lane]`;
    /// the planes must lie in the footprint.
    #[inline]
    pub(crate) fn rows(&self, port: usize, p0: usize, p1: usize) -> &[T] {
        &self.val[self.span(port, p0, p1)]
    }

    /// Mutable [`rows`](LaneRegs::rows).
    #[inline]
    pub(crate) fn rows_mut(&mut self, port: usize, p0: usize, p1: usize) -> &mut [T] {
        let span = self.span(port, p0, p1);
        &mut self.val[span]
    }

    /// The payload of `plane` of `port` in `lane`: the default outside the
    /// footprint or the lanes, as for a register never written.
    pub(crate) fn get(&self, port: usize, plane: usize, lane: usize) -> T {
        if lane < self.lanes && self.holds(port, plane) {
            self.val[self.row(port, plane) * self.lanes + lane]
        } else {
            T::default()
        }
    }

    /// Sets every lane of every stored register to `value`: one fill.
    pub(crate) fn fill(&mut self, value: T) {
        self.val[..self.rows * self.lanes].fill(value);
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
        debug_assert_eq!(self.lanes, dst.lanes, "a link joins files of one stride");
        let mut moved = 0;
        for w in 0..self.words {
            let sel = planes.word(w, self.planes);
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

    /// The footprint naming every plane of `ports` ports of `planes`.
    fn every(ports: usize, planes: u16) -> Vec<u64> {
        let words = usize::from(planes).div_ceil(64);
        let port = (0..words).map(|w| PlaneSet::All.word(w, planes));
        port.cycle().take(ports * words).collect()
    }

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
        let mut out = LaneRegs::<i16>::new(&every(4, 130), 130, 2);
        let mut input = LaneRegs::<i16>::new(&every(4, 130), 130, 2);
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
        assert_eq!(input.rows(3, 2, 3), [0, 0], "unsent planes keep what they held");
        assert_eq!(input.rows(2, 0, 1), [0, 0], "other ports keep what they held");
        assert_eq!(input.live_word(3, 2), 0b10, "live bits travel with the planes");
        // Bits past the file's last plane move nothing.
        assert_eq!(out.drain_into(2, &mut input, 3, &PlaneSet::from_indices([130u16, 200])), 0);
    }

    #[test]
    fn a_footprint_file_packs_its_planes_and_keeps_runs_contiguous() {
        // Port 1 names planes {1, 2, 3, 63, 64, 65, 129}, port 3 plane 0;
        // ports 0 and 2 name nothing and store nothing.
        let named = [1u16, 2, 3, 63, 64, 65, 129];
        let mut footprint = vec![0; 4 * 3];
        footprint[3..6].copy_from_slice(&[1 << 1 | 1 << 2 | 1 << 3 | 1 << 63, 0b11, 0b10]);
        footprint[9] = 1;
        let mut regs = LaneRegs::<i16>::new(&footprint, 130, 3);
        assert_eq!(regs.lane_bytes(), (named.len() + 1) * 2);
        for (i, p) in named.iter().map(|&p| usize::from(p)).enumerate() {
            regs.rows_mut(1, p, p + 1).fill(i as i16 + 1);
        }
        regs.rows_mut(3, 0, 1).fill(-1);
        // A run that crosses a word boundary is one slice, in plane order.
        assert_eq!(regs.rows(1, 63, 66), [4, 4, 4, 5, 5, 5, 6, 6, 6]);
        assert_eq!(regs.rows(1, 1, 4), [1, 1, 1, 2, 2, 2, 3, 3, 3]);
        assert_eq!(regs.rows(1, 129, 130), [7; 3]);
        assert_eq!(regs.rows(3, 0, 1), [-1; 3]);
        // Planes outside the footprint read as the default.
        assert_eq!([0, 4, 62, 66, 128].map(|p| regs.get(1, p, 0)), [0; 5]);
        assert_eq!([regs.get(0, 1, 2), regs.get(3, 1, 0), regs.get(1, 300, 0)], [0; 3]);
        assert_eq!([regs.get(1, 64, 2), regs.get(3, 0, 1)], [5, -1]);

        // Moving between files of different footprints moves the named
        // planes, wherever each file packs them.
        let mut dst = LaneRegs::<i16>::new(&every(1, 130), 130, 3);
        regs.set_live(1, 1, 0b11, 0b11);
        assert_eq!(regs.drain_into(1, &mut dst, 0, &PlaneSet::from_indices([64u16, 65])), 2);
        assert_eq!(dst.rows(0, 63, 66), [0, 0, 0, 5, 5, 5, 6, 6, 6]);
    }

    #[test]
    fn registers_that_are_not_live_move_as_bits_and_read_as_default() {
        let mut out = LaneRegs::<bool>::new(&every(4, 8), 8, 2);
        let mut input = LaneRegs::<bool>::new(&every(4, 8), 8, 2);
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
