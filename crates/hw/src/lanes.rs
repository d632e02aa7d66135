//! The tracked lane-occupancy set behind every batched sweep.
//!
//! The batched engine's registers carry `max_batch` SoA payload lanes, but
//! a serving batch rarely fills them all. [`LaneSet`] is the sibling of
//! [`ActiveSet`](crate::ActiveSet) (active axons) and the routers'
//! register-occupancy words for the *lane* axis: it tracks which lanes
//! currently hold in-flight frames, so every per-lane computation — `ACC`
//! sweeps, the PS adder, integrate-and-fire, deliveries, clears and
//! digests — pays for **occupancy, not capacity**: a 3-of-16 batch
//! computes on 3 lanes. (Register moves copy whole registers: contiguous
//! beats strided.)
//!
//! Representation: a sorted occupied-lane list (the iteration the hot
//! loops walk, always in ascending lane order so results and error sites
//! are deterministic) plus a word-scan bitmask for `O(1)` membership.
//! Occupancy changes are rare (per batch, not per cycle), so the sorted
//! insert/remove cost is irrelevant; iteration is what matters.
//!
//! The common case — frames packed into lanes `0..n` — is detected by
//! [`contiguous_len`](LaneSet::contiguous_len), which lets the payload
//! walks use contiguous slice operations (and, at full occupancy, the
//! exact bulk copies the capacity-bound engine used), so full batches pay
//! nothing for the occupancy generality.

/// The set of occupied lanes of a batched component, over `0..batch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSet {
    /// Lane capacity (the SoA width everything is allocated for).
    batch: usize,
    /// Occupied lanes, ascending.
    members: Vec<usize>,
    /// Word-scan mask: bit `l % 64` of word `l / 64` is lane `l`.
    mask: Vec<u64>,
}

impl LaneSet {
    /// An all-free set over `batch` lanes.
    pub fn empty(batch: usize) -> LaneSet {
        LaneSet { batch, members: Vec::with_capacity(batch), mask: vec![0; batch.div_ceil(64)] }
    }

    /// An all-occupied set over `batch` lanes.
    pub fn full(batch: usize) -> LaneSet {
        let mut set = LaneSet::empty(batch);
        for lane in 0..batch {
            set.occupy(lane);
        }
        set
    }

    /// Lane capacity (not the occupied count).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of occupied lanes — a maintained counter, `O(1)`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Capacity of the backing member list — observability for the
    /// allocation-stability tests. [`empty`](LaneSet::empty) and
    /// [`full`](LaneSet::full) preallocate the full lane capacity, so
    /// occupancy churn never reallocates.
    pub fn member_capacity(&self) -> usize {
        self.members.capacity()
    }

    /// Whether no lane is occupied.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether every lane is occupied.
    pub fn is_full(&self) -> bool {
        self.members.len() == self.batch
    }

    /// Whether `lane` is occupied (a mask probe, `O(1)`).
    pub fn contains(&self, lane: usize) -> bool {
        lane < self.batch && self.mask[lane / 64] & (1u64 << (lane % 64)) != 0
    }

    /// Marks `lane` occupied; returns whether it was newly occupied.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= batch` (an occupancy-tracking bug, never a
    /// data-dependent condition).
    pub fn occupy(&mut self, lane: usize) -> bool {
        assert!(lane < self.batch, "lane {lane} of a {}-lane set", self.batch);
        if self.contains(lane) {
            return false;
        }
        self.mask[lane / 64] |= 1u64 << (lane % 64);
        let at = self.members.partition_point(|&m| m < lane);
        self.members.insert(at, lane);
        true
    }

    /// Marks `lane` free; returns whether it was occupied.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= batch`, as in [`occupy`](LaneSet::occupy).
    pub fn release(&mut self, lane: usize) -> bool {
        assert!(lane < self.batch, "lane {lane} of a {}-lane set", self.batch);
        if !self.contains(lane) {
            return false;
        }
        self.mask[lane / 64] &= !(1u64 << (lane % 64));
        let at = self.members.partition_point(|&m| m < lane);
        self.members.remove(at);
        true
    }

    /// Frees every lane.
    pub fn clear(&mut self) {
        self.members.clear();
        self.mask.iter_mut().for_each(|w| *w = 0);
    }

    /// The occupied lanes, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().copied()
    }

    /// The occupied lanes as an ascending slice (what the hot loops walk).
    pub fn as_slice(&self) -> &[usize] {
        &self.members
    }

    /// `Some(k)` when the occupied lanes are exactly `0..k` (including the
    /// empty set, `k = 0`): the contiguous-prefix case where per-lane
    /// walks collapse into slice operations of length `k`.
    pub fn contiguous_len(&self) -> Option<usize> {
        match self.members.last() {
            None => Some(0),
            // Ascending distinct lanes: last == len-1 forces members == 0..len.
            Some(&last) if last + 1 == self.members.len() => Some(self.members.len()),
            Some(_) => None,
        }
    }
}

/// Fixed inner width of the chunked lane kernel below: 8 × i32 = two
/// SSE2 vectors per chunk, the sweet spot for the baseline x86-64 target
/// (no SSE4.1/AVX assumed) while staying a single iteration for small
/// batches' remainder loop.
pub const LANE_CHUNK: usize = 8;

/// Branchless integrate-and-fire over the contiguous occupied prefix:
/// per lane, `pot += sum; fire = pot > threshold; spike = fire;
/// pot -= fire ? threshold : 0` — bit-identical to the scalar
/// `integrate_value` sequence, with the reset-by-subtraction select
/// expressed as a mask so the chunks stay branch-free. The sums are the
/// core's `i32` local sums or the PS router's 16-bit ejected ones.
#[inline]
pub fn integrate_lanes<S: Copy + Into<i32>>(
    pots: &mut [i32],
    spikes: &mut [bool],
    sums: &[S],
    threshold: i32,
) {
    debug_assert_eq!(pots.len(), spikes.len());
    debug_assert_eq!(pots.len(), sums.len());
    let mut p = pots.chunks_exact_mut(LANE_CHUNK);
    let mut sp = spikes.chunks_exact_mut(LANE_CHUNK);
    let mut su = sums.chunks_exact(LANE_CHUNK);
    for ((pc, spc), suc) in (&mut p).zip(&mut sp).zip(&mut su) {
        for i in 0..LANE_CHUNK {
            let v = pc[i] + suc[i].into();
            let fire = v > threshold;
            spc[i] = fire;
            pc[i] = v - (-i32::from(fire) & threshold);
        }
    }
    for ((pv, spv), &suv) in
        p.into_remainder().iter_mut().zip(sp.into_remainder()).zip(su.remainder())
    {
        let v = *pv + suv.into();
        let fire = v > threshold;
        *spv = fire;
        *pv = v - (-i32::from(fire) & threshold);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupy_release_contains_roundtrip() {
        let mut set = LaneSet::empty(16);
        assert!(set.is_empty());
        assert_eq!(set.contiguous_len(), Some(0));
        assert!(set.occupy(3));
        assert!(!set.occupy(3), "redundant occupy is a no-op");
        assert!(set.occupy(0));
        assert!(set.occupy(11));
        assert_eq!(set.len(), 3);
        assert_eq!(set.as_slice(), &[0, 3, 11], "iteration is ascending");
        assert!(set.contains(11) && !set.contains(4));
        assert_eq!(set.contiguous_len(), None);
        assert!(set.release(3));
        assert!(!set.release(3), "redundant release is a no-op");
        assert_eq!(set.as_slice(), &[0, 11]);
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(0));
    }

    #[test]
    fn contiguous_prefix_detection() {
        let mut set = LaneSet::empty(8);
        for lane in 0..5 {
            set.occupy(lane);
        }
        assert_eq!(set.contiguous_len(), Some(5));
        set.release(2);
        assert_eq!(set.contiguous_len(), None, "a drained hole breaks the prefix");
        set.occupy(2);
        assert_eq!(set.contiguous_len(), Some(5));
        let full = LaneSet::full(8);
        assert!(full.is_full());
        assert_eq!(full.contiguous_len(), Some(8));
    }

    #[test]
    fn word_boundary_lanes() {
        // Capacities beyond one mask word exercise the word indexing.
        let mut set = LaneSet::empty(130);
        for lane in [0usize, 63, 64, 127, 129] {
            assert!(set.occupy(lane));
        }
        assert_eq!(set.as_slice(), &[0, 63, 64, 127, 129]);
        for lane in [63usize, 64, 129] {
            assert!(set.release(lane));
        }
        assert!(set.contains(0) && set.contains(127));
        assert!(!set.contains(63) && !set.contains(64) && !set.contains(129));
    }

    #[test]
    #[should_panic(expected = "lane 4 of a 4-lane set")]
    fn out_of_range_lane_panics() {
        LaneSet::empty(4).occupy(4);
    }

    #[test]
    fn integrate_lanes_matches_the_scalar_if_sequence() {
        let threshold = 10;
        for len in 0..=(2 * LANE_CHUNK + 3) {
            let sums: Vec<i32> = (0..len as i32).map(|i| i * 5 - 12).collect();
            let mut fast_pot: Vec<i32> = (0..len as i32).map(|i| (i * 7) % 13 - 3).collect();
            let mut fast_spk = vec![true; len]; // stale spikes must be overwritten
            let mut slow_pot = fast_pot.clone();
            let mut slow_spk = fast_spk.clone();
            integrate_lanes(&mut fast_pot, &mut fast_spk, &sums, threshold);
            for i in 0..len {
                slow_pot[i] += sums[i];
                if slow_pot[i] > threshold {
                    slow_spk[i] = true;
                    slow_pot[i] -= threshold;
                } else {
                    slow_spk[i] = false;
                }
            }
            assert_eq!(fast_pot, slow_pot, "len={len}");
            assert_eq!(fast_spk, slow_spk, "len={len}");
        }
    }
}
