//! The lane axis of the batched engine.
//!
//! The batched engine's registers carry `batch` SoA payload lanes, and a
//! pass's frames ride the prefix `0..k` of them (see
//! [`BatchChip::set_occupied`](crate::BatchChip::set_occupied)). Every
//! per-lane computation is a slice operation of length `k`; this module
//! holds the chunked integrate-and-fire kernel the spike router runs over
//! that prefix.

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
