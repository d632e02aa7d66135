//! Deterministic rate coding of analog inputs into spike trains.

use shenjing_core::{Error, Result};
use shenjing_nn::Tensor;

/// Encodes an analog vector in `[0, 1]` into spike trains of a given
/// length using deterministic rate coding: each input behaves as an IF
//  neuron with unit threshold driven by a constant current equal to the
/// pixel intensity, so over `T` timesteps a pixel of intensity `p` emits
/// `floor(p·T + ε)` spikes, evenly spread.
///
/// Determinism matters twice: it makes experiments reproducible, and it is
/// what the host would actually feed the chip (the spike train is computed
/// off-chip either way).
///
/// ```
/// use shenjing_snn::RateEncoder;
/// use shenjing_nn::Tensor;
///
/// let mut enc = RateEncoder::new(&Tensor::from_vec(vec![2], vec![1.0, 0.5])?);
/// let mut counts = [0u32; 2];
/// for _ in 0..10 {
///     for (c, s) in counts.iter_mut().zip(enc.next_timestep()) {
///         *c += u32::from(s);
///     }
/// }
/// assert_eq!(counts, [10, 5]);
/// # Ok::<(), shenjing_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct RateEncoder {
    intensities: Vec<f64>,
    accumulators: Vec<f64>,
    /// Lines with a nonzero intensity, ascending — the only ones that
    /// can ever spike, so [`next_spikes`](RateEncoder::next_spikes)
    /// walks just these.
    driven: Vec<u32>,
}

impl RateEncoder {
    /// Creates an encoder over the flattened input tensor. Intensities are
    /// clamped into `[0, 1]`, and a NaN reads as 0: a line it feeds is
    /// never driven.
    pub fn new(input: &Tensor) -> RateEncoder {
        let intensities: Vec<f64> = input.data().iter().copied().map(intensity).collect();
        let accumulators = vec![0.0; intensities.len()];
        let driven = (0..intensities.len() as u32).filter(|&i| intensities[i as usize] != 0.0);
        RateEncoder { driven: driven.collect(), intensities, accumulators }
    }

    /// Number of input lines.
    pub fn len(&self) -> usize {
        self.intensities.len()
    }

    /// Whether the encoder drives no lines.
    pub fn is_empty(&self) -> bool {
        self.intensities.is_empty()
    }

    /// Produces the spike vector for the next timestep.
    pub fn next_timestep(&mut self) -> Vec<bool> {
        self.accumulators.iter_mut().zip(&self.intensities).map(|(acc, p)| step(acc, *p)).collect()
    }

    /// Advances one timestep like
    /// [`next_timestep`](RateEncoder::next_timestep), but writes the
    /// ascending indices of the lines that spike into `fired` (cleared
    /// first) — no allocation per step, and undriven lines are never
    /// visited (a zero intensity never reaches the threshold). The
    /// spike train is bit-identical.
    pub fn next_spikes(&mut self, fired: &mut Vec<u32>) {
        fired.clear();
        for &line in &self.driven {
            if step(&mut self.accumulators[line as usize], self.intensities[line as usize]) {
                fired.push(line);
            }
        }
    }

    /// Restarts the accumulators (new frame of the same image).
    pub fn reset(&mut self) {
        self.accumulators.iter_mut().for_each(|a| *a = 0.0);
    }

    /// Precomputes the whole train: `trains[t][i]` is line `i` at step `t`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `timesteps` is zero.
    pub fn train(&mut self, timesteps: u32) -> Result<Vec<Vec<bool>>> {
        if timesteps == 0 {
            return Err(Error::config("spike train length must be positive"));
        }
        self.reset();
        Ok((0..timesteps).map(|_| self.next_timestep()).collect())
    }
}

/// One line's unit-threshold integrate-and-fire step.
#[inline]
fn step(acc: &mut f64, intensity: f64) -> bool {
    *acc += intensity;
    // Tiny epsilon so p = 1.0 fires every step despite float rounding.
    if *acc >= 1.0 - 1e-9 {
        *acc -= 1.0;
        true
    } else {
        false
    }
}

/// A pixel value as a spike probability: clamped into `[0, 1]`, with NaN
/// (which `clamp` passes through) read as 0.
fn intensity(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(v: Vec<f64>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(vec![n], v).unwrap()
    }

    #[test]
    fn rates_match_intensity() {
        let mut enc = RateEncoder::new(&tensor(vec![0.0, 0.25, 0.5, 0.75, 1.0]));
        let t = 40;
        let train = enc.train(t).unwrap();
        let counts: Vec<u32> =
            (0..5).map(|i| train.iter().filter(|step| step[i]).count() as u32).collect();
        assert_eq!(counts, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn next_spikes_lists_exactly_the_lines_next_timestep_fires() {
        let input = tensor(vec![0.0, 0.3, 1.0, -2.0, 0.55, f64::NAN, 0.999_999_999_9]);
        let mut dense = RateEncoder::new(&input);
        let mut listed = RateEncoder::new(&input);
        let mut fired = vec![99]; // stale content must be cleared
        for _ in 0..50 {
            let want: Vec<u32> =
                (0u32..).zip(dense.next_timestep()).filter(|s| s.1).map(|s| s.0).collect();
            listed.next_spikes(&mut fired);
            assert_eq!(fired, want);
        }
    }

    #[test]
    fn spikes_are_evenly_spread() {
        let mut enc = RateEncoder::new(&tensor(vec![0.5]));
        let train = enc.train(8).unwrap();
        let pattern: Vec<bool> = train.iter().map(|s| s[0]).collect();
        // Every other step, not 4 consecutive spikes then silence.
        assert_eq!(pattern, vec![false, true, false, true, false, true, false, true]);
    }

    #[test]
    fn out_of_range_values_clamped() {
        let mut enc = RateEncoder::new(&tensor(vec![-0.5, 2.0]));
        let train = enc.train(4).unwrap();
        let c0 = train.iter().filter(|s| s[0]).count();
        let c1 = train.iter().filter(|s| s[1]).count();
        assert_eq!(c0, 0);
        assert_eq!(c1, 4);
    }

    #[test]
    fn nan_reads_as_zero_and_drives_no_line() {
        let nan = tensor(vec![f64::NAN, 0.5, f64::NAN]);
        let mut enc = RateEncoder::new(&nan);
        assert_eq!(enc.driven, [1], "a NaN line is never walked");
        let dark = enc.train(8).unwrap();
        assert_eq!(dark, RateEncoder::new(&tensor(vec![0.0, 0.5, 0.0])).train(8).unwrap());
    }

    #[test]
    fn reset_restarts_deterministically() {
        let mut enc = RateEncoder::new(&tensor(vec![0.3, 0.7]));
        let a = enc.train(10).unwrap();
        let b = enc.train(10).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_timesteps_rejected() {
        let mut enc = RateEncoder::new(&tensor(vec![0.5]));
        assert!(enc.train(0).is_err());
    }

    #[test]
    fn len_and_empty() {
        let enc = RateEncoder::new(&tensor(vec![0.1; 7]));
        assert_eq!(enc.len(), 7);
        assert!(!enc.is_empty());
    }
}
