//! Property: lane `i` of a batched pass is bit-identical to the oracle's
//! run of frame `i`.
//!
//! The batched engine's whole claim is that it only restructures *when*
//! and *how much* work happens, never *what* is computed: running `B`
//! frames through [`BatchSim`] must produce exactly the `SnnOutput`s that
//! `B` runs of the [`OracleSim`] — the scalar chip, one frame at a time,
//! every cycle of the raw block, every register probed — produce: every
//! spike of every timestep, every residual potential, the state of every
//! live tile afterwards. [`verify_lanes`] is that one statement; this
//! file drives it over random small networks, weights, inputs, timestep
//! counts and — crucially — the full activity-density × batch-width ×
//! occupancy grid (silent through saturating, widths including `B = 1`,
//! every occupancy `1..=B`, and shrinks after a full pass). The replica
//! walks the compacted schedule `decode` emits; the oracle walks the raw
//! one.

use std::sync::Arc;

use proptest::prelude::*;
use shenjing_core::{ArchSpec, Error, W5};
use shenjing_mapper::Mapper;
use shenjing_nn::Tensor;
use shenjing_sim::{
    digest_batch_lane, digest_chip, verify_lanes, BatchSim, DecodedProgram, OracleSim,
};
use shenjing_snn::{SnnLayer, SnnNetwork, SpikingDense};

/// Largest dimensions the strategies below draw (the weight/input pools
/// are sized for them).
const MAX_IN: usize = 40;
const MAX_OUT: usize = 8;
const MAX_BATCH: usize = 5;

fn dense_layer(weights: &[i32], n_in: usize, n_out: usize, theta: i32) -> SnnLayer {
    let ws: Vec<W5> = weights[..n_in * n_out].iter().map(|&v| W5::new(v).unwrap()).collect();
    SnnLayer::Dense(SpikingDense::new(ws, n_in, n_out, theta, 1.0).unwrap())
}

fn frames(pool: &[f64], n_in: usize, batch: usize) -> Vec<Tensor> {
    (0..batch)
        .map(|k| Tensor::from_vec(vec![n_in], pool[k * n_in..(k + 1) * n_in].to_vec()).unwrap())
        .collect()
}

/// `density`-scaled frames: the four regimes of the crossover grid.
fn scaled_frames(pool: &[f64], n_in: usize, count: usize, density: f64) -> Vec<Tensor> {
    (0..count)
        .map(|k| {
            let vals = pool[k * n_in..(k + 1) * n_in]
                .iter()
                .map(|v| if density >= 1.0 { 1.0 } else { (v * density).min(1.0) })
                .collect();
            Tensor::from_vec(vec![n_in], vals).unwrap()
        })
        .collect()
}

/// `snn` mapped on `arch` and decoded: the compacted schedule and the
/// trimmed, tile-ordered weight layout.
fn compiled(snn: &SnnNetwork, arch: &ArchSpec) -> Arc<DecodedProgram> {
    let mapping = Mapper::new(arch.clone()).map(snn).unwrap();
    Arc::new(DecodedProgram::decode(arch, &mapping.logical, &mapping.program).unwrap())
}

/// Asserts lanes ≡ oracle for `inputs` riding lanes `0..inputs.len()` of
/// a `cap`-lane replica.
fn assert_lanes_equal_oracle(
    snn: &SnnNetwork,
    arch: &ArchSpec,
    inputs: &[Tensor],
    timesteps: u32,
    cap: usize,
) {
    let report = verify_lanes(&compiled(snn, arch), inputs, timesteps, cap).unwrap();
    assert!(report.is_exact(), "{} of {cap} lanes diverged: {report:?}", inputs.len());
}

/// A full batch: frame `i` in lane `i` of an `inputs.len()`-lane replica.
fn assert_batched_equals_sequential(snn: &SnnNetwork, inputs: &[Tensor], timesteps: u32) {
    assert_lanes_equal_oracle(snn, &ArchSpec::tiny(), inputs, timesteps, inputs.len());
}

proptest! {
    #[test]
    fn batched_single_layer_matches_sequential(
        n_in in 2usize..=MAX_IN,
        n_out in 1usize..=MAX_OUT,
        theta in 1i32..=30,
        batch in 1usize..=MAX_BATCH,
        timesteps in 2u32..=8,
        weights in proptest::collection::vec(-15i32..=15, MAX_IN * MAX_OUT),
        pool in proptest::collection::vec(0.0f64..1.0, MAX_BATCH * MAX_IN),
    ) {
        let snn = SnnNetwork::new(vec![dense_layer(&weights, n_in, n_out, theta)]).unwrap();
        let inputs = frames(&pool, n_in, batch);
        assert_batched_equals_sequential(&snn, &inputs, timesteps);
    }

    #[test]
    fn batched_two_layer_matches_sequential(
        n_in in 2usize..=20,
        n_mid in 1usize..=MAX_OUT,
        n_out in 1usize..=4,
        theta in 2i32..=20,
        batch in 2usize..=MAX_BATCH,
        timesteps in 2u32..=6,
        weights in proptest::collection::vec(-15i32..=15, 20 * MAX_OUT + MAX_OUT * 4),
        pool in proptest::collection::vec(0.0f64..1.0, MAX_BATCH * 20),
    ) {
        // Two chained layers exercise the spike NoC between layers on top
        // of the PS folds inside each.
        let l1 = dense_layer(&weights, n_in, n_mid, theta);
        let l2 = dense_layer(&weights[20 * MAX_OUT..], n_mid, n_out, theta);
        let snn = SnnNetwork::new(vec![l1, l2]).unwrap();
        let inputs = frames(&pool, n_in, batch);
        assert_batched_equals_sequential(&snn, &inputs, timesteps);
    }

    /// The crossover grid: activity density swept from silent (≈0%)
    /// through MNIST-like (~6%) and half-active (~50%) to saturating
    /// (100%), crossed with batch widths *including `B = 1`*. Every
    /// (density, width) cell must agree with the oracle lane by lane.
    #[test]
    fn batched_matches_sequential_across_density_and_width(
        n_in in 4usize..=MAX_IN,
        n_out in 1usize..=MAX_OUT,
        theta in 1i32..=30,
        batch in 1usize..=MAX_BATCH,
        timesteps in 2u32..=6,
        density_step in 0usize..4,
        jitter in 0.0f64..0.05,
        weights in proptest::collection::vec(-15i32..=15, MAX_IN * MAX_OUT),
        pool in proptest::collection::vec(0.0f64..1.0, MAX_BATCH * MAX_IN),
    ) {
        // The four regimes from the ROADMAP perf table; jitter keeps the
        // grid from degenerating into four exact constants.
        let density = [0.0, 0.06, 0.5, 1.0][density_step] + jitter;
        let snn = SnnNetwork::new(vec![dense_layer(&weights, n_in, n_out, theta)]).unwrap();
        let inputs = scaled_frames(&pool, n_in, batch, density);
        assert_batched_equals_sequential(&snn, &inputs, timesteps);
    }

    /// The lane-occupancy grid: a `cap`-lane simulator serving any
    /// `1..=cap` frames on the prefix of its lanes, crossed with the
    /// activity-density sweep. Every (occupancy, density) cell must agree
    /// with the oracle per frame: outputs and the lane's own state
    /// digest.
    #[test]
    fn batched_matches_sequential_across_occupancy_patterns(
        n_in in 4usize..=MAX_IN,
        n_out in 1usize..=MAX_OUT,
        theta in 1i32..=30,
        cap in 1usize..=MAX_BATCH,
        occupancy in 0usize..MAX_BATCH,
        timesteps in 2u32..=6,
        density_step in 0usize..4,
        jitter in 0.0f64..0.05,
        weights in proptest::collection::vec(-15i32..=15, MAX_IN * MAX_OUT),
        pool in proptest::collection::vec(0.0f64..1.0, MAX_BATCH * MAX_IN),
    ) {
        let density = [0.0, 0.06, 0.5, 1.0][density_step] + jitter;
        let snn = SnnNetwork::new(vec![dense_layer(&weights, n_in, n_out, theta)]).unwrap();
        let inputs = scaled_frames(&pool, n_in, 1 + occupancy % cap, density);
        assert_lanes_equal_oracle(&snn, &ArchSpec::tiny(), &inputs, timesteps, cap);
    }

    /// Drain-then-refill: a full pass, then a pass on `k < cap` lanes —
    /// the finished frames' lanes leave the prefix. The second pass must
    /// be bit-exact against the oracle, outputs and per-lane state — i.e.
    /// the `O(active state)` shrink scrub leaves no residue behind and
    /// the stale lanes past the prefix leak into nothing.
    #[test]
    fn drained_lanes_leave_no_residue(
        n_in in 2usize..=20,
        n_mid in 1usize..=MAX_OUT,
        n_out in 1usize..=4,
        theta in 2i32..=20,
        cap in 2usize..=MAX_BATCH,
        survivors in 0usize..MAX_BATCH,
        timesteps in 2u32..=6,
        weights in proptest::collection::vec(-15i32..=15, 20 * MAX_OUT + MAX_OUT * 4),
        pool in proptest::collection::vec(0.0f64..1.0, 2 * MAX_BATCH * 20),
    ) {
        let k = 1 + survivors % (cap - 1);
        let l1 = dense_layer(&weights, n_in, n_mid, theta);
        let l2 = dense_layer(&weights[20 * MAX_OUT..], n_mid, n_out, theta);
        let snn = SnnNetwork::new(vec![l1, l2]).unwrap();
        let program = compiled(&snn, &ArchSpec::tiny());
        let mut oracle = OracleSim::from_decoded(Arc::clone(&program)).unwrap();
        let mut batched = BatchSim::from_decoded(Arc::clone(&program), cap).unwrap();

        let first = frames(&pool, n_in, cap);
        let got = batched.run_batch(&first, timesteps).unwrap();
        for (input, out) in first.iter().zip(&got) {
            prop_assert_eq!(out, &oracle.run_frame(input, timesteps).unwrap());
        }

        let second = frames(&pool[MAX_BATCH * 20..], n_in, k);
        let got = batched.run_batch(&second, timesteps).unwrap();
        for (lane, (input, out)) in second.iter().zip(&got).enumerate() {
            let want = oracle.run_frame(input, timesteps).unwrap();
            prop_assert_eq!(out, &want, "lane {} of {} diverged after a full pass", lane, k);
            prop_assert_eq!(
                digest_batch_lane(0, batched.chip(), lane),
                digest_chip(0, oracle.chip()),
                "lane {} of {} kept residue",
                lane,
                k
            );
        }
    }

    /// Maximal positive weights on an oversized custom core: the program
    /// check refuses exactly the cores whose column sums can leave the
    /// 13-bit accumulator, with the variant and width the oracle raises
    /// on the all-ones witness frame, and no replica is built; an
    /// accepted core runs lane-exact with the witness, hot frames and a
    /// cold one riding together.
    #[test]
    fn batched_oversized_core_overflow_matches_reference(
        n_in in 260usize..=320,
        theta in 1i32..=30,
        batch in 1usize..=3usize,
        timesteps in 1u32..=3,
        density in 0.8f64..1.0,
        magnitude in 12i32..=15,
        cold_lane in 0usize..4,
    ) {
        let arch = ArchSpec {
            core_inputs: 512,
            core_neurons: 16,
            chip_rows: 4,
            chip_cols: 4,
            ..ArchSpec::tiny()
        };
        let weights = vec![magnitude; n_in * 2];
        let snn = SnnNetwork::new(vec![dense_layer(&weights, n_in, 2, theta)]).unwrap();
        let level = |lane| match lane {
            0 => 1.0,
            _ if lane == cold_lane => 0.05,
            _ => density,
        };
        let inputs: Vec<Tensor> = (0..batch)
            .map(|lane| Tensor::from_vec(vec![n_in], vec![level(lane); n_in]).unwrap())
            .collect();
        if n_in as i32 * magnitude <= 4095 {
            assert_lanes_equal_oracle(&snn, &arch, &inputs, timesteps, batch);
            continue;
        }
        let program = compiled(&snn, &arch);
        let refusal = program.verify().unwrap_err();
        let width = |e: &Error| matches!(e, Error::SumOverflow { bits: 13, .. });
        prop_assert!(width(&refusal), "{refusal:?}");
        let mut oracle = OracleSim::from_decoded(Arc::clone(&program)).unwrap();
        let witnessed = oracle.run_frame(&inputs[0], timesteps).unwrap_err().error;
        prop_assert!(width(&witnessed), "{witnessed:?}");
        let refused = BatchSim::from_decoded(Arc::clone(&program), batch).unwrap_err();
        prop_assert_eq!(refused, refusal);
    }
}
