//! Long-lived replicas: what a replica serves must not depend on what it
//! served before, and what it stores follows its program.
//!
//! A serving replica runs pass after pass, its occupancy changing with
//! every batch. The lane-state soak drives one replica through thousands
//! of passes whose occupancy cycles through every `1..=16`, growing,
//! shrinking and draining between them, and requires every frame's output
//! and lane state digest to equal a fresh replica's run of that frame
//! alone — the check that catches a register remap, a lane scrub or a
//! frame reset leaking one frame's state into the next. The CIFAR
//! replicas are the memory side: the Table III conv nets instantiate at
//! 16 lanes in the register files their programs' footprints size.
//!
//! The ignored tests are slow in a debug build; run them with
//! `cargo test --release -p shenjing-sim --test replicas -- --ignored --nocapture`.

use std::sync::Arc;

use rand::{Rng, SeedableRng};
use shenjing_core::ArchSpec;
use shenjing_mapper::Mapper;
use shenjing_nn::{LayerSpec, Network, NetworkKind, Tensor};
use shenjing_sim::{digest_batch_lane, BatchSim, DecodedProgram, StateDigest};
use shenjing_snn::{convert, snn_from_specs, ConversionOptions, SnnNetwork, SnnOutput};

const LANES: usize = 16;
const TIMESTEPS: u32 = 6;

fn random_frames(n: usize, shape: &[usize], seed: u64) -> Vec<Tensor> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let len = shape.iter().product();
    let frame =
        |_| Tensor::from_vec(shape.to_vec(), (0..len).map(|_| rng.gen_range(0.0..1.0)).collect());
    (0..n).map(frame).collect::<Result<_, _>>().unwrap()
}

/// `snn` compiled for `arch` the way serving compiles it: decoded and
/// optimized.
fn program(arch: &ArchSpec, snn: &SnnNetwork) -> Arc<DecodedProgram> {
    let mapping = Mapper::new(arch.clone()).map(snn).unwrap();
    let decoded = DecodedProgram::decode(arch, &mapping.logical, &mapping.program).unwrap();
    Arc::new(decoded.optimize())
}

/// A converted MLP on the tiny architecture and a converted conv net
/// (convolution, pooling, dense) on 64 × 64 cores, each with a pool of
/// frames.
fn subjects() -> Vec<(Arc<DecodedProgram>, Vec<Tensor>)> {
    let converted = |specs: &[LayerSpec], shape: &[usize], seed| {
        let mut ann = Network::from_specs(specs, seed).unwrap();
        let calib = random_frames(6, shape, seed + 1);
        convert(&mut ann, &calib, &ConversionOptions::default()).unwrap()
    };
    let mlp = [LayerSpec::dense(40, 20), LayerSpec::relu(), LayerSpec::dense(20, 4)];
    let cnn = [
        LayerSpec::conv2d(3, 1, 2),
        LayerSpec::relu(),
        LayerSpec::avg_pool(2),
        LayerSpec::dense(2 * 3 * 3, 3),
    ];
    let small = ArchSpec {
        core_inputs: 64,
        core_neurons: 64,
        chip_rows: 8,
        chip_cols: 8,
        ..ArchSpec::paper()
    };
    vec![
        (program(&ArchSpec::tiny(), &converted(&mlp, &[40], 11)), random_frames(23, &[40], 13)),
        (program(&small, &converted(&cnn, &[6, 6, 1], 31)), random_frames(23, &[6, 6, 1], 33)),
    ]
}

/// One replica per subject through `passes` passes of mixed occupancy,
/// every frame checked against a fresh replica's run of it.
fn soak(passes: usize) {
    for (program, pool) in subjects() {
        let fresh: Vec<(SnnOutput, StateDigest)> = pool
            .iter()
            .map(|frame| {
                let mut sim = BatchSim::from_decoded(Arc::clone(&program), LANES).unwrap();
                let out = sim.run_batch(std::slice::from_ref(frame), TIMESTEPS).unwrap();
                (out[0].clone(), digest_batch_lane(0, sim.chip(), 0))
            })
            .collect();
        let counts = |f: usize| fresh[f].0.spike_counts.clone();
        assert!(fresh.iter().any(|(out, _)| out.spike_counts.iter().any(|&c| c > 0)));
        assert!((1..pool.len()).any(|f| counts(f) != counts(0)), "frames must differ");

        let mut sim = BatchSim::from_decoded(Arc::clone(&program), LANES).unwrap();
        let bytes = sim.chip().register_bytes();
        for pass in 0..passes {
            // 1, 8, 15, 6, 13, 4, …: every occupancy, growing and shrinking.
            let n = pass * 7 % LANES + 1;
            let picks: Vec<usize> = (0..n).map(|i| (pass * 5 + i * 3) % pool.len()).collect();
            let frames: Vec<Tensor> = picks.iter().map(|&f| pool[f].clone()).collect();
            sim.set_occupied(n).unwrap();
            let outputs = sim.run_occupied(&frames, TIMESTEPS).unwrap();
            for (lane, (&f, out)) in picks.iter().zip(&outputs).enumerate() {
                assert_eq!(*out, fresh[f].0, "pass {pass}, lane {lane}: frame {f}'s output");
                let state = digest_batch_lane(0, sim.chip(), lane);
                assert_eq!(state, fresh[f].1, "pass {pass}, lane {lane}: frame {f}'s state");
            }
            if pass % 3 == 2 {
                // A drained replica idles with no lane occupied.
                sim.set_occupied(0).unwrap();
            }
            assert_eq!(sim.chip().register_bytes(), bytes, "pass {pass}");
        }
    }
}

#[test]
fn a_replica_serves_two_thousand_mixed_passes_like_a_fresh_one() {
    soak(2_000);
}

#[test]
#[ignore = "ten thousand passes: run in release with --ignored"]
fn a_replica_serves_ten_thousand_mixed_passes_like_a_fresh_one() {
    soak(10_000);
}

/// This process's resident set, in MB, where the OS reports it.
fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
#[ignore = "maps the CIFAR nets (seconds in release): run with --ignored"]
fn cifar_replicas_store_their_footprint() {
    // Dense, every live tile would hold 10 PS files × 256 planes × 2 B,
    // 8 spike files × 256 × 1 B and 256 potentials (4 B) and spike
    // buffers (1 B) per lane.
    const DENSE_TILE_LANE_BYTES: usize = (10 * 2 + 8 + 4 + 1) * 256;
    let arch = ArchSpec::paper();
    for (kind, bound_mib) in [(NetworkKind::CifarCnn, 40), (NetworkKind::CifarResNet, 128)] {
        let snn = snn_from_specs(&kind.specs(), kind.input_shape(), 7).unwrap();
        let program = program(&arch, &snn);
        let (h, w, c) = kind.input_shape();
        let frames = random_frames(LANES, &[h, w, c], 5);
        let before = rss_mb();
        let mut replica = BatchSim::from_decoded(Arc::clone(&program), LANES).unwrap();
        assert_eq!(replica.run_batch(&frames, 1).unwrap().len(), LANES);
        let grown = rss_mb().zip(before).map(|(after, before)| after - before);

        let chip = replica.chip();
        let (tiles, bytes) = (chip.iter().count(), chip.register_bytes());
        let mib = |b: usize| b as f64 / f64::from(1 << 20);
        println!(
            "{kind:?} at {LANES} lanes: {tiles} live tiles, register files {:.1} MiB \
             (dense {:.1} MiB); RSS +{} MB for the replica and one pass, {} MB in all",
            mib(bytes),
            mib(tiles * DENSE_TILE_LANE_BYTES * LANES),
            grown.map_or("?".into(), |mb| format!("{mb:.1}")),
            rss_mb().map_or("?".into(), |mb| format!("{mb:.1}")),
        );
        assert!(bytes <= bound_mib << 20, "{kind:?}: {:.1} MiB of register files", mib(bytes));
    }
}
