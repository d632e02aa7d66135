//! Pins for the live-tile mesh: a replica instantiates only the tiles
//! its program names, and that must be architecturally invisible.
//!
//! [`DecodedProgram::decode`] builds the sparse mesh;
//! [`DecodedProgram::decode_all_live`] is the mesh with every tile
//! instantiated, as every replica was before. The two must agree on
//! outputs, on the state digest of every tile (an idle tile of the
//! all-live mesh must still be pristine), and on every error — on the
//! batched engine and on the oracle, which must also agree with each
//! other lane by lane.

use std::sync::Arc;

use shenjing_core::{ArchSpec, CoreCoord, Direction, Error, W5};
use shenjing_hw::{AtomicOp, PlaneSet, PsDst, PsRouterOp, PsSendSource, SpikeRouterOp};
use shenjing_mapper::{Mapper, Mapping};
use shenjing_nn::{LayerSpec, NetworkKind, Tensor};
use shenjing_sim::{
    digest_batch_chip, digest_batch_lane, digest_chip, BatchSim, CycleSim, DecodedProgram,
    OracleSim, StateDigest,
};
use shenjing_snn::{snn_from_specs, SnnLayer, SnnNetwork, SpikingDense};

fn batched(program: &Arc<DecodedProgram>, batch: usize) -> BatchSim {
    BatchSim::from_decoded(Arc::clone(program), batch).unwrap()
}

fn oracle(program: &Arc<DecodedProgram>) -> OracleSim {
    OracleSim::from_decoded(Arc::clone(program)).unwrap()
}

/// The sparse mesh and the all-live one of one mapping, `[sparse, all]`.
fn both_meshes(arch: &ArchSpec, mapping: &Mapping) -> [Arc<DecodedProgram>; 2] {
    let sparse = DecodedProgram::decode(arch, &mapping.logical, &mapping.program).unwrap();
    let all = DecodedProgram::decode_all_live(arch, &mapping.logical, &mapping.program).unwrap();
    let (rows, cols) = all.mesh_dims();
    assert_eq!(all.live_tiles().len(), rows as usize * cols as usize);
    assert!(sparse.live_tiles().len() <= all.live_tiles().len());
    [Arc::new(sparse), Arc::new(all)]
}

/// The all-live digest must equal the sparse one on the live tiles and
/// be pristine everywhere else.
fn assert_digests_agree(sparse: &StateDigest, all: &StateDigest, pristine: &StateDigest) {
    let pristine = &pristine.tiles[0];
    let mut live = sparse.tiles.iter().peekable();
    for tile in &all.tiles {
        if live.peek().is_some_and(|l| l.coord == tile.coord) {
            assert_eq!(live.next().unwrap(), tile, "live tile {} diverged", tile.coord);
        } else {
            let state = (tile.axons, tile.local_ps, tile.ps_router, tile.spike_router);
            let fresh =
                (pristine.axons, pristine.local_ps, pristine.ps_router, pristine.spike_router);
            assert_eq!(state, fresh, "idle tile {} holds state", tile.coord);
        }
    }
    assert!(live.next().is_none(), "a live tile is missing from the all-live mesh");
}

fn assert_meshes_agree(arch: &ArchSpec, mapping: &Mapping, frames: &[Tensor], timesteps: u32) {
    let [sparse, all] = both_meshes(arch, mapping);
    assert_pair_agrees(arch, &sparse, &all, frames, timesteps);
}

fn assert_pair_agrees(
    arch: &ArchSpec,
    sparse: &Arc<DecodedProgram>,
    all: &Arc<DecodedProgram>,
    frames: &[Tensor],
    timesteps: u32,
) {
    let fresh_tile = digest_chip(&shenjing_hw::Chip::new(arch, 1, 1).unwrap());
    let mut fresh_batch = shenjing_hw::BatchChip::new(arch, 1, 1, 3).unwrap();
    fresh_batch.set_occupied(2).unwrap();
    let fresh_batch_tile = digest_batch_chip(&fresh_batch);

    // Two frames on a 3-lane replica: the lane walks ride along.
    let (mut on_sparse, mut on_all) = (batched(sparse, 3), batched(all, 3));
    let outputs = on_sparse.run_batch(&frames[..2], timesteps).unwrap();
    assert_eq!(
        outputs,
        on_all.run_batch(&frames[..2], timesteps).unwrap(),
        "batched outputs diverged"
    );
    assert_digests_agree(
        &digest_batch_chip(on_sparse.chip()),
        &digest_batch_chip(on_all.chip()),
        &fresh_batch_tile,
    );

    // The oracle on both meshes, frame by frame — and each lane of the
    // pass above against the oracle's run of its frame.
    let (mut oracle_sparse, mut oracle_all) = (oracle(sparse), oracle(all));
    for (lane, frame) in frames.iter().enumerate() {
        let want = oracle_sparse.run_frame(frame, timesteps).unwrap();
        assert_eq!(want, oracle_all.run_frame(frame, timesteps).unwrap(), "oracle outputs");
        assert_digests_agree(
            &digest_chip(oracle_sparse.chip()),
            &digest_chip(oracle_all.chip()),
            &fresh_tile,
        );
        if lane < outputs.len() {
            assert_eq!(outputs[lane], want, "lane {lane} diverged from the oracle");
            for (sim, oracle) in [(&on_sparse, &oracle_sparse), (&on_all, &oracle_all)] {
                assert_eq!(digest_batch_lane(sim.chip(), lane), digest_chip(oracle.chip()));
            }
        }
    }
}

fn patterned_frames(shape: &[usize], count: usize) -> Vec<Tensor> {
    let len: usize = shape.iter().product();
    (0..count)
        .map(|k| {
            let vals = (0..len).map(|i| ((i * 5 + k * 37) % 11) as f64 / 11.0).collect();
            Tensor::from_vec(shape.to_vec(), vals).unwrap()
        })
        .collect()
}

#[test]
fn paper_mlp_agrees_on_sparse_and_all_live_meshes() {
    let arch = ArchSpec::paper();
    let snn = snn_from_specs(&NetworkKind::MnistMlp.specs(), (28, 28, 1), 7).unwrap();
    let mapping = Mapper::new(arch.clone()).map(&snn).unwrap();
    assert_meshes_agree(&arch, &mapping, &patterned_frames(&[28, 28, 1], 2), 3);
}

fn multi_chip_cnn() -> (ArchSpec, Mapping) {
    let arch = ArchSpec {
        core_inputs: 64,
        core_neurons: 64,
        chip_rows: 3,
        chip_cols: 3,
        ..ArchSpec::paper()
    };
    let specs = [
        LayerSpec::conv2d(3, 1, 4),
        LayerSpec::relu(),
        LayerSpec::avg_pool(2),
        LayerSpec::dense(4 * 4 * 4, 5),
    ];
    let snn = snn_from_specs(&specs, (8, 8, 1), 7).unwrap();
    let mapping = Mapper::new(arch.clone()).map(&snn).unwrap();
    assert!(mapping.placement.chips > 1, "the pin needs a multi-chip placement");
    (arch, mapping)
}

#[test]
fn multi_chip_cnn_agrees_on_sparse_and_all_live_meshes() {
    let (arch, mapping) = multi_chip_cnn();
    assert_meshes_agree(&arch, &mapping, &patterned_frames(&[8, 8, 1], 3), 6);
}

fn dense_layer(weights: &[i32], n_in: usize, n_out: usize, theta: i32) -> SnnLayer {
    let ws: Vec<W5> = weights[..n_in * n_out].iter().map(|&v| W5::new(v).unwrap()).collect();
    SnnLayer::Dense(SpikingDense::new(ws, n_in, n_out, theta, 1.0).unwrap())
}

/// An 8 → 4 dense layer on one tile of a 4 × 4 tiny-arch mesh, leaving
/// the rest of the mesh idle — room for a misbehaving schedule.
fn small_mapping() -> (ArchSpec, Mapping) {
    let arch = ArchSpec::tiny();
    let weights: Vec<i32> = (0..8 * 4).map(|i| (i % 31) - 15).collect();
    let snn = SnnNetwork::new(vec![dense_layer(&weights, 8, 4, 5)]).unwrap();
    let mapping = Mapper::new(arch.clone()).map(&snn).unwrap();
    assert_eq!((mapping.program.mesh_rows, mapping.program.mesh_cols), (4, 4));
    (arch, mapping)
}

/// On both meshes, the oracle's error running one frame
/// and the static verdict that refuses the program — as is, and as the
/// two-lane replica and the single-frame front refuse it: the one error
/// they must all report.
fn the_error(arch: &ArchSpec, mapping: &Mapping) -> Error {
    let frame = Tensor::from_vec(vec![8], vec![0.7; 8]).unwrap();
    let mut errors = Vec::new();
    for program in both_meshes(arch, mapping) {
        errors.push(oracle(&program).run_frame(&frame, 3).unwrap_err().error);
        errors.push(program.verify().unwrap_err());
        errors.push(CycleSim::from_decoded(Arc::clone(&program)).unwrap_err());
        errors.push(BatchSim::from_decoded(Arc::clone(&program), 2).unwrap_err());
    }
    assert!(errors.windows(2).all(|pair| pair[0] == pair[1]), "errors diverged: {errors:#?}");
    errors.remove(0)
}

#[test]
fn data_off_the_mesh_edge_is_the_same_error_on_both_meshes() {
    let (arch, mut mapping) = small_mapping();
    let corner = CoreCoord::new(3, 3);
    assert!(mapping.program.core_at.iter().all(|(c, _)| *c != corner));
    let cycle = mapping.program.block_cycles - 1;
    mapping.program.config.program_mut(corner).push(
        cycle,
        AtomicOp::Spike(SpikeRouterOp::Send {
            dst: Direction::East,
            planes: PlaneSet::from_indices([1u16]),
        }),
    );
    match the_error(&arch, &mapping) {
        Error::InvalidSchedule { cycle: at, reason } => {
            assert_eq!(at, cycle);
            assert!(reason.contains("off the mesh edge"), "{reason}");
        }
        other => panic!("expected an off-mesh schedule error, got {other}"),
    }
}

#[test]
fn data_into_an_idle_neighbour_is_the_same_error_on_both_meshes() {
    // (3,3) sends west twice in one timestep; nothing at (3,2) ever
    // consumes, so the second arrival finds the register occupied. The
    // sparse mesh must keep (3,2) live for that to happen identically.
    let (arch, mut mapping) = small_mapping();
    let (sender, neighbour) = (CoreCoord::new(3, 3), CoreCoord::new(3, 2));
    assert!(mapping.program.core_at.iter().all(|(c, _)| *c != sender && *c != neighbour));
    let send = AtomicOp::Ps(PsRouterOp::Send {
        source: PsSendSource::LocalPs,
        dst: PsDst::Port(Direction::West),
        planes: PlaneSet::from_indices([2u16]),
    });
    let second = mapping.program.block_cycles - 1;
    mapping.program.config.program_mut(sender).push(second - 7, send.clone());
    mapping.program.config.program_mut(sender).push(second, send);

    let sparse = DecodedProgram::decode(&arch, &mapping.logical, &mapping.program).unwrap();
    assert!(sparse.live_tiles().slot(neighbour).is_some(), "a port destination is live");
    assert!(sparse.live_tiles().len() < 16);
    match the_error(&arch, &mapping) {
        Error::InvalidSchedule { cycle, reason } => {
            assert_eq!(cycle, second);
            assert!(reason.contains("contention"), "{reason}");
        }
        other => panic!("expected an input-register contention error, got {other}"),
    }
}

/// Every register is taken before any is put: when an earlier port's
/// second send would find its neighbour's input still full *and* a later
/// port drives off the mesh edge in the same cycle, the batched engine
/// and the oracle on both meshes report the edge — and, without the
/// stray port, the contention.
#[test]
fn an_off_edge_port_is_reported_before_an_earlier_ports_contention() {
    let (arch, mapping) = small_mapping();
    let (sender, stray) = (CoreCoord::new(2, 1), CoreCoord::new(3, 3));
    let free = |c: CoreCoord| mapping.program.core_at.iter().all(|(at, _)| *at != c);
    assert!(free(sender) && free(CoreCoord::new(2, 2)) && free(stray));
    let east = AtomicOp::Ps(PsRouterOp::Send {
        source: PsSendSource::LocalPs,
        dst: PsDst::Port(Direction::East),
        planes: PlaneSet::from_indices([2u16, 9]),
    });
    let second = mapping.program.block_cycles - 1;
    let planted = |with_stray: bool| {
        let mut mapping = mapping.clone();
        mapping.program.config.program_mut(sender).push(second - 5, east.clone());
        mapping.program.config.program_mut(sender).push(second, east.clone());
        if with_stray {
            mapping.program.config.program_mut(stray).push(second, east.clone());
        }
        mapping
    };
    match the_error(&arch, &planted(true)) {
        Error::InvalidSchedule { cycle, reason } => {
            assert_eq!(cycle, second);
            assert!(reason.contains("ps data driven off the mesh edge at (3,3)"), "{reason}");
        }
        other => panic!("expected the off-edge verdict, got {other}"),
    }
    match the_error(&arch, &planted(false)) {
        Error::InvalidSchedule { cycle, reason } => {
            assert_eq!(cycle, second);
            assert!(reason.contains("ps input register contention at port W, plane 2"), "{reason}");
        }
        other => panic!("expected input contention, got {other}"),
    }
}

/// ACC overflow on *two* tiles in one cycle: 300 maximal-weight inputs
/// into two 16-neuron output tiles on 512-input cores. On both meshes
/// the program check refuses with the first tile's
/// bound, 300 × 15, the oracle's saturated frame overflows the same
/// accumulator width, and neither engine builds a replica.
#[test]
fn overflow_on_two_tiles_is_the_same_error_on_both_engines() {
    let arch = ArchSpec {
        core_inputs: 512,
        core_neurons: 16,
        chip_rows: 4,
        chip_cols: 4,
        ..ArchSpec::tiny()
    };
    let weights = vec![15; 300 * 18];
    let snn = SnnNetwork::new(vec![dense_layer(&weights, 300, 18, 10)]).unwrap();
    let mapping = Mapper::new(arch.clone()).map(&snn).unwrap();
    let input = Tensor::from_vec(vec![300], vec![1.0; 300]).unwrap();
    let refusal = Error::SumOverflow { value: 300 * 15, bits: 13 };
    for program in both_meshes(&arch, &mapping) {
        assert_eq!(program.verify(), Err(refusal.clone()));
        let witnessed = oracle(&program).run_frame(&input, 4).unwrap_err().error;
        assert_eq!(witnessed, Error::SumOverflow { value: 274 * 15, bits: 13 });
        assert_eq!(BatchSim::from_decoded(Arc::clone(&program), 2).unwrap_err(), refusal);
        assert_eq!(CycleSim::from_decoded(Arc::clone(&program)).unwrap_err(), refusal);
    }
}

/// A full pass parks every lane's sums and spikes in the router
/// registers; the lanes that then leave the prefix are scrubbed only where
/// state can be read back. Frames served next on 4 lanes and on one lane
/// must come out as on the oracle, and leave the digests a fresh replica
/// has.
#[test]
fn lanes_parked_by_a_full_pass_never_surface_on_holed_or_top_lane_sets() {
    let (arch, mapping) = multi_chip_cnn();
    let program =
        Arc::new(DecodedProgram::decode(&arch, &mapping.logical, &mapping.program).unwrap());
    const LANES: usize = 16;
    let frames = patterned_frames(&[8, 8, 1], LANES + 4);
    let mut oracle = oracle(&program);
    for k in [4, 1] {
        let mut parked = batched(&program, LANES);
        parked.run_batch(&frames[..LANES], 6).unwrap();
        let mut fresh = batched(&program, LANES);
        let inputs = &frames[LANES..LANES + k];
        let got = parked.run_batch(inputs, 6).unwrap();
        assert_eq!(got, fresh.run_batch(inputs, 6).unwrap(), "{k} lanes");
        assert_eq!(digest_batch_chip(parked.chip()), digest_batch_chip(fresh.chip()));
        for (lane, (input, out)) in inputs.iter().zip(&got).enumerate() {
            assert_eq!(*out, oracle.run_frame(input, 6).unwrap());
            assert_eq!(digest_batch_lane(parked.chip(), lane), digest_chip(oracle.chip()));
        }
    }
}

/// 1 000 passes of random occupancy — growing, shrinking, single lanes,
/// drains to zero between passes — must leave a replica
/// indistinguishable from a fresh one: same outputs for the next batch
/// and the same digest of every live tile.
#[test]
fn a_thousand_churned_passes_leave_a_replica_like_new() {
    let arch = ArchSpec::tiny();
    let l1: Vec<i32> = (0..40 * 12).map(|i| (i * 7 % 31) - 15).collect();
    let l2: Vec<i32> = (0..12 * 4).map(|i| (i * 5 % 31) - 15).collect();
    let snn =
        SnnNetwork::new(vec![dense_layer(&l1, 40, 12, 9), dense_layer(&l2, 12, 4, 6)]).unwrap();
    let mapping = Mapper::new(arch.clone()).map(&snn).unwrap();
    let program =
        Arc::new(DecodedProgram::decode(&arch, &mapping.logical, &mapping.program).unwrap());
    const LANES: usize = 6;
    let frames = patterned_frames(&[40], LANES);
    let mut churned = BatchSim::from_decoded(Arc::clone(&program), LANES).unwrap();

    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for pass in 0..1000 {
        let k = 1 + next() as usize % LANES;
        let offset = pass % LANES;
        let inputs: Vec<Tensor> = (0..k).map(|i| frames[(i + offset) % LANES].clone()).collect();
        churned.run_batch(&inputs, 2).unwrap();
        if next() % 3 == 0 {
            churned.set_occupied(0).unwrap();
        }
    }

    let mut fresh = BatchSim::from_decoded(program, LANES).unwrap();
    assert_eq!(
        churned.run_batch(&frames[..4], 5).unwrap(),
        fresh.run_batch(&frames[..4], 5).unwrap()
    );
    assert_eq!(digest_batch_chip(churned.chip()), digest_batch_chip(fresh.chip()));
}
