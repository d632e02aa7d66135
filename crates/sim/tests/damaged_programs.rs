//! Property: hostile programs never panic, the static occupancy verdict
//! is the oracle's, and a program that passes it runs exactly.
//!
//! Each case damages a compiled tiny-arch MLP or small-arch CNN program
//! the way a stuck or flipped configuration word would: an op dropped,
//! duplicated, shifted by one to three cycles, or a random op inserted
//! anywhere on the mesh. Then:
//!
//! * decoding, verifying, instantiating and running never panic;
//! * the verdict on the identity schedule equals the verdict on the
//!   compacted one, and both equal the oracle's first error on a silent
//!   frame — variant, reason and source cycle — or all are `Ok`;
//! * a replica refuses exactly the programs the verdict refuses, with
//!   that error;
//! * every program the verdict accepts is exact under
//!   [`verify_lanes`] on loud frames, on both schedules.
//!
//! At least a fifth of the cases must pass the verdict, so the last
//! implication is not vacuous.

use std::sync::Arc;

use proptest::{Strategy, TestRng};
use shenjing_core::{ArchSpec, CoreCoord, Direction, W5};
use shenjing_hw::{
    AtomicOp, ConfigMemory, NeuronCoreOp, PlaneSet, PsDst, PsRouterOp, PsSendSource, SpikeRouterOp,
};
use shenjing_mapper::{CompiledProgram, Mapper, Mapping};
use shenjing_nn::{LayerSpec, Tensor};
use shenjing_sim::{verify_lanes, BatchSim, DecodedProgram, OracleSim};
use shenjing_snn::{snn_from_specs, SnnLayer, SnnNetwork, SpikingDense};

const CASES: usize = 256;
const TIMESTEPS: u32 = 3;
const LANES: usize = 3;

/// A compiled program to damage, and the shape of its frames.
struct Base {
    arch: ArchSpec,
    mapping: Mapping,
    shape: Vec<usize>,
}

fn bases() -> [Base; 2] {
    let arch = ArchSpec::tiny();
    let dense = |n_in: usize, n_out: usize, theta| {
        let weights = (0..n_in * n_out).map(|i| W5::new((i * 7 % 31) as i32 - 15).unwrap());
        SnnLayer::Dense(SpikingDense::new(weights.collect(), n_in, n_out, theta, 1.0).unwrap())
    };
    let mlp = SnnNetwork::new(vec![dense(40, 12, 6), dense(12, 4, 5)]).unwrap();
    let mlp = Base { mapping: Mapper::new(arch.clone()).map(&mlp).unwrap(), arch, shape: vec![40] };

    let arch = ArchSpec {
        core_inputs: 64,
        core_neurons: 64,
        chip_rows: 8,
        chip_cols: 8,
        ..ArchSpec::paper()
    };
    let specs = [
        LayerSpec::conv2d(3, 1, 2),
        LayerSpec::relu(),
        LayerSpec::avg_pool(2),
        LayerSpec::dense(2 * 3 * 3, 3),
    ];
    let cnn = snn_from_specs(&specs, (6, 6, 1), 7).unwrap();
    let cnn =
        Base { mapping: Mapper::new(arch.clone()).map(&cnn).unwrap(), arch, shape: vec![6, 6, 1] };
    [mlp, cnn]
}

fn draw<S: Strategy>(rng: &mut TestRng, strategy: S) -> S::Value {
    strategy.sample(rng)
}

fn direction(rng: &mut TestRng) -> Direction {
    Direction::decode(draw(rng, 0u8..4)).unwrap()
}

/// Every plane, a contiguous run, or a few scattered planes — some past
/// the core's last plane.
fn planes(rng: &mut TestRng, total: u16) -> PlaneSet {
    match draw(rng, 0u8..4) {
        0 => PlaneSet::all(),
        1 => {
            let start = draw(rng, 0..total);
            PlaneSet::from_range(start..(start + draw(rng, 1u16..=total)).min(total + 4))
        }
        _ => PlaneSet::from_indices((0..draw(rng, 1usize..=3)).map(|_| draw(rng, 0..total + 4))),
    }
}

fn random_op(rng: &mut TestRng, total: u16) -> AtomicOp {
    let planes = planes(rng, total);
    let ps_dst = |rng: &mut TestRng| {
        if draw(rng, 0u8..5) == 0 {
            PsDst::SpikingLogic
        } else {
            PsDst::Port(direction(rng))
        }
    };
    match draw(rng, 0u8..10) {
        0 => AtomicOp::Core(NeuronCoreOp::Acc { banks: draw(rng, 0u8..32) }),
        1 => AtomicOp::Core(NeuronCoreOp::LdWt { banks: draw(rng, 0u8..16) }),
        2 => AtomicOp::Ps(PsRouterOp::Sum {
            src: direction(rng),
            consec: draw(rng, proptest::any::<bool>()),
            planes,
        }),
        3 => {
            let source = if draw(rng, proptest::any::<bool>()) {
                PsSendSource::SumBuf
            } else {
                PsSendSource::LocalPs
            };
            AtomicOp::Ps(PsRouterOp::Send { source, dst: ps_dst(rng), planes })
        }
        4 => AtomicOp::Ps(PsRouterOp::Bypass { src: direction(rng), dst: ps_dst(rng), planes }),
        // Integrating the local sums is the one read whose result depends
        // on what the frame before left, so it gets a double share.
        5 | 6 => AtomicOp::Spike(SpikeRouterOp::Spike { from_ps_router: false, planes }),
        7 => AtomicOp::Spike(SpikeRouterOp::Spike { from_ps_router: true, planes }),
        8 => AtomicOp::Spike(SpikeRouterOp::Send { dst: direction(rng), planes }),
        _ => AtomicOp::Spike(SpikeRouterOp::Bypass {
            src: direction(rng),
            dst: draw(rng, proptest::any::<bool>()).then(|| direction(rng)),
            deliver: draw(rng, proptest::any::<bool>()),
            planes,
        }),
    }
}

/// `program` with one op dropped, duplicated, shifted or inserted.
fn damage(rng: &mut TestRng, arch: &ArchSpec, program: &CompiledProgram) -> CompiledProgram {
    let mut ops: Vec<(CoreCoord, u64, AtomicOp)> = program
        .config
        .iter()
        .flat_map(|(coord, prog)| prog.iter().map(move |(cycle, op)| (coord, cycle, op.clone())))
        .collect();
    let at = draw(rng, 0..ops.len());
    match draw(rng, 0u8..4) {
        0 => {
            ops.remove(at);
        }
        1 => ops.insert(at + 1, ops[at].clone()),
        2 => {
            let by = draw(rng, 1u64..=3);
            let cycle = &mut ops[at].1;
            *cycle = if draw(rng, proptest::any::<bool>()) {
                *cycle + by
            } else {
                cycle.saturating_sub(by)
            };
        }
        _ => {
            // Mostly just ahead of an existing op, on its tile and in its
            // cycle — where a new op reads what the program has not yet
            // written; otherwise anywhere on the mesh, at any cycle.
            let (coord, cycle) = if draw(rng, 0u8..4) == 0 {
                let coord = CoreCoord::new(
                    draw(rng, 0..program.mesh_rows),
                    draw(rng, 0..program.mesh_cols),
                );
                (coord, draw(rng, 0..program.block_cycles))
            } else {
                (ops[at].0, ops[at].1)
            };
            ops.insert(at, (coord, cycle, random_op(rng, arch.core_neurons)));
        }
    }
    let mut config = ConfigMemory::new();
    for (coord, cycle, op) in ops {
        config.program_mut(coord).push(cycle, op);
    }
    CompiledProgram { config, ..program.clone() }
}

fn loud_frames(rng: &mut TestRng, shape: &[usize]) -> Vec<Tensor> {
    let len: usize = shape.iter().product();
    (0..LANES)
        .map(|_| {
            let vals = (0..len).map(|_| draw(rng, 0.5f64..1.0)).collect();
            Tensor::from_vec(shape.to_vec(), vals).unwrap()
        })
        .collect()
}

#[test]
fn damaged_programs_get_the_oracles_verdict_and_verified_ones_run_exactly() {
    let bases = bases();
    let mut rng = TestRng::from_name("damaged_programs");
    let (mut decoded, mut passed) = (0usize, 0usize);
    for case in 0..CASES {
        let Base { arch, mapping, shape } = &bases[case % bases.len()];
        let damaged = damage(&mut rng, arch, &mapping.program);
        let Ok(identity) = DecodedProgram::decode(arch, &mapping.logical, &damaged) else {
            continue;
        };
        decoded += 1;
        let compacted = Arc::new(identity.clone().optimize());
        let identity = Arc::new(identity);
        let verdict = identity.verify();
        assert_eq!(compacted.verify(), verdict, "case {case}: the schedules disagree");

        let silent = Tensor::zeros(shape.clone());
        let mut oracle = OracleSim::from_decoded(Arc::clone(&identity)).unwrap();
        let on_silence = oracle.run_frame(&silent, TIMESTEPS).map(|_| ()).map_err(|f| f.error);
        assert_eq!(verdict, on_silence, "case {case}: the verdict is not the oracle's");

        let frames = loud_frames(&mut rng, shape);
        for program in [identity, compacted] {
            if let Err(e) = &verdict {
                let refused = BatchSim::from_decoded(Arc::clone(&program), LANES).unwrap_err();
                assert_eq!(&refused, e, "case {case}: a replica must refuse with the verdict");
                continue;
            }
            let report = verify_lanes(&program, &frames, TIMESTEPS, LANES).unwrap();
            assert!(
                report.is_exact(),
                "case {case} (optimized: {}): a verified program diverged: {report:?}",
                program.optimized()
            );
        }
        passed += usize::from(verdict.is_ok());
    }
    assert!(decoded * 10 >= CASES * 9, "only {decoded} of {CASES} damaged programs decoded");
    assert!(passed * 5 >= CASES, "only {passed} of {CASES} cases passed the verdict");
}
