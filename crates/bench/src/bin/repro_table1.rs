//! Table I — mapping of atomic operations to hardware control signals,
//! regenerated from the encoder and verified to round-trip.

use shenjing::core::Direction;
use shenjing::hw::{
    AtomicOp, ControlWord, NeuronCoreOp, NeuronCoreSignals, PlaneSet, PsDst, PsRouterOp,
    PsRouterSignals, PsSendSource, SpikeRouterOp, SpikeRouterSignals,
};

fn bit(b: bool) -> char {
    if b {
        '1'
    } else {
        '0'
    }
}

fn main() {
    println!("=== Table I: atomic operation -> control signals ===\n");
    let planes = PlaneSet::all();

    println!("Partial Sum Router      type sum_buf add_en consec bypass in_sel out_sel");
    let ps_ops: Vec<(String, PsRouterOp)> = vec![
        (
            "SUM $SRC, $CONSEC".into(),
            PsRouterOp::Sum { src: Direction::South, consec: true, planes: planes.clone() },
        ),
        (
            "SEND $SRC, $DST".into(),
            PsRouterOp::Send {
                source: PsSendSource::SumBuf,
                dst: PsDst::Port(Direction::North),
                planes: planes.clone(),
            },
        ),
        (
            "BYPASS $SRC, $DST".into(),
            PsRouterOp::Bypass {
                src: Direction::East,
                dst: PsDst::Port(Direction::West),
                planes: planes.clone(),
            },
        ),
    ];
    for (name, op) in &ps_ops {
        let s = PsRouterSignals::from_op(op);
        let word = ControlWord::encode_ps(op);
        println!(
            "{name:<22}  00   {:^7} {:^6} {:^6} {:^6} {:^6} {:^7}   word {word}",
            bit(s.sum_buf),
            bit(s.add_en),
            bit(s.consec_add),
            bit(s.bypass),
            format!("{:02b}", s.in_sel),
            format!("{:03b}", s.out_sel),
        );
        assert_eq!(word.decode(planes.clone()).unwrap(), AtomicOp::Ps(op.clone()), "round trip");
    }

    println!("\nSpike Router            type spike_en sum/loc inject bypass in_sel out_sel");
    let spike_ops: Vec<(String, SpikeRouterOp)> = vec![
        (
            "SPIKE $SUM_OR_LOCAL".into(),
            SpikeRouterOp::Spike { from_ps_router: true, planes: planes.clone() },
        ),
        ("SEND $DST".into(), SpikeRouterOp::Send { dst: Direction::East, planes: planes.clone() }),
        (
            "BYPASS $SRC, $DST".into(),
            SpikeRouterOp::Bypass {
                src: Direction::North,
                dst: Some(Direction::South),
                deliver: false,
                planes: planes.clone(),
            },
        ),
    ];
    for (name, op) in &spike_ops {
        let s = SpikeRouterSignals::from_op(op);
        let word = ControlWord::encode_spike(op);
        println!(
            "{name:<22}  01   {:^8} {:^7} {:^6} {:^6} {:^6} {:^7}   word {word}",
            bit(s.spike_en),
            bit(s.sum_or_local),
            bit(s.inject_en),
            bit(s.bypass),
            format!("{:02b}", s.in_sel),
            format!("{:02b}", s.out_sel),
        );
        assert_eq!(word.decode(planes.clone()).unwrap(), AtomicOp::Spike(op.clone()));
    }

    println!("\nNeuron Core             type r_weight w_weight  acc");
    for (name, op) in [
        ("LD_WT", NeuronCoreOp::LdWt { banks: 0b1111 }),
        ("ACC", NeuronCoreOp::Acc { banks: 0b1111 }),
    ] {
        let s = NeuronCoreSignals::from_op(&op);
        let word = ControlWord::encode_core(&op);
        println!(
            "{name:<22}  10   {:^8} {:^9} {:^5}   word {word}",
            bit(s.r_weight),
            format!("{:04b}", s.w_weight),
            format!("{:04b}", s.acc),
        );
        assert_eq!(word.decode(planes.clone()).unwrap(), AtomicOp::Core(op));
    }
    println!("\nall words decode back to their operations (round trip verified)");
}
