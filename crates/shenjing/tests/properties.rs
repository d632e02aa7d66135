//! Property-based tests on the core invariants of the system.

use proptest::prelude::*;
use shenjing::core::{fixed::quantize_weights, CoreCoord, Direction, LocalSum, NocSum, W5};
use shenjing::hw::{
    AtomicOp, ControlWord, NeuronCoreOp, PlaneSet, PsRouterOp, PsSendSource, SpikeRouterOp,
};
use shenjing::hw::{PsDst, SpikeRouter};

proptest! {
    /// X-Y routes are minimal, deterministic and end at the destination.
    #[test]
    fn xy_routes_minimal(sr in 0u16..30, sc in 0u16..30, dr in 0u16..30, dc in 0u16..30) {
        let src = CoreCoord::new(sr, sc);
        let dst = CoreCoord::new(dr, dc);
        let route = src.xy_route(dst);
        prop_assert_eq!(route.len() as u32, src.manhattan_distance(dst));
        if src != dst {
            prop_assert_eq!(*route.last().unwrap(), dst);
        }
        // Column corrected before row (dimension order).
        let mut corrected_col = false;
        let mut cur = src;
        for hop in &route {
            if corrected_col {
                prop_assert_eq!(hop.col, dst.col, "row moves only after column settles");
            }
            if hop.col == dst.col {
                corrected_col = true;
            }
            prop_assert_eq!(cur.manhattan_distance(*hop), 1, "unit steps");
            cur = *hop;
        }
    }

    /// Weight quantization round-trips within half a quantization step.
    #[test]
    fn quantization_error_bounded(ws in proptest::collection::vec(-10.0f64..10.0, 1..50)) {
        let (q, scale) = quantize_weights(&ws);
        prop_assert_eq!(q.len(), ws.len());
        let max_abs = ws.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        if max_abs > 0.0 {
            for (orig, quant) in ws.iter().zip(&q) {
                let back = f64::from(quant.value()) / scale;
                prop_assert!((back - orig).abs() <= 0.5 / scale + 1e-12,
                    "{orig} -> {} -> {back}", quant.value());
            }
        }
    }

    /// Fixed-point additions never silently wrap: a checked add either
    /// returns the exact mathematical sum or errors.
    #[test]
    fn noc_sum_checked_add_exact(a in -32768i32..=32767, b in -32768i32..=32767) {
        let x = NocSum::new(a).unwrap();
        let y = NocSum::new(b).unwrap();
        match x.checked_add(y) {
            Ok(s) => prop_assert_eq!(s.value(), a + b),
            Err(_) => prop_assert!(a + b > 32767 || a + b < -32768),
        }
    }

    /// Local sums accumulate weights exactly within range.
    #[test]
    fn local_sum_accumulation_exact(ws in proptest::collection::vec(-16i32..=15, 0..200)) {
        let mut sum = LocalSum::ZERO;
        let mut exact = 0i32;
        let mut overflowed = false;
        for w in &ws {
            exact += *w;
            match sum.add_weight(W5::new(*w).unwrap()) {
                Ok(s) => sum = s,
                Err(_) => { overflowed = true; break; }
            }
        }
        if !overflowed {
            prop_assert_eq!(sum.value(), exact);
        }
    }

    /// An IF neuron's spike count over a frame equals the rate-code ideal
    /// to within one spike: floor(total_input / threshold) ± 1. This holds
    /// in the sub-threshold regime (per-step sum ≤ threshold), which is
    /// exactly what data-based weight normalization guarantees — a
    /// super-threshold input saturates at one spike per timestep (the
    /// hardware emits one spike bit per SPIKE op).
    #[test]
    fn if_neuron_rate_property(sum in 1i32..200, extra in 0i32..300, steps in 1u32..100) {
        let threshold = sum + extra;
        let mut r = SpikeRouter::new(1);
        r.set_threshold(0, threshold).unwrap();
        let mut spikes = 0i64;
        for _ in 0..steps {
            r.integrate_value(0, sum);
            if r.spike_buffer(0) {
                spikes += 1;
            }
        }
        let total = i64::from(sum) * i64::from(steps);
        let ideal = total / i64::from(threshold);
        prop_assert!((spikes - ideal).abs() <= 1,
            "spikes {spikes} vs ideal {ideal} (sum {sum}, θ {threshold}, T {steps})");
    }

    /// Control-word encoding round-trips for random PS router ops.
    #[test]
    fn control_word_roundtrip_ps(
        src_bits in 0u8..4,
        dst_bits in 0u8..5,
        consec in any::<bool>(),
        sum_buf in any::<bool>(),
        kind in 0u8..3,
    ) {
        let src = Direction::decode(src_bits).unwrap();
        let dst = if dst_bits == 4 {
            PsDst::SpikingLogic
        } else {
            PsDst::Port(Direction::decode(dst_bits).unwrap())
        };
        let op = match kind {
            0 => PsRouterOp::Sum { src, consec, planes: PlaneSet::all() },
            1 => PsRouterOp::Send {
                source: if sum_buf { PsSendSource::SumBuf } else { PsSendSource::LocalPs },
                dst,
                planes: PlaneSet::all(),
            },
            _ => PsRouterOp::Bypass { src, dst, planes: PlaneSet::all() },
        };
        let word = ControlWord::encode_ps(&op);
        prop_assert_eq!(word.decode(PlaneSet::all()).unwrap(), AtomicOp::Ps(op));
    }

    /// Control-word encoding round-trips for random spike router ops.
    #[test]
    fn control_word_roundtrip_spike(
        src_bits in 0u8..4,
        dst_bits in 0u8..5,
        deliver in any::<bool>(),
        kind in 0u8..3,
        from_ps in any::<bool>(),
    ) {
        let src = Direction::decode(src_bits).unwrap();
        let dst = if dst_bits == 4 { None } else { Some(Direction::decode(dst_bits).unwrap()) };
        let op = match kind {
            0 => SpikeRouterOp::Spike { from_ps_router: from_ps, planes: PlaneSet::all() },
            1 => SpikeRouterOp::Send {
                dst: dst.unwrap_or(Direction::North),
                planes: PlaneSet::all(),
            },
            _ => {
                if dst.is_none() && !deliver {
                    // Not a valid op; substitute a delivering terminal.
                    SpikeRouterOp::Bypass { src, dst: None, deliver: true, planes: PlaneSet::all() }
                } else {
                    SpikeRouterOp::Bypass { src, dst, deliver, planes: PlaneSet::all() }
                }
            }
        };
        let word = ControlWord::encode_spike(&op);
        prop_assert_eq!(word.decode(PlaneSet::all()).unwrap(), AtomicOp::Spike(op));
    }

    /// Neuron core control words round-trip.
    #[test]
    fn control_word_roundtrip_core(banks in 1u8..16, load in any::<bool>()) {
        let op = if load {
            NeuronCoreOp::LdWt { banks }
        } else {
            NeuronCoreOp::Acc { banks }
        };
        let word = ControlWord::encode_core(&op);
        prop_assert_eq!(word.decode(PlaneSet::all()).unwrap(), AtomicOp::Core(op));
    }

    /// PlaneSet membership is consistent between construction forms.
    #[test]
    fn plane_set_membership(indices in proptest::collection::btree_set(0u16..256, 0..40)) {
        let set = PlaneSet::from_indices(indices.iter().copied());
        for i in 0u16..256 {
            prop_assert_eq!(set.contains(i), indices.contains(&i));
        }
        prop_assert_eq!(set.count(256), indices.len());
    }
}

/// Algorithm 1 schedule properties, checked over many fold-group sizes:
/// every member's value reaches the root exactly once.
#[test]
fn algorithm1_fold_reaches_root_exactly_once() {
    for n in 1usize..40 {
        // Simulate the fold arithmetic symbolically: each member starts
        // with the singleton set {i}; a send merges the source's set into
        // the destination's.
        let mut sets: Vec<std::collections::BTreeSet<usize>> =
            (0..n).map(|i| [i].into_iter().collect()).collect();
        let mut f = 1;
        while f < n {
            let mut i = f;
            while i < n {
                let moved = std::mem::take(&mut sets[i]);
                let dst = i - f;
                for item in moved {
                    assert!(
                        sets[dst].insert(item),
                        "n={n}: member {item} delivered twice to {dst}"
                    );
                }
                i += 2 * f;
            }
            f *= 2;
        }
        let expect: std::collections::BTreeSet<usize> = (0..n).collect();
        assert_eq!(sets[0], expect, "n={n}: root must hold every partial exactly once");
        for (i, s) in sets.iter().enumerate().skip(1) {
            assert!(s.is_empty(), "n={n}: member {i} kept residue {s:?}");
        }
    }
}
