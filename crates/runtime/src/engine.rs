//! The unified execution-engine abstraction the worker shards drive.
//!
//! Both simulators serve gathered batches through one
//! `plan → execute → drain` lifecycle over a
//! [`CompiledModel`](crate::CompiledModel) replica, so the scheduler
//! carries **no per-engine plumbing**: a worker holds `Box<dyn Engine>`
//! slots, plans the gathered frame count onto whichever one the
//! [`EnginePolicy`](crate::EnginePolicy) picks, executes, and drains.
//! The engines are bit-identical on every frame (the batched equivalence
//! proptests in `shenjing-sim` pin this), so dispatch is purely a
//! performance decision — and with the batched engine occupancy-bound
//! (its `plan` occupies exactly the gathered lanes; see
//! [`LaneSet`](shenjing_sim::LaneSet)), both engines' costs scale with
//! the frame count, which is what lets the scheduler compare them per
//! unit.

use shenjing_core::{Error, Result};
use shenjing_nn::Tensor;
use shenjing_sim::{BatchSim, CycleSim};
use shenjing_snn::SnnOutput;

/// Which engine implementation served a batch — the label carried by
/// [`InferenceReply`](crate::InferenceReply) and the per-engine counters
/// in [`RuntimeStats`](crate::RuntimeStats). Serializes as a bare string
/// in the wire format (see [`wire`](crate::wire)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EngineKind {
    /// The single-frame sparse-sequential [`CycleSim`], run once per
    /// frame.
    Sequential,
    /// The lane-occupancy SoA [`BatchSim`], advancing all gathered frames
    /// in one pass over the schedule.
    Batched,
}

/// One worker-owned chip replica serving gathered batches.
///
/// Lifecycle per batch: [`plan`](Engine::plan) the gathered frame count,
/// [`execute`](Engine::execute) the frames, [`drain`](Engine::drain) so
/// the replica idles clean for the next batch. Implemented by both
/// [`CycleSim`] (plan and drain are no-ops; execution is one
/// `run_frame` per frame) and [`BatchSim`] (plan occupies lanes `0..n`,
/// drain releases them in `O(their active state)`).
pub trait Engine: Send {
    /// Which engine this is, for replies and stats.
    fn kind(&self) -> EngineKind;

    /// Prepares the replica for a gathered batch of `frames` requests —
    /// the batched engine reconciles its lane occupancy here, so the
    /// following [`execute`](Engine::execute) pays for occupancy, not
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the replica cannot hold
    /// `frames` frames; a plan error fails the whole batch.
    fn plan(&mut self, frames: usize) -> Result<()>;

    /// Advances every planned frame, returning one verdict per frame in
    /// input order.
    fn execute(&mut self, inputs: &[Tensor], timesteps: u32) -> Vec<Result<SnnOutput>>;

    /// Releases per-batch resources so the replica idles clean (finished
    /// frames leave their lanes on the batched engine).
    fn drain(&mut self);

    /// Turns per-pass phase profiling on for subsequent
    /// [`execute`](Engine::execute) calls (and off again). The scheduler
    /// enables this only for batches carrying a telemetry-sampled
    /// request, so unprofiled batches run the untouched fast path. The
    /// default is a no-op for engines without profiling support (or with
    /// the `telemetry` feature off).
    fn set_profiling(&mut self, _on: bool) {}

    /// Takes the phase profile accumulated since profiling was enabled,
    /// stopping profiling. `None` when profiling was never on (or the
    /// `telemetry` feature is off).
    fn take_profile(&mut self) -> Option<shenjing_telemetry::PassProfile> {
        None
    }

    /// Selects whether this replica executes the compacted schedule
    /// (when its program carries one) or the raw per-cycle walk. The
    /// serving tier calls this with `false` on every replica when
    /// [`RuntimeConfig::optimize_schedule`](crate::RuntimeConfig::optimize_schedule)
    /// is off — the operational escape hatch that keeps the reference
    /// walk reachable without recompiling. The default is a no-op for
    /// engines without a compacted mode.
    fn set_schedule_compaction(&mut self, _on: bool) {}
}

impl Engine for CycleSim {
    fn kind(&self) -> EngineKind {
        EngineKind::Sequential
    }

    fn plan(&mut self, _frames: usize) -> Result<()> {
        Ok(())
    }

    fn execute(&mut self, inputs: &[Tensor], timesteps: u32) -> Vec<Result<SnnOutput>> {
        // Per-frame execution, per-frame verdicts: one erroring frame
        // does not poison its co-riders.
        inputs.iter().map(|f| self.run_frame(f, timesteps)).collect()
    }

    fn drain(&mut self) {}

    #[cfg(feature = "telemetry")]
    fn set_profiling(&mut self, on: bool) {
        CycleSim::set_profiling(self, on);
    }

    #[cfg(feature = "telemetry")]
    fn take_profile(&mut self) -> Option<shenjing_telemetry::PassProfile> {
        CycleSim::take_profile(self)
    }

    fn set_schedule_compaction(&mut self, on: bool) {
        CycleSim::set_compaction(self, on);
    }
}

impl Engine for BatchSim {
    fn kind(&self) -> EngineKind {
        EngineKind::Batched
    }

    fn plan(&mut self, frames: usize) -> Result<()> {
        if frames > self.batch() {
            return Err(Error::config(format!(
                "{frames} frames exceed the {}-lane replica",
                self.batch()
            )));
        }
        let prefix: Vec<usize> = (0..frames).collect();
        self.set_occupied_lanes(&prefix)
    }

    fn execute(&mut self, inputs: &[Tensor], timesteps: u32) -> Vec<Result<SnnOutput>> {
        match self.run_occupied(inputs, timesteps) {
            Ok(outputs) => outputs.into_iter().map(Ok).collect(),
            // A schedule violation poisons the whole batch; every rider
            // learns why.
            Err(e) => (0..inputs.len()).map(|_| Err(e.clone())).collect(),
        }
    }

    fn drain(&mut self) {
        let occupied: Vec<usize> = self.lanes().iter().collect();
        for lane in occupied {
            let _ = self.release_lane(lane);
        }
    }

    #[cfg(feature = "telemetry")]
    fn set_profiling(&mut self, on: bool) {
        BatchSim::set_profiling(self, on);
    }

    #[cfg(feature = "telemetry")]
    fn take_profile(&mut self) -> Option<shenjing_telemetry::PassProfile> {
        BatchSim::take_profile(self)
    }

    fn set_schedule_compaction(&mut self, on: bool) {
        BatchSim::set_compaction(self, on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledModel;
    use shenjing_core::{ArchSpec, W5};
    use shenjing_snn::{SnnLayer, SnnNetwork, SpikingDense};

    fn model() -> CompiledModel {
        let weights: Vec<W5> = (0..8 * 3).map(|i| W5::saturating(i % 9 - 4)).collect();
        let snn = SnnNetwork::new(vec![SnnLayer::Dense(
            SpikingDense::new(weights, 8, 3, 5, 1.0).unwrap(),
        )])
        .unwrap();
        CompiledModel::compile(&ArchSpec::tiny(), &snn).unwrap()
    }

    #[test]
    fn both_engines_agree_through_the_trait() {
        let model = model();
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(model.instantiate().unwrap()),
            Box::new(model.instantiate_batched(4).unwrap()),
        ];
        let inputs: Vec<Tensor> = (0..3)
            .map(|k| {
                Tensor::from_vec(vec![8], (0..8).map(|i| ((i + k) % 4) as f64 / 3.0).collect())
                    .unwrap()
            })
            .collect();
        let mut outputs = Vec::new();
        for engine in &mut engines {
            engine.plan(inputs.len()).unwrap();
            let results = engine.execute(&inputs, 7);
            engine.drain();
            outputs.push(results.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>());
        }
        assert_eq!(engines[0].kind(), EngineKind::Sequential);
        assert_eq!(engines[1].kind(), EngineKind::Batched);
        assert_eq!(outputs[0], outputs[1], "the trait serves bit-identical frames");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn profiling_flows_through_the_trait_on_both_engines() {
        let model = model();
        let inputs: Vec<Tensor> =
            vec![Tensor::from_vec(vec![8], (0..8).map(|i| i as f64 / 8.0).collect()).unwrap(); 2];
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(model.instantiate().unwrap()),
            Box::new(model.instantiate_batched(4).unwrap()),
        ];
        for engine in &mut engines {
            assert!(engine.take_profile().is_none(), "profiling starts off");
            engine.set_profiling(true);
            engine.plan(inputs.len()).unwrap();
            for r in engine.execute(&inputs, 5) {
                r.unwrap();
            }
            engine.drain();
            let profile = engine.take_profile().expect("profiled batch yields a profile");
            match engine.kind() {
                // One pass per frame, each 5 timesteps long.
                EngineKind::Sequential => {
                    assert_eq!((profile.passes, profile.timesteps), (2, 10));
                }
                // One SoA pass advances both frames together.
                EngineKind::Batched => {
                    assert_eq!((profile.passes, profile.timesteps), (1, 5));
                    assert_eq!(profile.occupied_lane_steps, 2, "two lanes were occupied");
                }
            }
            assert!(profile.total_phase_ns() > 0);
            assert!(engine.take_profile().is_none(), "take_profile stops profiling");
        }
    }

    #[test]
    fn batched_plan_occupies_and_drain_releases() {
        let model = model();
        let mut sim = model.instantiate_batched(8).unwrap();
        Engine::plan(&mut sim, 3).unwrap();
        assert_eq!(sim.lanes().as_slice(), &[0, 1, 2]);
        Engine::drain(&mut sim);
        assert!(sim.lanes().is_empty(), "drained replicas idle clean");
        assert!(Engine::plan(&mut sim, 9).is_err(), "over-capacity plans fail the batch");
    }
}
