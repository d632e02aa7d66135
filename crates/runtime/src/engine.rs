//! The execution-engine lifecycle the worker shards drive.
//!
//! A worker serves every gathered batch through one
//! `plan → execute → drain` lifecycle over a
//! [`CompiledModel`](crate::CompiledModel) replica: plan the gathered
//! frame count onto the replica's lanes, execute one pass, drain. There
//! is one engine — the batched simulator, occupancy-bound: its `plan`
//! occupies exactly the gathered lanes (see
//! [`LaneSet`](shenjing_sim::LaneSet)), so a pass costs what its frames
//! cost, a batch of one included.

use shenjing_core::{Error, Result};
use shenjing_nn::Tensor;
use shenjing_sim::BatchSim;
use shenjing_snn::SnnOutput;

/// One worker-owned chip replica serving gathered batches.
///
/// Lifecycle per batch: [`plan`](Engine::plan) the gathered frame count,
/// [`execute`](Engine::execute) the frames, [`drain`](Engine::drain) so
/// the replica idles clean for the next batch. Implemented by
/// [`BatchSim`]: plan occupies lanes `0..n`, drain releases them in
/// `O(their active state)`.
pub trait Engine: Send {
    /// Prepares the replica for a gathered batch of `frames` requests —
    /// the lane occupancy is reconciled here, so the following
    /// [`execute`](Engine::execute) pays for occupancy, not capacity.
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
    /// frames leave their lanes).
    fn drain(&mut self);

    /// Turns per-pass phase profiling on for subsequent
    /// [`execute`](Engine::execute) calls (and off again). The scheduler
    /// enables this only for batches carrying a telemetry-sampled
    /// request, so unprofiled batches run the untouched fast path.
    fn set_profiling(&mut self, on: bool);

    /// Takes the phase profile accumulated since profiling was enabled,
    /// stopping profiling. `None` when profiling was never on.
    fn take_profile(&mut self) -> Option<shenjing_telemetry::PassProfile>;
}

impl Engine for BatchSim {
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

    fn set_profiling(&mut self, on: bool) {
        BatchSim::set_profiling(self, on);
    }

    fn take_profile(&mut self) -> Option<shenjing_telemetry::PassProfile> {
        BatchSim::take_profile(self)
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
    fn profiling_flows_through_the_trait() {
        let inputs: Vec<Tensor> =
            vec![Tensor::from_vec(vec![8], (0..8).map(|i| i as f64 / 8.0).collect()).unwrap(); 2];
        let mut engine: Box<dyn Engine> = Box::new(model().instantiate_batched(4).unwrap());
        assert!(engine.take_profile().is_none(), "profiling starts off");
        engine.set_profiling(true);
        engine.plan(inputs.len()).unwrap();
        for r in engine.execute(&inputs, 5) {
            r.unwrap();
        }
        engine.drain();
        let profile = engine.take_profile().expect("profiled batch yields a profile");
        // One SoA pass advances both frames together.
        assert_eq!((profile.passes, profile.timesteps), (1, 5));
        assert_eq!(profile.occupied_lane_steps, 2, "two lanes were occupied");
        assert!(profile.total_phase_ns() > 0);
        assert!(engine.take_profile().is_none(), "take_profile stops profiling");
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
