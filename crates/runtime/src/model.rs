//! The compiled-artifact layer: build once, instantiate per worker —
//! and the [`ModelRegistry`] that holds many compiled artifacts for the
//! multi-model serving tier.

use std::sync::Arc;
use std::time::Duration;

use shenjing_core::{ArchSpec, Error, Result};
use shenjing_mapper::{Mapper, Mapping};
use shenjing_sim::{BatchSim, CycleSim, DecodedProgram};
use shenjing_snn::SnnNetwork;

/// A model compiled and decoded for serving.
///
/// `CompiledModel` runs the mapping toolchain once (logical split,
/// placement, compilation) and decodes the result — schedule flattened,
/// weight blocks materialized — into an [`Arc`]-shared artifact. From it,
/// any number of simulator replicas can be stood up cheaply: each
/// [`instantiate`](CompiledModel::instantiate) /
/// [`instantiate_batched`](CompiledModel::instantiate_batched) call
/// allocates fresh chip state but shares the program, the way a real
/// deployment writes one compiled configuration image into every chip's
/// configuration memories.
///
/// ```
/// use shenjing_core::{ArchSpec, W5};
/// use shenjing_runtime::CompiledModel;
/// use shenjing_snn::{SnnLayer, SnnNetwork, SpikingDense};
///
/// let weights = vec![W5::new(4)?; 8];
/// let snn = SnnNetwork::new(vec![SnnLayer::Dense(
///     SpikingDense::new(weights, 4, 2, 6, 1.0)?,
/// )])?;
/// let model = CompiledModel::compile(&ArchSpec::tiny(), &snn)?;
/// assert_eq!(model.input_len(), 4);
/// assert_eq!(model.output_len(), 2);
/// let _worker = model.instantiate_batched(8)?;
/// # Ok::<(), shenjing_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledModel {
    program: Arc<DecodedProgram>,
    total_cores: usize,
    chips: usize,
}

impl CompiledModel {
    /// Maps `snn` onto `arch` with the default toolchain and decodes the
    /// compiled program.
    ///
    /// # Errors
    ///
    /// Returns [`shenjing_core::Error::MappingFailed`] when the network
    /// cannot be mapped onto the architecture.
    pub fn compile(arch: &ArchSpec, snn: &SnnNetwork) -> Result<CompiledModel> {
        let mapping = Mapper::new(arch.clone()).map(snn)?;
        CompiledModel::from_mapping(arch, &mapping)
    }

    /// Decodes an already-computed mapping (useful when the caller needs
    /// the [`Mapping`] for statistics or a custom placement strategy),
    /// then runs the schedule optimizer
    /// ([`DecodedProgram::optimize`]) so every replica instantiated from
    /// this artifact executes the compacted schedule. Set
    /// `SHENJING_NO_OPTIMIZE=1` to keep the identity schedule (one entry
    /// per scheduled cycle) instead.
    ///
    /// # Errors
    ///
    /// Propagates decode errors.
    pub fn from_mapping(arch: &ArchSpec, mapping: &Mapping) -> Result<CompiledModel> {
        let program = DecodedProgram::decode(arch, &mapping.logical, &mapping.program)?.optimize();
        Ok(CompiledModel {
            program: Arc::new(program),
            total_cores: mapping.logical.total_cores(),
            chips: usize::from(mapping.placement.chips),
        })
    }

    /// The shared decoded program.
    pub fn program(&self) -> &Arc<DecodedProgram> {
        &self.program
    }

    /// The target architecture.
    pub fn arch(&self) -> &ArchSpec {
        self.program.arch()
    }

    /// Number of external input lines one frame carries.
    pub fn input_len(&self) -> usize {
        self.program.input_len()
    }

    /// Number of network outputs one frame produces.
    pub fn output_len(&self) -> usize {
        self.program.output_len()
    }

    /// Cycles in one timestep block.
    pub fn block_cycles(&self) -> u64 {
        self.program.block_cycles()
    }

    /// Logical cores the model occupies.
    pub fn total_cores(&self) -> usize {
        self.total_cores
    }

    /// Physical chips the placement spans.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// The `shenjing_model_info{…}` series describing this artifact —
    /// the serving tier sets one such gauge per registered model, the
    /// idiomatic way to expose static facts (size, placement) next to
    /// live counters.
    pub(crate) fn info_series(&self, id: &str) -> String {
        shenjing_telemetry::series(
            "shenjing_model_info",
            &[
                ("model", id),
                ("cores", &self.total_cores.to_string()),
                ("chips", &self.chips.to_string()),
                ("block_cycles", &self.block_cycles().to_string()),
            ],
        )
    }

    /// Stands up a fresh single-frame simulator: a one-lane replica
    /// behind the frame-at-a-time [`CycleSim`] front.
    ///
    /// # Errors
    ///
    /// Returns mapping/bounds errors when the program references tiles
    /// outside the mesh.
    pub fn instantiate(&self) -> Result<CycleSim> {
        CycleSim::from_decoded(Arc::clone(&self.program))
    }

    /// Stands up a fresh `batch`-lane simulator replica.
    ///
    /// # Errors
    ///
    /// Same as [`instantiate`](CompiledModel::instantiate), plus
    /// [`shenjing_core::Error::InvalidConfig`] for a zero batch.
    pub fn instantiate_batched(&self, batch: usize) -> Result<BatchSim> {
        BatchSim::from_decoded(Arc::clone(&self.program), batch)
    }
}

/// Per-model serving policy, set when a model is registered.
///
/// ```
/// use std::time::Duration;
/// use shenjing_runtime::ServeOptions;
///
/// let opts = ServeOptions::default()
///     .with_priority(2)
///     .with_deadline(Duration::from_millis(50))
///     .with_warm_replicas(2);
/// assert_eq!(opts.priority, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServeOptions {
    /// Scheduling priority; higher-priority requests dequeue first.
    /// A request's own priority, when set, overrides this default.
    pub priority: u8,
    /// Default deadline budget (SLO) applied to requests that carry none:
    /// a request unanswered this long after submission is dropped instead
    /// of burning a lane. `None` means requests wait indefinitely.
    pub deadline: Option<Duration>,
    /// How many worker shards pre-instantiate this model's chip replicas
    /// at startup (capped at the runtime's worker count). Remaining
    /// workers instantiate on first use (~one replica-instantiation cost,
    /// counted in [`RuntimeStats::cold_starts`](crate::RuntimeStats)).
    pub warm_replicas: usize,
    /// Rate-coding spike-train length for this model's frames, overriding
    /// the runtime-wide [`RuntimeConfig::timesteps`](crate::RuntimeConfig)
    /// when set — a cheap knob to serve a large model at a shorter train
    /// next to small models at full fidelity.
    pub timesteps: Option<u32>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { priority: 0, deadline: None, warm_replicas: 1, timesteps: None }
    }
}

impl ServeOptions {
    /// Sets the scheduling priority.
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> ServeOptions {
        self.priority = priority;
        self
    }

    /// Sets the default deadline budget.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> ServeOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the warm-replica pool size.
    #[must_use]
    pub fn with_warm_replicas(mut self, workers: usize) -> ServeOptions {
        self.warm_replicas = workers;
        self
    }

    /// Sets a per-model spike-train length override.
    #[must_use]
    pub fn with_timesteps(mut self, timesteps: u32) -> ServeOptions {
        self.timesteps = Some(timesteps);
        self
    }
}

/// One registered model: id, artifact, policy.
#[derive(Debug, Clone)]
pub(crate) struct ModelEntry {
    pub(crate) id: String,
    pub(crate) model: CompiledModel,
    pub(crate) options: ServeOptions,
}

/// Many compiled artifacts registered under string ids, the unit a
/// [`Runtime`](crate::Runtime) serves.
///
/// Replica instantiation from a [`CompiledModel`] is cheap (the decoded
/// program is `Arc`-shared), so a registry of heterogeneous models — the
/// paper's Table III zoo hosted on one accelerator — costs one decode per
/// model plus per-worker chip state for the warm pools.
///
/// ```
/// use shenjing_core::{ArchSpec, W5};
/// use shenjing_runtime::{CompiledModel, ModelRegistry, ServeOptions};
/// use shenjing_snn::{SnnLayer, SnnNetwork, SpikingDense};
///
/// let snn = SnnNetwork::new(vec![SnnLayer::Dense(
///     SpikingDense::new(vec![W5::new(3)?; 8], 4, 2, 5, 1.0)?,
/// )])?;
/// let model = CompiledModel::compile(&ArchSpec::tiny(), &snn)?;
/// let mut registry = ModelRegistry::new();
/// registry.register("digits", model, ServeOptions::default())?;
/// assert_eq!(registry.len(), 1);
/// assert!(registry.get("digits").is_some());
/// # Ok::<(), shenjing_core::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    entries: Vec<ModelEntry>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Registers `model` under `id` with the given serving policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an empty or duplicate id.
    pub fn register(
        &mut self,
        id: impl Into<String>,
        model: CompiledModel,
        options: ServeOptions,
    ) -> Result<()> {
        let id = id.into();
        if id.is_empty() {
            return Err(Error::config("model id must be non-empty"));
        }
        if self.entries.iter().any(|e| e.id == id) {
            return Err(Error::config(format!("model `{id}` is already registered")));
        }
        self.entries.push(ModelEntry { id, model, options });
        Ok(())
    }

    /// Builder-style [`register`](ModelRegistry::register).
    ///
    /// # Errors
    ///
    /// Same as [`register`](ModelRegistry::register).
    pub fn with_model(
        mut self,
        id: impl Into<String>,
        model: CompiledModel,
        options: ServeOptions,
    ) -> Result<ModelRegistry> {
        self.register(id, model, options)?;
        Ok(self)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.id.as_str())
    }

    /// The compiled artifact registered under `id`.
    pub fn get(&self, id: &str) -> Option<&CompiledModel> {
        self.entries.iter().find(|e| e.id == id).map(|e| &e.model)
    }

    /// The serving policy registered under `id`.
    pub fn options(&self, id: &str) -> Option<&ServeOptions> {
        self.entries.iter().find(|e| e.id == id).map(|e| &e.options)
    }

    pub(crate) fn into_entries(self) -> Vec<ModelEntry> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shenjing_core::W5;
    use shenjing_nn::Tensor;
    use shenjing_snn::{SnnLayer, SpikingDense};

    fn model() -> CompiledModel {
        let weights: Vec<W5> = (0..8 * 4).map(|i| W5::saturating(i % 9 - 4)).collect();
        let snn = SnnNetwork::new(vec![SnnLayer::Dense(
            SpikingDense::new(weights, 8, 4, 5, 1.0).unwrap(),
        )])
        .unwrap();
        CompiledModel::compile(&ArchSpec::tiny(), &snn).unwrap()
    }

    #[test]
    fn replicas_share_the_program_and_agree() {
        let model = model();
        assert_eq!(model.input_len(), 8);
        assert_eq!(model.output_len(), 4);
        assert!(model.total_cores() >= 1);
        let mut a = model.instantiate().unwrap();
        let mut b = model.instantiate().unwrap();
        assert!(Arc::ptr_eq(a.decoded(), b.decoded()), "one artifact, many replicas");
        let input = Tensor::from_vec(vec![8], vec![0.9; 8]).unwrap();
        assert_eq!(a.run_frame(&input, 7).unwrap(), b.run_frame(&input, 7).unwrap());
    }

    #[test]
    fn registry_rejects_duplicate_and_empty_ids() {
        let model = model();
        let mut registry = ModelRegistry::new();
        registry.register("a", model.clone(), ServeOptions::default()).unwrap();
        assert!(registry.register("a", model.clone(), ServeOptions::default()).is_err());
        assert!(registry.register("", model.clone(), ServeOptions::default()).is_err());
        let registry =
            registry.with_model("b", model, ServeOptions::default().with_priority(3)).unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.ids().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(registry.options("b").unwrap().priority, 3);
        assert!(registry.get("missing").is_none());
    }

    #[test]
    fn batched_replica_matches_single_frame() {
        let model = model();
        let mut single = model.instantiate().unwrap();
        let mut batched = model.instantiate_batched(2).unwrap();
        let inputs = [
            Tensor::from_vec(vec![8], vec![0.4; 8]).unwrap(),
            Tensor::from_vec(vec![8], vec![0.8; 8]).unwrap(),
        ];
        let outs = batched.run_batch(&inputs, 11).unwrap();
        for (input, got) in inputs.iter().zip(&outs) {
            assert_eq!(*got, single.run_frame(input, 11).unwrap());
        }
    }
}
