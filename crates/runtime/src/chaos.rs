//! Deterministic failure injection for fault-tolerance drills.
//!
//! Gated behind the default-off `chaos` feature, this module arms a
//! [`Runtime`](crate::Runtime) with scripted failures so the restart
//! and quarantine machinery can be exercised — and asserted on —
//! without any real hardware fault:
//!
//! - **Replica panics** ([`ChaosConfig::with_panic_on_batches`] /
//!   [`with_panic_every`](ChaosConfig::with_panic_every)): the Nth
//!   batch execution panics inside the per-batch guard, exactly where a
//!   buggy replica would. The replica is rebuilt and every rider of that
//!   batch fails once with a `ReplicaFault`; nothing is retried.
//! - **Worker kills** ([`ChaosConfig::with_kill_worker_on_ticks`]): the
//!   Nth worker-loop tick panics *outside* the guard, unwinding the
//!   whole worker loop so the worker's own restart path runs.
//! - **Damaged weights** ([`compile_damaged`]): compiles a model whose
//!   mapping was corrupted through `sim::fault` injection — a silently
//!   wrong replica rather than a loud one.
//!
//! Batch and tick ordinals are counted runtime-wide (1-based) on shared
//! atomics, so with a single worker every schedule is deterministic.
//! Arming chaos also installs a process-wide panic hook filter that
//! swallows the injected panics' default stderr reports (they are
//! expected); every other panic still reports through the previously
//! installed hook.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

use shenjing_core::{ArchSpec, Result};
use shenjing_mapper::Mapper;
use shenjing_snn::SnnNetwork;

use crate::model::CompiledModel;

pub use shenjing_sim::fault::{inject, inject_mapping, Fault};

/// A scripted failure schedule, armed via
/// [`RuntimeConfigBuilder::chaos`](crate::RuntimeConfigBuilder::chaos).
///
/// Ordinals are 1-based counts of batch executions (for panics) or
/// worker-loop ticks (for kills), shared across all workers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Batch-execution ordinals that panic inside the per-batch guard.
    pub panic_on_batches: Vec<u64>,
    /// Panic on every multiple of this batch ordinal (1 = every batch).
    pub panic_every: Option<u64>,
    /// Worker-loop tick ordinals that kill the whole worker loop.
    pub kill_worker_on_ticks: Vec<u64>,
}

impl ChaosConfig {
    /// Panics the listed batch executions (1-based ordinals).
    #[must_use]
    pub fn with_panic_on_batches(mut self, batches: impl Into<Vec<u64>>) -> ChaosConfig {
        self.panic_on_batches = batches.into();
        self
    }

    /// Panics every `every`th batch execution.
    #[must_use]
    pub fn with_panic_every(mut self, every: u64) -> ChaosConfig {
        self.panic_every = Some(every);
        self
    }

    /// Kills the worker loop on the listed worker-loop ticks.
    #[must_use]
    pub fn with_kill_worker_on_ticks(mut self, ticks: impl Into<Vec<u64>>) -> ChaosConfig {
        self.kill_worker_on_ticks = ticks.into();
        self
    }
}

/// Swallows the default stderr report for *injected* panics only (their
/// payloads start with `"chaos: "`); everything else still reaches the
/// hook that was installed before chaos was first armed.
fn install_quiet_panic_hook() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .is_some_and(|m| m.starts_with("chaos: "));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// The armed, counting form of a [`ChaosConfig`], shared by every
/// worker of one runtime.
#[derive(Debug)]
pub(crate) struct ChaosInjector {
    config: ChaosConfig,
    batches: AtomicU64,
    ticks: AtomicU64,
}

impl ChaosInjector {
    pub(crate) fn new(config: ChaosConfig) -> ChaosInjector {
        install_quiet_panic_hook();
        ChaosInjector { config, batches: AtomicU64::new(0), ticks: AtomicU64::new(0) }
    }

    /// Called inside the per-batch panic guard, before planning. May
    /// panic.
    pub(crate) fn on_execute(&self) {
        let n = self.batches.fetch_add(1, Ordering::SeqCst) + 1;
        let scripted_panic = self.config.panic_on_batches.contains(&n)
            || self.config.panic_every.is_some_and(|every| every > 0 && n.is_multiple_of(every));
        if scripted_panic {
            panic!("chaos: injected panic at batch {n}");
        }
    }

    /// Called at the top of every worker-loop iteration, outside every
    /// lock and guard; a scripted tick panic unwinds the worker loop.
    pub(crate) fn on_worker_tick(&self) {
        let n = self.ticks.fetch_add(1, Ordering::SeqCst) + 1;
        if self.config.kill_worker_on_ticks.contains(&n) {
            panic!("chaos: injected worker kill at tick {n}");
        }
    }
}

/// Compiles `snn` for `arch` with `fault` injected into the mapped
/// program first: a model that loads and serves normally but computes
/// on damaged state — the silent-corruption counterpart to the loud
/// scripted failures above.
///
/// # Errors
///
/// Propagates mapping/decoding errors and
/// [`Error::InvalidConfig`](shenjing_core::Error::InvalidConfig) for an
/// out-of-range fault target.
pub fn compile_damaged(arch: &ArchSpec, snn: &SnnNetwork, fault: Fault) -> Result<CompiledModel> {
    let mapping = Mapper::new(arch.clone()).map(snn)?;
    let damaged = inject_mapping(&mapping, fault)?;
    CompiledModel::from_mapping(arch, &damaged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_panics_follow_the_batch_ordinals() {
        let injector = ChaosInjector::new(ChaosConfig::default().with_panic_on_batches([2u64]));
        let panics = || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| injector.on_execute()))
                .is_err()
        };
        assert!(!panics(), "batch 1 passes");
        assert!(panics(), "batch 2 panics");
        assert!(!panics(), "batch 3 passes again");
    }

    #[test]
    fn periodic_panics_hit_every_multiple() {
        let injector = ChaosInjector::new(ChaosConfig::default().with_panic_every(2));
        for batch in 1u64..=4 {
            let unwound =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| injector.on_execute()));
            assert_eq!(unwound.is_err(), batch.is_multiple_of(2), "batch {batch}");
        }
    }

    #[test]
    fn worker_kills_follow_the_tick_ordinals() {
        let injector = ChaosInjector::new(ChaosConfig::default().with_kill_worker_on_ticks([2u64]));
        injector.on_worker_tick();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            injector.on_worker_tick();
        }));
        assert!(unwound.is_err(), "tick 2 kills");
        injector.on_worker_tick();
    }
}
