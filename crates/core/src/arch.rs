//! The architecture description consumed by the mapping toolchain.
//!
//! The paper's toolchain (Fig. 3) takes an "Architecture Description:
//! Chips, Cores, NoCs etc." as input. [`ArchSpec`] is that description:
//! core dimensions, chip grid size, NoC widths and the handful of
//! microarchitectural timing facts the schedule compiler needs.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};

/// Dimensions and timing of a Shenjing deployment target.
///
/// Use [`ArchSpec::paper`] for the configuration evaluated in the DATE 2020
/// paper, or build a custom one and [`validate`](ArchSpec::validate) it.
///
/// ```
/// use shenjing_core::ArchSpec;
/// let arch = ArchSpec::paper();
/// assert_eq!(arch.core_inputs, 256);
/// assert_eq!(arch.core_neurons, 256);
/// assert_eq!(arch.cores_per_chip(), 784);
/// assert!(arch.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArchSpec {
    /// Synapse rows per core: how many input axons one core accepts.
    pub core_inputs: u16,
    /// Neurons per core: how many outputs one core produces; also the
    /// number of PS NoC planes and spike NoC planes.
    pub core_neurons: u16,
    /// Tile rows per chip.
    pub chip_rows: u16,
    /// Tile columns per chip.
    pub chip_cols: u16,
    /// SRAM banks per neuron core (the paper's core has 4).
    pub sram_banks: u16,
    /// Cycles taken by the `ACC` atomic operation (accumulation across a
    /// subcore). Table II: 131 cycles.
    pub acc_cycles: u32,
    /// Cycles taken by the `LD_WT` atomic operation (weight loading,
    /// initialization only). Table II: 131 cycles.
    pub ld_wt_cycles: u32,
    /// Cycles taken by each router atomic operation (SUM/SEND/BYPASS/SPIKE).
    pub router_op_cycles: u32,
}

impl ArchSpec {
    /// The architecture evaluated in the paper: 256×256 cores, 28×28 tiles
    /// per chip (784 tiles on a 20 mm × 20 mm die), 4 SRAM banks, 131-cycle
    /// core operations, single-cycle router operations.
    pub fn paper() -> ArchSpec {
        ArchSpec {
            core_inputs: 256,
            core_neurons: 256,
            chip_rows: 28,
            chip_cols: 28,
            sram_banks: 4,
            acc_cycles: 131,
            ld_wt_cycles: 131,
            router_op_cycles: 1,
        }
    }

    /// A deliberately tiny architecture for unit tests and fast cycle-level
    /// simulation: 16×16 cores on a 4×4 chip.
    pub fn tiny() -> ArchSpec {
        ArchSpec {
            core_inputs: 16,
            core_neurons: 16,
            chip_rows: 4,
            chip_cols: 4,
            sram_banks: 4,
            acc_cycles: 131,
            ld_wt_cycles: 131,
            router_op_cycles: 1,
        }
    }

    /// Number of tiles on one chip.
    pub fn cores_per_chip(&self) -> u32 {
        u32::from(self.chip_rows) * u32::from(self.chip_cols)
    }

    /// Neurons served per SRAM bank (the core's neurons are split evenly
    /// across banks).
    pub fn neurons_per_bank(&self) -> u16 {
        self.core_neurons / self.sram_banks
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when any dimension is zero, when
    /// the neurons do not divide evenly across SRAM banks, or when there
    /// are more banks than the 4-bit bank mask of Table I's `ACC` can
    /// enable.
    pub fn validate(&self) -> Result<()> {
        if self.core_inputs == 0
            || self.core_neurons == 0
            || self.chip_rows == 0
            || self.chip_cols == 0
            || self.sram_banks == 0
        {
            return Err(Error::config("architecture dimensions must be positive"));
        }
        if !self.core_neurons.is_multiple_of(self.sram_banks) {
            return Err(Error::config(format!(
                "core_neurons {} must divide evenly across {} SRAM banks",
                self.core_neurons, self.sram_banks
            )));
        }
        if self.sram_banks > 4 {
            return Err(Error::config(format!(
                "{} SRAM banks exceed the 4-bit ACC bank mask",
                self.sram_banks
            )));
        }
        if self.acc_cycles == 0 || self.ld_wt_cycles == 0 || self.router_op_cycles == 0 {
            return Err(Error::config("operation latencies must be positive"));
        }
        Ok(())
    }

    /// Number of cores required to hold a fully connected layer of
    /// `inputs → outputs`, following the paper's §III formula:
    /// `n_row = ceil(m / N_in)`, `n_col = ceil(n / N_out)`.
    pub fn fc_core_grid(&self, inputs: usize, outputs: usize) -> (usize, usize) {
        let n_row = inputs.div_ceil(self.core_inputs as usize);
        let n_col = outputs.div_ceil(self.core_neurons as usize);
        (n_row, n_col)
    }
}

impl Default for ArchSpec {
    fn default() -> Self {
        ArchSpec::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_dimensions() {
        let a = ArchSpec::paper();
        assert_eq!(a.cores_per_chip(), 784);
        assert_eq!(a.neurons_per_bank(), 64);
        a.validate().unwrap();
    }

    #[test]
    fn tiny_spec_valid() {
        ArchSpec::tiny().validate().unwrap();
        assert_eq!(ArchSpec::tiny().cores_per_chip(), 16);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(ArchSpec::default(), ArchSpec::paper());
    }

    #[test]
    fn validate_rejects_zero_dims() {
        let mut a = ArchSpec::paper();
        a.core_inputs = 0;
        assert!(a.validate().is_err());

        let mut a = ArchSpec::paper();
        a.chip_rows = 0;
        assert!(a.validate().is_err());

        let mut a = ArchSpec::paper();
        a.router_op_cycles = 0;
        assert!(a.validate().is_err());
    }

    #[test]
    fn validate_rejects_uneven_banks() {
        let mut a = ArchSpec::paper();
        a.sram_banks = 3; // 256 % 3 != 0
        assert!(a.validate().is_err());
    }

    #[test]
    fn validate_rejects_more_banks_than_the_mask_holds() {
        let mut a = ArchSpec::paper();
        a.sram_banks = 8; // 256 % 8 == 0, but ACC's bank field is 4 bits
        assert!(a.validate().is_err());
    }

    #[test]
    fn fc_core_grid_matches_paper_mnist_mlp() {
        // Fig. 1: 784×512 FC needs ceil(784/256)=4 rows × ceil(512/256)=2
        // cols = 8 cores; 512×10 needs 2×1 = 2 cores. Total 10.
        let a = ArchSpec::paper();
        assert_eq!(a.fc_core_grid(784, 512), (4, 2));
        assert_eq!(a.fc_core_grid(512, 10), (2, 1));
    }

    #[test]
    fn fc_core_grid_exact_fit() {
        let a = ArchSpec::paper();
        assert_eq!(a.fc_core_grid(256, 256), (1, 1));
        assert_eq!(a.fc_core_grid(257, 256), (2, 1));
    }

    #[test]
    fn serde_roundtrip() {
        let a = ArchSpec::paper();
        let json = serde_json::to_string(&a).unwrap();
        let b: ArchSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
    }
}
