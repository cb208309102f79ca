//! The end-to-end `compile → validate → simulate → report` workflow.

use cimflow_arch::ArchConfig;
use cimflow_compiler::{compile, CompiledProgram, SearchMode, Strategy};
use cimflow_nn::Model;

use crate::CimFlowError;

// The evaluation record (and the underlying compile→simulate primitive)
// lives in `cimflow-dse`, where the batch engine fans it out; the facade
// re-exports it so existing `cimflow::Evaluation` users are unaffected.
pub use cimflow_dse::Evaluation;

/// The CIMFlow workflow object: holds an architecture configuration and
/// runs the full compile-and-simulate pipeline on models.
///
/// # Example
///
/// ```
/// use cimflow::{models, CimFlow, Strategy};
///
/// # fn main() -> Result<(), cimflow::CimFlowError> {
/// let flow = CimFlow::with_default_arch();
/// let compiled = flow.compile(&models::resnet18(32), Strategy::GenericMapping)?;
/// assert!(compiled.report.total_instructions > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CimFlow {
    arch: ArchConfig,
}

impl CimFlow {
    /// Creates a workflow for a validated architecture configuration.
    ///
    /// # Errors
    ///
    /// Returns the architecture validation error if the configuration is
    /// inconsistent.
    pub fn new(arch: ArchConfig) -> Result<Self, CimFlowError> {
        arch.validate()?;
        Ok(CimFlow { arch })
    }

    /// Creates a workflow for the paper's default architecture (Table I).
    pub fn with_default_arch() -> Self {
        CimFlow { arch: ArchConfig::paper_default() }
    }

    /// The architecture this workflow targets.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Compiles a model with the given strategy.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures (invalid model, capacity overflow,
    /// validation failures).
    pub fn compile(
        &self,
        model: &Model,
        strategy: Strategy,
    ) -> Result<CompiledProgram, CimFlowError> {
        Ok(compile(model, &self.arch, strategy)?)
    }

    /// Compiles and simulates a model under the sequential system-level
    /// search, producing the full evaluation.
    ///
    /// This delegates to the single-point primitive the `cimflow-dse`
    /// engine fans out across sweeps, so both paths share one pipeline.
    ///
    /// # Errors
    ///
    /// Propagates compilation and simulation failures.
    pub fn evaluate(&self, model: &Model, strategy: Strategy) -> Result<Evaluation, CimFlowError> {
        Ok(cimflow_dse::evaluate_with_search(&self.arch, model, strategy, SearchMode::Sequential)?)
    }
}

impl Default for CimFlow {
    fn default() -> Self {
        Self::with_default_arch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimflow_nn::models;

    #[test]
    fn workflow_rejects_invalid_architectures() {
        let mut arch = ArchConfig::paper_default();
        arch.system.chip.core_count = 0;
        assert!(CimFlow::new(arch).is_err());
        assert!(CimFlow::new(ArchConfig::paper_default()).is_ok());
    }

    #[test]
    fn evaluation_reports_speedup_and_energy_ratio() {
        let flow = CimFlow::with_default_arch();
        let model = models::mobilenet_v2(32);
        let generic = flow.evaluate(&model, Strategy::GenericMapping).unwrap();
        let dp = flow.evaluate(&model, Strategy::DpOptimized).unwrap();
        let speedup = dp.speedup_over(&generic);
        assert!(speedup > 1.0, "DP speedup over generic is {speedup}");
        assert!(dp.energy_ratio_over(&generic) > 0.0);
        assert!(dp.mean_duplication >= generic.mean_duplication);
        let text = dp.to_string();
        assert!(text.contains("mobilenetv2"));
        assert!(text.contains("TOPS"));
    }

    #[test]
    fn default_workflow_uses_table_i() {
        let flow = CimFlow::default();
        assert_eq!(flow.arch().chip().core_count, 64);
    }
}
