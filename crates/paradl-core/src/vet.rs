//! Hostile-input vetting for the query surface.
//!
//! A syntactically valid wire frame can still carry a semantically hostile
//! payload: a model with zero-sized layers, a cluster whose links have NaN
//! bandwidth, a batch size of zero (which would divide by zero in
//! [`crate::config::TrainingConfig::iterations_per_epoch`]), or constraints
//! that ask the exhaustive enumeration for 2^40 candidates. [`Query::vet`]
//! composes the existing per-type `validate` fragments with new
//! [`crate::cluster::ClusterSpec`] / [`Constraints`] / mode checks and an
//! analytic pre-estimate of the candidate-enumeration work, so degenerate
//! specs are refused with a structured [`VetError`] *before* any engine
//! build or search runs.
//!
//! The same `vet` pass runs on both the standalone [`Query::run`] path and
//! the `paradl-serve` daemon's admission path, which is what keeps local and
//! served accept/reject decisions identical (asserted by the `paradl-fuzz`
//! harness).

use crate::cluster::ClusterSpec;
use crate::model::Model;
use crate::oracle::{Constraints, PeSweep};
use crate::query::{Query, QueryMode};

/// Default admission cap on the estimated candidate-enumeration work of a
/// ranked query (see [`Query::vet_with_cap`]). Generous enough for every
/// workload the paper evaluates — the CosmoFlow exhaustive space at 16 Ki
/// PEs is ≈ 226 k candidates — while refusing the astronomically large
/// spaces a hostile `batch`/`max_pes`/`sweep` combination can request.
pub const DEFAULT_CANDIDATE_CAP: u64 = 4_000_000;

/// A structured vetting failure: which field of the query was unacceptable,
/// why, and whether resubmitting the same query could ever succeed.
///
/// `retryable` is `false` for every check in this module — a vet rejection
/// is deterministic, so the daemon classifies it as a non-retryable
/// `BadRequest` and clients should fix the query instead of resending it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VetError {
    /// Dotted path of the offending field, e.g. `"cluster.device.peak_flops"`.
    pub field: String,
    /// Human-readable reason the value was refused.
    pub reason: String,
    /// Whether resubmitting the identical query could succeed. Always
    /// `false` today; carried on the wire so the retry classification
    /// survives future retryable checks (e.g. admission-load caps).
    pub retryable: bool,
}

impl VetError {
    fn new(field: impl Into<String>, reason: impl Into<String>) -> Self {
        VetError { field: field.into(), reason: reason.into(), retryable: false }
    }
}

impl std::fmt::Display for VetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for VetError {}

/// A float that must be finite and strictly positive (rates, capacities).
fn finite_positive(field: &str, v: f64) -> Result<(), VetError> {
    if !v.is_finite() {
        return Err(VetError::new(field, format!("must be finite, got {v}")));
    }
    if v <= 0.0 {
        return Err(VetError::new(field, format!("must be positive, got {v}")));
    }
    Ok(())
}

/// A float that must be finite and non-negative (latencies, inverse rates).
fn finite_non_negative(field: &str, v: f64) -> Result<(), VetError> {
    if !v.is_finite() {
        return Err(VetError::new(field, format!("must be finite, got {v}")));
    }
    if v < 0.0 {
        return Err(VetError::new(field, format!("must be non-negative, got {v}")));
    }
    Ok(())
}

/// A count that must be at least one.
fn at_least_one(field: &str, v: usize) -> Result<(), VetError> {
    if v == 0 {
        return Err(VetError::new(field, "must be at least 1"));
    }
    Ok(())
}

/// Vets a cluster specification: non-zero shape, a machine size that does
/// not overflow, and finite, sane link/device rates. [`ClusterSpec`] has no
/// inherent `validate` (the in-process constructors are correct by
/// construction); this is the wire-facing check.
fn vet_cluster(cluster: &ClusterSpec) -> Result<(), VetError> {
    at_least_one("cluster.gpus_per_node", cluster.gpus_per_node)?;
    at_least_one("cluster.nodes_per_rack", cluster.nodes_per_rack)?;
    at_least_one("cluster.racks", cluster.racks)?;
    cluster
        .gpus_per_node
        .checked_mul(cluster.nodes_per_rack)
        .and_then(|n| n.checked_mul(cluster.racks))
        .ok_or_else(|| VetError::new("cluster", "total GPU count overflows"))?;

    let d = &cluster.device;
    finite_positive("cluster.device.peak_flops", d.peak_flops)?;
    finite_positive("cluster.device.conv_efficiency", d.conv_efficiency)?;
    finite_positive("cluster.device.memory_bound_efficiency", d.memory_bound_efficiency)?;
    finite_non_negative("cluster.device.kernel_overhead", d.kernel_overhead)?;
    finite_positive("cluster.device.update_elements_per_sec", d.update_elements_per_sec)?;

    for (alpha, beta, link) in [
        ("cluster.intra_node.alpha", "cluster.intra_node.beta", &cluster.intra_node),
        ("cluster.intra_rack.alpha", "cluster.intra_rack.beta", &cluster.intra_rack),
        ("cluster.inter_rack.alpha", "cluster.inter_rack.beta", &cluster.inter_rack),
    ] {
        finite_non_negative(alpha, link.alpha)?;
        finite_non_negative(beta, link.beta)?;
    }
    Ok(())
}

/// Number of PE counts `pe_counts(lo, hi, sweep)` yields — the closed form
/// of the enumeration loop lengths in [`crate::search::StrategySpace`].
fn sweep_len(lo: usize, hi: usize, sweep: PeSweep) -> u64 {
    let lo = lo.max(1);
    if hi < lo {
        return 0;
    }
    match sweep {
        // Counts lo·2^k ≤ hi, matching `powers_of_two(lo, hi)`.
        PeSweep::PowersOfTwo => u64::from((hi / lo).ilog2()) + 1,
        PeSweep::Exhaustive => (hi - lo) as u64 + 1,
    }
}

/// Heuristic fan-out of the per-PE-count spatial factorizations: each
/// spatial PE count expands into its valid `(pw, ph[, pd])` splits. Small
/// in practice (divisor counts of realistic extents); a constant keeps the
/// estimate a cheap upper-ish bound rather than an exact census.
const SPATIAL_FANOUT: u64 = 4;

/// Analytic pre-estimate of the *work* (loop iterations, which also bounds
/// the candidate count) [`crate::search::StrategySpace::with_limits`] would
/// spend enumerating this problem: a conservative upper bound in saturating
/// arithmetic, not a census of its loops. The data+filter / data+spatial
/// hybrids are charged as a full-length `p1 ≤ batch` sweep crossed with the
/// group sizes, far more than the total-major enumeration (whose totals
/// stop at `max_pes`) runs; a huge batch therefore still counts against the
/// cap, and the accept/reject decisions stay those the committed
/// `BENCH_robust.json` and the fuzz parity checks pin.
fn enumeration_work(model: &Model, batch: usize, c: &Constraints) -> u64 {
    let max_pes = c.max_pes.max(1);
    let sweep = c.sweep;
    let min_filters = model.min_filters();
    let min_spatial = model.min_spatial_size();
    let len = |lo: usize, hi: usize| sweep_len(lo, hi, sweep);

    let mut work: u64 = 1; // Serial
    work = work.saturating_add(len(1, max_pes.min(batch))); // Data
    work = work.saturating_add(len(2, max_pes.min(min_spatial)).saturating_mul(SPATIAL_FANOUT));
    work = work.saturating_add(len(2, max_pes.min(min_filters))); // Filter
    work = work.saturating_add(len(2, max_pes.min(model.min_channels_after_first())));
    let seg_cap = c.pipeline_segments.max(1).min(batch);
    work = work
        .saturating_add(len(2, max_pes.min(model.num_layers())).saturating_mul(len(1, seg_cap)));
    // Hybrid enumerations: `batch` outer iterations plus the surviving
    // (p1, p2) pairs, bounded by outer × inner.
    let outer = len(1, batch);
    let inner =
        len(2, min_filters).saturating_add(len(2, min_spatial).saturating_mul(SPATIAL_FANOUT));
    work.saturating_add(outer).saturating_add(outer.saturating_mul(inner.min(max_pes as u64)))
}

impl Query {
    /// Vets a standalone query against the default admission cap
    /// ([`DEFAULT_CANDIDATE_CAP`]); see [`Query::vet_with_cap`].
    pub fn vet(&self) -> Result<(), VetError> {
        self.vet_with_cap(DEFAULT_CANDIDATE_CAP)
    }

    /// Vets a standalone query: presence of the full workload, the
    /// per-type `validate` fragments (model layers, training config),
    /// cluster sanity (non-zero shape, finite positive rates), constraint
    /// and mode sanity, and — for the ranked modes — an analytic
    /// pre-estimate of the enumeration work against `candidate_cap`.
    ///
    /// Runs before any engine build, on both the local [`Query::run`] path
    /// and the serve daemon's admission path, so the two reject identically.
    pub fn vet_with_cap(&self, candidate_cap: u64) -> Result<(), VetError> {
        let model =
            self.model.as_ref().ok_or_else(|| VetError::new("model", "query has no model"))?;
        let config = self.config.ok_or_else(|| VetError::new("config", "query has no config"))?;
        let cluster = self
            .cluster
            .as_ref()
            .ok_or_else(|| VetError::new("cluster", "query has no cluster"))?;

        model.validate().map_err(|e| VetError::new("model", e))?;
        config.validate().map_err(|e| VetError::new("config", format!("invalid config: {e}")))?;
        vet_cluster(cluster)?;

        at_least_one("constraints.max_pes", self.constraints.max_pes)?;
        finite_positive(
            "constraints.memory_capacity_bytes",
            self.constraints.memory_capacity_bytes,
        )?;
        if let QueryMode::Survey { pes } = self.mode {
            // p = 0 divides per-sample times by zero downstream.
            at_least_one("mode.pes", pes)?;
        }

        // Ranked modes enumerate the full candidate space; refuse problems
        // whose enumeration alone would stall the evaluator. (`top_k = 0`
        // and an empty feasible space are fine — they yield typed empty
        // answers — it is the enumeration *work* that must stay bounded.)
        if matches!(self.mode, QueryMode::TopK(_) | QueryMode::FullRank) {
            let constraints = self.effective_constraints();
            let work = enumeration_work(model, config.batch_size, &constraints);
            if work > candidate_cap {
                return Err(VetError::new(
                    "constraints",
                    format!(
                        "candidate enumeration work ≈ {work} exceeds the admission cap \
                         {candidate_cap}; reduce max_pes or batch_size, or use the \
                         powers_of_two sweep"
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::config::TrainingConfig;
    use crate::layer::Layer;

    fn model() -> Model {
        Model::new(
            "toy",
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 64, (32, 32), 3, 1, 1),
                Layer::pool2d("p1", 64, (32, 32), 2, 2),
                Layer::global_pool("g", 64, &[16, 16]),
                Layer::fully_connected("fc", 64, 10),
            ],
        )
    }

    fn good() -> Query {
        Query::top_k(5)
            .with_model(model())
            .with_config(TrainingConfig::small(8192, 64))
            .with_cluster(ClusterSpec::paper_system())
    }

    #[test]
    fn a_sane_query_vets_clean() {
        assert_eq!(good().vet(), Ok(()));
    }

    #[test]
    fn missing_workload_parts_name_their_field() {
        assert_eq!(Query::suggest().vet().unwrap_err().field, "model");
        let e = Query::suggest().with_model(model()).vet().unwrap_err();
        assert_eq!(e.field, "config");
        let e = Query::suggest()
            .with_model(model())
            .with_config(TrainingConfig::small(8192, 64))
            .vet()
            .unwrap_err();
        assert_eq!(e.field, "cluster");
    }

    #[test]
    fn vet_rejections_are_never_retryable() {
        let mut q = good();
        q.config = Some(TrainingConfig::small(8, 64));
        let e = q.vet().unwrap_err();
        assert!(!e.retryable);
        assert!(e.to_string().contains("invalid config"), "{e}");
    }

    #[test]
    fn degenerate_clusters_are_refused() {
        let mut q = good();
        let mut cluster = ClusterSpec::paper_system();
        cluster.gpus_per_node = 0;
        q.cluster = Some(cluster.clone());
        assert_eq!(q.vet().unwrap_err().field, "cluster.gpus_per_node");

        cluster.gpus_per_node = usize::MAX;
        cluster.nodes_per_rack = 2;
        q.cluster = Some(cluster.clone());
        assert_eq!(q.vet().unwrap_err().field, "cluster");

        cluster = ClusterSpec::paper_system();
        cluster.device.peak_flops = f64::NAN;
        q.cluster = Some(cluster.clone());
        assert_eq!(q.vet().unwrap_err().field, "cluster.device.peak_flops");

        cluster = ClusterSpec::paper_system();
        cluster.device.peak_flops = 0.0;
        q.cluster = Some(cluster.clone());
        assert!(q.vet().unwrap_err().reason.contains("positive"));

        cluster = ClusterSpec::paper_system();
        cluster.intra_rack.beta = f64::INFINITY;
        q.cluster = Some(cluster);
        assert_eq!(q.vet().unwrap_err().field, "cluster.intra_rack.beta");
    }

    #[test]
    fn hostile_constraints_and_modes_are_refused() {
        let mut q = good();
        q.constraints.max_pes = 0;
        assert_eq!(q.vet().unwrap_err().field, "constraints.max_pes");

        let mut q = good();
        q.constraints.memory_capacity_bytes = f64::NAN;
        assert_eq!(q.vet().unwrap_err().field, "constraints.memory_capacity_bytes");

        let mut q = good().with_mode(QueryMode::Survey { pes: 0 });
        assert_eq!(q.vet().unwrap_err().field, "mode.pes");
        q.mode = QueryMode::Survey { pes: 16 };
        assert_eq!(q.vet(), Ok(()));
    }

    #[test]
    fn enumeration_blowups_hit_the_admission_cap() {
        // Structurally valid but extreme: an exhaustive sweep over a huge
        // batch makes the hybrid p1 loop alone run ~2^40 iterations.
        let mut q = good();
        q.config = Some(TrainingConfig::small(1 << 41, 1 << 40));
        q.constraints.max_pes = usize::MAX;
        q.constraints.sweep = PeSweep::Exhaustive;
        let e = q.vet().unwrap_err();
        assert_eq!(e.field, "constraints");
        assert!(e.reason.contains("admission cap"), "{e}");

        // The same extremes under the powers-of-two sweep are cheap, and
        // non-ranked modes never enumerate — both must pass.
        q.constraints.sweep = PeSweep::PowersOfTwo;
        assert_eq!(q.vet(), Ok(()));
        q.constraints.sweep = PeSweep::Exhaustive;
        q.mode = QueryMode::Suggest;
        assert_eq!(q.vet(), Ok(()));
    }

    #[test]
    fn the_paper_workloads_clear_the_cap_with_room() {
        // The served load-generator workload (ResNet-50-ish shape, batch
        // 1024, exhaustive, 1024 PEs) must be admitted.
        let mut q = good();
        q.config = Some(TrainingConfig::imagenet(1024));
        q.constraints.max_pes = 1024;
        q.constraints.sweep = PeSweep::Exhaustive;
        assert_eq!(q.vet(), Ok(()));
        let work = enumeration_work(q.model.as_ref().unwrap(), 1024, &q.effective_constraints());
        assert!(work < DEFAULT_CANDIDATE_CAP / 2, "estimate {work} leaves no headroom");
    }

    #[test]
    fn sweep_len_matches_the_enumeration_helpers() {
        use crate::scaling::powers_of_two;
        for (lo, hi) in [(1usize, 1usize), (1, 64), (2, 63), (2, 64), (1, 1000), (5, 4)] {
            assert_eq!(
                sweep_len(lo, hi, PeSweep::PowersOfTwo),
                powers_of_two(lo, hi).len() as u64,
                "powers_of_two({lo}, {hi})"
            );
            let exhaustive = (lo.max(1)..=hi).count() as u64;
            assert_eq!(sweep_len(lo, hi, PeSweep::Exhaustive), exhaustive, "({lo}, {hi})");
        }
    }
}
