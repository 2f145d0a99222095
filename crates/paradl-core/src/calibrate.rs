//! Calibration loop: fitting per-family overhead parameters from conformance
//! replays (closing the paper's §5.2 oracle-vs-measured loop).
//!
//! The analytic cost model is deliberately framework-free: it projects pure
//! algorithm time (paper Table 3) while a real training run — and the
//! `paradl-sim` stand-in for one — pays framework overheads on top. The §5.2
//! conformance sweep shows this as a *systematic, per-family bias*: the
//! `data+filter` hybrid's segmented Allreduce is under-projected while its
//! layer-wise collectives are over-projected, and the framework's per-layer
//! split/concat glue adds a fixed per-iteration latency the model does not
//! know about. Because the biases are phase-structured and family-specific,
//! they can be fitted and removed without touching the cost model itself.
//!
//! This module provides that closed loop:
//!
//! * [`CalSample`] — one replay observation: the oracle's per-phase
//!   projection for a concrete strategy against the measured total time,
//! * [`Calibration`] — per-[`StrategyKind`] parameter vectors
//!   ([`FamilyScale`]) fitted by [`Calibration::fit`]: a deterministic,
//!   closed-form weighted least-squares solve (weights `1/measured²`, i.e.
//!   squared *relative* error — the quantity §5.2 reports) over a ladder of
//!   regressor bases, followed by a bias-zeroing rescale so each family's
//!   mean signed relative error on its training samples is driven to zero,
//!   and applied to a finished [`CostEngine`](crate::engine::CostEngine)
//!   estimate in O(1) by
//!   [`Calibration::apply_estimate`].
//!
//! **Bit-consistency.** Calibration multiplies *finished* phase breakdowns;
//! the engine's internal batch-last [`CommCoef`](crate::engine) pricing —
//! the `fixed + batch·per_sample` coefficients that estimates and the
//! kernel share — runs uncalibrated underneath and keeps holding verbatim.
//! Scaling the coefficients themselves would be algebraically equivalent
//! but *not* bit-equivalent (floating-point multiplication does not
//! distribute), so calibration scales finished phases, never coefficients.
//! A direct consequence: [`Calibration::identity`] is bit-identical to the
//! uncalibrated engine (`1.0 * x == x` and `x + 0.0 == x` bitwise for every
//! finite non-negative `x`, and the engine verifies its outputs finite at
//! build time).
//!
//! **Determinism.** The fit is closed-form — no iterative optimizer, no
//! RNG — so equal samples produce an equal `Calibration` down to the bits.
//! The `seed` field records the provenance of the replay harness that
//! generated the samples (the conformance base seed), so a committed
//! calibration names the exact replay population it was fitted on.

use crate::cost::{CostEstimate, PhaseBreakdown};
use crate::jsonio::Json;
use crate::strategy::{Strategy, StrategyKind};

/// One calibration observation: the oracle's projected per-phase times
/// (per-epoch seconds) for a concrete strategy, against the measured (or
/// simulated) total time of the same run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalSample {
    /// The strategy the replay executed.
    pub strategy: Strategy,
    /// Projected per-epoch compute time (`PhaseBreakdown::compute`).
    pub compute: f64,
    /// Projected per-epoch gradient-exchange time.
    pub grad: f64,
    /// Projected per-epoch layer-wise (FB) collective time.
    pub fbc: f64,
    /// Projected per-epoch halo-exchange time.
    pub halo: f64,
    /// Projected per-epoch pipeline point-to-point time.
    pub p2p: f64,
    /// Iterations per epoch (carrier of additive per-iteration overheads).
    pub iterations: f64,
    /// Measured per-epoch total time.
    pub measured: f64,
}

impl CalSample {
    /// Builds a sample from a projected estimate and a measured total.
    pub fn from_estimate(cost: &CostEstimate, measured: f64) -> CalSample {
        let e = &cost.per_epoch;
        CalSample {
            strategy: cost.strategy,
            compute: e.compute(),
            grad: e.gradient_exchange,
            fbc: e.fb_collective,
            halo: e.halo_exchange,
            p2p: e.pipeline_p2p,
            iterations: cost.iterations as f64,
            measured,
        }
    }

    /// Projected communication total (all four comm phases).
    pub fn comm(&self) -> f64 {
        self.grad + self.fbc + self.halo + self.p2p
    }

    /// Whether the sample can participate in a fit: every projected term
    /// and the measured time finite, and the measured time positive (a
    /// zero or negative measurement carries no scale information).
    pub fn usable(&self) -> bool {
        self.compute.is_finite()
            && self.grad.is_finite()
            && self.fbc.is_finite()
            && self.halo.is_finite()
            && self.p2p.is_finite()
            && self.iterations.is_finite()
            && self.measured.is_finite()
            && self.measured > 0.0
    }

    /// The regressor vector of the sample in fit-basis order.
    fn features(&self) -> [f64; NUM_FEATURES] {
        [
            self.compute,
            self.grad,
            self.fbc,
            self.halo,
            self.p2p,
            self.iterations,
            self.grad * (split_degree(&self.strategy) - 1.0),
        ]
    }
}

/// Intra-group split degree of a strategy: the number of PEs each conv
/// layer's work is divided over — the knob the framework's imperfect-scaling
/// overhead grows with, and the number of concurrent segmented-Allreduce
/// rings of the data+filter hybrid.
fn split_degree(strategy: &Strategy) -> f64 {
    match *strategy {
        Strategy::Filter { p } | Strategy::Channel { p } => p as f64,
        Strategy::DataFilter { p2, .. } => p2 as f64,
        _ => 1.0,
    }
}

/// Number of regressors in the full fit basis: compute, the four
/// communication phases, iterations (additive latency), and the
/// gradient×(split−1) interaction.
const NUM_FEATURES: usize = 7;

/// Regressor indices of the fit basis (documentation of `features()` order).
#[cfg(test)]
const F_COMPUTE: usize = 0;
#[cfg(test)]
const F_GRAD: usize = 1;
#[cfg(test)]
const F_ITER: usize = 5;
#[cfg(test)]
const F_GRAD_SPLIT: usize = 6;

/// The fitted overhead parameters of one strategy family: multiplicative
/// scales per projected phase, an additive per-iteration latency, and a
/// split-degree interaction on the gradient exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilyScale {
    /// Multiplier on the compute phases (forward/backward + weight update).
    pub compute_scale: f64,
    /// Multiplier on the gradient-exchange phase (at split degree 1).
    pub grad_scale: f64,
    /// Multiplier on the layer-wise (FB) collective phase.
    pub fbc_scale: f64,
    /// Multiplier on the halo-exchange phase.
    pub halo_scale: f64,
    /// Multiplier on the pipeline point-to-point phase.
    pub p2p_scale: f64,
    /// Additive overhead in seconds per iteration (framework glue such as
    /// per-layer split/concat latency), accounted against the
    /// forward/backward phase.
    pub iteration_overhead: f64,
    /// Increment of the gradient-exchange multiplier per unit of
    /// `split_degree − 1` (self-contention of concurrent segmented rings).
    pub grad_split_scale: f64,
    /// How many usable replay samples the family was fitted on (0 means
    /// the family fell back to identity).
    pub samples: usize,
}

impl FamilyScale {
    /// The do-nothing parameters.
    pub const IDENTITY: FamilyScale = FamilyScale {
        compute_scale: 1.0,
        grad_scale: 1.0,
        fbc_scale: 1.0,
        halo_scale: 1.0,
        p2p_scale: 1.0,
        iteration_overhead: 0.0,
        grad_split_scale: 0.0,
        samples: 0,
    };

    /// Whether every parameter is at its identity value.
    pub fn is_identity(&self) -> bool {
        self.compute_scale == 1.0
            && self.grad_scale == 1.0
            && self.fbc_scale == 1.0
            && self.halo_scale == 1.0
            && self.p2p_scale == 1.0
            && self.iteration_overhead == 0.0
            && self.grad_split_scale == 0.0
    }

    /// The parameter vector in [`CalSample::features`] order.
    fn coefficients(&self) -> [f64; NUM_FEATURES] {
        [
            self.compute_scale,
            self.grad_scale,
            self.fbc_scale,
            self.halo_scale,
            self.p2p_scale,
            self.iteration_overhead,
            self.grad_split_scale,
        ]
    }

    /// Calibrated total epoch time of `sample` under this scale:
    /// `features · coefficients`, summed in feature order.
    fn predict(&self, sample: &CalSample) -> f64 {
        sample.features().iter().zip(self.coefficients()).map(|(x, c)| x * c).sum()
    }

    /// Builds a scale from a coefficient vector over a regressor subset:
    /// unfitted parameters stay at identity (no evidence, no adjustment).
    fn from_fit(cols: &[usize], beta: &[f64], samples: usize) -> FamilyScale {
        let mut coef = FamilyScale::IDENTITY.coefficients();
        for (&c, &b) in cols.iter().zip(beta) {
            coef[c] = b;
        }
        FamilyScale {
            compute_scale: coef[0],
            grad_scale: coef[1],
            fbc_scale: coef[2],
            halo_scale: coef[3],
            p2p_scale: coef[4],
            iteration_overhead: coef[5],
            grad_split_scale: coef[6],
            samples,
        }
    }

    /// Whether the parameters are admissible as a calibration: every phase
    /// multiplier positive and finite, the additive and interaction terms
    /// non-negative and finite. Guarantees calibrated times of non-negative
    /// finite estimates stay non-negative and finite.
    fn admissible(&self) -> bool {
        let positive =
            [self.compute_scale, self.grad_scale, self.fbc_scale, self.halo_scale, self.p2p_scale];
        positive.iter().all(|v| v.is_finite() && *v > 0.0)
            && self.iteration_overhead.is_finite()
            && self.iteration_overhead >= 0.0
            && self.grad_split_scale.is_finite()
            && self.grad_split_scale >= 0.0
    }
}

/// Index of a family in [`StrategyKind::ALL`] (the storage order of
/// [`Calibration`]).
fn family_index(kind: StrategyKind) -> usize {
    StrategyKind::ALL.iter().position(|&k| k == kind).expect("every kind is in ALL")
}

/// Per-family overhead calibration, fitted from conformance replays. Apply
/// with [`Calibration::apply_estimate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Parameters in [`StrategyKind::ALL`] order.
    scales: [FamilyScale; StrategyKind::ALL.len()],
    /// Base seed of the replay harness the training samples came from
    /// (provenance only — the fit itself is closed-form).
    pub seed: u64,
}

impl Calibration {
    /// The identity calibration: every family at the identity parameters.
    pub fn identity() -> Calibration {
        Calibration { scales: [FamilyScale::IDENTITY; StrategyKind::ALL.len()], seed: 0 }
    }

    /// Whether every family is at the identity parameters.
    pub fn is_identity(&self) -> bool {
        self.scales.iter().all(FamilyScale::is_identity)
    }

    /// The fitted parameters of `kind`.
    pub fn scale_for(&self, kind: StrategyKind) -> FamilyScale {
        self.scales[family_index(kind)]
    }

    /// Total usable samples across all families.
    pub fn num_samples(&self) -> usize {
        self.scales.iter().map(|s| s.samples).sum()
    }

    /// Fits per-family parameters from replay samples. Deterministic: the
    /// closed-form solve involves no RNG, so equal inputs give bit-equal
    /// outputs; `seed` only records where the samples came from.
    ///
    /// Per family the fit evaluates a ladder of weighted least-squares
    /// candidates (weights `1/measured²`) of decreasing expressiveness —
    ///
    /// 1. per-phase scales + per-iteration latency + gradient×split
    ///    interaction,
    /// 2. per-phase scales + per-iteration latency,
    /// 3. per-phase scales,
    /// 4. one compute scale and one aggregate communication scale,
    /// 5. a single common scale zeroing the bias directly,
    /// 6. the identity —
    ///
    /// each restricted to the regressors actually present in the family's
    /// samples, rejected unless admissible (positive phase multipliers,
    /// non-negative latency/interaction), rescaled to zero the family's
    /// mean signed relative error, and scored by mean training accuracy
    /// (§5.2's metric); the best admissible candidate wins, ties preferring
    /// the earlier (more expressive) one. Because the identity is always a
    /// candidate, a fitted family can never score below its uncalibrated
    /// training accuracy, and because every fitted candidate is bias-zeroed,
    /// the fit never increases a family's |mean signed error| on its own
    /// training samples. Families with no usable sample stay identity.
    pub fn fit(samples: &[CalSample], seed: u64) -> Calibration {
        let mut scales = [FamilyScale::IDENTITY; StrategyKind::ALL.len()];
        for (i, &kind) in StrategyKind::ALL.iter().enumerate() {
            let family: Vec<CalSample> = samples
                .iter()
                .filter(|s| s.strategy.kind() == kind && s.usable())
                .copied()
                .collect();
            if family.is_empty() {
                continue;
            }
            let mut best = FamilyScale { samples: family.len(), ..FamilyScale::IDENTITY };
            let mut best_accuracy = mean_accuracy(&family, &best);
            let ladder: [&[usize]; 3] =
                [&[0, 1, 2, 3, 4, 5, 6], &[0, 1, 2, 3, 4, 5], &[0, 1, 2, 3, 4]];
            let candidates = ladder
                .iter()
                .map(|cols| wls_candidate(&family, cols))
                .chain([compute_comm_candidate(&family), common_scale(&family)]);
            for candidate in candidates.flatten() {
                let candidate = rezero_bias(&family, candidate);
                if !candidate.admissible() {
                    continue;
                }
                let accuracy = mean_accuracy(&family, &candidate);
                if accuracy > best_accuracy {
                    best = candidate;
                    best_accuracy = accuracy;
                }
            }
            scales[i] = best;
        }
        Calibration { scales, seed }
    }

    /// Applies the calibration to a finished estimate: each time phase is
    /// multiplied by its family parameter, the per-iteration latency is
    /// added to the forward/backward phase, and the gradient exchange
    /// additionally grows with the strategy's split degree; memory and
    /// iteration count are untouched (calibration corrects time bias, not
    /// footprints). O(1).
    pub fn apply_estimate(&self, cost: &CostEstimate) -> CostEstimate {
        let s = self.scale_for(cost.strategy.kind());
        let e = &cost.per_epoch;
        let grad_scale = s.grad_scale + s.grad_split_scale * (split_degree(&cost.strategy) - 1.0);
        CostEstimate {
            strategy: cost.strategy,
            per_epoch: PhaseBreakdown {
                forward_backward: e.forward_backward * s.compute_scale
                    + s.iteration_overhead * cost.iterations as f64,
                weight_update: e.weight_update * s.compute_scale,
                gradient_exchange: e.gradient_exchange * grad_scale,
                fb_collective: e.fb_collective * s.fbc_scale,
                halo_exchange: e.halo_exchange * s.halo_scale,
                pipeline_p2p: e.pipeline_p2p * s.p2p_scale,
            },
            iterations: cost.iterations,
            memory_per_pe_bytes: cost.memory_per_pe_bytes,
        }
    }

    /// Calibrated total epoch time of a projected sample (the quantity the
    /// conformance loop compares against the measured side).
    pub fn project(&self, sample: &CalSample) -> f64 {
        self.scale_for(sample.strategy.kind()).predict(sample)
    }

    /// Serializes the calibration (family table + provenance seed).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::num(self.seed as f64)),
            (
                "families",
                Json::Arr(
                    StrategyKind::ALL
                        .iter()
                        .map(|&kind| {
                            let s = self.scale_for(kind);
                            Json::obj([
                                ("family", Json::str(kind.to_string())),
                                ("compute_scale", Json::num(s.compute_scale)),
                                ("grad_scale", Json::num(s.grad_scale)),
                                ("fbc_scale", Json::num(s.fbc_scale)),
                                ("halo_scale", Json::num(s.halo_scale)),
                                ("p2p_scale", Json::num(s.p2p_scale)),
                                ("iteration_overhead", Json::num(s.iteration_overhead)),
                                ("grad_split_scale", Json::num(s.grad_split_scale)),
                                ("samples", Json::count(s.samples)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a calibration serialized by [`Calibration::to_json`]. Errors
    /// (never panics) on missing fields, unknown family names or
    /// inadmissible parameters — this sits on the serve daemon's
    /// untrusted-input path.
    pub fn from_json(json: &Json) -> Result<Calibration, String> {
        let seed =
            json.get("seed").and_then(Json::number).ok_or("calibration missing seed")? as u64;
        let mut cal = Calibration::identity();
        cal.seed = seed;
        let families =
            json.get("families").and_then(Json::array).ok_or("calibration missing families")?;
        for f in families {
            let name =
                f.get("family").and_then(Json::string).ok_or("calibration family missing name")?;
            let kind = StrategyKind::ALL
                .iter()
                .copied()
                .find(|k| k.to_string() == name)
                .ok_or_else(|| format!("unknown calibration family {name:?}"))?;
            let field = |key: &str| -> Result<f64, String> {
                f.get(key)
                    .and_then(Json::number)
                    .ok_or_else(|| format!("calibration family {name:?} missing {key}"))
            };
            let scale = FamilyScale {
                compute_scale: field("compute_scale")?,
                grad_scale: field("grad_scale")?,
                fbc_scale: field("fbc_scale")?,
                halo_scale: field("halo_scale")?,
                p2p_scale: field("p2p_scale")?,
                iteration_overhead: field("iteration_overhead")?,
                grad_split_scale: field("grad_split_scale")?,
                samples: f.get("samples").and_then(Json::usize).unwrap_or(0),
            };
            if !scale.admissible() {
                return Err(format!("calibration family {name:?} has inadmissible parameters"));
            }
            cal.scales[family_index(kind)] = scale;
        }
        Ok(cal)
    }
}

/// Mean §5.2 accuracy of a candidate over training samples.
fn mean_accuracy(samples: &[CalSample], scale: &FamilyScale) -> f64 {
    let sum: f64 = samples
        .iter()
        .map(|s| crate::oracle::projection_accuracy(scale.predict(s), s.measured))
        .sum();
    sum / samples.len() as f64
}

/// Weighted least-squares fit of `measured ≈ Σ βᵢ·featureᵢ` over a regressor
/// subset, weights `1/measured²` (squared relative error). Regressors that
/// are zero in every sample are dropped (their parameter stays identity);
/// returns `None` when fewer samples than remaining regressors or when the
/// normal system is singular.
fn wls_candidate(samples: &[CalSample], cols: &[usize]) -> Option<FamilyScale> {
    let cols: Vec<usize> =
        cols.iter().copied().filter(|&c| samples.iter().any(|s| s.features()[c] != 0.0)).collect();
    if cols.is_empty() || samples.len() < cols.len() {
        return None;
    }
    let k = cols.len();
    // Normal equations [M | v] of the weighted system.
    let mut m = vec![vec![0.0f64; k + 1]; k];
    for s in samples {
        let x = s.features();
        let w = 1.0 / (s.measured * s.measured);
        for (i, &ci) in cols.iter().enumerate() {
            for (j, &cj) in cols.iter().enumerate() {
                m[i][j] += w * x[ci] * x[cj];
            }
            m[i][k] += w * x[ci] * s.measured;
        }
    }
    let beta = solve_normal_equations(m)?;
    Some(FamilyScale::from_fit(&cols, &beta, samples.len()))
}

/// Solves the augmented normal system `[M | v]` by Gauss–Jordan elimination
/// with partial pivoting (deterministic — pivot choice depends only on the
/// values). Returns `None` on a (near-)singular system, measured against
/// the largest diagonal magnitude so the test is scale-free.
fn solve_normal_equations(mut m: Vec<Vec<f64>>) -> Option<Vec<f64>> {
    let k = m.len();
    let magnitude = (0..k).map(|i| m[i][i].abs()).fold(0.0f64, f64::max);
    if !(magnitude.is_finite() && magnitude > 0.0) {
        return None;
    }
    for col in 0..k {
        let piv = (col..k).max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))?;
        if !(m[piv][col].is_finite() && m[piv][col].abs() > 1e-12 * magnitude) {
            return None;
        }
        m.swap(col, piv);
        let pivot_row = m[col].clone();
        for (row, r) in m.iter_mut().enumerate() {
            if row == col {
                continue;
            }
            let f = r[col] / pivot_row[col];
            for (rj, pj) in r.iter_mut().zip(&pivot_row).skip(col) {
                *rj -= f * pj;
            }
        }
    }
    let beta: Vec<f64> = (0..k).map(|i| m[i][k] / m[i][i]).collect();
    beta.iter().all(|b| b.is_finite()).then_some(beta)
}

/// The 2-parameter candidate: one scale on compute, one on the aggregate of
/// all communication phases (applied to each phase identically).
fn compute_comm_candidate(samples: &[CalSample]) -> Option<FamilyScale> {
    let (mut scc, mut scm, mut smm, mut scy, mut smy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    for s in samples {
        let w = 1.0 / (s.measured * s.measured);
        let comm = s.comm();
        scc += w * s.compute * s.compute;
        scm += w * s.compute * comm;
        smm += w * comm * comm;
        scy += w * s.compute * s.measured;
        smy += w * comm * s.measured;
    }
    let det = scc * smm - scm * scm;
    if !(det.is_finite() && det.abs() > 1e-12 * scc.max(smm).powi(2).max(f64::MIN_POSITIVE)) {
        return None;
    }
    let a = (smm * scy - scm * smy) / det;
    let b = (scc * smy - scm * scy) / det;
    Some(FamilyScale {
        compute_scale: a,
        grad_scale: b,
        fbc_scale: b,
        halo_scale: b,
        p2p_scale: b,
        samples: samples.len(),
        ..FamilyScale::IDENTITY
    })
}

/// A single common scale on every phase, chosen so the mean signed relative
/// error over the samples is exactly zero: `s = n / Σ (totalᵢ/measuredᵢ)`.
fn common_scale(samples: &[CalSample]) -> Option<FamilyScale> {
    let ratio_sum: f64 = samples.iter().map(|s| (s.compute + s.comm()) / s.measured).sum();
    if !(ratio_sum.is_finite() && ratio_sum > 0.0) {
        return None;
    }
    let s = samples.len() as f64 / ratio_sum;
    if !(s.is_finite() && s > 0.0) {
        return None;
    }
    Some(FamilyScale {
        compute_scale: s,
        grad_scale: s,
        fbc_scale: s,
        halo_scale: s,
        p2p_scale: s,
        samples: samples.len(),
        ..FamilyScale::IDENTITY
    })
}

/// Rescales a candidate so its mean signed relative error on the samples is
/// zero: with predictions `pᵢ`, multiply every parameter by
/// `t = n / Σ (pᵢ/measuredᵢ)`. A least-squares solve minimizes squared
/// error, which tolerates residual bias; the §5.2 headline metric is the
/// *signed* error, so the bias is zeroed explicitly. (Scaling the additive
/// latency together with the multiplicative terms preserves the model
/// shape, and a positive `t` preserves admissibility.) Falls back to the
/// unrescaled candidate when `t` is degenerate.
fn rezero_bias(samples: &[CalSample], scale: FamilyScale) -> FamilyScale {
    let ratio_sum: f64 = samples.iter().map(|s| scale.predict(s) / s.measured).sum();
    if !(ratio_sum.is_finite() && ratio_sum > 0.0) {
        return scale;
    }
    let t = samples.len() as f64 / ratio_sum;
    if !(t.is_finite() && t > 0.0) {
        return scale;
    }
    FamilyScale {
        compute_scale: scale.compute_scale * t,
        grad_scale: scale.grad_scale * t,
        fbc_scale: scale.fbc_scale * t,
        halo_scale: scale.halo_scale * t,
        p2p_scale: scale.p2p_scale * t,
        iteration_overhead: scale.iteration_overhead * t,
        grad_split_scale: scale.grad_split_scale * t,
        samples: scale.samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::compute::DeviceProfile;
    use crate::config::TrainingConfig;
    use crate::engine::CostEngine;
    use crate::layer::Layer;
    use crate::model::Model;

    fn sample(strategy: Strategy, compute: f64, comm: f64, measured: f64) -> CalSample {
        // Puts the whole communication budget on the phase the strategy
        // family actually uses, like real estimates do.
        let (mut grad, mut fbc, mut halo, mut p2p) = (0.0, 0.0, 0.0, 0.0);
        match strategy.kind() {
            StrategyKind::Filter | StrategyKind::Channel => fbc = comm,
            StrategyKind::Spatial => halo = comm,
            StrategyKind::Pipeline => p2p = comm,
            _ => grad = comm,
        }
        CalSample { strategy, compute, grad, fbc, halo, p2p, iterations: 1.0, measured }
    }

    fn signed_errors(samples: &[CalSample], cal: &Calibration) -> f64 {
        samples.iter().map(|s| (cal.project(s) - s.measured) / s.measured).sum::<f64>()
            / samples.len() as f64
    }

    #[test]
    fn fit_recovers_exact_multiplicative_bias() {
        // Measured = 1.3·compute + 2.0·grad exactly, with grad growing
        // quadratically so the two columns are not collinear: the fit must
        // recover the scales and the calibrated projections become exact.
        let samples: Vec<CalSample> = (1..=8)
            .map(|i| {
                let c = i as f64;
                let m = 0.1 * c * c;
                sample(Strategy::Data { p: 1 << i }, c, m, 1.3 * c + 2.0 * m)
            })
            .collect();
        let cal = Calibration::fit(&samples, 7);
        let s = cal.scale_for(StrategyKind::Data);
        assert!((s.compute_scale - 1.3).abs() < 1e-6, "{s:?}");
        assert!((s.grad_scale - 2.0).abs() < 1e-6, "{s:?}");
        assert_eq!(s.samples, 8);
        assert_eq!(cal.seed, 7);
        for s in &samples {
            assert!((cal.project(s) - s.measured).abs() < 1e-9 * s.measured);
        }
        // Untouched families stay identity.
        assert!(cal.scale_for(StrategyKind::Pipeline).is_identity());
    }

    #[test]
    fn fit_recovers_split_interaction_and_latency() {
        // DataFilter population with a per-iteration latency and a
        // gradient multiplier that grows with the split degree — the full
        // ladder rung must recover all parameters near-exactly.
        let mut samples = Vec::new();
        for (i, &p2) in [2usize, 2, 4, 4, 8, 8, 16, 16].iter().enumerate() {
            let c = 1.0 + i as f64;
            let g = 0.4 * c * c;
            let iters = 50.0 + 10.0 * i as f64;
            let measured = 1.2 * c + (1.5 + 0.25 * (p2 as f64 - 1.0)) * g + 0.02 * iters;
            samples.push(CalSample {
                strategy: Strategy::DataFilter { p1: 2, p2 },
                compute: c,
                grad: g,
                fbc: 0.0,
                halo: 0.0,
                p2p: 0.0,
                iterations: iters,
                measured,
            });
        }
        let cal = Calibration::fit(&samples, 11);
        let s = cal.scale_for(StrategyKind::DataFilter);
        assert!((s.compute_scale - 1.2).abs() < 1e-6, "{s:?}");
        assert!((s.grad_scale - 1.5).abs() < 1e-6, "{s:?}");
        assert!((s.grad_split_scale - 0.25).abs() < 1e-6, "{s:?}");
        assert!((s.iteration_overhead - 0.02).abs() < 1e-6, "{s:?}");
        for s in &samples {
            assert!((cal.project(s) - s.measured).abs() < 1e-9 * s.measured);
        }
    }

    #[test]
    fn fit_zero_comm_family_falls_back_to_common_scale() {
        // Serial samples have no communication: the per-phase systems are
        // degenerate and the common-scale path must still remove the bias.
        let samples: Vec<CalSample> =
            (1..=5).map(|i| sample(Strategy::Serial, i as f64, 0.0, 1.5 * i as f64)).collect();
        let cal = Calibration::fit(&samples, 0);
        let s = cal.scale_for(StrategyKind::Serial);
        assert!((s.compute_scale - 1.5).abs() < 1e-9, "{s:?}");
        assert!(signed_errors(&samples, &cal).abs() < 1e-12);
    }

    #[test]
    fn fit_zeroes_training_bias_even_with_noise() {
        // Noisy measurements around 1.4× the projection: the mean signed
        // relative error after calibration must be ~0 and never larger in
        // magnitude than before.
        let noise = [1.1, 0.92, 1.05, 0.97, 1.15, 0.88];
        let samples: Vec<CalSample> = noise
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let c = (i + 1) as f64;
                sample(Strategy::Data { p: 1 << i }, c, 0.3 * c, 1.4 * 1.3 * c * n)
            })
            .collect();
        let before = signed_errors(&samples, &Calibration::identity()).abs();
        let cal = Calibration::fit(&samples, 1);
        let after = signed_errors(&samples, &cal).abs();
        assert!(after <= before + 1e-9, "bias grew: {before} -> {after}");
        assert!(after < 1e-9, "bias not zeroed: {after}");
    }

    #[test]
    fn fit_rejects_inadmissible_candidates() {
        // A population engineered so an unconstrained per-phase solve wants
        // a negative compute coefficient (measured *shrinks* as compute
        // grows): the fitted calibration must still be admissible — no
        // negative multipliers ever reach the query surface.
        let samples: Vec<CalSample> = (1..=6)
            .map(|i| {
                let c = i as f64;
                sample(Strategy::Data { p: 1 << i }, c, 10.0 * c * c, 30.0 * c * c - 0.5 * c)
            })
            .collect();
        let cal = Calibration::fit(&samples, 2);
        let s = cal.scale_for(StrategyKind::Data);
        assert!(s.admissible(), "{s:?}");
        assert!(s.compute_scale > 0.0 && s.grad_scale > 0.0);
    }

    #[test]
    fn fit_ignores_degenerate_samples() {
        let good: Vec<CalSample> = (1..=4)
            .map(|i| sample(Strategy::Data { p: i }, i as f64, 1.0, 2.0 * i as f64))
            .collect();
        let mut poisoned = good.clone();
        poisoned.push(sample(Strategy::Data { p: 32 }, 1.0, 1.0, f64::NAN));
        poisoned.push(sample(Strategy::Data { p: 64 }, 1.0, 1.0, f64::INFINITY));
        poisoned.push(sample(Strategy::Data { p: 128 }, 1.0, 1.0, 0.0));
        poisoned.push(sample(Strategy::Data { p: 256 }, f64::NAN, 1.0, 1.0));
        let a = Calibration::fit(&good, 3);
        let b = Calibration::fit(&poisoned, 3);
        assert_eq!(a.scale_for(StrategyKind::Data), b.scale_for(StrategyKind::Data));
    }

    #[test]
    fn fit_of_no_samples_is_identity() {
        let cal = Calibration::fit(&[], 9);
        assert!(cal.is_identity());
        assert_eq!(cal.num_samples(), 0);
    }

    #[test]
    fn apply_estimate_scales_time_phases_only() {
        let mut cal = Calibration::identity();
        cal.scales[family_index(StrategyKind::Data)] = FamilyScale {
            compute_scale: 2.0,
            grad_scale: 3.0,
            iteration_overhead: 0.1,
            ..FamilyScale::IDENTITY
        };
        let cost = CostEstimate {
            strategy: Strategy::Data { p: 4 },
            per_epoch: PhaseBreakdown {
                forward_backward: 1.0,
                weight_update: 0.5,
                gradient_exchange: 0.25,
                fb_collective: 0.0,
                halo_exchange: 0.0,
                pipeline_p2p: 0.0,
            },
            iterations: 10,
            memory_per_pe_bytes: 1e9,
        };
        let out = cal.apply_estimate(&cost);
        // forward_backward 1.0·2 + 0.1·10 iterations = 3.0, update 0.5·2.
        assert_eq!(out.per_epoch.compute(), 4.0);
        assert_eq!(out.per_epoch.communication(), 0.75);
        assert_eq!(out.iterations, 10);
        assert_eq!(out.memory_per_pe_bytes, 1e9);
        assert_eq!(out.strategy, cost.strategy);
    }

    #[test]
    fn apply_estimate_grows_gradient_scale_with_split_degree() {
        let mut cal = Calibration::identity();
        cal.scales[family_index(StrategyKind::DataFilter)] =
            FamilyScale { grad_scale: 2.0, grad_split_scale: 0.5, ..FamilyScale::IDENTITY };
        let base = CostEstimate {
            strategy: Strategy::DataFilter { p1: 4, p2: 4 },
            per_epoch: PhaseBreakdown {
                forward_backward: 0.0,
                weight_update: 0.0,
                gradient_exchange: 1.0,
                fb_collective: 0.0,
                halo_exchange: 0.0,
                pipeline_p2p: 0.0,
            },
            iterations: 1,
            memory_per_pe_bytes: 0.0,
        };
        // p2 = 4 → gradient multiplier 2.0 + 0.5·3 = 3.5.
        assert_eq!(cal.apply_estimate(&base).per_epoch.gradient_exchange, 3.5);
    }

    fn toy_engine_model() -> Model {
        Model::new(
            "cal-toy",
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 16, (32, 32), 3, 1, 1),
                Layer::pool2d("p1", 16, (32, 32), 2, 2),
                Layer::conv2d("c2", 16, 32, (16, 16), 3, 1, 1),
                Layer::global_pool("g", 32, &[16, 16]),
                Layer::fully_connected("fc", 32, 10),
            ],
        )
    }

    #[test]
    fn identity_model_is_bit_identical_to_engine() {
        let model = toy_engine_model();
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let config = TrainingConfig::small(4096, 64);
        let engine = CostEngine::new(&model, &device, &cluster, config).unwrap();
        let identity = Calibration::identity();
        for s in [
            Strategy::Serial,
            Strategy::Data { p: 8 },
            Strategy::Filter { p: 4 },
            Strategy::DataFilter { p1: 4, p2: 4 },
            Strategy::Pipeline { p: 4, segments: 8 },
        ] {
            let raw = engine.estimate(s);
            let cal = identity.apply_estimate(&engine.estimate(s));
            assert_eq!(raw.epoch_time().to_bits(), cal.epoch_time().to_bits(), "{s}");
            assert_eq!(raw, cal, "{s}");
        }
    }

    #[test]
    fn calibrated_model_scales_engine_estimates() {
        let model = toy_engine_model();
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let config = TrainingConfig::small(4096, 64);
        let engine = CostEngine::new(&model, &device, &cluster, config).unwrap();
        let mut cal = Calibration::identity();
        cal.scales[family_index(StrategyKind::Filter)] =
            FamilyScale { fbc_scale: 2.0, ..FamilyScale::IDENTITY };
        let s = Strategy::Filter { p: 4 };
        let raw = engine.estimate(s);
        let out = cal.apply_estimate(&engine.estimate(s));
        assert_eq!(out.per_epoch.compute(), raw.per_epoch.compute());
        assert!(
            (out.per_epoch.communication() - 2.0 * raw.per_epoch.communication()).abs() < 1e-12
        );
        assert_eq!(cal.apply_estimate(&engine.estimate(s)).epoch_time(), out.epoch_time());
    }

    #[test]
    fn json_round_trip_preserves_scales() {
        let samples: Vec<CalSample> = (1..=6)
            .map(|i| {
                let c = i as f64;
                sample(Strategy::DataFilter { p1: 2, p2: 1 << i }, c, 0.4 * c * c, 1.7 * c)
            })
            .chain((1..=4).map(|i| sample(Strategy::Serial, i as f64, 0.0, 1.2 * i as f64)))
            .collect();
        let cal = Calibration::fit(&samples, 0x5EED);
        let json = cal.to_json();
        let back = Calibration::from_json(&json).unwrap();
        assert_eq!(cal, back);
        // Render/parse round trip too (the wire path).
        let reparsed = Json::parse(&json.render()).unwrap();
        assert_eq!(Calibration::from_json(&reparsed).unwrap(), cal);
    }

    #[test]
    fn from_json_rejects_bad_input() {
        assert!(Calibration::from_json(&Json::obj([("seed", Json::num(1.0))]))
            .unwrap_err()
            .contains("families"));
        let family = |name: &str, compute: f64| {
            Json::obj([
                ("seed", Json::num(0.0)),
                (
                    "families",
                    Json::Arr(vec![Json::obj([
                        ("family", Json::str(name)),
                        ("compute_scale", Json::num(compute)),
                        ("grad_scale", Json::num(1.0)),
                        ("fbc_scale", Json::num(1.0)),
                        ("halo_scale", Json::num(1.0)),
                        ("p2p_scale", Json::num(1.0)),
                        ("iteration_overhead", Json::num(0.0)),
                        ("grad_split_scale", Json::num(0.0)),
                    ])]),
                ),
            ])
        };
        assert!(Calibration::from_json(&family("warp", 1.0)).unwrap_err().contains("unknown"));
        assert!(Calibration::from_json(&family("data", -2.0))
            .unwrap_err()
            .contains("inadmissible"));
        assert!(Calibration::from_json(&family("data", f64::NAN))
            .unwrap_err()
            .contains("inadmissible"));
    }

    #[test]
    fn feature_index_constants_match_feature_order() {
        let s = CalSample {
            strategy: Strategy::DataFilter { p1: 2, p2: 4 },
            compute: 1.0,
            grad: 2.0,
            fbc: 3.0,
            halo: 4.0,
            p2p: 5.0,
            iterations: 6.0,
            measured: 1.0,
        };
        let f = s.features();
        assert_eq!(f[F_COMPUTE], 1.0);
        assert_eq!(f[F_GRAD], 2.0);
        assert_eq!(f[F_ITER], 6.0);
        assert_eq!(f[F_GRAD_SPLIT], 2.0 * 3.0); // grad · (p2 − 1)
    }
}
