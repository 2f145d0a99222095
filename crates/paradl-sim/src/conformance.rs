//! Oracle-vs-simulator conformance: batched fidelity sweeps reproducing the
//! shape of the paper's §5.2 accuracy evaluation.
//!
//! The paper validates the oracle by training the same configurations with
//! ChainerMNX on up to 1024 V100s and comparing measured step times with the
//! projections (§5.2, Figure 3). This module closes the same loop inside the
//! repository: a [`Conformance`] harness takes a
//! [`QueryGrid`], runs the amortized
//! [`GridSweep`] to pick each cell's winners, replays every winner through
//! the [`Simulator`] (the stand-in for the measured cluster), and aggregates
//! the comparison into a [`FidelityReport`] — per-strategy-family signed
//! error and APE distribution, plus per-cell rank correlation between the
//! oracle's ordering and the simulated ordering.
//!
//! **Determinism.** Replays run rayon-parallel across all (cell, candidate)
//! jobs, but every job seeds its own [`OverheadSampler`] (inside its own
//! [`Simulator`]) from a hash of the base seed and the job's grid
//! coordinates — no sampler state is shared across jobs or threads, so the
//! report is byte-identical for any thread count and to the serial
//! [`Conformance::validate_sweep_serial`] path (asserted in
//! `tests/determinism.rs`). An earlier design that advanced one shared
//! sampler across replays would have made every measurement depend on the
//! rayon scheduling order.
//!
//! [`OverheadSampler`]: crate::overheads::OverheadSampler

use crate::engine::Simulator;
use crate::overheads::OverheadModel;
use paradl_core::calibrate::{CalSample, Calibration};
use paradl_core::grid::{GridQuery, GridReport, GridSweep, QueryGrid};
use paradl_core::search::RankedCandidate;
use paradl_core::validate::{ErrorSample, FidelityReport};
use rayon::prelude::*;

/// One replay unit: a ranked candidate of one grid cell, with the seed its
/// simulator will use.
struct ReplayJob {
    cell: usize,
    query: GridQuery,
    candidate: RankedCandidate,
    seed: u64,
}

/// The oracle-vs-simulator conformance harness. Build with
/// [`Conformance::new`], customize with the `with_*` methods, run with
/// [`Conformance::run`].
#[derive(Debug, Clone, Copy)]
pub struct Conformance {
    /// Overhead model of the simulated framework (default:
    /// [`OverheadModel::chainermnx_quiet`], the paper's congestion-free
    /// measurement setting).
    pub overheads: OverheadModel,
    /// Iterations each replay simulates and averages.
    pub sample_iterations: usize,
    /// How many of each cell's ranked candidates are replayed (clamped to
    /// the cell's ranking length; with `Constraints::top_k = Some(k)` at
    /// most `k` are available).
    pub replay_top: usize,
    /// Base seed; each job derives its own sampler seed from this and its
    /// grid coordinates.
    pub base_seed: u64,
}

impl Default for Conformance {
    fn default() -> Self {
        Conformance::new()
    }
}

impl Conformance {
    /// A harness with the default overheads (congestion-free ChainerMNX),
    /// 2 sampled iterations per replay, and top-10 replay depth.
    pub fn new() -> Self {
        Conformance {
            overheads: OverheadModel::default(),
            sample_iterations: 2,
            replay_top: 10,
            base_seed: 0x5EED_C0DE,
        }
    }

    /// Replaces the simulated framework's overhead model.
    pub fn with_overheads(mut self, overheads: OverheadModel) -> Self {
        self.overheads = overheads;
        self
    }

    /// Sets the iterations simulated per replay.
    pub fn with_samples(mut self, iterations: usize) -> Self {
        self.sample_iterations = iterations.max(1);
        self
    }

    /// Sets how many ranked candidates per cell are replayed.
    pub fn with_replay_top(mut self, n: usize) -> Self {
        self.replay_top = n.max(1);
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Runs the full conformance loop: one amortized [`GridSweep`] over
    /// `grid`, then a parallel replay of every cell's winners through the
    /// simulator. Returns `None` when no cell produced a feasible winner.
    pub fn run(&self, grid: &QueryGrid) -> Option<FidelityReport> {
        let sweep = GridSweep::new().run(grid);
        self.validate_sweep(grid, &sweep)
    }

    /// Replays the winners of an already-computed sweep `report` (its cells
    /// must come from `grid`), rayon-parallel across all (cell, candidate)
    /// jobs. Byte-identical to [`Conformance::validate_sweep_serial`].
    pub fn validate_sweep(&self, grid: &QueryGrid, report: &GridReport) -> Option<FidelityReport> {
        let jobs = self.jobs(report);
        let samples: Vec<ErrorSample> = jobs.par_iter().map(|job| self.replay(grid, job)).collect();
        self.assemble(report, &jobs, samples)
    }

    /// Single-threaded replay of the same jobs, in the same deterministic
    /// order — the equivalence baseline the determinism test compares the
    /// parallel path against (and a 1-thread execution of the same plan).
    pub fn validate_sweep_serial(
        &self,
        grid: &QueryGrid,
        report: &GridReport,
    ) -> Option<FidelityReport> {
        let jobs = self.jobs(report);
        let samples: Vec<ErrorSample> = jobs.iter().map(|job| self.replay(grid, job)).collect();
        self.assemble(report, &jobs, samples)
    }

    /// Fits a per-family overhead [`Calibration`] from the winners of an
    /// already-computed sweep: every (cell, candidate) job is replayed with
    /// exactly the seeds [`Conformance::validate_sweep`] uses, so the fit's
    /// training measurements are the validation sweep's measurements — the
    /// closed §5.2 loop. Returns `None` when the sweep has no replayable
    /// winner. Deterministic: same grid, report and harness seed give a
    /// bit-equal calibration.
    pub fn fit(&self, grid: &QueryGrid, report: &GridReport) -> Option<Calibration> {
        let jobs = self.jobs(report);
        if jobs.is_empty() {
            return None;
        }
        let samples: Vec<CalSample> = jobs
            .par_iter()
            .map(|job| {
                let measured = self.replay(grid, job).measured;
                CalSample::from_estimate(&job.candidate.projection.cost, measured)
            })
            .collect();
        Some(Calibration::fit(&samples, self.base_seed))
    }

    /// [`Conformance::validate_sweep`] with the projections rescaled by a
    /// fitted [`Calibration`] before comparison. The measured side is
    /// byte-identical to the uncalibrated sweep (same jobs, same derived
    /// seeds), so an uncalibrated/calibrated report pair isolates exactly
    /// the effect of the calibration.
    pub fn validate_sweep_calibrated(
        &self,
        grid: &QueryGrid,
        report: &GridReport,
        calibration: &Calibration,
    ) -> Option<FidelityReport> {
        let jobs = self.jobs(report);
        let samples: Vec<ErrorSample> = jobs
            .par_iter()
            .map(|job| {
                let mut sample = self.replay(grid, job);
                sample.projected =
                    calibration.apply_estimate(&job.candidate.projection.cost).epoch_time();
                sample
            })
            .collect();
        self.assemble(report, &jobs, samples)
    }

    /// The flat replay plan: every cell's top candidates, cell-major, each
    /// with a seed derived from its coordinates (not from execution order).
    fn jobs(&self, report: &GridReport) -> Vec<ReplayJob> {
        let mut jobs = Vec::new();
        for (cell, (query, winners)) in report.winners(self.replay_top).into_iter().enumerate() {
            for (rank, &candidate) in winners.iter().enumerate() {
                jobs.push(ReplayJob {
                    cell,
                    query,
                    candidate,
                    seed: derive_seed(self.base_seed, cell, rank),
                });
            }
        }
        jobs
    }

    /// Replays one winner through a freshly seeded simulator and pairs the
    /// measurement with the oracle's projection (both per-epoch seconds).
    fn replay(&self, grid: &QueryGrid, job: &ReplayJob) -> ErrorSample {
        let gm = &grid.models()[job.query.model];
        let cluster = &grid.clusters()[job.query.cluster];
        let config = gm.config_at(job.query.batch);
        let sim = Simulator::new(&cluster.device, cluster)
            .with_overheads(self.overheads)
            .with_samples(self.sample_iterations)
            .with_seed(job.seed);
        let measured = sim.simulate(&gm.model, &config, job.candidate.strategy);
        ErrorSample {
            strategy: job.candidate.strategy,
            projected: job.candidate.projection.cost.epoch_time(),
            measured: measured.per_epoch.total(),
        }
    }

    /// Regroups the flat sample list by cell (jobs are cell-major and the
    /// parallel map preserves order) and builds the report.
    fn assemble(
        &self,
        report: &GridReport,
        jobs: &[ReplayJob],
        samples: Vec<ErrorSample>,
    ) -> Option<FidelityReport> {
        let mut cells: Vec<(GridQuery, Vec<ErrorSample>)> =
            report.cells.iter().map(|c| (c.query, Vec::new())).collect();
        for (job, sample) in jobs.iter().zip(samples) {
            cells[job.cell].1.push(sample);
        }
        FidelityReport::from_cells(cells)
    }
}

/// Mixes the base seed with a job's grid coordinates (SplitMix64-style
/// finalizer), so per-job RNG streams are decorrelated yet depend only on
/// *which* job this is — never on when or where it runs.
fn derive_seed(base: u64, cell: usize, rank: usize) -> u64 {
    let mut z = base
        ^ (cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (rank as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradl_core::cluster::ClusterSpec;
    use paradl_core::config::TrainingConfig;
    use paradl_core::layer::Layer;
    use paradl_core::model::Model;
    use paradl_core::oracle::Constraints;
    use paradl_core::strategy::StrategyKind;

    fn small_model() -> Model {
        Model::new(
            "toy",
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 32, (32, 32), 3, 1, 1),
                Layer::pool2d("p1", 32, (32, 32), 2, 2),
                Layer::conv2d("c2", 32, 64, (16, 16), 3, 1, 1),
                Layer::global_pool("g", 64, &[16, 16]),
                Layer::fully_connected("fc", 64, 10),
            ],
        )
    }

    fn small_grid() -> QueryGrid {
        let constraints = Constraints { max_pes: 64, top_k: Some(4), ..Constraints::default() };
        QueryGrid::new(constraints)
            .with_model(small_model(), TrainingConfig::small(4096, 64))
            .with_batches([64usize, 128])
            .with_cluster(ClusterSpec::paper_system())
    }

    #[test]
    fn serial_cells_are_projected_exactly_under_ideal_overheads() {
        // A 1-PE budget admits only the serial strategy, whose simulated run
        // is pure compute — with ideal overheads the oracle projection is
        // exact, so the fidelity pipeline must report ~100% accuracy.
        let constraints = Constraints { max_pes: 1, ..Constraints::default() };
        let grid = QueryGrid::new(constraints)
            .with_model(small_model(), TrainingConfig::small(4096, 64))
            .with_batches([64usize, 128])
            .with_cluster(ClusterSpec::paper_system())
            .with_cluster(ClusterSpec::workstation(4));
        let report = Conformance::new()
            .with_overheads(OverheadModel::ideal())
            .with_samples(1)
            .run(&grid)
            .expect("serial is always feasible");
        assert_eq!(report.cells.len(), grid.num_queries());
        let serial = report.family(StrategyKind::Serial).expect("serial replayed");
        assert_eq!(serial.stats.samples, grid.num_queries());
        assert!(serial.stats.mean_accuracy > 0.999, "serial accuracy {:?}", serial.stats);
        assert!(serial.stats.max_ape < 1e-6, "serial APE {:?}", serial.stats);
    }

    #[test]
    fn report_covers_every_cell_and_family_of_the_winners() {
        let grid = small_grid();
        let sweep = GridSweep::new().run(&grid);
        let report = Conformance::new().validate_sweep(&grid, &sweep).expect("winners");
        assert_eq!(report.cells.len(), grid.num_queries());
        // Every replayed family shows up in the per-family table and the
        // sample counts add up to the overall count.
        let per_family: usize = report.families.iter().map(|f| f.stats.samples).sum();
        assert_eq!(per_family, report.overall.samples);
        let per_cell: usize = report.cells.iter().map(|c| c.stats.samples).sum();
        assert_eq!(per_cell, report.overall.samples);
        // Top-4 replay over ≥ 4 feasible candidates per cell → ρ defined.
        assert!(report.mean_rank_correlation.is_some());
    }

    #[test]
    fn replay_depth_caps_at_ranking_length() {
        let grid = small_grid();
        let sweep = GridSweep::new().run(&grid);
        let harness = Conformance::new().with_replay_top(100);
        let report = harness.validate_sweep(&grid, &sweep).unwrap();
        for (cell, fid) in sweep.cells.iter().zip(&report.cells) {
            assert_eq!(fid.samples.len(), cell.report.ranked.len().min(100));
        }
    }

    #[test]
    fn deterministic_overheads_slow_measurements_down() {
        let grid = small_grid();
        // Probability-1 triggers and zero noise make the slowdown a theorem
        // (every compute term ×1.5, every collective ×≥1.5) rather than a
        // draw of the probabilistic stall/congestion coins, which at this
        // replay count would make the assertion seed-dependent.
        let always_slow = OverheadModel {
            memory_stall_probability: 1.0,
            memory_stall_factor: 1.5,
            congestion_probability: 1.0,
            compute_noise: 0.0,
            ..OverheadModel::chainermnx()
        };
        let ideal = Conformance::new()
            .with_overheads(OverheadModel::ideal())
            .with_samples(1)
            .run(&grid)
            .unwrap();
        let real =
            Conformance::new().with_overheads(always_slow).with_samples(1).run(&grid).unwrap();
        // More overhead biases the signed error downward (oracle
        // under-projects the measured time more often).
        assert!(real.overall.mean_signed_error < ideal.overall.mean_signed_error);
    }

    #[test]
    fn fit_is_deterministic_and_improves_training_fidelity() {
        let grid = small_grid();
        let sweep = GridSweep::new().run(&grid);
        let harness = Conformance::new().with_overheads(OverheadModel::chainermnx());
        let uncal = harness.validate_sweep(&grid, &sweep).expect("winners");
        let cal = harness.fit(&grid, &sweep).expect("winners to fit on");
        assert_eq!(cal, harness.fit(&grid, &sweep).expect("winners"), "fit not deterministic");
        assert_eq!(cal.seed, harness.base_seed);
        let calibrated = harness.validate_sweep_calibrated(&grid, &sweep, &cal).expect("winners");
        // Same jobs, same seeds: the measured side is identical, so the
        // comparison isolates the calibration.
        assert_eq!(uncal.overall.samples, calibrated.overall.samples);
        // The identity candidate in the fit guarantees no family scores
        // below its uncalibrated training accuracy.
        for fam in &calibrated.families {
            let before = uncal.family(fam.family).expect("same families").stats;
            assert!(
                fam.stats.mean_accuracy >= before.mean_accuracy - 1e-9,
                "{}: {:.4} -> {:.4}",
                fam.family,
                before.mean_accuracy,
                fam.stats.mean_accuracy
            );
            assert!(
                fam.stats.mean_signed_error.abs() <= before.mean_signed_error.abs() + 1e-9,
                "{}: signed {:+.4} -> {:+.4}",
                fam.family,
                before.mean_signed_error,
                fam.stats.mean_signed_error
            );
        }
        assert!(
            calibrated.overall.mean_accuracy >= uncal.overall.mean_accuracy - 1e-9,
            "overall accuracy regressed: {:.4} -> {:.4}",
            uncal.overall.mean_accuracy,
            calibrated.overall.mean_accuracy
        );
    }

    #[test]
    fn identity_calibration_reproduces_uncalibrated_sweep() {
        let grid = small_grid();
        let sweep = GridSweep::new().run(&grid);
        let harness = Conformance::new();
        let uncal = harness.validate_sweep(&grid, &sweep).expect("winners");
        let id = harness
            .validate_sweep_calibrated(&grid, &sweep, &Calibration::identity())
            .expect("winners");
        assert_eq!(uncal, id);
    }

    #[test]
    fn derived_seeds_are_decorrelated() {
        let a = derive_seed(1, 0, 0);
        let b = derive_seed(1, 0, 1);
        let c = derive_seed(1, 1, 0);
        let d = derive_seed(2, 0, 0);
        assert!(a != b && a != c && a != d && b != c);
    }
}
