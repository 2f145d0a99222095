//! Oracle-vs-simulator conformance summary (§5.2), now a *closed* loop:
//! sweeps a paper-scale configuration grid (all four Table-5 model families
//! × three global batch sizes × three cluster variants = 36 cells) through
//! the amortized `GridSweep`, replays every cell's top-10 winners through
//! the simulator, prints the §5.2-shaped fidelity tables — then fits a
//! per-family overhead [`Calibration`] on those very replays and re-runs
//! the comparison calibrated. Both snapshots (and the fitted scales) go
//! into `BENCH_sim.json`, which is committed at the repo root so the
//! fidelity trajectory is visible between PRs; CI diffs a fresh run against
//! the committed file for reproducibility.
//!
//! Run with: `cargo run --release -p paradl-bench --bin bench_sim_summary`
//!
//! With `PARADL_ASSERT_FIDELITY=1` the fidelity floors are enforced: the
//! uncalibrated baseline floors, plus the calibrated ratchet — ≥ 70%
//! accuracy for *every* family, mean Spearman ρ ≥ 0.7, the `data+filter`
//! bias bound, and no family below its uncalibrated accuracy. Kept opt-in
//! so local experiments with other overhead models don't trip it.

use paradl_bench::cluster_axis;
use paradl_core::prelude::*;
use paradl_sim::{Conformance, OverheadModel};
use std::time::Instant;

fn main() {
    // The paper's powers-of-two sweep to 256 PEs. The batch axis tops out
    // at 256 so CosmoFlow's activations still fit a 16 GiB V100 within that
    // budget — every one of the 36 cells must produce replayable winners.
    let batches = [64usize, 128, 256];
    let constraints = Constraints {
        max_pes: 256,
        top_k: Some(10),
        sweep: PeSweep::PowersOfTwo,
        ..Constraints::default()
    };
    let mut grid = QueryGrid::new(constraints).with_batches(batches);
    for cluster in cluster_axis() {
        grid = grid.with_cluster(cluster);
    }
    for model in paradl_models::paper_models() {
        let base = if model.name.starts_with("CosmoFlow") {
            TrainingConfig::cosmoflow(batches[0])
        } else {
            TrainingConfig::imagenet(batches[0])
        };
        grid = grid.with_model(model, base);
    }
    println!(
        "conformance grid: {} models x {} batches x {} clusters = {} cells",
        grid.models().len(),
        grid.batches().len(),
        grid.clusters().len(),
        grid.num_queries()
    );

    let t0 = Instant::now();
    let sweep = GridSweep::new().run(&grid);
    let sweep_seconds = t0.elapsed().as_secs_f64();

    let harness = Conformance::new()
        .with_overheads(OverheadModel::chainermnx_quiet())
        .with_samples(2)
        .with_replay_top(10)
        .with_seed(0x5EED);
    let t1 = Instant::now();
    let report = harness.validate_sweep(&grid, &sweep).expect("grid has feasible winners");
    let replay_seconds = t1.elapsed().as_secs_f64();

    println!(
        "oracle sweep {:.2} s, {} replays in {:.2} s ({:.0} \u{b5}s/replay)\n",
        sweep_seconds,
        report.num_samples(),
        replay_seconds,
        replay_seconds * 1e6 / report.num_samples() as f64
    );

    println!("=== uncalibrated ===");
    print_tables(&report);

    // Close the loop: fit per-family overhead scales on the same replay
    // population (identical derived seeds — the measured side of the
    // calibrated re-run is byte-identical to the uncalibrated one), then
    // re-validate with calibrated projections.
    let t2 = Instant::now();
    let calibration = harness.fit(&grid, &sweep).expect("winners to fit on");
    let calibrated = harness
        .validate_sweep_calibrated(&grid, &sweep, &calibration)
        .expect("grid has feasible winners");
    let calibrate_seconds = t2.elapsed().as_secs_f64();

    println!("\n=== calibrated (fit + re-run in {calibrate_seconds:.2} s) ===");
    println!(
        "{:<14} {:>9} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>8}",
        "family",
        "compute\u{d7}",
        "grad\u{d7}",
        "fbc\u{d7}",
        "halo\u{d7}",
        "p2p\u{d7}",
        "iter(ms)",
        "gradsplit",
        "samples"
    );
    for kind in StrategyKind::ALL {
        let s = calibration.scale_for(kind);
        if s.samples == 0 {
            continue;
        }
        println!(
            "{:<14} {:>9.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>9.4} {:>9.4} {:>8}",
            kind.to_string(),
            s.compute_scale,
            s.grad_scale,
            s.fbc_scale,
            s.halo_scale,
            s.p2p_scale,
            s.iteration_overhead * 1e3,
            s.grad_split_scale,
            s.samples
        );
    }
    println!();
    print_tables(&calibrated);
    println!("paper §5.2 reference: 86.74% average accuracy, data parallelism predicted best");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sim_conformance\",\n",
            "  \"cells\": {},\n",
            "  \"replayed_winners\": {},\n",
            "  \"replay_top\": {},\n",
            "  \"sample_iterations\": {},\n",
            "  \"sweep_seconds\": {:.6},\n",
            "  \"replay_seconds\": {:.6},\n",
            "  \"calibrate_seconds\": {:.6},\n",
            "  \"uncalibrated\": {},\n",
            "  \"calibrated\": {},\n",
            "  \"calibration\": {}\n",
            "}}\n"
        ),
        report.cells.len(),
        report.num_samples(),
        harness.replay_top,
        harness.sample_iterations,
        sweep_seconds,
        replay_seconds,
        calibrate_seconds,
        snapshot_json(&report),
        snapshot_json(&calibrated),
        calibration.to_json().render(),
    );
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("\nwrote BENCH_sim.json");

    // Fidelity floors, opt-in (PARADL_ASSERT_FIDELITY=1): the simulator is
    // deterministic for the fixed seed, so unlike the wall-clock speedup
    // floors these are stable across machines — they catch any change that
    // degrades the oracle's agreement with the measured side.
    if std::env::var_os("PARADL_ASSERT_FIDELITY").is_some() {
        assert!(
            report.cells.len() >= 36,
            "conformance regression: only {} grid cells (< 36)",
            report.cells.len()
        );
        assert!(
            report.overall.mean_accuracy >= 0.60,
            "fidelity regression: uncalibrated overall accuracy {:.1}% < 60%",
            report.overall.mean_accuracy * 100.0
        );
        assert!(
            report.overall.mean_ape <= 0.40,
            "fidelity regression: uncalibrated overall mean APE {:.1}% > 40%",
            report.overall.mean_ape * 100.0
        );
        let rho = report.mean_rank_correlation.expect("multi-candidate cells");
        assert!(rho >= 0.50, "fidelity regression: uncalibrated mean rho {rho:.3} < 0.5");

        // The calibrated ratchet (PR 10): per-family floors, tight rank
        // correlation, a hard bound on the data+filter bias the
        // calibration exists to fix, and a no-regression guarantee.
        for fam in &calibrated.families {
            assert!(
                fam.stats.mean_accuracy >= 0.70,
                "calibrated fidelity regression: {} accuracy {:.1}% < 70%",
                fam.family,
                fam.stats.mean_accuracy * 100.0
            );
            let before = report.family(fam.family).expect("same family set").stats;
            assert!(
                fam.stats.mean_accuracy >= before.mean_accuracy - 1e-9,
                "calibration regressed {}: {:.1}% -> {:.1}%",
                fam.family,
                before.mean_accuracy * 100.0,
                fam.stats.mean_accuracy * 100.0
            );
        }
        let df = calibrated.family(StrategyKind::DataFilter).expect("data+filter replayed").stats;
        assert!(
            df.mean_signed_error.abs() <= 0.15,
            "calibrated data+filter bias {:+.1}% exceeds 15%",
            df.mean_signed_error * 100.0
        );
        let cal_rho = calibrated.mean_rank_correlation.expect("multi-candidate cells");
        assert!(cal_rho >= 0.70, "calibrated fidelity regression: mean rho {cal_rho:.3} < 0.7");
        println!(
            "fidelity floors asserted: uncalibrated accuracy {:.1}% >= 60%, calibrated \
             per-family accuracy >= 70%, data+filter bias {:+.1}% within 15%, rho {:.3} >= 0.7",
            report.overall.mean_accuracy * 100.0,
            df.mean_signed_error * 100.0,
            cal_rho
        );
    }
}

/// Prints the §5.2-shaped per-family and overall tables of one report.
fn print_tables(report: &FidelityReport) {
    println!(
        "{:<14} {:>7} {:>10} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "family", "samples", "signed", "meanAPE", "p50", "p90", "maxAPE", "accuracy"
    );
    let row = |name: &str, s: &ErrorStats| {
        println!(
            "{:<14} {:>7} {:>+9.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>9.1}%",
            name,
            s.samples,
            s.mean_signed_error * 100.0,
            s.mean_ape * 100.0,
            s.p50_ape * 100.0,
            s.p90_ape * 100.0,
            s.max_ape * 100.0,
            s.mean_accuracy * 100.0
        );
    };
    for family in &report.families {
        row(&family.family.to_string(), &family.stats);
    }
    row("overall", &report.overall);
    let rho_cells = report.cells.iter().filter(|c| c.rank_correlation.is_some()).count();
    match report.mean_rank_correlation {
        Some(rho) => println!(
            "mean Spearman rho (oracle order vs simulated order): {rho:.3} over {rho_cells} cells"
        ),
        None => println!("mean Spearman rho undefined (no multi-candidate cell)"),
    }
}

/// One fidelity snapshot (overall + per-family + rank correlation) as a
/// JSON object string, shared by the uncalibrated and calibrated sections
/// of `BENCH_sim.json`.
fn snapshot_json(report: &FidelityReport) -> String {
    let stats = |s: &ErrorStats| {
        format!(
            concat!(
                "{{\"samples\": {}, \"mean_signed_error\": {:.6}, ",
                "\"mean_ape\": {:.6}, \"p50_ape\": {:.6}, \"p90_ape\": {:.6}, ",
                "\"max_ape\": {:.6}, \"mean_accuracy\": {:.6}}}"
            ),
            s.samples,
            s.mean_signed_error,
            s.mean_ape,
            s.p50_ape,
            s.p90_ape,
            s.max_ape,
            s.mean_accuracy
        )
    };
    let families: Vec<String> = report
        .families
        .iter()
        .map(|f| format!("      {{\"family\": \"{}\", \"stats\": {}}}", f.family, stats(&f.stats)))
        .collect();
    let rho_cells = report.cells.iter().filter(|c| c.rank_correlation.is_some()).count();
    format!(
        concat!(
            "{{\n",
            "    \"mean_rank_correlation\": {:.6},\n",
            "    \"rank_correlation_cells\": {},\n",
            "    \"overall\": {},\n",
            "    \"families\": [\n{}\n    ]\n",
            "  }}"
        ),
        report.mean_rank_correlation.unwrap_or(f64::NAN),
        rho_cells,
        stats(&report.overall),
        families.join(",\n"),
    )
}
