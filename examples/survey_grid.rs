//! Batched multi-query oracle: sweep every bundled model across a grid of
//! global batch sizes and two clusters in ONE amortized `GridSweep` — the
//! engines and candidate enumerations are shared across all cells instead
//! of being rebuilt per query, which is what makes paper-scale surveys
//! (tables of best strategies per model × batch × system) run at
//! near-single-query cost.
//!
//! Run with: `cargo run --release --example survey_grid`

use paradl::prelude::*;

fn main() {
    // One search configuration for the whole grid: keep the 3 best
    // candidates per cell, exhaustive PE sweep up to 1024 PEs.
    let constraints = Constraints {
        max_pes: 1024,
        top_k: Some(3),
        sweep: PeSweep::Exhaustive,
        ..Constraints::default()
    };

    // Model axis: every bundled model, each with its dataset-scale config.
    // Batch axis and cluster axis complete the cross product.
    let mut grid = QueryGrid::new(constraints)
        .with_batches([256usize, 512, 1024])
        .with_cluster(ClusterSpec::paper_system())
        .with_cluster(ClusterSpec::workstation(8));
    for model in paradl::models::paper_models() {
        let base = if model.name.starts_with("CosmoFlow") {
            TrainingConfig::cosmoflow(256)
        } else {
            TrainingConfig::imagenet(256)
        };
        grid = grid.with_model(model, base);
    }
    grid = grid.with_model(paradl::models::alexnet(), TrainingConfig::imagenet(256));

    println!(
        "{} models x {} batches x {} clusters = {} queries\n",
        grid.models().len(),
        grid.batches().len(),
        grid.clusters().len(),
        grid.num_queries()
    );

    let report = GridSweep::new().run(&grid);

    println!(
        "{:<14} {:>6} {:<12} {:<28} {:>6} {:>12}",
        "model", "B", "cluster", "best strategy", "PEs", "epoch (s)"
    );
    for cell in &report.cells {
        let model = &grid.models()[cell.query.model].model.name;
        let cluster = if cell.query.cluster == 0 { "paper" } else { "workstation" };
        match cell.report.best() {
            Some(best) => println!(
                "{:<14} {:>6} {:<12} {:<28} {:>6} {:>12.2}",
                model,
                cell.query.batch,
                cluster,
                best.strategy.to_string(),
                best.strategy.total_pes(),
                best.epoch_time()
            ),
            None => println!(
                "{:<14} {:>6} {:<12} {:<28}",
                model, cell.query.batch, cluster, "nothing feasible"
            ),
        }
    }

    // Each cell is exactly what a standalone `oracle.search(&constraints)`
    // at that (model, batch, cluster) would return — the sweep only
    // amortizes the work, never changes the answer.
    let total: usize = report.cells.iter().map(|c| c.report.enumerated).sum();
    println!("\n{} candidate strategies evaluated across the grid", total);
}
