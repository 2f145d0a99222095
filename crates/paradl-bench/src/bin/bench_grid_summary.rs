//! Grid-throughput summary: times a paper-scale configuration grid (all
//! four Table-5 model families × four global batch sizes × two clusters,
//! exhaustive PE sweep) through the amortized `GridSweep` against the naive
//! per-query baseline (`per_query_sweep`: one `Oracle::search` — and thus
//! one engine build and one candidate enumeration — per cell), plus the
//! rebatch-vs-rebuild micro numbers, and writes a machine-readable
//! `BENCH_grid.json` so CI can track the performance trajectory next to
//! `BENCH_search.json`.
//!
//! Run with: `cargo run --release -p paradl-bench --bin bench_grid_summary`
//!
//! With `PARADL_ASSERT_SPEEDUP=1` the ≥ 5× amortization floor is enforced
//! (kept opt-in because wall-clock ratios are noisy on shared CI runners).

use paradl_bench::{cluster_axis, per_query_sweep};
use paradl_core::prelude::*;
use std::time::Instant;

/// Times `f` over `iters` runs and returns the best-of wall-clock seconds
/// (minimum is the standard low-noise estimator for compute-bound loops).
fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    // 1536 caps the axis at CosmoFlow's dataset size (D = 1584, Table 5):
    // batch > dataset is rejected at engine construction since the vetted
    // admission pass, so the axis must stay valid for every model.
    let batches = [128usize, 256, 512, 768, 1024, 1536];
    let constraints = Constraints {
        max_pes: 16 * 1024,
        pipeline_segments: 512,
        sweep: PeSweep::Exhaustive,
        top_k: Some(10),
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

    let warm = GridSweep::new().run(&grid);
    let queries = grid.num_queries();
    let total_candidates: usize = warm.cells.iter().map(|c| c.report.enumerated).sum();
    println!(
        "grid: {} models x {} batches x {} clusters = {} queries, {} candidates total",
        grid.models().len(),
        grid.batches().len(),
        grid.clusters().len(),
        queries,
        total_candidates
    );

    let iters = 3;
    let t_per_query = best_of(iters, || per_query_sweep(&grid));
    // A fresh sweep per run, like the per-query baseline: a reused
    // `GridSweep` would also skip re-allocating its column buffers.
    let t_grid = best_of(iters, || GridSweep::new().run(&grid));
    let speedup = t_per_query / t_grid;
    let rate = |t: f64| total_candidates as f64 / t;
    println!(
        "per-query sweep  : {:>8.1} ms  ({:>10.0} candidates/s)",
        t_per_query * 1e3,
        rate(t_per_query)
    );
    println!(
        "grid sweep       : {:>8.1} ms  ({:>10.0} candidates/s)  {speedup:.1}x",
        t_grid * 1e3,
        rate(t_grid)
    );

    // Micro numbers: incremental rebatch vs full engine rebuild.
    let resnet = paradl_models::resnet50();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let t_rebuild =
        best_of(50, || CostEngine::new(&resnet, &device, &cluster, TrainingConfig::imagenet(1024)));
    let mut engine = CostEngine::new(&resnet, &device, &cluster, TrainingConfig::imagenet(512))
        .expect("engine builds");
    let mut flip = false;
    let t_rebatch = best_of(50, || {
        flip = !flip;
        engine.rebatch(if flip { 1024 } else { 512 });
    });
    println!(
        "resnet50 engine  : rebuild {:>7.1} us | rebatch {:>7.2} us ({:.0}x)",
        t_rebuild * 1e6,
        t_rebatch * 1e6,
        t_rebuild / t_rebatch
    );

    // Sanity: the amortized sweep must agree with the per-query baseline on
    // the winners (full equivalence is property-tested; this guards the
    // benchmarked configuration itself).
    let baseline = per_query_sweep(&grid);
    for (a, b) in warm.cells.iter().zip(&baseline.cells) {
        assert_eq!(a.query, b.query);
        assert_eq!(
            a.report.best().map(|c| c.strategy),
            b.report.best().map(|c| c.strategy),
            "winner diverged at {:?}",
            a.query
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"grid\",\n",
            "  \"models\": {},\n",
            "  \"batches\": {},\n",
            "  \"clusters\": {},\n",
            "  \"queries\": {},\n",
            "  \"total_candidates\": {},\n",
            "  \"per_query_seconds\": {:.6},\n",
            "  \"grid_seconds\": {:.6},\n",
            "  \"per_query_candidates_per_sec\": {:.0},\n",
            "  \"grid_candidates_per_sec\": {:.0},\n",
            "  \"speedup_grid\": {:.2},\n",
            "  \"engine_rebuild_seconds\": {:.9},\n",
            "  \"engine_rebatch_seconds\": {:.9},\n",
            "  \"speedup_rebatch\": {:.2}\n",
            "}}\n"
        ),
        grid.models().len(),
        grid.batches().len(),
        grid.clusters().len(),
        queries,
        total_candidates,
        t_per_query,
        t_grid,
        rate(t_per_query),
        rate(t_grid),
        speedup,
        t_rebuild,
        t_rebatch,
        t_rebuild / t_rebatch,
    );
    std::fs::write("BENCH_grid.json", &json).expect("write BENCH_grid.json");
    println!("\nwrote BENCH_grid.json");

    // Wall-clock ratios are noisy on shared CI runners, so the ≥ 5× floor is
    // only enforced when explicitly requested (local acceptance runs); CI
    // tracks the trajectory through the uploaded JSON instead.
    if std::env::var_os("PARADL_ASSERT_SPEEDUP").is_some() {
        assert!(
            speedup >= 5.0,
            "acceptance regression: grid sweep speedup {speedup:.2}x < 5x over per-query engine builds"
        );
        println!("speedup floor asserted: {speedup:.1}x >= 5x");
    }
}
