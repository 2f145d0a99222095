//! Search-throughput summary: times the reference search path against the
//! engine-backed search (full ranking and dominance-pruned top-k) on the
//! CosmoFlow-scale exhaustive space and writes a machine-readable
//! `BENCH_search.json` so CI can track the performance trajectory.
//!
//! Run with: `cargo run --release -p paradl-bench --bin bench_search_summary`

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
    let model = paradl_models::cosmoflow();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::cosmoflow(1024);
    let oracle = Oracle::new(&model, &device, &cluster, config);
    let constraints = Constraints {
        max_pes: 16 * 1024,
        pipeline_segments: 512,
        sweep: PeSweep::Exhaustive,
        ..Constraints::default()
    };
    let topk = Constraints { top_k: Some(10), ..constraints };

    let candidates = oracle.strategy_space(&constraints).len();
    println!(
        "{}: {} candidates (exhaustive sweep, max_pes = {})",
        model.name, candidates, constraints.max_pes
    );

    let iters = 5;
    let t_reference = best_of(iters, || oracle.search_reference(&constraints));
    let t_engine = best_of(iters, || oracle.search(&constraints));
    let t_topk = best_of(iters, || oracle.search(&topk));
    let report = oracle.search(&topk);

    let rate = |t: f64| candidates as f64 / t;
    let speedup_full = t_reference / t_engine;
    let speedup_topk = t_reference / t_topk;
    println!(
        "reference search : {:>8.1} ms  ({:>10.0} candidates/s)",
        t_reference * 1e3,
        rate(t_reference)
    );
    println!(
        "engine search    : {:>8.1} ms  ({:>10.0} candidates/s)  {speedup_full:.1}x",
        t_engine * 1e3,
        rate(t_engine)
    );
    println!(
        "engine + top-10  : {:>8.1} ms  ({:>10.0} candidates/s)  {speedup_topk:.1}x",
        t_topk * 1e3,
        rate(t_topk)
    );
    println!(
        "top-k run: {} memory-pruned, {} dominance-pruned, {} costed; winner {}",
        report.pruned_by_memory,
        report.pruned_by_dominance,
        report.evaluated(),
        report.best().map(|b| b.strategy.to_string()).unwrap_or_else(|| "none".into()),
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"search\",\n",
            "  \"model\": \"{}\",\n",
            "  \"candidates\": {},\n",
            "  \"reference_seconds\": {:.6},\n",
            "  \"engine_seconds\": {:.6},\n",
            "  \"engine_topk_seconds\": {:.6},\n",
            "  \"reference_candidates_per_sec\": {:.0},\n",
            "  \"engine_candidates_per_sec\": {:.0},\n",
            "  \"engine_topk_candidates_per_sec\": {:.0},\n",
            "  \"speedup_engine_full\": {:.2},\n",
            "  \"speedup_engine_topk\": {:.2},\n",
            "  \"pruned_by_memory\": {},\n",
            "  \"pruned_by_dominance\": {}\n",
            "}}\n"
        ),
        model.name,
        candidates,
        t_reference,
        t_engine,
        t_topk,
        rate(t_reference),
        rate(t_engine),
        rate(t_topk),
        speedup_full,
        speedup_topk,
        report.pruned_by_memory,
        report.pruned_by_dominance,
    );
    std::fs::write("BENCH_search.json", &json).expect("write BENCH_search.json");
    println!("\nwrote BENCH_search.json");

    // Wall-clock ratios are noisy on shared CI runners, so the ≥ 5× floor is
    // only enforced when explicitly requested (local acceptance runs); CI
    // tracks the trajectory through the uploaded JSON instead.
    if std::env::var_os("PARADL_ASSERT_SPEEDUP").is_some() {
        assert!(
            speedup_topk >= 5.0,
            "acceptance regression: engine+pruning speedup {speedup_topk:.2}x < 5x over the reference path"
        );
        println!("speedup floor asserted: {speedup_topk:.1}x >= 5x");
    }
}
