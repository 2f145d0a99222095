//! Kernel-trajectory summary: times the analytic candidate-evaluation
//! kernel (`paradl_core::kernel` — static dominance bounds, branchless mask
//! filtering, coefficient-reconstructed communication times, per-chunk
//! top-k folds) on the same paper-scale grid `bench_grid_summary` sweeps,
//! sets it against the committed numbers of the retired pre-kernel
//! *mechanical* evaluation (sort-based enumeration, separate memory/bound
//! prep calls, one full estimate per candidate), sweeps the evaluation
//! chunk granularity, and writes `BENCH_kernel.json` so CI tracks the
//! candidates/sec trajectory next to `BENCH_search.json`/`BENCH_grid.json`.
//! `analytic_seconds` times cold sweeps, each on a fresh `GridSweep`;
//! `analytic_reused_seconds` times repeated runs of one sweep, which refill
//! the column buffers it kept from its previous run.
//!
//! Run with: `cargo run --release -p paradl-bench --bin bench_kernel_summary`
//!
//! With `PARADL_ASSERT_SPEEDUP=1` the kernel-stage throughput floor —
//! ≥ 5× the committed 27.9 M candidates/s end-to-end grid number — is
//! enforced (opt-in, as wall-clock numbers are noisy on shared runners).

use paradl_bench::cluster_axis;
use paradl_core::prelude::*;
use std::collections::HashMap;

/// The committed end-to-end `BENCH_grid` throughput the kernel trajectory
/// is gated against (ROADMAP: 0.26 M/s reference → 2.6 M/s top-k →
/// 27.9 M/s amortized grid → this kernel).
const GRID_BASELINE_CANDIDATES_PER_SEC: f64 = 27_900_000.0;

/// The mechanical sweep of this grid, end to end, as last measured before
/// its evaluator was retired (the committed `BENCH_kernel.json` row).
const MECHANICAL_SECONDS: f64 = 0.407741;

/// Per-stage seconds of that mechanical sweep (`stages_mechanical` in the
/// same committed row; it recorded no cache stage).
const MECHANICAL_STAGES: GridStageTimings = GridStageTimings {
    caches: 0.0,
    supersets: 0.098744,
    engines: 0.008521,
    preps: 0.116666,
    comms: 0.0,
    cells: 0.007773,
    eval: 0.175733,
    finish: 0.000301,
};

/// Per-stage minima across `iters` timed runs: each stage is an
/// independent measurement of the same deterministic work, so the
/// per-stage minimum estimates its noise-free cost the same way `best_of`
/// does for whole runs.
fn best_stages(iters: usize, mut f: impl FnMut() -> GridStageTimings) -> GridStageTimings {
    let mut best = f();
    for _ in 1..iters {
        let t = f();
        best.caches = best.caches.min(t.caches);
        best.supersets = best.supersets.min(t.supersets);
        best.engines = best.engines.min(t.engines);
        best.preps = best.preps.min(t.preps);
        best.comms = best.comms.min(t.comms);
        best.cells = best.cells.min(t.cells);
        best.eval = best.eval.min(t.eval);
        best.finish = best.finish.min(t.finish);
    }
    best
}

fn total_seconds(t: &GridStageTimings) -> f64 {
    t.caches + t.supersets + t.engines + t.preps + t.comms + t.cells + t.eval + t.finish
}

fn main() {
    // The exact grid of bench_grid_summary: all four Table-5 model
    // families × six global batches (1536 caps at CosmoFlow's dataset
    // size) × three cluster variants, exhaustive PE sweep, top-10.
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

    let sweep = GridSweep::new();
    let (warm, _) = sweep.run_timed(&grid);
    let queries = grid.num_queries();
    let total: usize = warm.cells.iter().map(|c| c.report.enumerated).sum();
    let evaluated: usize = warm.cells.iter().map(|c| c.report.evaluated()).sum();
    let mem_pruned: usize = warm.cells.iter().map(|c| c.report.pruned_by_memory).sum();
    let dom_pruned: usize = warm.cells.iter().map(|c| c.report.pruned_by_dominance).sum();
    println!(
        "grid: {} models x {} batches x {} clusters = {} queries, {} candidates total",
        grid.models().len(),
        grid.batches().len(),
        grid.clusters().len(),
        queries,
        total
    );
    println!(
        "accounting: {evaluated} evaluated | {mem_pruned} memory-pruned | {dom_pruned} dominance-pruned"
    );
    assert_eq!(evaluated + mem_pruned + dom_pruned, total, "kernel accounting must close");

    // Reference guard: on the batch-128 paper-system cells, every ranked
    // candidate and budget winner of the kernel must cost what the
    // per-layer reference search says, up to 1e-9 relative (full
    // equivalence is property-tested; this guards the benchmarked
    // configuration itself).
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.max(b);
    let paper = ClusterSpec::paper_system();
    for cell in &warm.cells {
        let cluster = &grid.clusters()[cell.query.cluster];
        if cell.query.batch != 128 || *cluster != paper {
            continue;
        }
        let gm = &grid.models()[cell.query.model];
        let oracle = Oracle::new(&gm.model, &cluster.device, cluster, gm.config_at(128));
        let reference = oracle.search_reference(grid.constraints());
        assert_eq!(cell.report.enumerated, reference.enumerated, "{:?}", cell.query);
        let times: HashMap<Strategy, f64> =
            reference.ranked.iter().map(|c| (c.strategy, c.epoch_time())).collect();
        for (c, r) in cell.report.ranked.iter().zip(&reference.ranked) {
            let t = times[&c.strategy];
            assert!(
                close(c.epoch_time(), t) && close(c.epoch_time(), r.epoch_time()),
                "kernel ranking diverged from the reference search at {:?}: {}",
                cell.query,
                c.strategy
            );
        }
        for (a, b) in cell.report.best_per_budget.iter().zip(&reference.best_per_budget) {
            assert!(
                a.max_pes == b.max_pes && close(a.candidate.epoch_time(), b.candidate.epoch_time()),
                "kernel budget winner diverged from the reference search at {:?}",
                cell.query
            );
        }
        println!("reference guard: {:?} agrees", cell.query);
    }

    // `analytic` times cold sweeps (a fresh `GridSweep` per run, as every
    // committed number before it); `reused` times `sweep`, which refills
    // the column buffers its earlier runs kept.
    let iters = 3;
    let analytic = best_stages(iters, || GridSweep::new().run_timed(&grid).1);
    let reused = best_stages(iters, || sweep.run_timed(&grid).1);
    let mechanical = MECHANICAL_STAGES;
    let (t_analytic, t_mech) = (total_seconds(&analytic), MECHANICAL_SECONDS);
    let t_reused = total_seconds(&reused);
    let rate = |t: f64| total as f64 / t;

    let stage_row = |name: &str, a: f64, m: f64| {
        println!("  {name:>10}: {:>8.1} ms  vs mechanical {:>8.1} ms", a * 1e3, m * 1e3);
    };
    println!("\nper-stage (best of {iters}, analytic vs committed mechanical):");
    stage_row("supersets", analytic.supersets, mechanical.supersets);
    stage_row("engines", analytic.engines, mechanical.engines);
    stage_row("preps", analytic.preps, mechanical.preps);
    stage_row("comms", analytic.comms, mechanical.comms);
    stage_row("cells", analytic.cells, mechanical.cells);
    stage_row("eval", analytic.eval, mechanical.eval);
    stage_row("finish", analytic.finish, mechanical.finish);

    let kernel_rate = rate(analytic.eval);
    let eval_speedup = mechanical.eval / analytic.eval;
    let end_speedup = t_mech / t_analytic;
    println!(
        "\nmechanical sweep : {:>8.1} ms  ({:>10.0} candidates/s end-to-end, committed)",
        t_mech * 1e3,
        rate(t_mech)
    );
    println!(
        "analytic sweep   : {:>8.1} ms  ({:>10.0} candidates/s end-to-end)  {end_speedup:.1}x",
        t_analytic * 1e3,
        rate(t_analytic)
    );
    println!(
        "reused sweep     : {:>8.1} ms  ({:>10.0} candidates/s end-to-end, kept buffers)",
        t_reused * 1e3,
        rate(t_reused)
    );
    println!(
        "kernel eval stage: {:>8.1} ms  ({:>10.0} candidates/s)  {eval_speedup:.1}x over mechanical eval",
        analytic.eval * 1e3,
        kernel_rate
    );
    println!(
        "trajectory       : 0.26M/s reference -> 2.6M/s top-k -> 27.9M/s grid -> {:.1}M/s kernel ({:.1}x grid)",
        kernel_rate / 1e6,
        kernel_rate / GRID_BASELINE_CANDIDATES_PER_SEC
    );

    // Chunk-granularity sweep: full end-to-end runs at each size, so the
    // recorded numbers capture dispatch overhead and cache effects the
    // eval stage sees in practice. DEFAULT_CHUNK is pinned from this table.
    let chunks = [2048usize, 4096, 8192, 16384, 32768];
    let mut chunk_rows = String::new();
    println!("\nchunk sweep (eval stage, best of 2):");
    for (i, &c) in chunks.iter().enumerate() {
        let s = GridSweep::new().with_chunk_size(c);
        let t = best_stages(2, || s.run_timed(&grid).1);
        println!(
            "  chunk {c:>6}: eval {:>8.1} ms ({:>10.0} candidates/s)",
            t.eval * 1e3,
            rate(t.eval)
        );
        let sep = if i + 1 < chunks.len() { "," } else { "" };
        chunk_rows.push_str(&format!(
            "    {{\"chunk\": {c}, \"eval_seconds\": {:.6}, \"candidates_per_sec\": {:.0}}}{sep}\n",
            t.eval,
            rate(t.eval)
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"kernel\",\n",
            "  \"queries\": {},\n",
            "  \"total_candidates\": {},\n",
            "  \"evaluated\": {},\n",
            "  \"pruned_by_memory\": {},\n",
            "  \"pruned_by_dominance\": {},\n",
            "  \"grid_baseline_candidates_per_sec\": {:.0},\n",
            "  \"mechanical_seconds\": {:.6},\n",
            "  \"analytic_seconds\": {:.6},\n",
            "  \"analytic_reused_seconds\": {:.6},\n",
            "  \"mechanical_eval_seconds\": {:.6},\n",
            "  \"kernel_eval_seconds\": {:.6},\n",
            "  \"kernel_candidates_per_sec\": {:.0},\n",
            "  \"speedup_vs_grid_baseline\": {:.2},\n",
            "  \"speedup_eval_vs_mechanical\": {:.2},\n",
            "  \"speedup_end_to_end\": {:.2},\n",
            "  \"stages_analytic\": {{\"supersets\": {:.6}, \"engines\": {:.6}, \"preps\": {:.6}, \"comms\": {:.6}, \"cells\": {:.6}, \"eval\": {:.6}, \"finish\": {:.6}}},\n",
            "  \"stages_mechanical\": {{\"supersets\": {:.6}, \"engines\": {:.6}, \"preps\": {:.6}, \"comms\": {:.6}, \"cells\": {:.6}, \"eval\": {:.6}, \"finish\": {:.6}}},\n",
            "  \"chunk_sweep\": [\n{}  ]\n",
            "}}\n"
        ),
        queries,
        total,
        evaluated,
        mem_pruned,
        dom_pruned,
        GRID_BASELINE_CANDIDATES_PER_SEC,
        t_mech,
        t_analytic,
        t_reused,
        mechanical.eval,
        analytic.eval,
        kernel_rate,
        kernel_rate / GRID_BASELINE_CANDIDATES_PER_SEC,
        eval_speedup,
        end_speedup,
        analytic.supersets,
        analytic.engines,
        analytic.preps,
        analytic.comms,
        analytic.cells,
        analytic.eval,
        analytic.finish,
        mechanical.supersets,
        mechanical.engines,
        mechanical.preps,
        mechanical.comms,
        mechanical.cells,
        mechanical.eval,
        mechanical.finish,
        chunk_rows,
    );
    std::fs::write("BENCH_kernel.json", &json).expect("write BENCH_kernel.json");
    println!("\nwrote BENCH_kernel.json");

    // Opt-in acceptance floor: the kernel must process candidates at
    // ≥ 5× the committed end-to-end grid throughput it grew out of.
    if std::env::var_os("PARADL_ASSERT_SPEEDUP").is_some() {
        let floor = 5.0 * GRID_BASELINE_CANDIDATES_PER_SEC;
        assert!(
            kernel_rate >= floor,
            "acceptance regression: kernel {kernel_rate:.0} candidates/s < 5x grid baseline ({floor:.0})"
        );
        println!(
            "kernel floor asserted: {:.1}x >= 5x grid baseline",
            kernel_rate / GRID_BASELINE_CANDIDATES_PER_SEC
        );
    }
}
