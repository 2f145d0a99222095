//! `paper_grid`: repeated `GridSweep::run` over the 72-cell paper grid —
//! the four paper models × batches 128…1536 × the three cluster-axis
//! variants, exhaustive to 16 Ki PEs, top-10. Mostly supersets, preps,
//! comms and eval; no vet, serve or simulator work.
//!
//! The grid is fixed; the seed orders its axes and picks the cells checked
//! against a per-query `Oracle::search`.

use crate::bench::{self, base_config, Checks, Pass, Rng, Run};
use crate::trace::{Trace, Tracer};
use paradl_core::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: [usize; 6] = [128, 256, 512, 768, 1024, 1536];
/// Cells per run whose winners are checked against `Oracle::search`.
const CHECKED_CELLS: usize = 3;
/// How far the stage sum of a traced sweep may fall short of its wall time.
/// The rest is listing the cells and freeing the sweep's tables (hundreds
/// of MiB), which takes 2–7% of a sweep and more when the machine is busy.
const STAGE_CLOSURE: f64 = 0.2;
/// A pass runs 40–60 sweeps, so p70 leaves at least ten beyond.
const TAIL_QUANTILE: f64 = 0.7;

fn paper_grid(seed: u64) -> QueryGrid {
    let mut rng = Rng::new(seed, 2);
    let mut batches = BATCHES;
    rng.shuffle(&mut batches);
    let mut clusters = paradl_bench::cluster_axis();
    rng.shuffle(&mut clusters);
    let mut models = paradl_models::paper_models();
    rng.shuffle(&mut models);
    let constraints = Constraints {
        max_pes: 16 * 1024,
        pipeline_segments: 512,
        sweep: PeSweep::Exhaustive,
        top_k: Some(10),
        ..Constraints::default()
    };
    let mut grid = QueryGrid::new(constraints).with_batches(batches);
    for cluster in clusters {
        grid = grid.with_cluster(cluster);
    }
    for model in models {
        let base = base_config(&model, batches[0]);
        grid = grid.with_model(model, base);
    }
    grid
}

/// The stages `GridSweep::run_timed` reports, in the order it runs them:
/// (span name, per-layer metric).
const STAGES: [(&str, &str); 8] = [
    ("grid.caches", "grid.caches_ms"),
    ("grid.supersets", "grid.supersets_ms"),
    ("grid.engines", "grid.engines_ms"),
    ("grid.preps", "grid.preps_ms"),
    ("grid.comms", "grid.comms_ms"),
    ("grid.cells", "grid.cells_ms"),
    ("grid.eval", "grid.eval_ms"),
    ("grid.finish", "grid.finish_ms"),
];

/// The stage spans of one timed sweep, in [`STAGES`] order.
pub fn stage_list(t: &GridStageTimings) -> [(&'static str, f64); 8] {
    let secs = [t.caches, t.supersets, t.engines, t.preps, t.comms, t.cells, t.eval, t.finish];
    std::array::from_fn(|i| (STAGES[i].0, secs[i]))
}

fn pass(
    grid: &QueryGrid,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    checks: &mut Checks,
) -> (Pass, GridReport) {
    let sweep = GridSweep::new();
    let mut pass = Pass::default();
    let mut last = None;
    let start = Instant::now();
    while pass.ops == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        drop(last.take());
        let t = Instant::now();
        let report = match tracer.as_deref_mut() {
            None => sweep.run(grid),
            Some(tr) => {
                tr.begin_op(pass.ops as u64, format!("{} cells", grid.num_queries()));
                let (report, timings) = tr.span("sweep", |tr| {
                    let (report, timings) = sweep.run_timed(grid);
                    tr.stages(&stage_list(&timings));
                    (report, timings)
                });
                let wall_ms = tr.last_ms("sweep");
                let stage_ms: f64 = stage_list(&timings).iter().map(|s| s.1 * 1e3).sum();
                checks.check(
                    stage_ms <= wall_ms + 1e-3 && stage_ms >= (1.0 - STAGE_CLOSURE) * wall_ms,
                    || format!("grid stage sum {stage_ms:.3} ms does not close on {wall_ms:.3} ms"),
                );
                report
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        black_box(report.len());
        pass.latencies_ms.push(ms);
        pass.busy_s += ms / 1e3;
        pass.ops += 1;
        last = Some(report);
    }
    (pass, last.expect("at least one sweep"))
}

/// Checks one sweep's answers: accounting and finiteness on every cell, and
/// the same winners as a per-query `Oracle::search` on seeded cells.
fn check_report(grid: &QueryGrid, report: &GridReport, seed: u64, checks: &mut Checks) {
    checks.check(report.len() == grid.num_queries(), || {
        format!("sweep returned {} of {} cells", report.len(), grid.num_queries())
    });
    for cell in &report.cells {
        let json = QueryAnswer::Ranked(cell.report.clone()).to_json();
        checks.check(bench::accounting_closes(&cell.report) && bench::all_finite(&json), || {
            format!("cell {:?}: accounting or finiteness failed", cell.query)
        });
    }
    let mut rng = Rng::new(seed, 3);
    for _ in 0..CHECKED_CELLS {
        let cell = &report.cells[rng.below(report.len())];
        let gm = &grid.models()[cell.query.model];
        let cluster = &grid.clusters()[cell.query.cluster];
        let oracle =
            Oracle::new(&gm.model, &cluster.device, cluster, gm.config_at(cell.query.batch));
        let reference = oracle.search(grid.constraints());
        let strategies = |r: &SearchReport| r.ranked.iter().map(|c| c.strategy).collect::<Vec<_>>();
        let budgets = |r: &SearchReport| {
            r.best_per_budget.iter().map(|w| (w.max_pes, w.candidate.strategy)).collect::<Vec<_>>()
        };
        checks.check(
            strategies(&reference) == strategies(&cell.report)
                && budgets(&reference) == budgets(&cell.report),
            || format!("cell {:?}: winners differ from Oracle::search", cell.query),
        );
    }
}

/// Runs the workload.
pub fn run(cfg: &bench::Config) -> Run {
    let (setup_s, grid) = bench::timed_setup(|| {
        let grid = paper_grid(cfg.seed);
        black_box(GridSweep::new().run(&grid).len());
        grid
    });
    let mut run = Run { setup_s, tail_quantile: TAIL_QUANTILE, ..Run::default() };
    let (pass_, report) = pass(&grid, cfg.pass_seconds(), None, &mut run.checks);
    run.pass = pass_;
    check_report(&grid, &report, cfg.seed, &mut run.checks);
    if cfg.trace {
        let mut tracer = Tracer::new(Instant::now(), 0);
        let (traced, report) = pass(&grid, cfg.pass_seconds(), Some(&mut tracer), &mut run.checks);
        let mut trace = Trace::default();
        trace.absorb(tracer);
        set_sweep_layers(&mut run.layers, &trace, "sweep", traced.ops, &grid, &report);
        run.trace = trace;
        run.traced = Some(traced);
    }
    run
}

/// The grid, engine and kernel metrics of a traced pass whose sweeps are
/// `root` spans with stage children. Times are per operation; the counts
/// come from one sweep's report, since every sweep of a fixed grid does the
/// same work.
pub fn set_sweep_layers(
    l: &mut bench::Layers,
    trace: &Trace,
    root: &str,
    ops: usize,
    grid: &QueryGrid,
    report: &GridReport,
) {
    let per_op = |span: &str| trace.self_ms(span) / ops as f64;
    for (span, metric) in STAGES {
        l.set(metric, per_op(span));
    }
    l.set("grid.unaccounted_ms", per_op(root));
    // The engines stage builds one engine per model × cluster.
    l.set("engine.build_ms", per_op("grid.engines"));
    l.set("engine.builds", (grid.models().len() * grid.clusters().len()) as f64);
    let sum =
        |f: fn(&SearchReport) -> usize| report.cells.iter().map(|c| f(&c.report)).sum::<usize>();
    let enumerated = sum(|r| r.enumerated);
    let evaluated = sum(SearchReport::evaluated);
    l.set("grid.candidates", enumerated as f64);
    l.set("kernel.enumerated", enumerated as f64);
    l.set("kernel.evaluated", evaluated as f64);
    l.set("kernel.pruned_memory", sum(|r| r.pruned_by_memory) as f64);
    l.set("kernel.pruned_dominance", sum(|r| r.pruned_by_dominance) as f64);
    if enumerated > 0 {
        l.set("kernel.evaluated_ratio", evaluated as f64 / enumerated as f64);
    }
}
