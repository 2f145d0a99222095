//! `conformance`: the `bench_sim_summary` loop — `GridSweep::run` →
//! `Conformance::validate_sweep` → `Conformance::fit` →
//! `Conformance::validate_sweep_calibrated`. The only workload that runs
//! the simulator and the calibration fit.
//!
//! One operation runs the whole loop on a four-cell grid: the four paper
//! models at batch 64 on the paper system, the top 4 winners of each cell
//! replayed for two iterations. The loop on the full 36-cell
//! `bench_sim_summary` grid takes 10–19 s, so a run would hold one sample and
//! follow every swing of a shared host; the small grid takes well under a
//! second, so a run holds dozens and reports their median. The seed derives
//! a deck of replay seeds that the operations cycle through; a replay seed
//! changes every simulated measurement.
//!
//! Once per run, outside the measured passes, the loop also runs on the full
//! 36-cell grid with the committed seed, and its fidelity numbers are
//! checked against `BENCH_sim.json`.

use crate::bench::{self, base_config, Checks, Pass, Rng, Run};
use crate::trace::{Trace, Tracer};
use paradl_core::prelude::*;
use paradl_sim::{Conformance, OverheadModel};
use std::time::{Duration, Instant};

/// Fidelity numbers are committed with six decimals.
const SNAPSHOT_TOLERANCE: f64 = 1e-6;
/// The replay seed `bench_sim_summary` committed its snapshot with.
const SNAPSHOT_SEED: u64 = 0x5EED;
/// Slack for the calibration's never-worse guarantee (float summation).
const FIT_SLACK: f64 = 1e-9;
/// The operation grid's batch.
const OP_BATCH: usize = 64;
/// Winners per cell an operation replays (the snapshot replays ten).
const OP_REPLAY_TOP: usize = 4;
/// Replay seeds an operation cycles through. An operation is checked
/// against the earlier one with the same seed.
const REPLAY_SEEDS: usize = 8;
/// A pass runs 33–45 operations, so p70 leaves at least ten beyond.
const TAIL_QUANTILE: f64 = 0.7;

fn constraints() -> Constraints {
    Constraints {
        max_pes: 256,
        top_k: Some(10),
        sweep: PeSweep::PowersOfTwo,
        ..Constraints::default()
    }
}

fn harness(seed: u64, replay_top: usize) -> Conformance {
    Conformance::new()
        .with_overheads(OverheadModel::chainermnx_quiet())
        .with_samples(2)
        .with_replay_top(replay_top)
        .with_seed(seed)
}

/// The committed snapshot's 36-cell grid: four models × batches 64, 128,
/// 256 × the three cluster-axis variants.
fn snapshot_grid() -> QueryGrid {
    let batches = [64usize, 128, 256];
    let mut grid = QueryGrid::new(constraints()).with_batches(batches);
    for cluster in paradl_bench::cluster_axis() {
        grid = grid.with_cluster(cluster);
    }
    for model in paradl_models::paper_models() {
        let base = base_config(&model, batches[0]);
        grid = grid.with_model(model, base);
    }
    grid
}

/// The operation's grid: the four paper models at one batch on the paper
/// system. The model order is fixed, because the replays split into one
/// static chunk per core in job order and the split sets the latency.
fn op_grid() -> QueryGrid {
    let mut grid = QueryGrid::new(constraints())
        .with_batches([OP_BATCH])
        .with_cluster(ClusterSpec::paper_system());
    for model in paradl_models::paper_models() {
        let base = base_config(&model, OP_BATCH);
        grid = grid.with_model(model, base);
    }
    grid
}

struct Setup {
    grid: QueryGrid,
    harnesses: Vec<Conformance>,
    snapshot_grid: QueryGrid,
    expected: Json,
}

fn setup(seed: u64) -> Setup {
    let mut rng = Rng::new(seed, 4);
    let s = Setup {
        grid: op_grid(),
        harnesses: (0..REPLAY_SEEDS).map(|_| harness(rng.next(), OP_REPLAY_TOP)).collect(),
        snapshot_grid: snapshot_grid(),
        expected: bench::committed_sim_snapshot(),
    };
    // Warm-up: one operation. Without it set-up takes 20 ms, and its time
    // follows page faults and file reads rather than the program.
    std::hint::black_box(untraced(&s.grid, &s.harnesses[0]).is_some());
    s
}

/// The outputs of one conformance loop.
struct Outcome {
    sweep: GridReport,
    uncalibrated: FidelityReport,
    calibration: Calibration,
    calibrated: FidelityReport,
}

fn untraced(grid: &QueryGrid, harness: &Conformance) -> Option<Outcome> {
    let sweep = GridSweep::new().run(grid);
    let uncalibrated = harness.validate_sweep(grid, &sweep)?;
    let calibration = harness.fit(grid, &sweep)?;
    let calibrated = harness.validate_sweep_calibrated(grid, &sweep, &calibration)?;
    Some(Outcome { sweep, uncalibrated, calibration, calibrated })
}

fn traced(tr: &mut Tracer, grid: &QueryGrid, harness: &Conformance) -> Option<Outcome> {
    tr.span("conformance", |tr| {
        let sweep = tr.span("grid.sweep", |tr| {
            let (sweep, t) = GridSweep::new().run_timed(grid);
            tr.stages(&crate::paper_grid::stage_list(&t));
            sweep
        });
        let uncalibrated =
            tr.span("conformance.validate", |_| harness.validate_sweep(grid, &sweep))?;
        let calibration = tr.span("conformance.fit", |_| harness.fit(grid, &sweep))?;
        let calibrated = tr.span("conformance.validate_calibrated", |_| {
            harness.validate_sweep_calibrated(grid, &sweep, &calibration)
        })?;
        Some(Outcome { sweep, uncalibrated, calibration, calibrated })
    })
}

fn close(a: f64, b: Option<f64>) -> bool {
    b.is_some_and(|b| (a - b).abs() <= SNAPSHOT_TOLERANCE)
}

fn stats_match(s: &ErrorStats, json: Option<&Json>) -> bool {
    let Some(j) = json else { return false };
    let num = |k: &str| j.get(k).and_then(Json::number);
    j.get("samples").and_then(Json::usize) == Some(s.samples)
        && close(s.mean_signed_error, num("mean_signed_error"))
        && close(s.mean_ape, num("mean_ape"))
        && close(s.p50_ape, num("p50_ape"))
        && close(s.p90_ape, num("p90_ape"))
        && close(s.max_ape, num("max_ape"))
        && close(s.mean_accuracy, num("mean_accuracy"))
}

/// Whether a fidelity report equals a committed snapshot section in every
/// non-timing field.
fn snapshot_matches(report: &FidelityReport, json: Option<&Json>) -> bool {
    let Some(j) = json else { return false };
    let rho_cells = report.cells.iter().filter(|c| c.rank_correlation.is_some()).count();
    let families = j.get("families").and_then(Json::array).unwrap_or(&[]);
    report
        .mean_rank_correlation
        .is_some_and(|rho| close(rho, j.get("mean_rank_correlation").and_then(Json::number)))
        && j.get("rank_correlation_cells").and_then(Json::usize) == Some(rho_cells)
        && stats_match(&report.overall, j.get("overall"))
        && families.len() == report.families.len()
        && report.families.iter().zip(families).all(|(f, jf)| {
            jf.get("family").and_then(Json::string) == Some(f.family.to_string().as_str())
                && stats_match(&f.stats, jf.get("stats"))
        })
}

/// Runs the loop on the full grid with the committed seed and checks it
/// against `BENCH_sim.json`.
fn check_snapshot(s: &Setup, checks: &mut Checks) {
    let harness = harness(SNAPSHOT_SEED, 10);
    let Some(o) = untraced(&s.snapshot_grid, &harness) else {
        checks.check(false, || "full-grid conformance produced no report".to_string());
        return;
    };
    let e = &s.expected;
    let count = |k: &str| e.get(k).and_then(Json::usize);
    checks.check(
        count("cells") == Some(o.uncalibrated.cells.len())
            && count("replayed_winners") == Some(o.uncalibrated.num_samples())
            && count("replay_top") == Some(harness.replay_top)
            && count("sample_iterations") == Some(harness.sample_iterations),
        || "conformance shape differs from BENCH_sim.json".to_string(),
    );
    checks.check(snapshot_matches(&o.uncalibrated, e.get("uncalibrated")), || {
        "uncalibrated fidelity differs from BENCH_sim.json".to_string()
    });
    checks.check(snapshot_matches(&o.calibrated, e.get("calibrated")), || {
        "calibrated fidelity differs from BENCH_sim.json".to_string()
    });
    checks.check(o.calibration == bench::committed_calibration(e), || {
        "fitted calibration differs from BENCH_sim.json".to_string()
    });
    checks.check(fit_samples(&o, harness.replay_top).is_some(), || {
        "full-grid replays do not line up with the sweep's winners".to_string()
    });
}

fn stats_finite(s: &ErrorStats) -> bool {
    [s.mean_signed_error, s.mean_ape, s.p50_ape, s.p90_ape, s.max_ape, s.mean_accuracy]
        .iter()
        .all(|v| v.is_finite())
}

/// Checks one operation's outcome without a reference: every winner was
/// replayed, both reports measured the same replays, the calibration made
/// no family worse on its own samples, and every number is finite.
fn check_outcome(s: &Setup, o: &Outcome, checks: &mut Checks) {
    let winners: usize = o.sweep.winners(OP_REPLAY_TOP).iter().map(|(_, w)| w.len()).sum();
    checks.check(
        o.uncalibrated.cells.len() == s.grid.num_queries()
            && o.uncalibrated.num_samples() == winners
            && o.calibrated.num_samples() == winners,
        || {
            format!(
                "{} cells and {} samples for {} winners",
                o.uncalibrated.cells.len(),
                o.uncalibrated.num_samples(),
                winners
            )
        },
    );
    let same_replays = o.uncalibrated.cells.len() == o.calibrated.cells.len()
        && o.uncalibrated.cells.iter().zip(&o.calibrated.cells).all(|(u, c)| {
            u.query == c.query
                && u.samples.len() == c.samples.len()
                && u.samples
                    .iter()
                    .zip(&c.samples)
                    .all(|(a, b)| a.strategy == b.strategy && a.measured == b.measured)
        });
    checks.check(same_replays, || "calibrated replays differ from uncalibrated".to_string());
    let never_worse = o.uncalibrated.families.iter().all(|u| {
        o.calibrated.family(u.family).is_some_and(|c| {
            c.stats.mean_signed_error.abs() <= u.stats.mean_signed_error.abs() + FIT_SLACK
                && c.stats.mean_accuracy >= u.stats.mean_accuracy - FIT_SLACK
        })
    });
    checks.check(never_worse, || "calibration made a family worse on its samples".to_string());
    let finite = [&o.uncalibrated, &o.calibrated].iter().all(|r| {
        stats_finite(&r.overall)
            && r.families.iter().all(|f| stats_finite(&f.stats))
            && r.mean_rank_correlation.is_some_and(f64::is_finite)
    });
    checks.check(finite, || "fidelity report holds a non-finite number".to_string());
}

/// Whether two outcomes hold the same fidelity reports and calibration.
fn same_result(a: &Outcome, b: &Outcome) -> bool {
    a.uncalibrated == b.uncalibrated
        && a.calibration == b.calibration
        && a.calibrated == b.calibrated
}

/// The fit's training samples, rebuilt from the sweep's winners and the
/// uncalibrated report's measurements (the same replays, in job order).
fn fit_samples(o: &Outcome, replay_top: usize) -> Option<Vec<CalSample>> {
    let mut samples = Vec::new();
    for (query, winners) in o.sweep.winners(replay_top) {
        if winners.is_empty() {
            continue;
        }
        let cell = o.uncalibrated.cells.iter().find(|c| c.query == query)?;
        if cell.samples.len() != winners.len() {
            return None;
        }
        for (w, m) in winners.iter().zip(&cell.samples) {
            if w.strategy != m.strategy {
                return None;
            }
            samples.push(CalSample::from_estimate(&w.projection.cost, m.measured));
        }
    }
    Some(samples)
}

/// Runs operations for `seconds`. Operation `i` uses replay seed
/// `i % REPLAY_SEEDS`, and its outcome must equal the first one with that
/// seed in the run (kept in `firsts`).
fn pass(
    s: &Setup,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    firsts: &mut [Option<Outcome>],
    checks: &mut Checks,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    while pass.ops == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        let k = pass.ops % REPLAY_SEEDS;
        let harness = &s.harnesses[k];
        let t = Instant::now();
        let outcome = match tracer.as_deref_mut() {
            None => untraced(&s.grid, harness),
            Some(tr) => {
                tr.begin_op(pass.ops as u64, format!("{} cells", s.grid.num_queries()));
                traced(tr, &s.grid, harness)
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        pass.ops += 1;
        pass.busy_s += ms / 1e3;
        let Some(o) = outcome else {
            checks.check(false, || "conformance produced no report".to_string());
            continue;
        };
        pass.latencies_ms.push(ms);
        check_outcome(s, &o, checks);
        // Calibration::fit alone, on the same samples the harness fit.
        let samples = fit_samples(&o, OP_REPLAY_TOP);
        let seed = harness.base_seed;
        let refit = samples.map(|samples| match tracer.as_deref_mut() {
            None => Calibration::fit(&samples, seed),
            Some(tr) => tr.span("calibrate.fit", |_| Calibration::fit(&samples, seed)),
        });
        checks.check(refit.as_ref() == Some(&o.calibration), || {
            "Calibration::fit on the replayed samples differs from Conformance::fit".to_string()
        });
        match &firsts[k] {
            None => firsts[k] = Some(o),
            Some(f) => checks.check(same_result(f, &o), || {
                "a repeated conformance loop gave another result".to_string()
            }),
        }
    }
    pass
}

/// Runs the workload.
pub fn run(cfg: &bench::Config) -> Run {
    let (setup_s, s) = bench::timed_setup(|| setup(cfg.seed));
    let mut run = Run { setup_s, tail_quantile: TAIL_QUANTILE, ..Run::default() };
    let mut firsts: Vec<Option<Outcome>> = (0..REPLAY_SEEDS).map(|_| None).collect();
    run.pass = pass(&s, cfg.pass_seconds(), None, &mut firsts, &mut run.checks);
    if cfg.trace {
        let mut tracer = Tracer::new(Instant::now(), 0);
        let traced = pass(&s, cfg.pass_seconds(), Some(&mut tracer), &mut firsts, &mut run.checks);
        let mut trace = Trace::default();
        trace.absorb(tracer);
        let per_op = |name: &str| trace.self_ms(name) / traced.ops as f64;
        let l = &mut run.layers;
        for (span, metric) in [
            ("conformance.validate", "conformance.validate_ms"),
            ("conformance.fit", "conformance.fit_ms"),
            ("conformance.validate_calibrated", "conformance.validate_calibrated_ms"),
            ("calibrate.fit", "calibrate.fit_ms"),
        ] {
            l.set(metric, per_op(span));
        }
        // The three passes replay every winner; the harness fit also runs
        // Calibration::fit, measured alone above.
        l.set(
            "sim.replay_ms",
            per_op("conformance.validate")
                + per_op("conformance.fit")
                + per_op("conformance.validate_calibrated")
                - per_op("calibrate.fit"),
        );
        // Every operation replays as many winners of the same sweep.
        if let Some(o) = &firsts[0] {
            l.set("sim.replays", 3.0 * o.uncalibrated.num_samples() as f64);
            crate::paper_grid::set_sweep_layers(
                l,
                &trace,
                "grid.sweep",
                traced.ops,
                &s.grid,
                &o.sweep,
            );
        }
        run.trace = trace;
        run.traced = Some(traced);
    }
    check_snapshot(&s, &mut run.checks);
    run
}
