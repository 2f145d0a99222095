//! Pieces every workload shares: the run configuration, the result of a
//! run, correctness-check accounting and the per-layer metric table.

use crate::trace::Trace;
use paradl_core::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

/// Command-line settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Config {
    /// Seconds of each measured pass: the whole budget untraced, or half of
    /// it untraced and half traced in a trace run.
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Runs `setup` [`SETUP_REPEATS`] times and returns the median wall time in
/// seconds with the last result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (crate::stats::median(&times), last.expect("at least one set-up"))
}

/// Attempted and failed operations and checks; the first few failure
/// messages are kept for the report.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts `n` attempts that succeeded.
    pub fn passed(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts one attempt that succeeded when `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }
}

/// One measured pass: per-operation latencies and the busy time they ran in.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of every answered operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted (answered or refused).
    pub ops: usize,
    /// Seconds the callers spent waiting on the program.
    pub busy_s: f64,
}

impl Pass {
    /// Operations per second of busy time.
    pub fn ops_per_s(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.ops as f64 / self.busy_s
        } else {
            0.0
        }
    }
}

/// Every per-layer metric the benchmark reports, with its unit. Each
/// workload reports all of them; a layer it never calls reads 0. Times
/// and counts are per operation of the workload.
pub const LAYER_METRICS: [(&str, &str); 39] = [
    ("vet.calls", "count"),
    ("vet.rejected", "count"),
    ("vet.self_ms", "ms"),
    ("engine.builds", "count"),
    ("engine.build_ms", "ms"),
    ("kernel.self_ms", "ms"),
    ("kernel.enumerated", "count"),
    ("kernel.evaluated", "count"),
    ("kernel.pruned_memory", "count"),
    ("kernel.pruned_dominance", "count"),
    ("kernel.evaluated_ratio", "ratio"),
    ("grid.caches_ms", "ms"),
    ("grid.supersets_ms", "ms"),
    ("grid.engines_ms", "ms"),
    ("grid.preps_ms", "ms"),
    ("grid.comms_ms", "ms"),
    ("grid.cells_ms", "ms"),
    ("grid.eval_ms", "ms"),
    ("grid.finish_ms", "ms"),
    ("grid.unaccounted_ms", "ms"),
    ("grid.candidates", "count"),
    ("query.render_ms", "ms"),
    ("serve.queue_us", "us"),
    ("serve.eval_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.coalesced_mean", "count"),
    ("serve.batch_cells_mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
    ("sim.replays", "count"),
    ("sim.replay_ms", "ms"),
    ("conformance.validate_ms", "ms"),
    ("conformance.fit_ms", "ms"),
    ("conformance.validate_calibrated_ms", "ms"),
    ("calibrate.fit_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metric values, keyed by the names of [`LAYER_METRICS`].
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name` (which must be one of [`LAYER_METRICS`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Run {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// The percentile `tail_ms` reads (see [`crate::stats::tail`]).
    pub tail_quantile: f64,
    /// The untraced pass: the end-to-end numbers.
    pub pass: Pass,
    /// The traced pass (trace runs only).
    pub traced: Option<Pass>,
    /// Spans of the traced pass.
    pub trace: Trace,
    /// Per-layer metrics of the traced pass.
    pub layers: Layers,
    /// Correctness accounting over both passes.
    pub checks: Checks,
}

/// Whether an answer document holds only finite numbers. The renderer
/// writes a non-finite number as `null`, so a `null` anywhere but the
/// `best` of a suggestion that found nothing counts as non-finite too.
pub fn all_finite(json: &Json) -> bool {
    match json {
        Json::Num(n) => n.is_finite(),
        Json::Null => false,
        Json::Arr(items) => items.iter().all(all_finite),
        Json::Obj(fields) => {
            fields.iter().all(|(k, v)| (k == "best" && v.is_null()) || all_finite(v))
        }
        _ => true,
    }
}

/// Kernel accounting of one report closes: the pruning classes never
/// exceed what was enumerated, evaluated plus pruned equals enumerated,
/// and the ranking holds no more candidates than were costed.
pub fn accounting_closes(report: &SearchReport) -> bool {
    let pruned = report
        .pruned_by_memory
        .checked_add(report.pruned_by_bound)
        .and_then(|p| p.checked_add(report.pruned_by_dominance));
    matches!(pruned, Some(p) if p <= report.enumerated)
        && report.evaluated() + report.pruned() == report.enumerated
        && report.ranked.len() <= report.evaluated()
}

/// The base training configuration of a paper model: CosmoFlow's dataset
/// for CosmoFlow, ImageNet for the rest.
pub fn base_config(model: &Model, batch: usize) -> TrainingConfig {
    if model.name.starts_with("CosmoFlow") {
        TrainingConfig::cosmoflow(batch)
    } else {
        TrainingConfig::imagenet(batch)
    }
}

/// Reads the committed `BENCH_sim.json` conformance snapshot from the
/// repository root.
pub fn committed_sim_snapshot() -> Json {
    let text = std::fs::read_to_string("BENCH_sim.json")
        .expect("BENCH_sim.json at the repository root (run from the repository root)");
    Json::parse(&text).expect("BENCH_sim.json parses")
}

/// The calibration committed in `BENCH_sim.json`.
pub fn committed_calibration(snapshot: &Json) -> Calibration {
    Calibration::from_json(snapshot.get("calibration").expect("BENCH_sim.json has a calibration"))
        .expect("committed calibration parses")
}

/// SplitMix64: a small, fully determined generator for the seeded inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream id, so each input stream
    /// of a run is independent of the others.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A uniformly chosen element.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}
