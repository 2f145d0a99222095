//! `query_mix`: one caller runs standalone `Query::run` over a seeded
//! sequence of queries. Every query pays vet, an engine build and the
//! per-query kernel, with no reuse across queries.
//!
//! The sequence is made of blocks of fixed make-up — per paper model two
//! suggestions, two surveys, three top-10 rankings (1 Ki, 16 Ki and either
//! budget) and one full ranking at 1 Ki, plus two calibrated queries and
//! two hostile specs per block. The seed deals each slot's batch and
//! cluster from a shuffled deck of all their pairs, draws the remaining
//! budgets and survey sizes, and orders each block. A pass runs whole
//! blocks only, so every pass measures nearly the same mix. Full rankings stay at 1 Ki PEs: at 16 Ki one
//! answer holds hundreds of thousands of candidates and rendering it takes
//! 0.15–0.7 s, which would swamp every other query of the mix.

use crate::bench::{self, base_config, Checks, Pass, Rng, Run};
use crate::trace::{Trace, Tracer};
use paradl_core::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: [usize; 4] = [128, 256, 512, 1024];
const BUDGETS: [usize; 2] = [1024, 16 * 1024];
const SURVEY_PES: [usize; 4] = [16, 64, 256, 1024];
/// Blocks generated at set-up; a pass that runs out starts over.
const BLOCKS: usize = 64;
/// A pass answers 1300–2000 queries, so p99 leaves at least ten beyond.
const TAIL_QUANTILE: f64 = 0.99;

/// A way to make a valid query hostile; `Query::vet` must refuse each.
#[derive(Debug, Clone, Copy)]
enum Hostile {
    ZeroBatch,
    NanPeakFlops,
    InfiniteLinkBeta,
    NoGpusPerNode,
    ZeroMaxPes,
    NegativeMemory,
    ZeroSurveyPes,
    EnumerationBlowup,
}

const HOSTILE: [Hostile; 8] = [
    Hostile::ZeroBatch,
    Hostile::NanPeakFlops,
    Hostile::InfiniteLinkBeta,
    Hostile::NoGpusPerNode,
    Hostile::ZeroMaxPes,
    Hostile::NegativeMemory,
    Hostile::ZeroSurveyPes,
    Hostile::EnumerationBlowup,
];

/// One generated query, by index into the plan's models and clusters.
#[derive(Debug, Clone, Copy)]
struct Spec {
    model: usize,
    cluster: usize,
    batch: usize,
    max_pes: usize,
    mode: QueryMode,
    calibrated: bool,
    hostile: Option<Hostile>,
}

/// The generated inputs of a run.
struct Plan {
    models: Vec<Model>,
    clusters: Vec<ClusterSpec>,
    calibration: Calibration,
    blocks: Vec<Vec<Spec>>,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        let models = paradl_models::paper_models();
        let clusters = paradl_bench::cluster_axis();
        let calibration = bench::committed_calibration(&bench::committed_sim_snapshot());
        let mut rng = Rng::new(seed, 1);
        let (m, c) = (models.len(), clusters.len());
        let mut decks: Vec<Deck> = (0..m * SLOTS)
            .map(|_| Deck::new(BATCHES.len(), c))
            .chain((0..2).map(|_| Deck::new(m, BATCHES.len())))
            .collect();
        let blocks = (0..BLOCKS).map(|_| block(&mut rng, &mut decks, m, c)).collect();
        Plan { models, clusters, calibration, blocks }
    }

    fn query(&self, spec: &Spec) -> Query {
        let model = &self.models[spec.model];
        let mut query = Query {
            model: Some(model.clone()),
            config: Some(base_config(model, spec.batch)),
            cluster: Some(self.clusters[spec.cluster].clone()),
            constraints: Constraints {
                max_pes: spec.max_pes,
                sweep: PeSweep::Exhaustive,
                ..Constraints::default()
            },
            mode: spec.mode,
            calibration: spec.calibrated.then(|| self.calibration.clone()),
        };
        if let Some(hostile) = spec.hostile {
            make_hostile(&mut query, hostile);
        }
        query
    }

    fn label(&self, spec: &Spec) -> String {
        format!(
            "{} {:?} max_pes={} batch={} cluster={}{}{}",
            self.models[spec.model].name,
            spec.mode,
            spec.max_pes,
            spec.batch,
            spec.cluster,
            if spec.calibrated { " calibrated" } else { "" },
            spec.hostile.map_or(String::new(), |h| format!(" hostile={h:?}")),
        )
    }
}

/// Query slots per model and block: two suggestions (1 Ki, 16 Ki), two
/// surveys, top-10 rankings at 1 Ki, 16 Ki and either budget, and a full
/// ranking at 1 Ki.
const SLOTS: usize = 8;

/// A seeded, reshuffled deck of index pairs: each pair is dealt once per
/// pass through the deck, so every (batch, cluster) — or (model, batch) —
/// pair of a slot comes up equally often and the mix barely depends on the
/// seed.
struct Deck {
    cards: Vec<(usize, usize)>,
    dealt: usize,
}

impl Deck {
    fn new(a: usize, b: usize) -> Deck {
        let cards: Vec<_> = (0..a).flat_map(|i| (0..b).map(move |j| (i, j))).collect();
        Deck { dealt: cards.len(), cards }
    }

    fn deal(&mut self, rng: &mut Rng) -> (usize, usize) {
        if self.dealt == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1]
    }
}

/// One shuffled block of the fixed make-up described in the module docs.
/// `decks` holds one (batch, cluster) deck per model slot, then one
/// (model, batch) deck per calibrated slot.
fn block(rng: &mut Rng, decks: &mut [Deck], models: usize, clusters: usize) -> Vec<Spec> {
    let mut specs = Vec::new();
    for model in 0..models {
        for slot in 0..SLOTS {
            let (b, cluster) = decks[model * SLOTS + slot].deal(rng);
            let (max_pes, mode) = match slot {
                0 => (BUDGETS[0], QueryMode::Suggest),
                1 => (BUDGETS[1], QueryMode::Suggest),
                2 | 3 => (rng.pick(&BUDGETS), QueryMode::Survey { pes: rng.pick(&SURVEY_PES) }),
                4 => (BUDGETS[0], QueryMode::TopK(10)),
                5 => (BUDGETS[1], QueryMode::TopK(10)),
                6 => (rng.pick(&BUDGETS), QueryMode::TopK(10)),
                _ => (BUDGETS[0], QueryMode::FullRank),
            };
            let batch = BATCHES[b];
            specs.push(Spec {
                model,
                cluster,
                batch,
                max_pes,
                mode,
                calibrated: false,
                hostile: None,
            });
        }
    }
    for (i, mode) in [QueryMode::Suggest, QueryMode::TopK(10)].into_iter().enumerate() {
        let (model, b) = decks[models * SLOTS + i].deal(rng);
        specs.push(Spec {
            model,
            cluster: rng.below(clusters),
            batch: BATCHES[b],
            max_pes: rng.pick(&BUDGETS),
            mode,
            calibrated: true,
            hostile: None,
        });
    }
    for _ in 0..2 {
        specs.push(Spec {
            model: rng.below(models),
            cluster: rng.below(clusters),
            batch: rng.pick(&BATCHES),
            max_pes: BUDGETS[0],
            mode: QueryMode::TopK(10),
            calibrated: false,
            hostile: Some(rng.pick(&HOSTILE)),
        });
    }
    rng.shuffle(&mut specs);
    specs
}

fn make_hostile(query: &mut Query, hostile: Hostile) {
    let config = query.config.as_mut().expect("generated queries carry a config");
    let cluster = query.cluster.as_mut().expect("generated queries carry a cluster");
    match hostile {
        Hostile::ZeroBatch => config.batch_size = 0,
        Hostile::NanPeakFlops => cluster.device.peak_flops = f64::NAN,
        Hostile::InfiniteLinkBeta => cluster.inter_rack.beta = f64::INFINITY,
        Hostile::NoGpusPerNode => cluster.gpus_per_node = 0,
        Hostile::ZeroMaxPes => query.constraints.max_pes = 0,
        Hostile::NegativeMemory => query.constraints.memory_capacity_bytes = -1.0,
        Hostile::ZeroSurveyPes => query.mode = QueryMode::Survey { pes: 0 },
        Hostile::EnumerationBlowup => {
            config.batch_size = 1_000_000;
            query.constraints.max_pes = 1 << 30;
        }
    }
}

type Answered = Result<(QueryAnswer, Json), String>;

/// The untraced operation: what a caller of the public API does.
fn untraced(query: &Query) -> Answered {
    let answer = query.run()?;
    let json = answer.to_json();
    black_box(json.render());
    Ok((answer, json))
}

/// The same work split at each layer's public call, one span per call.
fn traced(tr: &mut Tracer, query: &Query) -> Answered {
    tr.span("query", |tr| {
        tr.span("vet", |_| query.vet()).map_err(|e| e.to_string())?;
        let (model, config, cluster) = match (&query.model, query.config, &query.cluster) {
            (Some(m), Some(c), Some(k)) => (m, c, k),
            _ => return Err("vetted query lacks a workload".to_string()),
        };
        let oracle = Oracle::new(model, &cluster.device, cluster, config);
        let engine = tr.span("engine.build", |_| oracle.try_engine()).map_err(|e| e.to_string())?;
        let answer = tr.span("kernel", |_| oracle.answer_with_engine(&engine, query));
        let json = tr.span("query.render", |_| {
            let json = answer.to_json();
            black_box(json.render());
            json
        });
        Ok((answer, json))
    })
}

/// Per-layer counts gathered from the answers of the traced pass.
#[derive(Default)]
struct Counts {
    refused: usize,
    enumerated: usize,
    evaluated: usize,
    pruned_memory: usize,
    pruned_dominance: usize,
}

fn pass(
    plan: &Plan,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    checks: &mut Checks,
    counts: &mut Counts,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    for block in plan.blocks.iter().cycle() {
        if start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
        for spec in block {
            let query = plan.query(spec);
            let t = Instant::now();
            let outcome = match tracer.as_deref_mut() {
                None => untraced(&query),
                Some(tr) => {
                    tr.begin_op(pass.ops as u64, plan.label(spec));
                    traced(tr, &query)
                }
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            pass.busy_s += ms / 1e3;
            pass.ops += 1;
            match (spec.hostile, outcome) {
                (Some(h), outcome) => {
                    let refused = outcome.is_err() && query.vet().is_err();
                    counts.refused += usize::from(refused);
                    checks.check(refused, || format!("hostile spec {h:?} was not refused"));
                }
                (None, Err(e)) => {
                    checks.check(false, || format!("{}: {e}", plan.label(spec)));
                }
                (None, Ok((answer, json))) => {
                    pass.latencies_ms.push(ms);
                    checks.check(bench::all_finite(&json), || {
                        format!("{}: non-finite number in the answer", plan.label(spec))
                    });
                    if let Some(report) = answer.report() {
                        let k = match spec.mode {
                            QueryMode::TopK(k) => k,
                            _ => usize::MAX,
                        };
                        checks.check(
                            bench::accounting_closes(report) && report.ranked.len() <= k,
                            || format!("{}: kernel accounting does not close", plan.label(spec)),
                        );
                        counts.enumerated += report.enumerated;
                        counts.evaluated += report.evaluated();
                        counts.pruned_memory += report.pruned_by_memory;
                        counts.pruned_dominance += report.pruned_by_dominance;
                    }
                }
            }
        }
    }
    pass
}

/// Runs the workload.
pub fn run(cfg: &bench::Config) -> Run {
    let (setup_s, plan) = bench::timed_setup(|| {
        let plan = Plan::new(cfg.seed);
        // Warm-up: the first block once, answers discarded.
        for spec in &plan.blocks[0] {
            black_box(untraced(&plan.query(spec)).is_ok());
        }
        plan
    });
    let mut run = Run { setup_s, tail_quantile: TAIL_QUANTILE, ..Run::default() };
    let mut counts = Counts::default();
    run.pass = pass(&plan, cfg.pass_seconds(), None, &mut run.checks, &mut counts);
    if cfg.trace {
        let mut tracer = Tracer::new(Instant::now(), 0);
        let mut counts = Counts::default();
        let traced =
            pass(&plan, cfg.pass_seconds(), Some(&mut tracer), &mut run.checks, &mut counts);
        let mut trace = Trace::default();
        trace.absorb(tracer);
        let ops = traced.ops as f64;
        let l = &mut run.layers;
        l.set("vet.calls", trace.count("vet") as f64 / ops);
        l.set("vet.rejected", counts.refused as f64 / ops);
        l.set("vet.self_ms", trace.self_ms("vet") / ops);
        l.set("engine.builds", trace.count("engine.build") as f64 / ops);
        l.set("engine.build_ms", trace.self_ms("engine.build") / ops);
        l.set("kernel.self_ms", trace.self_ms("kernel") / ops);
        l.set("kernel.enumerated", counts.enumerated as f64 / ops);
        l.set("kernel.evaluated", counts.evaluated as f64 / ops);
        l.set("kernel.pruned_memory", counts.pruned_memory as f64 / ops);
        l.set("kernel.pruned_dominance", counts.pruned_dominance as f64 / ops);
        if counts.enumerated > 0 {
            l.set("kernel.evaluated_ratio", counts.evaluated as f64 / counts.enumerated as f64);
        }
        l.set("query.render_ms", trace.self_ms("query.render") / ops);
        run.trace = trace;
        run.traced = Some(traced);
    }
    run
}
