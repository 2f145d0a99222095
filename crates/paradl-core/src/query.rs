//! The unified Query API: one request type for every way of asking the
//! oracle a question.
//!
//! [`Query`] is the single request type behind the oracle's suggest,
//! ranked-search and survey roles: one builder-style value — model +
//! config + cluster + [`Constraints`] + [`QueryMode`] — that is
//! simultaneously:
//!
//! * the **in-process API**: [`crate::oracle::Oracle::answer`] takes a
//!   `&Query` and returns a [`QueryAnswer`],
//! * the **wire-protocol request schema** of the `paradl-serve` daemon
//!   ([`Query::to_json`] / [`Query::from_json`] over [`crate::jsonio`]),
//! * the **serialization format** of benched/fixture answers
//!   ([`QueryAnswer::to_json`]).
//!
//! A standalone query (with model, config and cluster all set) can also be
//! answered directly with [`Query::run`], which builds the oracle for you.
//! However a ranked query arrives — [`Query::run`],
//! [`crate::oracle::Oracle::answer`], or a daemon request — it is evaluated
//! by the one driver, [`crate::grid::GridSweep`]: a one-cell grid locally,
//! a coalesced grid when served.
//!
//! ## Determinism and the wire
//!
//! [`QueryAnswer::to_json`] is deterministic — same answer, same bytes. It
//! leaves out the prune counters (`pruned_by_bound`, always 0, and
//! `pruned_by_dominance`), so the wire carries only what the answer means.
//! The serve integration tests assert that a daemon response is
//! byte-identical to a locally computed `Oracle::answer` on the same query.

use crate::calibrate::Calibration;
use crate::cluster::ClusterSpec;
use crate::comm::LinkParams;
use crate::compute::DeviceProfile;
use crate::config::TrainingConfig;
use crate::jsonio::Json;
use crate::model::Model;
use crate::oracle::{Constraints, Oracle, PeSweep, Projection};
use crate::search::{RankedCandidate, SearchReport};

/// What kind of answer a [`Query`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// The single best feasible strategy (powers-of-two sweep per family —
    /// the paper's §4.1 "suggest" role).
    #[default]
    Suggest,
    /// The `k` best candidates of the exhaustive search (bounded-heap
    /// ranking with static dominance pruning).
    TopK(usize),
    /// Every feasible candidate of the exhaustive search, ranked.
    FullRank,
    /// One projection per evaluated strategy family at exactly this many
    /// PEs (infeasible projections included and flagged).
    Survey {
        /// The PE count to project every family at.
        pes: usize,
    },
}

/// A unified oracle query: the problem description (optional — an
/// [`Oracle`] already owns one) plus constraints and the answer mode.
///
/// The workload fields are `Option` so the same type serves two roles:
/// [`Oracle::answer`] ignores them (the oracle *is* the workload — only
/// `constraints` and `mode` matter), while the standalone [`Query::run`]
/// and the serve wire protocol require all three to be present.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// The CNN model to plan for (required by [`Query::run`] and the wire).
    pub model: Option<Model>,
    /// Training configuration `D`, `B`, `δ`, `γ`.
    pub config: Option<TrainingConfig>,
    /// The cluster to plan on; its `device` profile supplies compute times.
    pub cluster: Option<ClusterSpec>,
    /// Search constraints (PE budget, memory capacity, sweep mode, …).
    pub constraints: Constraints,
    /// What kind of answer to produce.
    pub mode: QueryMode,
    /// Opt-in calibrated mode: when set, every projection in the answer is
    /// rescaled by the fitted per-family overhead scales and rankings are
    /// ordered by *calibrated* time (see [`crate::calibrate`]). `None`
    /// (default) answers with the raw analytic model.
    pub calibration: Option<Calibration>,
}

impl Query {
    /// A suggest-mode query (the default mode).
    pub fn suggest() -> Self {
        Query::default()
    }

    /// A top-`k` ranking query.
    pub fn top_k(k: usize) -> Self {
        Query { mode: QueryMode::TopK(k), ..Query::default() }
    }

    /// A full-ranking query (every feasible candidate).
    pub fn full_rank() -> Self {
        Query { mode: QueryMode::FullRank, ..Query::default() }
    }

    /// A survey query at `pes` PEs.
    pub fn survey(pes: usize) -> Self {
        Query { mode: QueryMode::Survey { pes }, ..Query::default() }
    }

    /// Sets the model.
    pub fn with_model(mut self, model: Model) -> Self {
        self.model = Some(model);
        self
    }

    /// Sets the training configuration.
    pub fn with_config(mut self, config: TrainingConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Changes the global mini-batch of the already-set configuration.
    ///
    /// # Panics
    /// When no configuration is set yet (call [`Query::with_config`] first).
    pub fn with_batch(mut self, batch: usize) -> Self {
        let config =
            self.config.as_mut().expect("Query::with_batch requires with_config to be set first");
        config.batch_size = batch;
        self
    }

    /// Sets the cluster.
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Sets the search constraints.
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the answer mode.
    pub fn with_mode(mut self, mode: QueryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Opts into calibrated answers (see [`crate::calibrate`]).
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// The constraints the search actually runs under: the mode's ranking
    /// depth overrides `constraints.top_k` ([`QueryMode::TopK`] forces
    /// `Some(k)`, [`QueryMode::FullRank`] forces `None`; the non-ranking
    /// modes leave the constraints untouched).
    pub fn effective_constraints(&self) -> Constraints {
        let mut c = self.constraints;
        match self.mode {
            QueryMode::TopK(k) => c.top_k = Some(k),
            QueryMode::FullRank => c.top_k = None,
            QueryMode::Suggest | QueryMode::Survey { .. } => {}
        }
        c
    }

    /// Answers a standalone query (model, config and cluster all set) by
    /// building the [`Oracle`] internally — the cluster's
    /// [`DeviceProfile`] supplies the compute model, exactly as the serve
    /// daemon does. Errors (rather than panics) on an incomplete workload
    /// or an invalid configuration, so the daemon can reject bad requests.
    /// The full [`Query::vet`] pass runs first, so a hostile spec is
    /// refused with a structured reason before any engine work.
    pub fn run(&self) -> Result<QueryAnswer, String> {
        self.vet().map_err(|e| e.to_string())?;
        let model = self.model.as_ref().ok_or("query has no model")?;
        let config = self.config.ok_or("query has no config")?;
        let cluster = self.cluster.as_ref().ok_or("query has no cluster")?;
        let oracle = Oracle::new(model, &cluster.device, cluster, config);
        oracle.answer(self).map_err(|e| e.to_string())
    }

    /// [`Query::run`] with panic containment: an evaluation panic (a bug,
    /// or a degenerate workload tripping an internal invariant) comes back
    /// as `Err` instead of unwinding into the caller. This is the
    /// error surface long-lived embedders (the serve daemon's batcher, a
    /// sweep driver) should use when one poisoned query must not take the
    /// process down.
    pub fn run_contained(&self) -> Result<QueryAnswer, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run())).unwrap_or_else(
            |payload| {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "opaque panic payload".to_string()
                };
                Err(format!("evaluation panicked: {message}"))
            },
        )
    }

    /// Serializes the query for the wire. The model travels **by name**
    /// (the receiving side resolves it against its model zoo — shipping
    /// layer lists would dwarf every other field), the cluster and config
    /// travel inline in full. Errors when the workload is incomplete.
    pub fn to_json(&self) -> Result<Json, String> {
        let model = self.model.as_ref().ok_or("query has no model")?;
        let config = self.config.ok_or("query has no config")?;
        let cluster = self.cluster.as_ref().ok_or("query has no cluster")?;
        let mut fields = vec![
            ("model", Json::obj([("name", Json::str(&model.name))])),
            ("config", config_to_json(&config)),
            ("cluster", cluster_to_json(cluster)),
            ("constraints", constraints_to_json(&self.constraints)),
            ("mode", mode_to_json(self.mode)),
        ];
        if let Some(calibration) = &self.calibration {
            fields.push(("calibration", calibration.to_json()));
        }
        Ok(Json::obj(fields))
    }

    /// Parses a wire query. `resolve` maps a model name to a [`Model`]
    /// (the serve daemon passes its zoo lookup); unknown names, missing
    /// fields and type mismatches all come back as `Err`, never a panic —
    /// this sits on the daemon's untrusted-input path.
    pub fn from_json(
        json: &Json,
        resolve: &dyn Fn(&str) -> Option<Model>,
    ) -> Result<Query, String> {
        let name = json
            .get("model")
            .and_then(|m| m.get("name"))
            .and_then(Json::string)
            .ok_or("query missing model.name")?;
        let model = resolve(name).ok_or_else(|| format!("unknown model {name:?}"))?;
        let config = config_from_json(json.get("config").ok_or("query missing config")?)?;
        let cluster = cluster_from_json(json.get("cluster").ok_or("query missing cluster")?)?;
        let constraints =
            constraints_from_json(json.get("constraints").ok_or("query missing constraints")?)?;
        let mode = mode_from_json(json.get("mode").ok_or("query missing mode")?)?;
        // Calibration is opt-in on the wire too: absent means uncalibrated.
        let calibration = json.get("calibration").map(Calibration::from_json).transpose()?;
        Ok(Query {
            model: Some(model),
            config: Some(config),
            cluster: Some(cluster),
            constraints,
            mode,
            calibration,
        })
    }
}

/// The oracle's answer to a [`Query`], one variant per [`QueryMode`] shape.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// [`QueryMode::Suggest`]: the best feasible strategy, if any.
    Suggestion(Option<Projection>),
    /// [`QueryMode::TopK`] / [`QueryMode::FullRank`]: the ranked report.
    Ranked(SearchReport),
    /// [`QueryMode::Survey`]: one projection per evaluated family.
    Survey(Vec<Projection>),
}

impl QueryAnswer {
    /// The search report, when this is a ranked answer.
    pub fn report(&self) -> Option<&SearchReport> {
        match self {
            QueryAnswer::Ranked(r) => Some(r),
            _ => None,
        }
    }

    /// The suggested projection, when this is a suggestion that found one.
    pub fn suggestion(&self) -> Option<&Projection> {
        match self {
            QueryAnswer::Suggestion(p) => p.as_ref(),
            _ => None,
        }
    }

    /// The per-family projections, when this is a survey answer.
    pub fn survey(&self) -> Option<&[Projection]> {
        match self {
            QueryAnswer::Survey(p) => Some(p),
            _ => None,
        }
    }

    /// The answer with `calibration` applied to every projection: rescaled
    /// estimates, and ranked answers re-sorted by *calibrated* epoch time
    /// (stable, so calibrated ties keep the engine's deterministic order).
    /// The candidate set itself is the uncalibrated search's — under
    /// [`QueryMode::TopK`] a candidate outside the uncalibrated top-k stays
    /// outside; [`QueryMode::FullRank`] has no such truncation. The
    /// per-budget winners keep their (uncalibrated-winner) identity with
    /// rescaled projections.
    pub fn recalibrated(&self, calibration: &Calibration) -> QueryAnswer {
        match self {
            QueryAnswer::Suggestion(p) => {
                QueryAnswer::Suggestion(p.as_ref().map(|p| calibration.apply_projection(p)))
            }
            QueryAnswer::Survey(ps) => {
                QueryAnswer::Survey(ps.iter().map(|p| calibration.apply_projection(p)).collect())
            }
            QueryAnswer::Ranked(report) => {
                let mut report = report.clone();
                for candidate in &mut report.ranked {
                    candidate.projection = calibration.apply_projection(&candidate.projection);
                }
                report.ranked.sort_by(|a, b| a.epoch_time().total_cmp(&b.epoch_time()));
                for winner in &mut report.best_per_budget {
                    winner.candidate.projection =
                        calibration.apply_projection(&winner.candidate.projection);
                }
                QueryAnswer::Ranked(report)
            }
        }
    }

    /// The best epoch time the answer contains, however it was asked:
    /// the suggestion's, the top-ranked candidate's, or the fastest
    /// feasible survey projection's.
    pub fn best_epoch_time(&self) -> Option<f64> {
        match self {
            QueryAnswer::Suggestion(p) => p.map(|p| p.cost.epoch_time()),
            QueryAnswer::Ranked(r) => r.best().map(RankedCandidate::epoch_time),
            QueryAnswer::Survey(ps) => ps
                .iter()
                .filter(|p| p.feasible())
                .map(|p| p.cost.epoch_time())
                .min_by(f64::total_cmp),
        }
    }

    /// Deterministic JSON form of the answer — same answer, same bytes.
    /// The prune counters of a [`SearchReport`] (`pruned_by_bound`,
    /// `pruned_by_dominance`) are not serialized.
    pub fn to_json(&self) -> Json {
        match self {
            QueryAnswer::Suggestion(best) => Json::obj([
                ("kind", Json::str("suggestion")),
                ("found", Json::Bool(best.is_some())),
                ("best", best.map_or(Json::Null, |p| projection_to_json(&p))),
            ]),
            QueryAnswer::Ranked(report) => Json::obj([
                ("kind", Json::str("ranked")),
                ("enumerated", Json::count(report.enumerated)),
                ("pruned_by_memory", Json::count(report.pruned_by_memory)),
                (
                    "ranked",
                    Json::Arr(
                        report.ranked.iter().map(|c| projection_to_json(&c.projection)).collect(),
                    ),
                ),
                (
                    "best_per_budget",
                    Json::Arr(
                        report
                            .best_per_budget
                            .iter()
                            .map(|w| {
                                Json::obj([
                                    ("max_pes", Json::count(w.max_pes)),
                                    ("candidate", projection_to_json(&w.candidate.projection)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            QueryAnswer::Survey(projections) => Json::obj([
                ("kind", Json::str("survey")),
                ("projections", Json::Arr(projections.iter().map(projection_to_json).collect())),
            ]),
        }
    }
}

/// One projection as JSON: the strategy in its `Display` form, the headline
/// numbers, feasibility flags and the full per-phase breakdown.
fn projection_to_json(p: &Projection) -> Json {
    let phases = &p.cost.per_epoch;
    Json::obj([
        ("strategy", Json::str(p.cost.strategy.to_string())),
        ("pes", Json::count(p.cost.strategy.total_pes())),
        ("epoch_time", Json::Num(p.cost.epoch_time())),
        ("memory_per_pe", Json::Num(p.cost.memory_per_pe_bytes)),
        ("fits_memory", Json::Bool(p.fits_memory)),
        ("within_scaling_limit", Json::Bool(p.within_scaling_limit)),
        (
            "phases",
            Json::obj([
                ("forward_backward", Json::Num(phases.forward_backward)),
                ("weight_update", Json::Num(phases.weight_update)),
                ("gradient_exchange", Json::Num(phases.gradient_exchange)),
                ("fb_collective", Json::Num(phases.fb_collective)),
                ("halo_exchange", Json::Num(phases.halo_exchange)),
                ("pipeline_p2p", Json::Num(phases.pipeline_p2p)),
            ]),
        ),
    ])
}

fn config_to_json(c: &TrainingConfig) -> Json {
    Json::obj([
        ("dataset_size", Json::count(c.dataset_size)),
        ("batch_size", Json::count(c.batch_size)),
        ("epochs", Json::count(c.epochs)),
        ("bytes_per_item", Json::Num(c.bytes_per_item)),
        ("memory_reuse", Json::Num(c.memory_reuse)),
    ])
}

fn config_from_json(json: &Json) -> Result<TrainingConfig, String> {
    Ok(TrainingConfig {
        dataset_size: req_usize(json, "config", "dataset_size")?,
        batch_size: req_usize(json, "config", "batch_size")?,
        epochs: req_usize(json, "config", "epochs")?,
        bytes_per_item: req_num(json, "config", "bytes_per_item")?,
        memory_reuse: req_num(json, "config", "memory_reuse")?,
    })
}

fn link_to_json(l: &LinkParams) -> Json {
    Json::obj([("alpha", Json::Num(l.alpha)), ("beta", Json::Num(l.beta))])
}

fn link_from_json(json: &Json, what: &str) -> Result<LinkParams, String> {
    Ok(LinkParams { alpha: req_num(json, what, "alpha")?, beta: req_num(json, what, "beta")? })
}

fn cluster_to_json(c: &ClusterSpec) -> Json {
    Json::obj([
        (
            "device",
            Json::obj([
                ("peak_flops", Json::Num(c.device.peak_flops)),
                ("conv_efficiency", Json::Num(c.device.conv_efficiency)),
                ("memory_bound_efficiency", Json::Num(c.device.memory_bound_efficiency)),
                ("kernel_overhead", Json::Num(c.device.kernel_overhead)),
                ("update_elements_per_sec", Json::Num(c.device.update_elements_per_sec)),
            ]),
        ),
        ("gpus_per_node", Json::count(c.gpus_per_node)),
        ("nodes_per_rack", Json::count(c.nodes_per_rack)),
        ("racks", Json::count(c.racks)),
        ("intra_node", link_to_json(&c.intra_node)),
        ("intra_rack", link_to_json(&c.intra_rack)),
        ("inter_rack", link_to_json(&c.inter_rack)),
    ])
}

fn cluster_from_json(json: &Json) -> Result<ClusterSpec, String> {
    // Shorthand: `{"name": "paper"}` / `{"name": "workstation", "gpus": N}`
    // resolve to the core constructors, so clients needn't spell out links.
    if let Some(name) = json.get("name").and_then(Json::string) {
        return match name {
            "paper" => Ok(ClusterSpec::paper_system()),
            "workstation" => {
                let gpus = json.get("gpus").and_then(Json::usize).unwrap_or(8);
                Ok(ClusterSpec::workstation(gpus))
            }
            other => Err(format!("unknown cluster name {other:?}")),
        };
    }
    let device = json.get("device").ok_or("cluster missing device")?;
    Ok(ClusterSpec {
        device: DeviceProfile {
            peak_flops: req_num(device, "device", "peak_flops")?,
            conv_efficiency: req_num(device, "device", "conv_efficiency")?,
            memory_bound_efficiency: req_num(device, "device", "memory_bound_efficiency")?,
            kernel_overhead: req_num(device, "device", "kernel_overhead")?,
            update_elements_per_sec: req_num(device, "device", "update_elements_per_sec")?,
        },
        gpus_per_node: req_usize(json, "cluster", "gpus_per_node")?,
        nodes_per_rack: req_usize(json, "cluster", "nodes_per_rack")?,
        racks: req_usize(json, "cluster", "racks")?,
        intra_node: link_from_json(
            json.get("intra_node").ok_or("cluster missing intra_node")?,
            "intra_node",
        )?,
        intra_rack: link_from_json(
            json.get("intra_rack").ok_or("cluster missing intra_rack")?,
            "intra_rack",
        )?,
        inter_rack: link_from_json(
            json.get("inter_rack").ok_or("cluster missing inter_rack")?,
            "inter_rack",
        )?,
    })
}

fn constraints_to_json(c: &Constraints) -> Json {
    Json::obj([
        ("max_pes", Json::count(c.max_pes)),
        ("memory_capacity_bytes", Json::Num(c.memory_capacity_bytes)),
        ("pipeline_segments", Json::count(c.pipeline_segments)),
        ("top_k", c.top_k.map_or(Json::Null, Json::count)),
        (
            "sweep",
            Json::str(match c.sweep {
                PeSweep::PowersOfTwo => "powers_of_two",
                PeSweep::Exhaustive => "exhaustive",
            }),
        ),
    ])
}

fn constraints_from_json(json: &Json) -> Result<Constraints, String> {
    let top_k = match json.get("top_k") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.usize().ok_or("constraints.top_k must be a count or null")?),
    };
    let sweep = match json.get("sweep").and_then(Json::string) {
        None | Some("powers_of_two") => PeSweep::PowersOfTwo,
        Some("exhaustive") => PeSweep::Exhaustive,
        Some(other) => return Err(format!("unknown sweep mode {other:?}")),
    };
    Ok(Constraints {
        max_pes: req_usize(json, "constraints", "max_pes")?,
        memory_capacity_bytes: req_num(json, "constraints", "memory_capacity_bytes")?,
        pipeline_segments: req_usize(json, "constraints", "pipeline_segments")?,
        top_k,
        sweep,
    })
}

fn mode_to_json(mode: QueryMode) -> Json {
    match mode {
        QueryMode::Suggest => Json::obj([("kind", Json::str("suggest"))]),
        QueryMode::TopK(k) => Json::obj([("kind", Json::str("top_k")), ("k", Json::count(k))]),
        QueryMode::FullRank => Json::obj([("kind", Json::str("full_rank"))]),
        QueryMode::Survey { pes } => {
            Json::obj([("kind", Json::str("survey")), ("pes", Json::count(pes))])
        }
    }
}

fn mode_from_json(json: &Json) -> Result<QueryMode, String> {
    match json.get("kind").and_then(Json::string) {
        Some("suggest") => Ok(QueryMode::Suggest),
        Some("top_k") => {
            Ok(QueryMode::TopK(json.get("k").and_then(Json::usize).ok_or("mode top_k missing k")?))
        }
        Some("full_rank") => Ok(QueryMode::FullRank),
        Some("survey") => Ok(QueryMode::Survey {
            pes: json.get("pes").and_then(Json::usize).ok_or("mode survey missing pes")?,
        }),
        Some(other) => Err(format!("unknown query mode {other:?}")),
        None => Err("mode missing kind".to_string()),
    }
}

fn req_num(json: &Json, what: &str, key: &str) -> Result<f64, String> {
    json.get(key).and_then(Json::number).ok_or_else(|| format!("{what}.{key} must be a number"))
}

fn req_usize(json: &Json, what: &str, key: &str) -> Result<usize, String> {
    json.get(key)
        .and_then(Json::usize)
        .ok_or_else(|| format!("{what}.{key} must be a non-negative integer"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    fn model() -> Model {
        Model::new(
            "toy",
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 64, (32, 32), 3, 1, 1),
                Layer::pool2d("p1", 64, (32, 32), 2, 2),
                Layer::conv2d("c2", 64, 128, (16, 16), 3, 1, 1),
                Layer::global_pool("g", 128, &[16, 16]),
                Layer::fully_connected("fc", 128, 10),
            ],
        )
    }

    fn full_query(mode: QueryMode) -> Query {
        Query::default()
            .with_model(model())
            .with_config(TrainingConfig::small(8192, 64))
            .with_cluster(ClusterSpec::paper_system())
            .with_mode(mode)
    }

    #[test]
    fn effective_constraints_follow_the_mode() {
        let base = Constraints { top_k: Some(3), ..Constraints::default() };
        let q = Query::top_k(7).with_constraints(base);
        assert_eq!(q.effective_constraints().top_k, Some(7));
        let q = Query::full_rank().with_constraints(base);
        assert_eq!(q.effective_constraints().top_k, None);
        let q = Query::suggest().with_constraints(base);
        assert_eq!(q.effective_constraints().top_k, Some(3));
        let q = Query::survey(16).with_constraints(base);
        assert_eq!(q.effective_constraints(), base);
    }

    #[test]
    fn run_requires_a_complete_workload() {
        assert!(Query::suggest().run().is_err());
        assert!(Query::suggest().with_model(model()).run().is_err());
        assert!(full_query(QueryMode::Suggest).run().is_ok());
        // And an invalid config is rejected, not evaluated.
        let bad = full_query(QueryMode::Suggest).with_config(TrainingConfig::small(8, 64));
        assert!(bad.run().unwrap_err().contains("invalid config"));
    }

    #[test]
    fn wire_round_trip_preserves_the_query() {
        let m = model();
        let resolve = |name: &str| (name == "toy").then(|| m.clone());
        for mode in [
            QueryMode::Suggest,
            QueryMode::TopK(5),
            QueryMode::FullRank,
            QueryMode::Survey { pes: 16 },
        ] {
            let q = full_query(mode).with_constraints(Constraints {
                max_pes: 256,
                top_k: Some(2),
                sweep: PeSweep::Exhaustive,
                ..Constraints::default()
            });
            let json = q.to_json().unwrap();
            // Through actual bytes, as the wire does.
            let reparsed = Json::parse(&json.render()).unwrap();
            let back = Query::from_json(&reparsed, &resolve).unwrap();
            assert_eq!(back, q, "{mode:?}");
        }
    }

    #[test]
    fn wire_shorthand_clusters_resolve() {
        let m = model();
        let resolve = |name: &str| (name == "toy").then(|| m.clone());
        let mut json = full_query(QueryMode::Suggest).to_json().unwrap();
        if let Json::Obj(fields) = &mut json {
            let cluster = &mut fields.iter_mut().find(|(k, _)| k == "cluster").unwrap().1;
            *cluster = Json::obj([("name", Json::str("workstation")), ("gpus", Json::count(4))]);
        }
        let q = Query::from_json(&json, &resolve).unwrap();
        assert_eq!(q.cluster, Some(ClusterSpec::workstation(4)));
    }

    #[test]
    fn malformed_wire_queries_error_readably() {
        let m = model();
        let resolve = |name: &str| (name == "toy").then(|| m.clone());
        let good = full_query(QueryMode::Suggest).to_json().unwrap();
        // Unknown model.
        let mut bad = good.clone();
        if let Json::Obj(fields) = &mut bad {
            fields[0].1 = Json::obj([("name", Json::str("nope"))]);
        }
        assert!(Query::from_json(&bad, &resolve).unwrap_err().contains("unknown model"));
        // Missing config.
        let mut bad = good.clone();
        if let Json::Obj(fields) = &mut bad {
            fields.retain(|(k, _)| k != "config");
        }
        assert!(Query::from_json(&bad, &resolve).unwrap_err().contains("missing config"));
        // Wrong type.
        let mut bad = good;
        if let Json::Obj(fields) = &mut bad {
            let config = &mut fields.iter_mut().find(|(k, _)| k == "config").unwrap().1;
            if let Json::Obj(cfg) = config {
                cfg.iter_mut().find(|(k, _)| k == "batch_size").unwrap().1 = Json::str("big");
            }
        }
        assert!(Query::from_json(&bad, &resolve).is_err());
    }

    #[test]
    fn answer_json_is_deterministic_and_reparses() {
        for mode in [
            QueryMode::Suggest,
            QueryMode::TopK(5),
            QueryMode::FullRank,
            QueryMode::Survey { pes: 16 },
        ] {
            let q = full_query(mode);
            let a = q.run().unwrap();
            let j1 = a.to_json().render();
            let j2 = q.run().unwrap().to_json().render();
            assert_eq!(j1, j2, "{mode:?} answers must serialize identically");
            Json::parse(&j1).unwrap();
        }
    }

    #[test]
    fn answer_accessors_match_modes() {
        let suggest = full_query(QueryMode::Suggest).run().unwrap();
        assert!(suggest.suggestion().is_some());
        assert!(suggest.report().is_none());
        let t = suggest.best_epoch_time().unwrap();
        assert!(t > 0.0);

        let ranked = full_query(QueryMode::TopK(5)).run().unwrap();
        let report = ranked.report().unwrap();
        assert_eq!(report.ranked.len(), 5);
        assert!(ranked.best_epoch_time().unwrap() <= t + 1e-12);

        let survey = full_query(QueryMode::Survey { pes: 16 }).run().unwrap();
        assert!(!survey.survey().unwrap().is_empty());
        assert!(survey.best_epoch_time().is_some());
    }
}
