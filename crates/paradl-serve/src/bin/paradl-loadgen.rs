//! Closed-loop load generator for `paradl-serve`.
//!
//! Spawns one daemon on a temp unix socket (or targets an external daemon
//! via `--connect`) and drives it with concurrent ranked queries at several
//! concurrency levels, twice per level:
//!
//! * **shared** traffic — every worker asks the same problem class, so
//!   concurrent requests coalesce into shared grid sweeps;
//! * **distinct** traffic — worker `w` asks for a dataset `w + 1` samples
//!   larger than the shared one. The dataset size is part of the
//!   coalescing key and of the variant an engine-cache entry keeps sweep
//!   columns for, but not of the engine core, and it leaves the work of a
//!   request unchanged. So no two requests coalesce, and since the workers'
//!   variants take turns on the one entry, its store seldom serves them:
//!   nearly every distinct request pays a one-shot sweep. This is the
//!   reference.
//!
//! It writes sustained qps plus p50/p99 latency per level and traffic to
//! `BENCH_serve.json`, with the speedup (shared qps / distinct qps). The
//! run fails if distinct traffic ever reports a mean group size above 1.
//! With `PARADL_ASSERT_SPEEDUP` set, it also fails unless the speedup
//! reaches the floor at concurrency ≥ 8 (2.0, or the env var's numeric
//! value).

use paradl_core::cluster::ClusterSpec;
use paradl_core::config::TrainingConfig;
use paradl_core::jsonio::Json;
use paradl_core::oracle::{Constraints, PeSweep};
use paradl_core::query::Query;
use paradl_serve::client::{parse_target, Connection};
use paradl_serve::proto::Response;
use paradl_serve::server::{Bind, Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: [usize; 2] = [256, 1024];
const TOP_K: usize = 10;
const MAX_PES: usize = 1024;

const USAGE: &str = "\
paradl-loadgen: benchmark a paradl-serve daemon

USAGE:
    paradl-loadgen [OPTIONS]

Drives one daemon at each concurrency level with shared traffic (one
problem class, so requests coalesce and reuse the problem's resident sweep
columns) and distinct traffic (worker w asks for a dataset w + 1 samples
larger: the same work per request, but nothing coalesces), and reports
the speedup shared qps / distinct qps.

OPTIONS:
    --quick           short run (levels 2 and 8, ~0.6s per traffic)
    --out PATH        output file (default BENCH_serve.json)
    --connect TARGET  benchmark an external daemon instead of spawning one
    --duration-ms N   measurement window per level and traffic
                      (default 1500, quick 600)
    --help            print this help

The run fails if distinct traffic reports a mean group size above 1. Set
PARADL_ASSERT_SPEEDUP=1 (or a numeric floor) to also fail it unless the
speedup reaches that factor at concurrency >= 8.";

struct Args {
    quick: bool,
    out: String,
    connect: Option<String>,
    duration_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        out: "BENCH_serve.json".to_string(),
        connect: None,
        duration_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = args.next().ok_or("--out needs a value")?,
            "--connect" => parsed.connect = Some(args.next().ok_or("--connect needs a value")?),
            "--duration-ms" => {
                parsed.duration_ms = Some(
                    args.next()
                        .ok_or("--duration-ms needs a value")?
                        .parse()
                        .map_err(|_| "--duration-ms needs an integer".to_string())?,
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

/// The ranked query at `batch` on a dataset `extra` samples larger than
/// ImageNet's.
fn workload_query(batch: usize, extra: usize) -> Query {
    // Exhaustive PE sweep: evaluation dominates the request round trip, as
    // it does for any serving workload worth putting a daemon in front of.
    let imagenet = TrainingConfig::imagenet(batch);
    Query::top_k(TOP_K)
        .with_model(paradl_models::resnet50())
        .with_config(TrainingConfig { dataset_size: imagenet.dataset_size + extra, ..imagenet })
        .with_cluster(ClusterSpec::paper_system())
        .with_constraints(Constraints {
            max_pes: MAX_PES,
            sweep: PeSweep::Exhaustive,
            ..Constraints::default()
        })
}

/// Per-run aggregation of the `AnswerStats` the server attaches to every
/// answer — the observability that tells us whether coalescing engaged.
#[derive(Default)]
struct StatsAgg {
    answers: u64,
    coalesced_sum: u64,
    cells_sum: u64,
    eval_us_sum: u64,
    queue_us_sum: u64,
    cache_hits: u64,
    // Kernel work counters: how many candidates the server's evaluation
    // kernel costed vs pruned for the answers in this run — the serve-side
    // view of the analytic kernel's pruning rate.
    candidates_evaluated: u64,
    candidates_pruned: u64,
    // Degradation-ladder engagement: answers the server stepped down under
    // pressure instead of shedding. Visible next to shed/expired so the
    // ladder's engagement rate per concurrency level is in the report.
    degraded: u64,
    // Non-success outcomes. Counting these is what keeps shed requests from
    // silently inflating apparent health: a run that sheds half its load is
    // visible in BENCH_serve.json, not just slower.
    shed: u64,
    deadline_expired: u64,
    errors: u64,
}

impl StatsAgg {
    fn absorb(&mut self, stats: &paradl_serve::proto::AnswerStats) {
        self.answers += 1;
        self.coalesced_sum += stats.coalesced as u64;
        self.cells_sum += stats.batch_cells as u64;
        self.eval_us_sum += stats.eval_us;
        self.queue_us_sum += stats.queue_us;
        self.cache_hits += u64::from(stats.cache_hit);
        self.candidates_evaluated += stats.candidates_evaluated as u64;
        self.candidates_pruned += stats.candidates_pruned as u64;
        self.degraded += u64::from(stats.degraded > 0);
    }

    fn merge(&mut self, other: StatsAgg) {
        self.answers += other.answers;
        self.coalesced_sum += other.coalesced_sum;
        self.cells_sum += other.cells_sum;
        self.eval_us_sum += other.eval_us_sum;
        self.queue_us_sum += other.queue_us_sum;
        self.cache_hits += other.cache_hits;
        self.candidates_evaluated += other.candidates_evaluated;
        self.candidates_pruned += other.candidates_pruned;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.deadline_expired += other.deadline_expired;
        self.errors += other.errors;
    }

    fn mean(&self, sum: u64) -> f64 {
        if self.answers == 0 {
            return f64::NAN;
        }
        sum as f64 / self.answers as f64
    }
}

/// One measurement: `concurrency` closed-loop workers hammer `target` for
/// `window`, cycling through the batch sizes — all in one problem class,
/// or, with `distinct`, each worker in its own. Returns latencies in µs
/// plus the aggregated server-side stats.
fn drive(
    target: &Bind,
    concurrency: usize,
    window: Duration,
    distinct: bool,
) -> Result<(Vec<u64>, StatsAgg), String> {
    let target = Arc::new(target.clone());
    let stop_at = Instant::now() + window;
    let workers: Vec<_> = (0..concurrency)
        .map(|worker| {
            let target = Arc::clone(&target);
            std::thread::spawn(move || -> Result<(Vec<u64>, StatsAgg), String> {
                let mut connection =
                    Connection::connect(&target).map_err(|e| format!("connect: {e}"))?;
                let mut latencies = Vec::new();
                let mut agg = StatsAgg::default();
                let mut iteration = worker; // stagger the batch cycle per worker
                let extra = if distinct { worker + 1 } else { 0 };
                while Instant::now() < stop_at {
                    let query = workload_query(BATCHES[iteration % BATCHES.len()], extra);
                    iteration += 1;
                    let start = Instant::now();
                    match connection.query(&query, None).map_err(|e| format!("query: {e}"))? {
                        Response::Answer { stats, .. } => {
                            latencies.push(start.elapsed().as_micros() as u64);
                            agg.absorb(&stats);
                        }
                        Response::Shed => {
                            // Backpressure: count it, brief pause, retry.
                            agg.shed += 1;
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Response::DeadlineExpired => agg.deadline_expired += 1,
                        Response::Error { kind, message } => {
                            // An error response mid-benchmark is a real
                            // defect in the workload or the server; count
                            // it and keep driving so the report shows the
                            // rate rather than dying on the first one.
                            agg.errors += 1;
                            eprintln!("worker {worker}: server error ({kind:?}): {message}");
                        }
                        other => return Err(format!("unexpected response {other:?}")),
                    }
                }
                Ok((latencies, agg))
            })
        })
        .collect();
    let mut all = Vec::new();
    let mut agg = StatsAgg::default();
    for handle in workers {
        let (latencies, worker_agg) =
            handle.join().map_err(|_| "worker panicked".to_string())??;
        all.extend(latencies);
        agg.merge(worker_agg);
    }
    Ok((all, agg))
}

fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)] as f64 / 1000.0
}

struct Measurement {
    requests: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_coalesced: f64,
    mean_eval_us: f64,
    cache_hit_rate: f64,
    candidates_evaluated: u64,
    candidates_pruned: u64,
    degraded: u64,
    shed: u64,
    deadline_expired: u64,
    errors: u64,
}

fn measure(
    target: &Bind,
    concurrency: usize,
    window: Duration,
    distinct: bool,
) -> Result<Measurement, String> {
    let start = Instant::now();
    let (mut latencies, agg) = drive(target, concurrency, window, distinct)?;
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    Ok(Measurement {
        requests: latencies.len(),
        qps: latencies.len() as f64 / elapsed,
        p50_ms: percentile_ms(&latencies, 50.0),
        p99_ms: percentile_ms(&latencies, 99.0),
        mean_coalesced: agg.mean(agg.coalesced_sum),
        mean_eval_us: agg.mean(agg.eval_us_sum),
        cache_hit_rate: agg.mean(agg.cache_hits),
        candidates_evaluated: agg.candidates_evaluated,
        candidates_pruned: agg.candidates_pruned,
        degraded: agg.degraded,
        shed: agg.shed,
        deadline_expired: agg.deadline_expired,
        errors: agg.errors,
    })
}

fn measurement_json(m: &Measurement) -> Json {
    Json::obj([
        ("requests", Json::count(m.requests)),
        ("qps", Json::Num(m.qps)),
        ("p50_ms", Json::Num(m.p50_ms)),
        ("p99_ms", Json::Num(m.p99_ms)),
        ("mean_coalesced", Json::Num(m.mean_coalesced)),
        ("mean_eval_us", Json::Num(m.mean_eval_us)),
        ("cache_hit_rate", Json::Num(m.cache_hit_rate)),
        ("candidates_evaluated", Json::count(m.candidates_evaluated as usize)),
        ("candidates_pruned", Json::count(m.candidates_pruned as usize)),
        ("degraded", Json::count(m.degraded as usize)),
        ("shed", Json::count(m.shed as usize)),
        ("deadline_expired", Json::count(m.deadline_expired as usize)),
        ("errors", Json::count(m.errors as usize)),
    ])
}

/// Warm the server's cache so measurements compare steady states, not the
/// first engine build. Both traffics share the one engine core.
fn warm(target: &Bind) -> Result<(), String> {
    let mut connection = Connection::connect(target).map_err(|e| format!("connect: {e}"))?;
    for batch in BATCHES {
        let query = workload_query(batch, 0);
        match connection.query(&query, None).map_err(|e| format!("warmup: {e}"))? {
            Response::Answer { .. } => {}
            other => return Err(format!("warmup got {other:?}")),
        }
    }
    Ok(())
}

/// Prints a measurement's non-success outcomes, if it had any.
fn print_pressure(label: &str, m: &Measurement) {
    if m.degraded + m.shed + m.deadline_expired + m.errors > 0 {
        println!(
            "{:>11}  {label} pressure: degraded {} shed {} expired {} errors {}",
            "", m.degraded, m.shed, m.deadline_expired, m.errors
        );
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let levels: &[usize] = if args.quick { &[2, 8] } else { &[1, 2, 4, 8, 16] };
    let window =
        Duration::from_millis(args.duration_ms.unwrap_or(if args.quick { 600 } else { 1500 }));

    // Either an external target, or one in-process daemon.
    let (target, server) = match &args.connect {
        Some(text) => (parse_target(text)?, None),
        None => {
            let bind = Bind::Unix(
                std::env::temp_dir().join(format!("paradl-loadgen-{}.sock", std::process::id())),
            );
            let server = Server::start(bind.clone(), ServerConfig::default())
                .map_err(|e| format!("start server: {e}"))?;
            (bind, Some(server))
        }
    };
    warm(&target)?;

    let mut level_rows = Vec::new();
    let mut speedup_at_8plus: f64 = 0.0;
    let mut max_distinct_group: f64 = 0.0;
    println!(
        "{:>11}  {:>21}  {:>21}  {:>7}",
        "concurrency", "shared qps/p50/p99", "distinct qps/p50/p99", "speedup"
    );
    for &concurrency in levels {
        let shared = measure(&target, concurrency, window, false)?;
        let distinct = measure(&target, concurrency, window, true)?;
        let speedup = shared.qps / distinct.qps;
        if concurrency >= 8 {
            speedup_at_8plus = speedup_at_8plus.max(speedup);
        }
        max_distinct_group = max_distinct_group.max(distinct.mean_coalesced);
        println!(
            "{concurrency:>11}  {:>8.1} {:>5.1} {:>6.1}  {:>8.1} {:>5.1} {:>6.1}  {speedup:>6.2}x  [group {:.1} vs {:.1}, eval {:.0}µs vs {:.0}µs, hit {:.0}%]",
            shared.qps, shared.p50_ms, shared.p99_ms,
            distinct.qps, distinct.p50_ms, distinct.p99_ms,
            shared.mean_coalesced, distinct.mean_coalesced,
            shared.mean_eval_us, distinct.mean_eval_us, shared.cache_hit_rate * 100.0,
        );
        print_pressure("shared", &shared);
        print_pressure("distinct", &distinct);
        level_rows.push(Json::obj([
            ("concurrency", Json::count(concurrency)),
            ("shared", measurement_json(&shared)),
            ("distinct", measurement_json(&distinct)),
            ("speedup", Json::Num(speedup)),
        ]));
    }

    if let Some(server) = server {
        server.shutdown_and_join();
    }

    let report = Json::obj([
        ("benchmark", Json::str("paradl-serve-loadgen")),
        (
            "workload",
            Json::obj([
                ("model", Json::str("ResNet-50")),
                ("batches", Json::Arr(BATCHES.iter().map(|&b| Json::count(b)).collect())),
                ("mode", Json::str("top_k")),
                ("k", Json::count(TOP_K)),
                ("max_pes", Json::count(MAX_PES)),
                ("sweep", Json::str("exhaustive")),
                ("cluster", Json::str("paper")),
            ]),
        ),
        ("duration_ms_per_level", Json::count(window.as_millis() as usize)),
        ("levels", Json::Arr(level_rows)),
    ]);
    let mut rendered = report.render_pretty();
    rendered.push('\n');
    std::fs::write(&args.out, rendered).map_err(|e| format!("write {}: {e}", args.out))?;
    println!("wrote {}", args.out);

    // A distinct request that coalesced would make the reference cheaper
    // than the per-request cost it stands for.
    if max_distinct_group > 1.0 {
        return Err(format!(
            "distinct traffic coalesced (mean group size {max_distinct_group:.2} > 1)"
        ));
    }
    if let Ok(value) = std::env::var("PARADL_ASSERT_SPEEDUP") {
        let floor = value.parse::<f64>().ok().filter(|f| *f > 1.0).unwrap_or(2.0);
        if speedup_at_8plus < floor {
            return Err(format!(
                "coalescing speedup {speedup_at_8plus:.2}x at concurrency >= 8 is below the {floor:.1}x floor"
            ));
        }
        println!("speedup floor satisfied: {speedup_at_8plus:.2}x >= {floor:.1}x");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
