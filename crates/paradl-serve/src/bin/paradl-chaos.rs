//! Chaos soak for `paradl-serve`: retrying clients vs a fault-injected
//! daemon.
//!
//! Spawns one daemon whose accepted connections pass through a seeded
//! server-side [`FaultSchedule`], drives it with N retrying clients whose
//! *own* connections carry seeded client-side fault plans, and escalates
//! the fault mix phase by phase (mild → moderate → severe). Throughout:
//!
//! * the daemon must survive the entire schedule (final ping and clean
//!   queries answered after the faults are switched off);
//! * every *successful* answer must be byte-identical to the local
//!   `Query::run` result — the frame checksum turns in-flight corruption
//!   into a retryable transport error, so nothing silently wrong gets
//!   through;
//! * eventual-success availability must clear a floor once retries are
//!   spent (`PARADL_ASSERT_CHAOS=1`, default floor 0.99);
//! * the fault schedule must be reproducible: the same seed yields the
//!   same decision digest ([`fault::schedule_digest`]).
//!
//! Results go to `BENCH_chaos.json`.

use paradl_core::cluster::ClusterSpec;
use paradl_core::config::TrainingConfig;
use paradl_core::jsonio::Json;
use paradl_core::oracle::Constraints;
use paradl_core::query::{Query, QueryMode};
use paradl_serve::client::Connection;
use paradl_serve::fault::{self, FaultConfig, FaultSchedule, FaultTrace};
use paradl_serve::proto::{Request, Response};
use paradl_serve::retry::{RetryPolicy, RetryingClient};
use paradl_serve::server::{Bind, Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
paradl-chaos: soak a paradl-serve daemon under deterministic fault injection

USAGE:
    paradl-chaos [OPTIONS]

OPTIONS:
    --quick         short soak (fewer clients and requests; used by CI)
    --seed N        base seed for every fault plan (default 804869)
    --clients N     retrying clients per phase (default 4, quick 3)
    --requests N    requests per client per phase (default 40, quick 12)
    --out PATH      output file (default BENCH_chaos.json)
    --help          print this help

Set PARADL_ASSERT_CHAOS=1 (or a numeric availability floor in [0,1]) to
fail the run unless the daemon survives, zero corrupted answers reach a
client, the fault schedule reproduces from its seed, and eventual-success
availability clears the floor (default 0.99).";

struct Args {
    seed: u64,
    clients: usize,
    requests: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut quick = false;
    let mut seed = 804869u64;
    let mut clients = None;
    let mut requests = None;
    let mut out = "BENCH_chaos.json".to_string();
    let mut args = std::env::args().skip(1);
    let number = |args: &mut dyn Iterator<Item = String>, flag: &str| -> Result<usize, String> {
        args.next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag} needs an integer"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => seed = number(&mut args, "--seed")? as u64,
            "--clients" => clients = Some(number(&mut args, "--clients")?),
            "--requests" => requests = Some(number(&mut args, "--requests")?),
            "--out" => out = args.next().ok_or("--out needs a value")?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        seed,
        clients: clients.unwrap_or(if quick { 3 } else { 4 }),
        requests: requests.unwrap_or(if quick { 12 } else { 40 }),
        out,
    })
}

/// The soak workload: cheap queries covering all three answer shapes and
/// both group kinds (ranked → coalescing grid, suggest/survey → group of
/// one).
fn workload() -> Vec<Query> {
    let base = |mode: QueryMode, batch: usize| {
        Query::suggest()
            .with_mode(mode)
            .with_model(paradl_models::alexnet())
            .with_config(TrainingConfig::imagenet(batch))
            .with_cluster(ClusterSpec::workstation(8))
            .with_constraints(Constraints { max_pes: 256, ..Constraints::default() })
    };
    vec![
        base(QueryMode::TopK(5), 256),
        base(QueryMode::TopK(5), 512),
        base(QueryMode::Suggest, 256),
        base(QueryMode::Survey { pes: 16 }, 512),
    ]
}

struct PhaseOutcome {
    name: &'static str,
    requests: u64,
    succeeded: u64,
    failed: u64,
    corrupted: u64,
    retries: u64,
    reconnects: u64,
    client_trace: FaultTrace,
    digest: u64,
    digest_reproduced: bool,
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    name: &'static str,
    config: FaultConfig,
    bind: &Bind,
    schedule: &FaultSchedule,
    queries: &[Query],
    local: &[String],
    args: &Args,
    phase_index: u64,
) -> PhaseOutcome {
    schedule.set(config);
    // Reproducibility proof: the decision stream a plan makes is a pure
    // function of (config, seed, ops) — computing the digest twice from the
    // same inputs must agree.
    let digest = fault::schedule_digest(config, args.seed ^ phase_index, 512);
    let digest_reproduced = digest == fault::schedule_digest(config, args.seed ^ phase_index, 512);

    let workers: Vec<_> = (0..args.clients)
        .map(|worker| {
            let bind = bind.clone();
            let queries = queries.to_vec();
            let local = local.to_vec();
            let requests = args.requests;
            // Generous attempts: under the severe mix one request can burn
            // several connections before a round trip survives intact.
            let policy = RetryPolicy {
                max_attempts: 16,
                base_backoff: Duration::from_micros(500),
                max_backoff: Duration::from_millis(20),
            };
            let client_seed = args.seed ^ (phase_index << 32) ^ (worker as u64 * 7919);
            std::thread::spawn(move || {
                let mut client = RetryingClient::new(bind, policy, client_seed)
                    .with_faults(config, client_seed.wrapping_add(1));
                let mut succeeded = 0u64;
                let mut failed = 0u64;
                let mut corrupted = 0u64;
                for i in 0..requests {
                    let pick = (worker + i) % queries.len();
                    match client.query(&queries[pick], None) {
                        Ok(Response::Answer { answer, .. }) => {
                            if answer.render() == local[pick] {
                                succeeded += 1;
                            } else {
                                corrupted += 1;
                            }
                        }
                        Ok(_) | Err(_) => failed += 1,
                    }
                }
                (succeeded, failed, corrupted, client.stats(), client.fault_trace())
            })
        })
        .collect();

    let mut outcome = PhaseOutcome {
        name,
        requests: (args.clients * args.requests) as u64,
        succeeded: 0,
        failed: 0,
        corrupted: 0,
        retries: 0,
        reconnects: 0,
        client_trace: FaultTrace::default(),
        digest,
        digest_reproduced,
    };
    for worker in workers {
        let (succeeded, failed, corrupted, stats, trace) =
            worker.join().expect("chaos worker panicked");
        outcome.succeeded += succeeded;
        outcome.failed += failed;
        outcome.corrupted += corrupted;
        outcome.retries += stats.retries();
        outcome.reconnects += stats.reconnects;
        outcome.client_trace.absorb(&trace);
    }
    outcome
}

fn trace_json(t: &FaultTrace) -> Json {
    Json::obj([
        ("reads", Json::count(t.reads as usize)),
        ("writes", Json::count(t.writes as usize)),
        ("resets", Json::count(t.resets as usize)),
        ("truncated", Json::count(t.truncated as usize)),
        ("corrupted_bytes", Json::count(t.corrupted as usize)),
        ("stalls", Json::count(t.stalls as usize)),
        ("delays", Json::count(t.delays as usize)),
    ])
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let queries = workload();
    println!("precomputing {} local reference answers…", queries.len());
    let local: Vec<String> = queries
        .iter()
        .map(|q| q.run().map(|a| a.to_json().render()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("local oracle: {e}"))?;

    let bind =
        Bind::Unix(std::env::temp_dir().join(format!("paradl-chaos-{}.sock", std::process::id())));
    let schedule = Arc::new(FaultSchedule::new(args.seed));
    let config = ServerConfig {
        // Short eviction clock: client-side truncated requests leave the
        // server parked mid-frame, and the soak should actually exercise
        // eviction rather than hold threads for the production default.
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_secs(2),
        faults: Some(Arc::clone(&schedule)),
        ..ServerConfig::default()
    };
    let server = Server::start(bind.clone(), config).map_err(|e| format!("start daemon: {e}"))?;

    let phases = [
        ("mild", FaultConfig::mild()),
        ("moderate", FaultConfig::moderate()),
        ("severe", FaultConfig::severe()),
    ];
    let mut outcomes = Vec::new();
    for (index, (name, fault_config)) in phases.iter().enumerate() {
        println!("phase {name}: {} clients x {} requests…", args.clients, args.requests);
        let outcome = run_phase(
            name,
            *fault_config,
            &bind,
            &schedule,
            &queries,
            &local,
            &args,
            index as u64 + 1,
        );
        println!(
            "  {}/{} eventually succeeded, {} corrupted, {} retries, {} reconnects, {} faults injected client-side",
            outcome.succeeded,
            outcome.requests,
            outcome.corrupted,
            outcome.retries,
            outcome.reconnects,
            outcome.client_trace.injected(),
        );
        outcomes.push(outcome);
    }

    // Calm the storm, then verify the daemon came through: alive, stats
    // reachable, and still byte-exact on every workload query.
    schedule.set(FaultConfig::off());
    let mut survived = true;
    let mut final_corrupted = 0u64;
    let mut server_stats = Json::obj([] as [(&str, Json); 0]);
    match Connection::connect(&bind) {
        Ok(mut connection) => {
            survived &= matches!(connection.roundtrip(&Request::Ping), Ok(Response::Pong));
            for (q, expected) in queries.iter().zip(&local) {
                match connection.query(q, None) {
                    Ok(Response::Answer { answer, .. }) => {
                        if answer.render() != *expected {
                            final_corrupted += 1;
                        }
                    }
                    _ => survived = false,
                }
            }
            if let Ok(Response::ServerStats(stats)) = connection.roundtrip(&Request::Stats) {
                server_stats = stats;
            } else {
                survived = false;
            }
        }
        Err(_) => survived = false,
    }

    let requests: u64 = outcomes.iter().map(|o| o.requests).sum();
    let succeeded: u64 = outcomes.iter().map(|o| o.succeeded).sum();
    let corrupted: u64 = outcomes.iter().map(|o| o.corrupted).sum::<u64>() + final_corrupted;
    let retries: u64 = outcomes.iter().map(|o| o.retries).sum();
    let availability = if requests == 0 { 1.0 } else { succeeded as f64 / requests as f64 };
    let reproducible = outcomes.iter().all(|o| o.digest_reproduced);

    let evictions = server_stats.get("evictions").and_then(Json::usize).unwrap_or(0);
    let panics_contained = server_stats.get("panics_contained").and_then(Json::usize).unwrap_or(0);
    let batcher_restarts = server_stats.get("batcher_restarts").and_then(Json::usize).unwrap_or(0);

    println!(
        "soak done: availability {availability:.4} ({succeeded}/{requests}), {corrupted} corrupted, \
         {retries} retries, server evicted {evictions}, contained {panics_contained} panics, \
         restarted batcher {batcher_restarts}x, survived={survived}"
    );

    let report = Json::obj([
        ("benchmark", Json::str("paradl-serve-chaos")),
        ("seed", Json::count(args.seed as usize)),
        (
            "workload",
            Json::obj([
                ("model", Json::str("AlexNet")),
                ("cluster", Json::str("workstation-8")),
                ("max_pes", Json::count(256)),
                ("distinct_queries", Json::count(queries.len())),
            ]),
        ),
        ("clients", Json::count(args.clients)),
        ("requests_per_client_per_phase", Json::count(args.requests)),
        (
            "phases",
            Json::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        Json::obj([
                            ("name", Json::str(o.name)),
                            ("requests", Json::count(o.requests as usize)),
                            ("succeeded", Json::count(o.succeeded as usize)),
                            ("failed", Json::count(o.failed as usize)),
                            ("corrupted", Json::count(o.corrupted as usize)),
                            ("retries", Json::count(o.retries as usize)),
                            ("reconnects", Json::count(o.reconnects as usize)),
                            ("client_faults", trace_json(&o.client_trace)),
                            ("schedule_digest", Json::str(format!("{:016x}", o.digest))),
                            ("digest_reproduced", Json::Bool(o.digest_reproduced)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("availability", Json::Num(availability)),
        ("corrupted_answers", Json::count(corrupted as usize)),
        ("total_retries", Json::count(retries as usize)),
        ("survived", Json::Bool(survived)),
        ("reproducible", Json::Bool(reproducible)),
        ("server", server_stats),
    ]);
    let mut rendered = report.render_pretty();
    rendered.push('\n');
    std::fs::write(&args.out, rendered).map_err(|e| format!("write {}: {e}", args.out))?;
    println!("wrote {}", args.out);

    server.shutdown_and_join();

    if let Ok(value) = std::env::var("PARADL_ASSERT_CHAOS") {
        // "1" means "on, default floor"; any other value in [0,1] IS the floor.
        let floor = match value.as_str() {
            "1" | "true" | "yes" | "on" => 0.99,
            other => other.parse::<f64>().ok().filter(|f| (0.0..=1.0).contains(f)).unwrap_or(0.99),
        };
        if !survived {
            return Err("daemon did not survive the fault schedule".into());
        }
        if corrupted > 0 {
            return Err(format!("{corrupted} corrupted answers reached a client"));
        }
        if !reproducible {
            return Err("fault schedule digest failed to reproduce under the same seed".into());
        }
        if availability < floor {
            return Err(format!("availability {availability:.4} is below the {floor:.2} floor"));
        }
        println!(
            "chaos floor satisfied: availability {availability:.4} >= {floor:.2}, zero corruption, reproducible"
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
