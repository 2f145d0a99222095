//! One-shot CLI client for the `paradl-serve` daemon.

use paradl_core::cluster::ClusterSpec;
use paradl_core::config::TrainingConfig;
use paradl_core::jsonio::Json;
use paradl_core::oracle::Constraints;
use paradl_core::query::{Query, QueryMode};
use paradl_serve::client::{parse_target, Connection};
use paradl_serve::proto::{Request, Response};
use paradl_serve::resolve::resolve_model;
use paradl_serve::retry::{RetryError, RetryPolicy, RetryingClient};
use std::process::ExitCode;

const USAGE: &str = "\
paradl-client: query a running paradl-serve daemon

USAGE:
    paradl-client --connect TARGET [OPTIONS]
    paradl-client --vet-only [QUERY OPTIONS]

TARGET:
    unix:/path/to.sock | tcp:host:port

OPERATIONS (default: send one query):
    --ping            liveness probe
    --stats           print server counters
    --shutdown        ask the daemon to drain and exit
    --vet-only        validate the query locally (no daemon, no evaluation);
                      prints the rejected field path and reason on failure

QUERY OPTIONS:
    --model NAME      model name (default resnet-50)
    --batch N         global mini-batch (default 256)
    --cluster NAME    paper | workstation (default paper)
    --gpus N          workstation GPU count (default 8)
    --mode MODE       suggest | top-k | full-rank | survey (default top-k)
    --k N             ranking depth for top-k (default 10)
    --pes N           PE count for survey mode (default 64)
    --max-pes N       PE budget constraint (default 1024)
    --deadline-ms N   abandon the query after N ms of queueing
    --attempts N      retry budget for shed/expired/transport outcomes
                      (default 8; 1 disables retrying)
    --json            print the raw response JSON instead of a summary";

enum Op {
    Query,
    Ping,
    Stats,
    Shutdown,
}

struct Args {
    target: String,
    op: Op,
    model: String,
    batch: usize,
    cluster: String,
    gpus: usize,
    mode: String,
    k: usize,
    pes: usize,
    max_pes: usize,
    deadline_ms: Option<u64>,
    attempts: u32,
    json: bool,
    vet_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        target: String::new(),
        op: Op::Query,
        model: "resnet-50".to_string(),
        batch: 256,
        cluster: "paper".to_string(),
        gpus: 8,
        mode: "top-k".to_string(),
        k: 10,
        pes: 64,
        max_pes: 1024,
        deadline_ms: None,
        attempts: 8,
        json: false,
        vet_only: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |args: &mut dyn Iterator<Item = String>, flag: &str| -> Result<usize, String> {
        value(args, flag)?.parse().map_err(|_| format!("{flag} needs an integer"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => parsed.target = value(&mut args, "--connect")?,
            "--ping" => parsed.op = Op::Ping,
            "--stats" => parsed.op = Op::Stats,
            "--shutdown" => parsed.op = Op::Shutdown,
            "--model" => parsed.model = value(&mut args, "--model")?,
            "--batch" => parsed.batch = number(&mut args, "--batch")?,
            "--cluster" => parsed.cluster = value(&mut args, "--cluster")?,
            "--gpus" => parsed.gpus = number(&mut args, "--gpus")?,
            "--mode" => parsed.mode = value(&mut args, "--mode")?,
            "--k" => parsed.k = number(&mut args, "--k")?,
            "--pes" => parsed.pes = number(&mut args, "--pes")?,
            "--max-pes" => parsed.max_pes = number(&mut args, "--max-pes")?,
            "--deadline-ms" => {
                parsed.deadline_ms = Some(number(&mut args, "--deadline-ms")? as u64)
            }
            "--attempts" => parsed.attempts = (number(&mut args, "--attempts")? as u32).max(1),
            "--json" => parsed.json = true,
            "--vet-only" => parsed.vet_only = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if parsed.target.is_empty() && !parsed.vet_only {
        return Err("--connect is required".to_string());
    }
    Ok(parsed)
}

fn build_query(args: &Args) -> Result<Query, String> {
    let model =
        resolve_model(&args.model).ok_or_else(|| format!("unknown model {:?}", args.model))?;
    let config = if model.name.starts_with("CosmoFlow") {
        TrainingConfig::cosmoflow(args.batch)
    } else {
        TrainingConfig::imagenet(args.batch)
    };
    let cluster = match args.cluster.as_str() {
        "paper" => ClusterSpec::paper_system(),
        "workstation" => ClusterSpec::workstation(args.gpus),
        other => return Err(format!("unknown cluster {other:?} (use paper or workstation)")),
    };
    let mode = match args.mode.as_str() {
        "suggest" => QueryMode::Suggest,
        "top-k" | "top_k" => QueryMode::TopK(args.k),
        "full-rank" | "full_rank" => QueryMode::FullRank,
        "survey" => QueryMode::Survey { pes: args.pes },
        other => return Err(format!("unknown mode {other:?}")),
    };
    Ok(Query::default()
        .with_model(model)
        .with_config(config)
        .with_cluster(cluster)
        .with_constraints(Constraints { max_pes: args.max_pes, ..Constraints::default() })
        .with_mode(mode))
}

fn first_line(p: &Json) -> String {
    let strategy = p.get("strategy").and_then(Json::string).unwrap_or("?");
    let time = p.get("epoch_time").and_then(Json::number).unwrap_or(f64::NAN);
    let mem = p.get("memory_per_pe").and_then(Json::number).unwrap_or(f64::NAN);
    format!("{strategy}  epoch {time:.3}s  mem/PE {:.2} GiB", mem / (1u64 << 30) as f64)
}

fn summarize(answer: &Json) {
    match answer.get("kind").and_then(Json::string) {
        Some("suggestion") => match answer.get("best") {
            Some(best) if !best.is_null() => println!("suggestion: {}", first_line(best)),
            _ => println!("suggestion: no feasible strategy"),
        },
        Some("ranked") => {
            let ranked = answer.get("ranked").and_then(Json::array).unwrap_or(&[]);
            let enumerated = answer.get("enumerated").and_then(Json::usize).unwrap_or(0);
            println!("ranked {} candidates (enumerated {enumerated}):", ranked.len());
            for (i, p) in ranked.iter().take(10).enumerate() {
                println!("  {:>2}. {}", i + 1, first_line(p));
            }
        }
        Some("survey") => {
            let projections = answer.get("projections").and_then(Json::array).unwrap_or(&[]);
            println!("survey ({} families):", projections.len());
            for p in projections {
                let feasible = p.get("fits_memory").and_then(Json::boolean).unwrap_or(false)
                    && p.get("within_scaling_limit").and_then(Json::boolean).unwrap_or(false);
                let marker = if feasible { " " } else { "!" };
                println!("  {marker} {}", first_line(p));
            }
        }
        _ => println!("{}", answer.render_pretty()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.vet_only {
        // Local validation only: build the query and run the same vet pass
        // the daemon applies at enqueue, without connecting or evaluating.
        let query = match build_query(&args) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match query.vet() {
            Ok(()) => {
                println!("vet ok: the daemon would accept this query");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!(
                    "vet rejected: field={} reason={} (retryable={})",
                    e.field, e.reason, e.retryable
                );
                ExitCode::FAILURE
            }
        };
    }
    let target = match parse_target(&args.target) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let request = match args.op {
        Op::Ping => Request::Ping,
        Op::Stats => Request::Stats,
        Op::Shutdown => Request::Shutdown,
        Op::Query => match build_query(&args) {
            Ok(query) => Request::Query { query, deadline_ms: args.deadline_ms },
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    // Queries go through the retrying client (shed/expired/transport
    // outcomes are idempotent and worth resending); control operations stay
    // on a raw connection — retrying a shutdown against a daemon that is
    // already draining would just be noise.
    let response = if matches!(args.op, Op::Query) {
        let policy = RetryPolicy { max_attempts: args.attempts, ..RetryPolicy::default() };
        let mut client = RetryingClient::new(target, policy, 0x9a7ad1);
        match client.roundtrip(&request) {
            Ok(r) => r,
            Err(RetryError::Fatal(r)) => r,
            Err(e @ RetryError::Exhausted { .. }) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut connection = match Connection::connect(&target) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot connect to {}: {e}", args.target);
                return ExitCode::FAILURE;
            }
        };
        match connection.roundtrip(&request) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if args.json {
        println!("{}", response.into_json().render_pretty());
        return ExitCode::SUCCESS;
    }
    match response {
        Response::Answer { answer, stats } => {
            summarize(&answer);
            println!(
                "[cache_hit={} coalesced={} cells={} queue={}µs eval={}µs degraded={}]",
                stats.cache_hit,
                stats.coalesced,
                stats.batch_cells,
                stats.queue_us,
                stats.eval_us,
                stats.degraded
            );
            ExitCode::SUCCESS
        }
        Response::Pong => {
            println!("pong");
            ExitCode::SUCCESS
        }
        Response::ServerStats(stats) => {
            println!("{}", stats.render_pretty());
            ExitCode::SUCCESS
        }
        Response::ShuttingDown => {
            println!("daemon is shutting down");
            ExitCode::SUCCESS
        }
        Response::Shed => {
            eprintln!("request shed: server queue is full, retry later");
            ExitCode::FAILURE
        }
        Response::DeadlineExpired => {
            eprintln!("deadline expired before the query was evaluated");
            ExitCode::FAILURE
        }
        Response::Error { kind, message } => {
            eprintln!("server error ({kind:?}): {message}");
            ExitCode::FAILURE
        }
    }
}
