//! `oraclebench`: one end-to-end benchmark of the ParaDL oracle.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path oraclebench/Cargo.toml -- \
//!     --workload query_mix --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `query_mix`, `paper_grid`, `served_mix`, `conformance` (see
//! `oraclebench/README.md`). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Every line before it is a human-readable report.

mod bench;
mod conformance;
mod heap;
mod paper_grid;
mod query_mix;
mod served_mix;
mod stats;
mod trace;

use bench::{Config, Run, LAYER_METRICS};
use std::path::PathBuf;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Variables that change the measured program or add stderr I/O to it.
fn is_perturbing(name: &str) -> bool {
    name == "PARADL_CHUNK" || name == "PARADL_GRID_TRACE" || name.starts_with("PARADL_ASSERT_")
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Peak resident set size of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The name a workload's unit operation goes by in the report.
fn op_name(workload: &str) -> &'static str {
    match workload {
        "query_mix" => "query",
        "paper_grid" => "sweep",
        "served_mix" => "served",
        _ => "conformance",
    }
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    // JSON has no non-finite numbers.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("oraclebench: {e}");
            eprintln!(
                "usage: oraclebench --workload <query_mix|paper_grid|served_mix|conformance> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Environment hygiene, before any measured code reads the environment.
    for (name, _) in std::env::vars_os() {
        let name = name.to_string_lossy().into_owned();
        if is_perturbing(&name) {
            println!("# unset {name}: it changes the measured program");
            std::env::remove_var(&name);
        }
    }
    let workload: fn(&Config) -> Run = match cfg.workload.as_str() {
        "query_mix" => query_mix::run,
        "paper_grid" => paper_grid::run,
        "served_mix" => served_mix::run,
        "conformance" => conformance::run,
        other => {
            eprintln!("oraclebench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# oraclebench workload={} seed={} seconds={} trace={} nproc={nproc} rayon_threads={} commit={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        rayon::current_num_threads(),
        commit()
    );

    let mut run = workload(&cfg);
    let op = op_name(&cfg.workload);
    let pass = &run.pass;
    let p50 = stats::median(&pass.latencies_ms);
    let tail = stats::tail(&pass.latencies_ms, run.tail_quantile);
    let n = pass.latencies_ms.len();
    let rss = peak_rss_mb();
    println!("{op}_p50_ms = {p50:.4} ms (n={n})");
    println!(
        "{op}_tail_ms = {:.4} ms (p{}, n={n}, {} beyond{})",
        tail.value,
        tail.quantile * 100.0,
        tail.beyond,
        if tail.beyond < 10 && tail.quantile < 1.0 { ": fewer than ten" } else { "" }
    );
    println!(
        "{op}_ops_per_s = {:.4} 1/s ({} ops in {:.3} s busy)",
        pass.ops_per_s(),
        pass.ops,
        pass.busy_s
    );
    if cfg.workload == "conformance" {
        println!("conformance_s = {:.4} s", p50 / 1e3);
    }
    println!("setup_s = {:.6} s (median of {})", run.setup_s, bench::SETUP_REPEATS);
    let heap_mb = heap::peak_mb();
    println!("peak_heap_mb = {heap_mb:.3} MiB");
    println!("peak_rss_mb = {rss:.1} MiB (resident; not bounded, see oraclebench/src/heap.rs)");
    let checks = &run.checks;
    println!(
        "failed_frac = {} ({} of {} operations and checks)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    for m in &checks.messages {
        println!("# FAILED: {m}");
    }

    let metrics: Vec<String> = if cfg.trace {
        let traced = run.traced.as_ref().expect("a trace run has a traced pass");
        let traced_p50 = stats::median(&traced.latencies_ms);
        run.layers.set("trace.spans", run.trace.spans.len() as f64 / traced.ops.max(1) as f64);
        run.layers.set("trace.overhead_ms", traced_p50 - p50);
        if p50 > 0.0 {
            run.layers.set("trace.overhead_pct", (traced_p50 - p50) / p50 * 100.0);
        }
        println!(
            "tracing overhead: traced {op}_p50_ms {traced_p50:.4} - untraced {p50:.4} = {:.4} ms",
            traced_p50 - p50
        );
        let path = PathBuf::from(".oraclebench")
            .join(format!("trace-{}-seed{}.jsonl", cfg.workload, cfg.seed));
        match trace::write_jsonl(&path, &run.trace) {
            Ok(()) => {
                println!("# trace: {} spans written to {}", run.trace.spans.len(), path.display())
            }
            Err(e) => println!("# trace: could not write {}: {e}", path.display()),
        }
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = run.layers.get(name);
                println!("{name} = {value:.6} {unit}");
                metric(name, value, unit)
            })
            .collect()
    } else {
        vec![
            metric("p50_ms", p50, "ms"),
            metric("tail_ms", tail.value, "ms"),
            metric("ops_per_s", pass.ops_per_s(), "1/s"),
            metric("setup_s", run.setup_s, "s"),
            metric("peak_heap_mb", heap_mb, "MiB"),
        ]
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.join(", ")
    );
}
