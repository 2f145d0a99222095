//! The `paradl-serve` daemon binary: bind, serve, wait for shutdown.

use paradl_serve::server::{Bind, Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
paradl-serve: serve the ParaDL oracle over a socket

USAGE:
    paradl-serve (--unix PATH | --tcp ADDR) [OPTIONS]

OPTIONS:
    --unix PATH       listen on a unix-domain socket at PATH
    --tcp ADDR        listen on a TCP address (e.g. 127.0.0.1:7700; port 0 picks one)
    --no-degrade      answer every query exactly as asked — disable the overload
                      degradation ladder (FullRank -> TopK(10) -> Suggest)
    --queue-cap N     bounded queue depth before shedding (default 1024)
    --cache-cap N     engine-core LRU capacity (default 32; 0 disables)
    --linger-ms N     batching linger in milliseconds (default 1)
    --read-timeout-ms N
                      evict a connection stalled mid-frame for N ms (default 2000)
    --write-timeout-ms N
                      evict a peer that won't drain its socket for N ms (default 5000)
    --help            print this help

Concurrent ranked queries that differ only in batch size are answered by
one shared grid sweep; every query reuses cached engine cores.

Stop the daemon with `paradl-client --connect <target> --shutdown`: queued
queries drain, then the process exits.";

fn parse_args() -> Result<(Bind, ServerConfig), String> {
    let mut bind = None;
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--unix" => bind = Some(Bind::Unix(value(&mut args, "--unix")?.into())),
            "--tcp" => bind = Some(Bind::Tcp(value(&mut args, "--tcp")?)),
            "--no-degrade" => config.degrade = false,
            "--queue-cap" => {
                config.queue_cap = value(&mut args, "--queue-cap")?
                    .parse()
                    .map_err(|_| "--queue-cap needs an integer".to_string())?;
            }
            "--cache-cap" => {
                config.cache_entries = value(&mut args, "--cache-cap")?
                    .parse()
                    .map_err(|_| "--cache-cap needs an integer".to_string())?;
            }
            "--linger-ms" => {
                let ms: u64 = value(&mut args, "--linger-ms")?
                    .parse()
                    .map_err(|_| "--linger-ms needs an integer".to_string())?;
                config.linger = Duration::from_millis(ms);
            }
            "--read-timeout-ms" => {
                let ms: u64 = value(&mut args, "--read-timeout-ms")?
                    .parse()
                    .map_err(|_| "--read-timeout-ms needs an integer".to_string())?;
                config.read_timeout = Duration::from_millis(ms);
            }
            "--write-timeout-ms" => {
                let ms: u64 = value(&mut args, "--write-timeout-ms")?
                    .parse()
                    .map_err(|_| "--write-timeout-ms needs an integer".to_string())?;
                config.write_timeout = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let bind = bind.ok_or("one of --unix or --tcp is required")?;
    Ok((bind, config))
}

fn main() -> ExitCode {
    let (bind, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(bind, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: failed to bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("paradl-serve listening on {}", server.bound());
    server.join();
    eprintln!("paradl-serve: shut down cleanly");
    ExitCode::SUCCESS
}
