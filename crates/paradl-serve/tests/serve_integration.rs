//! End-to-end tests of the daemon over real unix sockets.
//!
//! The headline property: a served answer is **byte-identical** to
//! `Query::run()?.to_json().render()` computed locally — through the cache
//! miss path, the cache hit path, and the coalescing grid path alike, with
//! and without a calibration — and a served refusal carries the local
//! error text. The rest pins the robustness contract: malformed frames
//! cost at most a connection, never the daemon; full queues shed; expired
//! deadlines are refused; graceful shutdown drains.

use paradl_core::calibrate::Calibration;
use paradl_core::cluster::ClusterSpec;
use paradl_core::config::TrainingConfig;
use paradl_core::jsonio::Json;
use paradl_core::oracle::Constraints;
use paradl_core::query::{Query, QueryMode};
use paradl_serve::client::Connection;
use paradl_serve::proto::{self, ErrorKind, FrameRead, Request, Response, MAX_FRAME};
use paradl_serve::server::{Bind, EvalHook, EvalStage, Server, ServerConfig};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_socket() -> (Bind, PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "paradl-serve-test-{}-{}.sock",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    (Bind::Unix(path.clone()), path)
}

fn query(mode: QueryMode, batch: usize) -> Query {
    Query::default()
        .with_model(paradl_models::alexnet())
        .with_config(TrainingConfig::imagenet(batch))
        .with_cluster(ClusterSpec::workstation(8))
        .with_constraints(Constraints { max_pes: 256, ..Constraints::default() })
        .with_mode(mode)
}

/// The calibration committed in `BENCH_sim.json`.
fn committed_calibration() -> Calibration {
    let snapshot = Json::parse(include_str!("../../../BENCH_sim.json")).unwrap();
    Calibration::from_json(snapshot.get("calibration").unwrap()).unwrap()
}

fn answer_bytes(response: Response) -> (String, proto::AnswerStats) {
    match response {
        Response::Answer { answer, stats } => (answer.render(), stats),
        other => panic!("expected an answer, got {other:?}"),
    }
}

#[test]
fn served_answers_are_byte_identical_to_local_ones() {
    let (bind, _path) = temp_socket();
    let server = Server::start(bind.clone(), ServerConfig::default()).unwrap();

    // Modes covering all three answer shapes, ranked groups and groups of
    // one, uncalibrated and calibrated (a calibrated ranked query shares
    // its sweep with the uncalibrated one at the same batch).
    let calibration = committed_calibration();
    let queries: Vec<Query> = vec![
        query(QueryMode::TopK(5), 256),
        query(QueryMode::TopK(5), 512),
        query(QueryMode::FullRank, 256),
        query(QueryMode::Suggest, 256),
        query(QueryMode::Survey { pes: 16 }, 256),
        query(QueryMode::TopK(5), 256).with_calibration(calibration.clone()),
        query(QueryMode::Suggest, 256).with_calibration(calibration.clone()),
        query(QueryMode::Survey { pes: 16 }, 256).with_calibration(calibration),
    ];

    // Concurrent clients, two per query: every thread checks its own query
    // against a locally computed answer, bytewise. This exercises the
    // cache-miss path and (with luck and the linger window) actual
    // coalescing.
    let workers: Vec<_> = (0..2 * queries.len())
        .map(|i| {
            let bind = bind.clone();
            let q = queries[i % queries.len()].clone();
            std::thread::spawn(move || {
                let mut connection = Connection::connect(&bind).unwrap();
                let (served, _) = answer_bytes(connection.query(&q, None).unwrap());
                let local = q.run().unwrap().to_json().render();
                assert_eq!(served, local, "served answer drifted from the local oracle");
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    // Second pass on one connection: the cache is warm now, so the ranked
    // query must report a core-cache hit — and stay byte-identical.
    let mut connection = Connection::connect(&bind).unwrap();
    let q = query(QueryMode::TopK(5), 256);
    let (served, stats) = answer_bytes(connection.query(&q, None).unwrap());
    assert_eq!(served, q.run().unwrap().to_json().render());
    assert!(stats.cache_hit, "second identical query should hit the engine-core cache");
    // A ranked answer carries the kernel work counters. A local answer is
    // the same one-cell sweep the daemon runs, so the counters agree.
    let local = match q.run().unwrap() {
        paradl_core::prelude::QueryAnswer::Ranked(report) => report,
        other => panic!("expected a ranked answer, got {other:?}"),
    };
    assert!(stats.candidates_evaluated > 0, "ranked answers report costed candidates");
    assert_eq!(
        (stats.candidates_evaluated, stats.candidates_pruned),
        (local.evaluated(), local.pruned()),
        "served kernel counters diverged from the local answer"
    );

    server.shutdown_and_join();
}

/// Sends `group` concurrently (inside one linger window, so the members
/// share one group) and checks every served answer against a local run,
/// bytewise.
fn serve_group(bind: &Bind, group: &[Query]) {
    let workers: Vec<_> = group
        .iter()
        .map(|q| {
            let (bind, q) = (bind.clone(), q.clone());
            let worker = std::thread::spawn(move || {
                let mut connection = Connection::connect(&bind).unwrap();
                let (served, stats) = answer_bytes(connection.query(&q, None).unwrap());
                assert_eq!(served, q.run().unwrap().to_json().render(), "{:?}", q.mode);
                stats.coalesced
            });
            std::thread::sleep(Duration::from_millis(5));
            worker
        })
        .collect();
    for worker in workers {
        assert_eq!(worker.join().unwrap(), group.len(), "the members share one group");
    }
}

#[test]
fn resident_columns_serve_the_bytes_a_local_run_computes() {
    let (bind, _path) = temp_socket();
    let config = ServerConfig { linger: Duration::from_millis(100), ..ServerConfig::default() };
    let server = Server::start(bind.clone(), config).unwrap();
    let calibration = committed_calibration();
    let top = |batch| query(QueryMode::TopK(5), batch);
    let tight = |batch| {
        let constraints = Constraints { memory_capacity_bytes: 4e9, ..top(batch).constraints };
        top(batch).with_constraints(constraints)
    };
    let smaller = |batch| {
        top(batch)
            .with_config(TrainingConfig { dataset_size: 640_000, ..top(batch).config.unwrap() })
    };
    // Each step is one group: its members, and what it does with the store
    // of its problem's cache entry.
    let steps: Vec<(Vec<Query>, &str)> = vec![
        (vec![top(256)], "first sight"),
        (vec![top(256)], "admitted"),
        (vec![top(256), top(256).with_calibration(calibration.clone())], "hit"),
        (vec![top(512), top(128)], "first sight"),
        (vec![top(128).with_calibration(calibration.clone()), top(512), top(256)], "axis grows"),
        (vec![top(512)], "hit"),
        (vec![tight(256)], "first sight"),
        (vec![tight(256), tight(1024)], "admitted"),
        (vec![top(256)], "first sight"),
        (vec![smaller(256)], "first sight"),
        (vec![smaller(256)], "admitted"),
        (vec![query(QueryMode::FullRank, 256)], "first sight"),
        (vec![query(QueryMode::FullRank, 256)], "admitted"),
        (vec![query(QueryMode::FullRank, 512), query(QueryMode::FullRank, 256)], "first sight"),
        (vec![query(QueryMode::FullRank, 512)], "axis grows"),
        (vec![query(QueryMode::FullRank, 256), query(QueryMode::FullRank, 512)], "hit"),
        (vec![smaller(256).with_calibration(calibration)], "first sight"),
    ];
    for (group, _) in &steps {
        serve_group(&bind, group);
    }
    let count = |what: &str| steps.iter().filter(|(_, w)| *w == what).count();
    let mut connection = Connection::connect(&bind).unwrap();
    let stats = match connection.roundtrip(&Request::Stats).unwrap() {
        Response::ServerStats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    let store = stats.get("column_store").expect("a column_store object");
    let field = |name: &str| store.get(name).and_then(Json::usize).expect(name);
    assert_eq!(field("hits"), count("hit"));
    assert_eq!(field("misses"), steps.len() - count("hit"));
    assert_eq!(field("admissions"), count("admitted"));
    assert!(field("resident_bytes") > 0, "the last admitted variant is kept");
    // Still one engine-cache lookup per group.
    let cache = stats.get("engine_cache").expect("an engine_cache object");
    let lookups = ["hits", "misses"].map(|f| cache.get(f).and_then(Json::usize).expect(f));
    assert_eq!(lookups, [steps.len() - 1, 1]);
    server.shutdown_and_join();
}

/// The daemon's `column_store` stats object, as numbers by name.
fn column_store_stats(bind: &Bind) -> impl Fn(&str) -> usize {
    let mut connection = Connection::connect(bind).unwrap();
    let stats = match connection.roundtrip(&Request::Stats).unwrap() {
        Response::ServerStats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    let store = stats.get("column_store").expect("a column_store object").clone();
    move |name| store.get(name).and_then(Json::usize).expect(name)
}

#[test]
fn a_near_cap_query_is_kept_within_the_column_budget() {
    // VGG16 exhaustive to 64 Ki PEs at batch 4096: ≈ 0.87 of the
    // admission cap's enumeration work, ≈ 545 k candidates.
    let near_cap = |batch| {
        Query::top_k(10)
            .with_model(paradl_models::vgg16())
            .with_config(TrainingConfig::imagenet(batch))
            .with_cluster(ClusterSpec::paper_system())
            .with_constraints(Constraints {
                max_pes: 65_536,
                sweep: paradl_core::oracle::PeSweep::Exhaustive,
                ..Constraints::default()
            })
    };
    assert!(near_cap(4096).vet_with_cap(paradl_core::vet::DEFAULT_CANDIDATE_CAP * 9 / 10).is_ok());
    assert!(near_cap(4096).vet_with_cap(paradl_core::vet::DEFAULT_CANDIDATE_CAP * 8 / 10).is_err());
    let (bind, _path) = temp_socket();
    let server = Server::start(bind.clone(), ServerConfig::default()).unwrap();
    // First sight, admitted, hit; then a second batch grows the axis.
    for batch in [4096, 4096, 4096, 2048, 2048] {
        serve_group(&bind, &[near_cap(batch)]);
    }
    let field = column_store_stats(&bind);
    assert_eq!((field("hits"), field("misses"), field("admissions")), (1, 4, 1));
    // The store keeps at least a superset row (8 bytes packed) and a
    // communication row (32 bytes) per candidate, within the cache's
    // 344 MB budget.
    let enumerated = near_cap(4096).run().unwrap().report().unwrap().enumerated;
    let resident = field("resident_bytes");
    assert!(resident > enumerated * (8 + 32), "{resident} bytes for {enumerated} rows");
    assert!(resident <= 344_000_000, "{resident} bytes");
    server.shutdown_and_join();
}

#[test]
fn malformed_frames_do_not_kill_the_daemon() {
    let (bind, path) = temp_socket();
    let server = Server::start(bind.clone(), ServerConfig::default()).unwrap();

    let read_response = |stream: &mut UnixStream| -> Response {
        match proto::read_frame(stream, MAX_FRAME, || true).unwrap() {
            FrameRead::Frame(bytes) => {
                Response::from_json(&Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap())
                    .unwrap()
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    };

    // Garbage payload → retryable Protocol error (the bytes were bad, not
    // the request), connection lives.
    let mut stream = UnixStream::connect(&path).unwrap();
    proto::write_frame(&mut stream, b"certainly not json", MAX_FRAME).unwrap();
    match read_response(&mut stream) {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::Protocol);
            assert!(message.contains("malformed JSON"), "{message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }

    // Same connection: wrong schema, unknown op, unknown model — all
    // well-formed bytes carrying a bad request, so BadRequest (fatal; a
    // retry would fail identically).
    proto::write_frame(&mut stream, br#"{"no_op": 1}"#, MAX_FRAME).unwrap();
    assert!(matches!(
        read_response(&mut stream),
        Response::Error { kind: ErrorKind::BadRequest, .. }
    ));
    proto::write_frame(&mut stream, br#"{"op": "explode"}"#, MAX_FRAME).unwrap();
    assert!(matches!(
        read_response(&mut stream),
        Response::Error { kind: ErrorKind::BadRequest, .. }
    ));
    let mut unknown_model = query(QueryMode::Suggest, 256).to_json().unwrap();
    if let Json::Obj(fields) = &mut unknown_model {
        fields[0].1 = Json::obj([("name", Json::str("gpt-17"))]);
    }
    let request = format!(r#"{{"op":"query","query":{}}}"#, unknown_model.render());
    proto::write_frame(&mut stream, request.as_bytes(), MAX_FRAME).unwrap();
    match read_response(&mut stream) {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::BadRequest);
            assert!(message.contains("unknown model"), "{message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }

    // Oversized length prefix (a full 12-byte header: length + checksum) →
    // Protocol error response, then the server hangs up.
    let mut stream = UnixStream::connect(&path).unwrap();
    stream.write_all(&(u32::MAX).to_be_bytes()).unwrap();
    stream.write_all(&0u64.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    match read_response(&mut stream) {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::Protocol);
            assert!(message.contains("protocol error"), "{message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }

    // Corrupted frame: valid length, checksum that cannot match. The server
    // answers with a Protocol error (retryable) before hanging up.
    let mut stream = UnixStream::connect(&path).unwrap();
    let payload = br#"{"op":"ping"}"#;
    stream.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
    stream.write_all(&(proto::checksum(payload) ^ 1).to_be_bytes()).unwrap();
    stream.write_all(payload).unwrap();
    match read_response(&mut stream) {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::Protocol);
            assert!(message.contains("checksum"), "{message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }

    // Truncated frame: claim 64 bytes, send 10, hang up mid-frame.
    let mut stream = UnixStream::connect(&path).unwrap();
    stream.write_all(&(64u32).to_be_bytes()).unwrap();
    stream.write_all(&0u64.to_be_bytes()).unwrap();
    stream.write_all(b"ten bytes!").unwrap();
    drop(stream);

    // After all of that, the daemon still answers real queries.
    let mut connection = Connection::connect(&bind).unwrap();
    assert_eq!(connection.roundtrip(&Request::Ping).unwrap(), Response::Pong);
    let q = query(QueryMode::TopK(3), 256);
    let (served, _) = answer_bytes(connection.query(&q, None).unwrap());
    assert_eq!(served, q.run().unwrap().to_json().render());

    server.shutdown_and_join();
}

#[test]
fn unbuildable_specs_that_pass_vet_are_refused_like_local_runs() {
    let (bind, _path) = temp_socket();
    // A long linger so the two ranked queries coalesce into one group.
    let config = ServerConfig { linger: Duration::from_millis(300), ..ServerConfig::default() };
    let server = Server::start(bind.clone(), config).unwrap();

    // The smallest subnormal rate is finite and positive, so vet admits it,
    // but every layer time overflows and the engine build fails.
    let mut cluster = ClusterSpec::workstation(8);
    cluster.device.peak_flops = f64::from_bits(1);
    let unbuildable =
        |mode: QueryMode, batch: usize| query(mode, batch).with_cluster(cluster.clone());
    let queries = [
        unbuildable(QueryMode::TopK(3), 256),
        unbuildable(QueryMode::TopK(3), 512),
        unbuildable(QueryMode::Suggest, 256),
    ];
    for q in &queries {
        assert!(q.vet().is_ok(), "the spec must pass vet");
    }

    let workers: Vec<_> = queries
        .iter()
        .cloned()
        .map(|q| {
            let bind = bind.clone();
            std::thread::spawn(move || {
                let mut connection = Connection::connect(&bind).unwrap();
                let response = connection.query(&q, None).unwrap();
                (q, response)
            })
        })
        .collect();
    for worker in workers {
        let (q, response) = worker.join().unwrap();
        let local = q.run().expect_err("the local run refuses the spec too");
        match response {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::BadRequest);
                assert_eq!(message, local, "served refusal drifted from the local one");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    let mut connection = Connection::connect(&bind).unwrap();
    let stats = match connection.roundtrip(&Request::Stats).unwrap() {
        Response::ServerStats(json) => json,
        other => panic!("expected stats, got {other:?}"),
    };
    assert_eq!(stats.get("coalesced_groups").and_then(Json::usize), Some(1), "{stats:?}");

    // Nothing unbuildable was cached: a good query is answered as usual.
    let q = query(QueryMode::TopK(3), 256);
    let (served, _) = answer_bytes(connection.query(&q, None).unwrap());
    assert_eq!(served, q.run().unwrap().to_json().render());

    server.shutdown_and_join();
}

#[test]
fn groups_are_answered_oldest_member_first() {
    let (bind, _path) = temp_socket();
    // The eval hook sees each group's lead once, as its evaluation starts.
    let order = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&order);
    let hook: EvalHook = Arc::new(move |q: &Query, stage: EvalStage| {
        if stage == EvalStage::Eval {
            let name = q.model.as_ref().map_or("?", |m| m.name.as_str());
            seen.lock().unwrap().push(format!("{name} {:?}", q.mode));
        }
    });
    // A long linger, so every query below lands in one drained batch.
    let config = ServerConfig {
        linger: Duration::from_millis(500),
        eval_hook: Some(hook),
        ..ServerConfig::default()
    };
    let server = Server::start(bind.clone(), config).unwrap();

    let vgg = |batch: usize| query(QueryMode::TopK(3), batch).with_model(paradl_models::vgg16());
    // Arrival order: a VGG16 ranking, an AlexNet ranking, a second VGG16
    // ranking (same class as the first), an AlexNet suggestion. Name order
    // would put AlexNet first; the oldest member puts the VGG16 group first.
    let arrivals =
        [vgg(256), query(QueryMode::TopK(3), 256), vgg(512), query(QueryMode::Suggest, 256)];
    let mut workers = Vec::new();
    for q in arrivals {
        let bind = bind.clone();
        workers.push(std::thread::spawn(move || {
            let mut connection = Connection::connect(&bind).unwrap();
            let (served, stats) = answer_bytes(connection.query(&q, None).unwrap());
            assert_eq!(served, q.run().unwrap().to_json().render());
            stats
        }));
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let coalesced: Vec<usize> = stats.iter().map(|s| s.coalesced).collect();
    assert_eq!(coalesced, [2, 1, 2, 1], "the two VGG16 rankings share one group");
    assert_eq!(
        *order.lock().unwrap(),
        ["VGG16 TopK(3)", "AlexNet TopK(3)", "AlexNet Suggest"],
        "groups must be answered in the arrival order of their oldest member"
    );

    server.shutdown_and_join();
}

#[test]
fn full_queues_shed_and_expired_deadlines_are_refused() {
    let (bind, _path) = temp_socket();
    // One-slot queue and a long linger: the batcher sleeps on the first
    // query, the second fills the queue, the third must be shed.
    let config = ServerConfig {
        queue_cap: 1,
        linger: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::start(bind.clone(), config).unwrap();

    let spawn_query = |batch: usize| {
        let bind = bind.clone();
        std::thread::spawn(move || {
            let mut connection = Connection::connect(&bind).unwrap();
            connection.query(&query(QueryMode::TopK(3), batch), None).unwrap()
        })
    };
    let first = spawn_query(256);
    std::thread::sleep(Duration::from_millis(80)); // batcher holds it, lingering
    let second = spawn_query(512);
    std::thread::sleep(Duration::from_millis(80)); // queue slot now occupied
    let mut connection = Connection::connect(&bind).unwrap();
    let third = connection.query(&query(QueryMode::TopK(3), 1024), None).unwrap();
    assert_eq!(third, Response::Shed, "a full queue must shed, not block");
    assert!(matches!(first.join().unwrap(), Response::Answer { .. }));
    assert!(matches!(second.join().unwrap(), Response::Answer { .. }));

    // A deadline that is already over when the batcher wakes up.
    let expired = connection.query(&query(QueryMode::TopK(3), 256), Some(0)).unwrap();
    assert_eq!(expired, Response::DeadlineExpired);

    server.shutdown_and_join();
}

#[test]
fn overload_degrades_ranked_queries_instead_of_shedding() {
    let (bind, _path) = temp_socket();
    // queue_cap 8 puts the ladder thresholds at 2 (cap depth) and 4
    // (downgrade to suggestion); a long linger guarantees all four ranked
    // queries below land in one drained batch, crossing the second rung.
    let config = ServerConfig {
        queue_cap: 8,
        linger: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::start(bind.clone(), config).unwrap();

    let workers: Vec<_> = [128usize, 256, 512, 1024]
        .into_iter()
        .map(|batch| {
            let bind = bind.clone();
            std::thread::spawn(move || {
                let mut connection = Connection::connect(&bind).unwrap();
                connection.query(&query(QueryMode::FullRank, batch), None).unwrap()
            })
        })
        .collect();
    for worker in workers {
        let (answer, stats) = match worker.join().unwrap() {
            Response::Answer { answer, stats } => (answer, stats),
            other => panic!("degradation must still answer, got {other:?}"),
        };
        assert_eq!(stats.degraded, 2, "a 4-deep batch against queue_cap 8 hits rung 2");
        assert_eq!(
            answer.get("kind").and_then(Json::string),
            Some("suggestion"),
            "rung 2 downgrades FullRank to a suggestion"
        );
    }

    // The server-wide counters saw all four downgrades.
    let mut control = Connection::connect(&bind).unwrap();
    let stats = match control.roundtrip(&Request::Stats).unwrap() {
        Response::ServerStats(json) => json,
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(stats.get("degraded").and_then(Json::usize).unwrap_or(0) >= 4, "{stats:?}");
    assert!(stats.get("degraded_to_suggest").and_then(Json::usize).unwrap_or(0) >= 4, "{stats:?}");

    server.shutdown_and_join();
}

#[test]
fn no_degrade_answers_exactly_as_asked_under_the_same_pressure() {
    let (bind, _path) = temp_socket();
    let config = ServerConfig {
        queue_cap: 8,
        linger: Duration::from_millis(300),
        degrade: false,
        ..ServerConfig::default()
    };
    let server = Server::start(bind.clone(), config).unwrap();

    let workers: Vec<_> = [128usize, 256, 512, 1024]
        .into_iter()
        .map(|batch| {
            let bind = bind.clone();
            std::thread::spawn(move || {
                let mut connection = Connection::connect(&bind).unwrap();
                connection.query(&query(QueryMode::FullRank, batch), None).unwrap()
            })
        })
        .collect();
    for worker in workers {
        let (answer, stats) = match worker.join().unwrap() {
            Response::Answer { answer, stats } => (answer, stats),
            other => panic!("expected an answer, got {other:?}"),
        };
        assert_eq!(stats.degraded, 0, "--no-degrade must never touch the query");
        assert_eq!(answer.get("kind").and_then(Json::string), Some("ranked"));
    }

    server.shutdown_and_join();
}

#[test]
fn graceful_shutdown_drains_queued_queries() {
    let (bind, path) = temp_socket();
    let config = ServerConfig { linger: Duration::from_millis(300), ..ServerConfig::default() };
    let server = Server::start(bind.clone(), config).unwrap();

    let spawn_query = |batch: usize| {
        let bind = bind.clone();
        std::thread::spawn(move || {
            let mut connection = Connection::connect(&bind).unwrap();
            connection.query(&query(QueryMode::TopK(3), batch), None).unwrap()
        })
    };
    // Two queries in flight while the batcher lingers…
    let first = spawn_query(256);
    std::thread::sleep(Duration::from_millis(60));
    let second = spawn_query(512);
    std::thread::sleep(Duration::from_millis(60));
    // …then a remote shutdown lands.
    let mut control = Connection::connect(&bind).unwrap();
    assert_eq!(control.roundtrip(&Request::Shutdown).unwrap(), Response::ShuttingDown);

    // New queries are refused. (The server may instead have torn the
    // connection down already — also a refusal, not an answer.)
    if let Ok(response) = control.query(&query(QueryMode::TopK(3), 256), None) {
        assert_eq!(response, Response::ShuttingDown);
    }

    // The in-flight queries still get real answers (drained, not dropped).
    assert!(matches!(first.join().unwrap(), Response::Answer { .. }));
    assert!(matches!(second.join().unwrap(), Response::Answer { .. }));

    server.join();
    assert!(!path.exists(), "the unix socket file should be removed on shutdown");
}
