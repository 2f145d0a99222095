//! Byte golden test of the JSON renderer on real answers.
//!
//! `golden_search.rs` compares answers field by field, and `golden_engine.rs`
//! pins the engine's bits; neither notices a change in how a number or a
//! string is *written*. This test pins the rendered bytes instead: for each
//! paper model on the `paper` cluster (exhaustive PE sweep to 1 Ki), it runs
//! `FullRank`, `TopK(10)`, `Suggest` and `Survey { pes: 64 }`, plus a
//! ResNet-50 `TopK(10)`, `Suggest` and `Survey { pes: 64 }` calibrated with
//! the calibration committed in `BENCH_sim.json`, and feeds the compact
//! [`Json::render`] and the [`Json::render_pretty`] of each
//! [`QueryAnswer::to_json`] — and the compact render of each query's own
//! [`Query::to_json`] — into FNV-1a hashes compared with the table below.
//!
//! The hashes change only when some rendered byte changes. When that is
//! intentional, replace the table with the one the failure message prints.

use paradl::prelude::*;

/// Pinned hashes per case: (query, compact answer, pretty answer).
const GOLDEN: [(&str, [u64; 3]); 19] = [
    ("ResNet-50 full_rank", [0x8d08c6648927c9a1, 0x39d43533ce164f05, 0x9839ed44d189a0af]),
    ("ResNet-50 top_10", [0xbca422f1a7aa4ba0, 0x3ed141ad824ec9f4, 0x8911af47dd4601e4]),
    ("ResNet-50 suggest", [0x20af65e7cb493c33, 0xfd3249fa6e625a55, 0x12a5490a9ab8d7e9]),
    ("ResNet-50 survey_64", [0x5c2642045a2b2c27, 0xe6307aa4a09dea5d, 0xcfc1fcbefca0f03b]),
    ("ResNet-152 full_rank", [0xe2690539e946e764, 0xcf2361eab6133750, 0xe1e4cab313a8c25c]),
    ("ResNet-152 top_10", [0x205a02aa34d1abbf, 0xf3baf74e29cffe01, 0xc2dca50903647647]),
    ("ResNet-152 suggest", [0x5907db6bbaa8833e, 0x3871d4959cdfcbf5, 0x269d595a9fef246b]),
    ("ResNet-152 survey_64", [0xb4a8923f6ec8ff0a, 0xe7f531acb973f020, 0x1685ba2d7417c3c6]),
    ("VGG16 full_rank", [0x70840058e2049343, 0x9cb20e62582132f3, 0x1d8547c97653e5cd]),
    ("VGG16 top_10", [0x329fe6b19d95e2be, 0xee3f07b960021a21, 0x152d328c9001f325]),
    ("VGG16 suggest", [0xdf750675dc561491, 0x62c4c59b3aa11eff, 0x173cd6d3d1c74be9]),
    ("VGG16 survey_64", [0xc05945673802358d, 0x45e0b1597d65f9dd, 0xc635b6cf8adb6fff]),
    ("CosmoFlow-256 full_rank", [0xcc7a72d3e8b0ed5d, 0x577be6c150dca1bd, 0x81a07b59f504beff]),
    ("CosmoFlow-256 top_10", [0x98b1020a80387504, 0x1567c24a94ba0bce, 0x23a949888ebe18be]),
    ("CosmoFlow-256 suggest", [0xc3c33afe9ff3b787, 0xcb53ef0343c0f09c, 0xf254d9e08a18dc7a]),
    ("CosmoFlow-256 survey_64", [0x9fe22555b0cbd5db, 0xa70ccfb23c8e5016, 0x5b9604e959a747aa]),
    ("ResNet-50 top_10 calibrated", [0xbaba35f020e88efe, 0x6b793a016aef8365, 0x29ed1eeccbf5e69d]),
    ("ResNet-50 suggest calibrated", [0xe5b66ae3da32fd2f, 0xde285ce4eecb16aa, 0x26c1a52edb3e2774]),
    (
        "ResNet-50 survey_64 calibrated",
        [0x97276d02201c0833, 0xb146718f14c669a2, 0x3a15894c2fdd2622],
    ),
];

const BATCH: usize = 256;

const MODES: [(&str, QueryMode); 4] = [
    ("full_rank", QueryMode::FullRank),
    ("top_10", QueryMode::TopK(10)),
    ("suggest", QueryMode::Suggest),
    ("survey_64", QueryMode::Survey { pes: 64 }),
];

fn base_config(model: &Model, batch: usize) -> TrainingConfig {
    if model.name.starts_with("CosmoFlow") {
        TrainingConfig::cosmoflow(batch)
    } else {
        TrainingConfig::imagenet(batch)
    }
}

/// The calibration committed in `BENCH_sim.json`.
fn committed_calibration() -> Calibration {
    let snapshot = Json::parse(include_str!("../BENCH_sim.json")).expect("BENCH_sim.json parses");
    Calibration::from_json(snapshot.req("calibration")).expect("committed calibration decodes")
}

/// FNV-1a 64-bit over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn query(model: &Model, mode: QueryMode) -> Query {
    Query::default()
        .with_model(model.clone())
        .with_config(base_config(model, BATCH))
        .with_cluster(ClusterSpec::paper_system())
        .with_constraints(Constraints {
            max_pes: 1024,
            sweep: PeSweep::Exhaustive,
            ..Constraints::default()
        })
        .with_mode(mode)
}

/// Every case in table order.
fn cases() -> Vec<(String, Query)> {
    let models = paradl::models::paper_models();
    let mut cases: Vec<(String, Query)> = models
        .iter()
        .flat_map(|m| {
            MODES.iter().map(move |(label, mode)| (format!("{} {label}", m.name), query(m, *mode)))
        })
        .collect();
    let resnet50 =
        models.iter().find(|m| m.name == "ResNet-50").expect("ResNet-50 is a paper model");
    let calibration = committed_calibration();
    for (label, mode) in [MODES[1], MODES[2], MODES[3]] {
        cases.push((
            format!("ResNet-50 {label} calibrated"),
            query(resnet50, mode).with_calibration(calibration.clone()),
        ));
    }
    cases
}

#[test]
fn rendered_answer_bytes_have_not_moved() {
    let current: Vec<(String, [u64; 3])> = cases()
        .into_iter()
        .map(|(label, q)| {
            let wire = q.to_json().expect("query has a workload").render();
            let answer = q.run().expect("query answers").to_json();
            let hashes = [
                fnv1a(wire.as_bytes()),
                fnv1a(answer.render().as_bytes()),
                fnv1a(answer.render_pretty().as_bytes()),
            ];
            (label, hashes)
        })
        .collect();
    let table: String = current
        .iter()
        .map(|(label, h)| {
            let hs: Vec<String> = h.iter().map(|x| format!("{x:#018x}")).collect();
            format!("    ({label:?}, [{}]),\n", hs.join(", "))
        })
        .collect();
    assert_eq!(current.len(), GOLDEN.len(), "case list changed\ncurrent table:\n{table}");
    let mut moved = Vec::new();
    for ((label, hashes), (golden_label, golden)) in current.iter().zip(GOLDEN) {
        if label != golden_label {
            moved.push(format!("case order changed: {label} where {golden_label} was pinned"));
            continue;
        }
        for ((what, h), g) in
            ["query", "compact answer", "pretty answer"].iter().zip(hashes).zip(golden)
        {
            if *h != g {
                moved.push(format!("{label}: {what} bytes moved"));
            }
        }
    }
    assert!(moved.is_empty(), "{}\ncurrent table:\n{table}", moved.join("\n"));
}
