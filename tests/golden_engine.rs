//! Phase-bit golden test of the precomputed cost engine.
//!
//! `golden_search.rs` pins each cell's top-10 epoch *totals* within a
//! relative 1e-9, so a low-bit move in one phase of one candidate would
//! pass it. This test pins the exact bits instead: over the same grid (the
//! four paper models × batches 256/1024 × the `paper` and `workstation8`
//! clusters, the powers-of-two strategy space to 1024 PEs), it feeds
//! `f64::to_bits` of every enumerated candidate's [`CostEngine::estimate`]
//! into one FNV-1a hash per phase — the six [`PhaseBreakdown`] fields plus
//! the per-PE memory — and compares each model's seven hashes with the
//! pinned table below. A failure names the model and the phase that moved.
//!
//! The hashes change only when some engine answer changes bit-wise. When
//! that is intentional, replace the table with the one the failure
//! message prints.

use paradl::prelude::*;

/// The phases hashed per model, in table order.
const PHASES: [&str; 7] = [
    "forward_backward",
    "weight_update",
    "gradient_exchange",
    "fb_collective",
    "halo_exchange",
    "pipeline_p2p",
    "memory_per_pe_bytes",
];

/// Pinned per-model, per-phase hashes (same order as [`PHASES`]).
const GOLDEN: [(&str, [u64; 7]); 4] = [
    (
        "ResNet-50",
        [
            0x80e041fd5c12d88d,
            0x9979c041c793911d,
            0x0cfa966d012e5636,
            0x08ee54699396046d,
            0xd41ca87c3f90191d,
            0x2bae93e30615e721,
            0x043c2d5ddefcdc55,
        ],
    ),
    (
        "ResNet-152",
        [
            0x8cfc49ae6406d8c5,
            0x83f41333c16e0f39,
            0x1f977003b56af851,
            0xdfb5a772d08c2861,
            0x3c1d68cd96955d65,
            0x32cc058687c44af9,
            0x68c9a7543e128029,
        ],
    ),
    (
        "VGG16",
        [
            0x8ef010afa54af655,
            0x63b99b70fe174e91,
            0xa2e0b06c9387dc41,
            0x8eca1e770a1e7249,
            0x14c81c5ff128d3f9,
            0x1055f7ed9a9b13a9,
            0x250414a8ff0193b5,
        ],
    ),
    (
        "CosmoFlow-256",
        [
            0xfdc32a573f46513d,
            0xdee2c2c105ffd341,
            0x2810b345712e81c5,
            0xef5bd9895141d17a,
            0x2a9d42a59e739b9b,
            0x5ea818e1ddea309d,
            0x57081061c978b169,
        ],
    ),
];

const BATCHES: [usize; 2] = [256, 1024];

fn clusters() -> [ClusterSpec; 2] {
    [ClusterSpec::paper_system(), ClusterSpec::workstation(8)]
}

fn base_config(model: &Model, batch: usize) -> TrainingConfig {
    if model.name.starts_with("CosmoFlow") {
        TrainingConfig::cosmoflow(batch)
    } else {
        TrainingConfig::imagenet(batch)
    }
}

/// FNV-1a 64-bit, folded one `u64` (little-endian bytes) at a time.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The seven phase hashes of one model over the whole grid, plus the number
/// of candidates hashed.
fn phase_hashes(model: &Model) -> ([u64; 7], usize) {
    let constraints = Constraints { max_pes: 1024, ..Constraints::default() };
    let mut hashes = [Fnv::new(); 7];
    let mut count = 0;
    for batch in BATCHES {
        for cluster in clusters() {
            let engine =
                CostEngine::new(model, &cluster.device, &cluster, base_config(model, batch))
                    .expect("engine builds");
            for s in StrategySpace::new(model, batch, &constraints) {
                let est = engine.estimate(s);
                let p = &est.per_epoch;
                let values = [
                    p.forward_backward,
                    p.weight_update,
                    p.gradient_exchange,
                    p.fb_collective,
                    p.halo_exchange,
                    p.pipeline_p2p,
                    est.memory_per_pe_bytes,
                ];
                for (h, v) in hashes.iter_mut().zip(values) {
                    h.push(v);
                }
                count += 1;
            }
        }
    }
    (hashes.map(|h| h.0), count)
}

#[test]
fn engine_phase_bits_have_not_moved() {
    let models = paradl::models::paper_models();
    assert_eq!(models.len(), GOLDEN.len(), "model list changed");
    let current: Vec<(String, [u64; 7], usize)> = models
        .iter()
        .map(|m| {
            let (h, n) = phase_hashes(m);
            (m.name.clone(), h, n)
        })
        .collect();
    let table: String = current
        .iter()
        .map(|(name, h, _)| {
            let hs: Vec<String> = h.iter().map(|x| format!("{x:#018x}")).collect();
            format!("    ({name:?}, [{}]),\n", hs.join(", "))
        })
        .collect();
    let mut moved = Vec::new();
    for ((name, hashes, n), (golden_name, golden)) in current.iter().zip(GOLDEN) {
        assert!(*n > 0, "{name}: empty strategy space");
        if name != golden_name {
            moved.push(format!("model order changed: {name} where {golden_name} was pinned"));
            continue;
        }
        for ((phase, h), g) in PHASES.iter().zip(hashes).zip(golden) {
            if *h != g {
                moved.push(format!("{name}: {phase} bits moved over {n} candidates"));
            }
        }
    }
    assert!(moved.is_empty(), "{}\ncurrent table:\n{table}", moved.join("\n"));
}
