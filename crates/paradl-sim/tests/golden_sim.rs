//! Bit-exact golden replays of every strategy family.
//!
//! The conformance snapshot in `BENCH_sim.json` only pins the strategies
//! that win its grid cells, which never include filter, channel or
//! pipeline parallelism. This test pins all eight `Strategy` variants at a
//! multi-rack size (128 PEs span two 68-PE racks of the paper system, so
//! rack-to-core links carry traffic) under the full-noise ChainerMNX
//! overhead model, which exercises every sampler draw: compute noise,
//! memory stalls, congestion and the split overheads. Every phase of the
//! averaged per-iteration breakdown is compared with `f64::to_bits`, so any
//! change to how the simulator prices collectives or consumes draws — even
//! one that only flips a low bit — fails here.

use paradl_core::prelude::*;
use paradl_models::SyntheticCnn;
use paradl_sim::{OverheadModel, Simulator};

/// `(strategy, per-iteration phase bits)` in `PhaseBreakdown` field order:
/// forward_backward, weight_update, gradient_exchange, fb_collective,
/// halo_exchange, pipeline_p2p.
#[rustfmt::skip]
fn golden() -> Vec<(Strategy, [u64; 6])> {
    vec![
        (Strategy::Serial,
            [0x3f9403109920bc80, 0x3f0a9c018b97e491, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
        (Strategy::Data { p: 128 },
            [0x3f23faf9a5e39add, 0x3f0a9c018b97e491, 0x3f8ed388f20caf25, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
        (Strategy::Spatial { split: SpatialSplit::balanced_2d(128) },
            [0x3f2412c7a1c09d54, 0x3f0a9c018b97e491, 0x3f89672be54aeac0, 0x0000000000000000, 0x3f951e206ac8ceb7, 0x0000000000000000]),
        (Strategy::Filter { p: 128 },
            [0x3f997ba9bc32d7ca, 0x3e9a9c018b97e491, 0x0000000000000000, 0x3fe43d99d617ea46, 0x0000000000000000, 0x0000000000000000]),
        (Strategy::Channel { p: 128 },
            [0x3f997ba9bc32d7ca, 0x3e9a9c018b97e491, 0x0000000000000000, 0x3fe43d99d617ea46, 0x0000000000000000, 0x0000000000000000]),
        (Strategy::Pipeline { p: 4, segments: 8 },
            [0x3f7c02351c3d43b5, 0x3ef239c421b333d0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x3f53251079ad928e]),
        (Strategy::DataFilter { p1: 32, p2: 4 },
            [0x3f666cf3e42586b8, 0x3eea9c018b97e491, 0x3f70e9f5b10a73f4, 0x3f4f9833dbe799a1, 0x0000000000000000, 0x0000000000000000]),
        (Strategy::DataSpatial { p1: 32, split: SpatialSplit::balanced_2d(4) },
            [0x3f2412c7a1c09d54, 0x3f0a9c018b97e491, 0x3f72d1d46974808e, 0x0000000000000000, 0x3f346d83329fb8dc, 0x0000000000000000]),
    ]
}

fn bits(b: &PhaseBreakdown) -> [u64; 6] {
    [
        b.forward_backward.to_bits(),
        b.weight_update.to_bits(),
        b.gradient_exchange.to_bits(),
        b.fb_collective.to_bits(),
        b.halo_exchange.to_bits(),
        b.pipeline_p2p.to_bits(),
    ]
}

#[test]
fn every_strategy_replays_bit_identically_to_the_golden_table() {
    let model = SyntheticCnn::default().build();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::small(8192, 64);
    let sim = Simulator::new(&device, &cluster)
        .with_overheads(OverheadModel::chainermnx())
        .with_samples(12)
        .with_seed(0xC0FFEE);
    for (strategy, want) in golden() {
        let got = bits(&sim.simulate(&model, &config, strategy).per_iteration);
        assert_eq!(got, want, "{strategy:?} drifted: got {got:#018x?}");
    }
}
