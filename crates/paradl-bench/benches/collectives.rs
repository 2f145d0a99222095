//! Criterion benchmarks of the collective-schedule generation and the
//! link-level contention accounting — the inner loop of the simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use paradl_net::{
    hierarchical_allreduce, ring_allgather, ring_allreduce, schedule_time, segmented_allreduce,
    FatTree,
};

fn bench_schedule_generation(c: &mut Criterion) {
    let ranks_64: Vec<usize> = (0..64).collect();
    let ranks_512: Vec<usize> = (0..512).collect();
    c.bench_function("collectives/ring_allreduce_schedule_64", |b| {
        b.iter(|| std::hint::black_box(ring_allreduce(&ranks_64, 100e6)))
    });
    c.bench_function("collectives/ring_allreduce_schedule_512", |b| {
        b.iter(|| std::hint::black_box(ring_allreduce(&ranks_512, 100e6)))
    });
}

fn bench_schedule_timing(c: &mut Criterion) {
    let topo_64 = FatTree::paper_system(64);
    let topo_512 = FatTree::paper_system(512);
    let ranks_64: Vec<usize> = (0..64).collect();
    let ranks_512: Vec<usize> = (0..512).collect();
    let sched_64 = ring_allreduce(&ranks_64, 100e6);
    let sched_512 = ring_allgather(&ranks_512, 100e6);
    c.bench_function("collectives/schedule_time_allreduce_64", |b| {
        b.iter(|| std::hint::black_box(schedule_time(&topo_64, &sched_64)))
    });
    c.bench_function("collectives/schedule_time_allgather_512", |b| {
        b.iter(|| std::hint::black_box(schedule_time(&topo_512, &sched_512)))
    });
    // Hierarchical Allreduce over 16 nodes of 4 GPUs (Data+Spatial GE phase).
    let groups: Vec<Vec<usize>> = (0..16).map(|n| (0..4).map(|g| n * 4 + g).collect()).collect();
    let hier = hierarchical_allreduce(&groups, 100e6);
    c.bench_function("collectives/schedule_time_hierarchical_64", |b| {
        b.iter(|| std::hint::black_box(schedule_time(&topo_64, &hier)))
    });
    // The shapes the conformance replays price: a 256-PE ring spanning four
    // racks, and the Data+Filter gradient exchange of 64 groups × 4 GPUs —
    // four concurrent 64-rank rings sharing every node uplink.
    let topo_256 = FatTree::paper_system(256);
    let ranks_256: Vec<usize> = (0..256).collect();
    let ring_256 = ring_allreduce(&ranks_256, 100e6);
    c.bench_function("collectives/schedule_time_allreduce_256", |b| {
        b.iter(|| std::hint::black_box(schedule_time(&topo_256, &ring_256)))
    });
    let segments: Vec<Vec<usize>> = (0..4).map(|g| (0..64).map(|n| n * 4 + g).collect()).collect();
    let segmented = segmented_allreduce(&segments, 25e6);
    c.bench_function("collectives/schedule_time_segmented_64x4", |b| {
        b.iter(|| std::hint::black_box(schedule_time(&topo_256, &segmented)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_schedule_generation, bench_schedule_timing
);
criterion_main!(benches);
