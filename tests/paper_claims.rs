//! Tests tied to specific quantitative or qualitative claims of the paper,
//! so a regression in the reproduction is caught as a broken "claim". Every
//! test's doc comment names the paper table/figure/section it mirrors; the
//! §5.2 oracle-validation claims are driven by the conformance subsystem
//! (`paradl_sim::conformance`), the same oracle-vs-measured loop the paper
//! runs against ChainerMNX on the 1024-GPU cluster.

use paradl::oracle::cost::estimate;
use paradl::prelude::*;

fn imagenet_oracle(model: &Model, batch: usize) -> (DeviceProfile, ClusterSpec, TrainingConfig) {
    let _ = model;
    (DeviceProfile::v100(), ClusterSpec::paper_system(), TrainingConfig::imagenet(batch))
}

/// Table 5: parameter counts of the evaluated models.
#[test]
fn table5_model_sizes() {
    assert!((24e6..28e6).contains(&(paradl::models::resnet50().total_params() as f64)));
    assert!((55e6..65e6).contains(&(paradl::models::resnet152().total_params() as f64)));
    assert!((130e6..150e6).contains(&(paradl::models::vgg16().total_params() as f64)));
    assert!((1e6..6e6).contains(&(paradl::models::cosmoflow().total_params() as f64)));
}

/// §5.3.4 and Table 3's scaling-limit column: filter parallelism of VGG16 /
/// ResNet-50 cannot exceed 64 GPUs (the minimum filter count), and pipeline
/// parallelism is bounded by the number of layers.
#[test]
fn scaling_limits_match_section_5_3_4() {
    let vgg = paradl::models::vgg16();
    let resnet = paradl::models::resnet50();
    assert_eq!(Strategy::max_pes(&vgg, 4096, StrategyKind::Filter), 64);
    assert_eq!(Strategy::max_pes(&resnet, 4096, StrategyKind::Filter), 64);
    assert!(Strategy::Filter { p: 128 }.validate(&vgg, 4096).is_err());
    assert!(Strategy::Pipeline { p: 4, segments: 8 }.validate(&resnet, 4096).is_ok());
    assert!(Strategy::Pipeline { p: resnet.num_layers() + 1, segments: 8 }
        .validate(&resnet, 4096)
        .is_err());
}

/// Figure 7: the weight update is a larger share of compute for VGG16 (large
/// FC layers) than for ResNet-50, reaching the ~10–15% the paper reports.
#[test]
fn figure7_weight_update_share_grows_with_model_size() {
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let share = |model: &Model| {
        let (_, _, config) = imagenet_oracle(model, 1024);
        let est = estimate(model, &device, &cluster, &config, Strategy::Data { p: 32 });
        est.per_epoch.weight_update / est.per_epoch.compute()
    };
    let resnet = paradl::models::resnet50();
    let vgg = paradl::models::vgg16();
    let s_resnet = share(&resnet);
    let s_vgg = share(&vgg);
    assert!(s_vgg > s_resnet, "VGG16 share {s_vgg} vs ResNet-50 {s_resnet}");
    // The absolute share depends on the per-GPU batch and optimizer cost; the
    // analytical V100 profile puts VGG16 around 1–2% at B=1024 (it reaches the
    // paper's ~15% at small per-GPU batches), so we only pin the ordering and
    // a non-trivial floor here.
    assert!(s_vgg > 0.008, "VGG16 weight-update share {s_vgg}");
}

/// §5.3.1 (Figure 3's FB-Allgather/FB-Allreduce vs GE columns): with a batch
/// of ≥32 samples the layer-wise communication of filter/channel parallelism
/// exceeds the gradient-exchange communication of data parallelism, even
/// though the activations are smaller than the weights.
#[test]
fn layerwise_comm_exceeds_gradient_exchange_at_batch_32() {
    let model = paradl::models::resnet50();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(32 * 16);
    let filter = estimate(&model, &device, &cluster, &config, Strategy::Filter { p: 16 });
    let data = estimate(&model, &device, &cluster, &config, Strategy::Data { p: 16 });
    assert!(
        filter.per_epoch.fb_collective > data.per_epoch.gradient_exchange,
        "filter comm {} vs data comm {}",
        filter.per_epoch.fb_collective,
        data.per_epoch.gradient_exchange
    );
}

/// §5.3.2 and Table 6 (memory redundancy): filter/channel parallelism does
/// not reduce the activation footprint, so its per-PE memory stays close to
/// serial for activation-heavy models, while spatial parallelism divides it.
#[test]
fn memory_redundancy_of_model_horizontal_parallelism() {
    let model = paradl::models::cosmoflow();
    let config = TrainingConfig::cosmoflow(4);
    let serial = memory_per_pe(&model, &config, Strategy::Serial);
    let filter = memory_per_pe(&model, &config, Strategy::Filter { p: 16 });
    let spatial =
        memory_per_pe(&model, &config, Strategy::Spatial { split: SpatialSplit::balanced_3d(16) });
    assert!(filter > 0.9 * serial, "filter should barely help: {filter} vs {serial}");
    assert!(spatial < 0.2 * serial, "spatial should divide activations: {spatial} vs {serial}");
}

/// Figure 5: the Data+Spatial hybrid keeps scaling CosmoFlow as data groups
/// are added (near-perfect scaling on the log axis).
#[test]
fn figure5_data_spatial_scaling_is_nearly_linear() {
    let model = paradl::models::cosmoflow();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::cosmoflow(64);
    let oracle = Oracle::new(&model, &device, &cluster, config);
    let split = SpatialSplit::balanced_3d(16);
    let t1 = oracle.project(Strategy::DataSpatial { p1: 1, split }).per_epoch.forward_backward;
    let t16 = oracle.project(Strategy::DataSpatial { p1: 16, split }).per_epoch.forward_backward;
    let speedup = t1 / t16;
    assert!((14.0..=16.5).contains(&speedup), "compute speedup with 16 data groups = {speedup}");
}

/// §5.2 (Figure 3's GE column for Data+Spatial vs Data): the hierarchical
/// (leader-based) Allreduce of Data+Spatial costs more than the flat
/// data-parallel Allreduce — the paper observes more than 2×.
#[test]
fn hierarchical_allreduce_overhead_of_data_spatial() {
    let model = paradl::models::vgg16();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(1024);
    let p = 64usize;
    let ds = estimate(
        &model,
        &device,
        &cluster,
        &config,
        Strategy::DataSpatial { p1: p / 4, split: SpatialSplit::balanced_2d(4) },
    );
    let data = estimate(&model, &device, &cluster, &config, Strategy::Data { p });
    let ratio = ds.per_epoch.gradient_exchange / data.per_epoch.gradient_exchange;
    assert!(ratio > 1.5, "hierarchical/flat Allreduce ratio = {ratio}");
}

/// Headline claim (§5.2, Figure 3's accuracy labels; the paper reports an
/// 86.74% average and up to 97.57% for data parallelism): the oracle's
/// projections track measured training steps. Driven by the conformance
/// subsystem — one grid sweep picks each cell's winners, every winner is
/// replayed through the simulator, and the `FidelityReport` carries the
/// §5.2-shaped statistics this test asserts on.
#[test]
fn section_5_2_oracle_tracks_simulated_measurements() {
    let constraints = Constraints { max_pes: 64, top_k: Some(5), ..Constraints::default() };
    let grid = QueryGrid::new(constraints)
        .with_model(paradl::models::resnet50(), TrainingConfig::imagenet(512))
        .with_batches([512usize, 1024])
        .with_cluster(ClusterSpec::paper_system());
    let report = Conformance::new()
        .with_overheads(OverheadModel::chainermnx_quiet())
        .with_samples(2)
        .run(&grid)
        .expect("every cell has feasible winners");

    // Every cell was replayed, winner-deep.
    assert_eq!(report.cells.len(), grid.num_queries());
    assert!(report.num_samples() >= 2 * 5, "replayed {}", report.num_samples());

    // The simulator routes most ring hops over NVLink while the oracle
    // prices every hop at the bottleneck link, so the mean sits below the
    // paper's 86.7%; the floor guards against regressions of the agreement.
    assert!(
        report.overall.mean_accuracy > 0.55,
        "average accuracy {:.3}",
        report.overall.mean_accuracy
    );

    // §5.2: data parallelism is the most accurately predicted strategy —
    // no other replayed family beats it by more than a rounding margin.
    let data = report.family(StrategyKind::Data).expect("data candidates among the winners");
    for family in &report.families {
        assert!(
            data.stats.mean_accuracy >= family.stats.mean_accuracy - 0.05,
            "data parallelism accuracy {:.3} well below {} accuracy {:.3}",
            data.stats.mean_accuracy,
            family.family,
            family.stats.mean_accuracy
        );
    }

    // §5.2's purpose: the oracle *guides* — its candidate ordering must
    // correlate with the measured ordering inside each cell.
    let rho = report.mean_rank_correlation.expect("multi-candidate cells");
    assert!(rho > 0.5, "mean rank correlation {rho:.3}");
}

/// §5.2's direction of error under framework overheads (Figure 8's split /
/// concat and imperfect-scaling effects): adding the measured framework's
/// overheads can only slow the simulated runs, so the oracle's signed error
/// becomes more negative (it under-projects measured time) relative to an
/// ideal framework.
#[test]
fn section_5_2_overheads_bias_signed_error_downward() {
    let constraints = Constraints { max_pes: 32, top_k: Some(3), ..Constraints::default() };
    let grid = QueryGrid::new(constraints)
        .with_model(paradl::models::resnet50(), TrainingConfig::imagenet(512))
        .with_batches([512usize])
        .with_cluster(ClusterSpec::paper_system());
    // Deterministic overheads (probability-1 triggers, no symmetric noise):
    // every replay's compute is stretched ×1.5 and every collective ×≥1.5,
    // so the comparison is a theorem, not a draw of the stall/congestion
    // coin flips (which the paper's probabilistic model would make
    // seed-dependent at this replay count).
    let always_slow = OverheadModel {
        conv_split_inefficiency: 0.05,
        split_concat_per_layer: 500e-6,
        memory_stall_probability: 1.0,
        memory_stall_factor: 1.5,
        congestion_probability: 1.0,
        congestion_max_factor: 3.0,
        compute_noise: 0.0,
    };
    let ideal = Conformance::new()
        .with_overheads(OverheadModel::ideal())
        .with_samples(1)
        .run(&grid)
        .expect("winners");
    let measured =
        Conformance::new().with_overheads(always_slow).with_samples(1).run(&grid).expect("winners");
    assert!(
        measured.overall.mean_signed_error < ideal.overall.mean_signed_error,
        "framework overheads should lower the signed error: {:.4} vs ideal {:.4}",
        measured.overall.mean_signed_error,
        ideal.overall.mean_signed_error
    );
}
