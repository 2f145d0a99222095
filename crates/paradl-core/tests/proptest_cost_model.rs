//! Property-based tests of the cost-model invariants.
//!
//! These check structural properties that must hold for *any* model and
//! configuration, not just the hand-picked examples of the unit tests:
//! data parallelism at `p = 1` degenerates to the serial cost, compute time
//! is inversely proportional to `p`, memory shrinks monotonically along the
//! split dimension, and communication cost is monotone in the message size
//! and PE count.

use paradl_core::cost::estimate;
use paradl_core::prelude::*;
use proptest::prelude::{prop_assert, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;

/// Generates a small random CNN: a chain of conv / pool / relu layers ending
/// in a global pool and a fully-connected classifier.
fn arb_model() -> impl PropStrategy<Value = Model> {
    let spatial = prop_oneof![Just(16usize), Just(32), Just(64)];
    let depth = 1usize..5;
    (spatial, depth, 4usize..32, 2usize..8).prop_map(|(s, depth, base_ch, classes)| {
        let mut layers = Vec::new();
        let mut ch = 3usize;
        let mut hw = s;
        for i in 0..depth {
            let out = base_ch * (i + 1);
            layers.push(Layer::conv2d(format!("conv{i}"), ch, out, (hw, hw), 3, 1, 1));
            layers.push(Layer::relu(format!("relu{i}"), out, &[hw, hw]));
            if hw >= 8 {
                layers.push(Layer::pool2d(format!("pool{i}"), out, (hw, hw), 2, 2));
                hw /= 2;
            }
            ch = out;
        }
        layers.push(Layer::global_pool("gpool", ch, &[hw, hw]));
        layers.push(Layer::fully_connected("fc", ch, classes));
        Model::new("random", 3, vec![s, s], layers)
    })
}

fn arb_config() -> impl PropStrategy<Value = TrainingConfig> {
    (512usize..8192, 3usize..7).prop_map(|(d, logb)| TrainingConfig::small(d, 1 << logb))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_models_are_valid(model in arb_model()) {
        prop_assert!(model.validate().is_ok());
        prop_assert!(model.total_params() > 0);
        prop_assert!(model.total_activations() > 0);
    }

    #[test]
    fn data_parallelism_at_p1_equals_serial(model in arb_model(), config in arb_config()) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let serial = estimate(&model, &device, &cluster, &config, Strategy::Serial);
        let data1 = estimate(&model, &device, &cluster, &config, Strategy::Data { p: 1 });
        let diff = (serial.per_epoch.total() - data1.per_epoch.total()).abs();
        prop_assert!(diff <= 1e-9 * serial.per_epoch.total().max(1.0));
        let mem_diff = (serial.memory_per_pe_bytes - data1.memory_per_pe_bytes).abs();
        prop_assert!(mem_diff <= 1e-9 * serial.memory_per_pe_bytes.max(1.0));
    }

    #[test]
    fn forward_backward_scales_inversely_with_p(model in arb_model(), config in arb_config()) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let serial = estimate(&model, &device, &cluster, &config, Strategy::Serial);
        for p in [2usize, 4, 8, 16] {
            let data = estimate(&model, &device, &cluster, &config, Strategy::Data { p });
            let ratio = serial.per_epoch.forward_backward / data.per_epoch.forward_backward;
            prop_assert!((ratio - p as f64).abs() < 1e-6 * p as f64,
                "p={p} ratio={ratio}");
        }
    }

    #[test]
    fn data_memory_monotonically_decreases_with_p(model in arb_model(), config in arb_config()) {
        let mut prev = f64::INFINITY;
        for p in [1usize, 2, 4, 8, 16, 32] {
            let mem = memory_per_pe(&model, &config, Strategy::Data { p });
            prop_assert!(mem <= prev + 1e-9, "memory must not grow with p");
            prop_assert!(mem > 0.0);
            prev = mem;
        }
    }

    #[test]
    fn filter_memory_never_below_activation_floor(model in arb_model(), config in arb_config()) {
        // Filter parallelism keeps full activations on every PE, so its
        // memory is bounded below by the activation term (the paper's
        // "Redundancy in Memory" limitation).
        let b = config.batch_size as f64;
        let delta = config.bytes_per_item;
        let gamma = config.memory_reuse;
        let act_floor: f64 = gamma * delta * 2.0 * b
            * (model.total_inputs() + model.total_activations()) as f64;
        for p in [2usize, 4, 8] {
            let mem = memory_per_pe(&model, &config, Strategy::Filter { p });
            prop_assert!(mem >= act_floor * 0.999);
        }
    }

    #[test]
    fn allreduce_monotone_in_bytes_and_pes(
        bytes in 1.0f64..1e9,
        p in 2usize..512,
    ) {
        let comm = CommModel::new(LinkParams::infiniband_edr())
            .with_algorithm(CollectiveAlgorithm::Ring);
        let t = comm.allreduce(p, bytes);
        prop_assert!(t > 0.0);
        prop_assert!(comm.allreduce(p, bytes * 2.0) >= t);
        prop_assert!(comm.allreduce(p * 2, bytes) >= t);
        // Allgather moves half the traffic of Allreduce in the ring algorithm.
        let ag = comm.allgather(p, bytes);
        prop_assert!(ag <= t);
    }

    #[test]
    fn accuracy_metric_is_bounded(projected in 0.0f64..1e6, measured in 1e-6f64..1e6) {
        let a = projection_accuracy(projected, measured);
        prop_assert!((0.0..=1.0).contains(&a));
        // Exact projection gives accuracy 1.
        prop_assert!((projection_accuracy(measured, measured) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn epoch_breakdown_consistent_with_iteration(model in arb_model(), config in arb_config()) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        for p in [4usize, 16] {
            let est = estimate(&model, &device, &cluster, &config, Strategy::Data { p });
            let per_iter = est.per_iteration();
            let recombined = per_iter.total() * est.iterations as f64;
            prop_assert!((recombined - est.per_epoch.total()).abs()
                <= 1e-9 * est.per_epoch.total().max(1.0));
        }
    }

    #[test]
    fn pipeline_time_decreases_with_segments(model in arb_model(), config in arb_config()) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let p = 2usize.min(model.num_layers());
        if p < 2 { return Ok(()); }
        let segments = [1usize, 2, 4, 8];
        let mut prev = f64::INFINITY;
        for s in segments {
            if s > config.batch_size { break; }
            let est = estimate(&model, &device, &cluster, &config,
                Strategy::Pipeline { p, segments: s });
            prop_assert!(est.per_epoch.forward_backward <= prev + 1e-9);
            prev = est.per_epoch.forward_backward;
        }
    }

    #[test]
    fn survey_projections_are_finite(model in arb_model(), config in arb_config()) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let oracle = Oracle::new(&model, &device, &cluster, config);
        for proj in oracle.survey(8, &Constraints::default()) {
            prop_assert!(proj.cost.epoch_time().is_finite());
            prop_assert!(proj.cost.epoch_time() >= 0.0);
            prop_assert!(proj.cost.memory_per_pe_bytes.is_finite());
        }
    }
}
