//! Exhaustive strategy search: enumerate every candidate parallelization of
//! ResNet-50 under the paper's system constraints, prune the ones that don't
//! fit GPU memory, cost the rest in parallel across all cores, and print the
//! ranked winners — overall and per PE budget.
//!
//! Run with: `cargo run --release --example search_strategies`

use paradl::prelude::*;

fn main() {
    let model = paradl::models::resnet50();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(32 * 64);
    let oracle = Oracle::new(&model, &device, &cluster, config);

    let constraints = Constraints::default();
    let space = oracle.strategy_space(&constraints);
    println!(
        "{}: {} candidate strategies under max_pes={}, capacity={:.0} GiB\n",
        model.name,
        space.len(),
        constraints.max_pes,
        constraints.memory_capacity_bytes / (1024.0 * 1024.0 * 1024.0),
    );

    let report = oracle.search(&constraints);
    println!(
        "enumerated {}, pruned {} by memory, costed {}\n",
        report.enumerated,
        report.pruned_by_memory,
        report.evaluated()
    );

    // The same search keeping only the top 10: candidates a small seed
    // panel already dominates at every PE budget they could win are skipped
    // before their estimate is assembled. Same ranking prefix and budget
    // winners, less work.
    let pruned = oracle.search(&Constraints { top_k: Some(10), ..constraints });
    println!(
        "top-k search: {} dominance-pruned, {} costed, same winner: {}\n",
        pruned.pruned_by_dominance,
        pruned.evaluated(),
        pruned.best().map(|b| b.strategy == report.best().unwrap().strategy).unwrap_or(false),
    );

    println!("top 10 strategies by projected epoch time:");
    println!(
        "{:<30} {:>6} {:>14} {:>14} {:>12}",
        "strategy", "PEs", "epoch (s)", "compute (s)", "comm (s)"
    );
    for candidate in report.ranked.iter().take(10) {
        let epoch = &candidate.projection.cost.per_epoch;
        println!(
            "{:<30} {:>6} {:>14.2} {:>14.2} {:>12.2}",
            candidate.strategy.to_string(),
            candidate.strategy.total_pes(),
            epoch.total(),
            epoch.compute(),
            epoch.communication()
        );
    }

    println!("\nbest strategy per PE budget:");
    println!("{:<8} {:<30} {:>14}", "budget", "winner", "epoch (s)");
    for winner in &report.best_per_budget {
        println!(
            "{:<8} {:<30} {:>14.2}",
            winner.max_pes,
            winner.candidate.strategy.to_string(),
            winner.candidate.epoch_time()
        );
    }

    if let Some(best) = report.best() {
        let phases = &best.projection.cost.per_epoch;
        println!("\nwinner {} — per-phase breakdown (s/epoch):", best.strategy);
        println!("  forward+backward  {:>12.2}", phases.forward_backward);
        println!("  weight update     {:>12.2}", phases.weight_update);
        println!("  gradient exchange {:>12.2}", phases.gradient_exchange);
        println!("  fb collectives    {:>12.2}", phases.fb_collective);
        println!("  halo exchange     {:>12.2}", phases.halo_exchange);
        println!("  pipeline p2p      {:>12.2}", phases.pipeline_p2p);
    }
}
