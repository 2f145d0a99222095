//! Table 5: the models and datasets used in the evaluation — sample counts,
//! sample shapes, parameter counts and layer counts.

use paradl_core::config::TrainingConfig;

fn main() {
    println!("Table 5 — models and datasets\n");
    println!(
        "{:<12} {:<12} {:>12} {:>18} {:>12} {:>8}",
        "model", "dataset", "#samples", "sample shape", "#params", "#layers"
    );
    // The sample counts are the training configurations' dataset sizes;
    // the shapes are the datasets' samples (channels × spatial extents).
    for model in paradl_models::paper_models() {
        let (dataset, samples, shape) = if model.name.starts_with("CosmoFlow") {
            ("CosmoFlow", TrainingConfig::cosmoflow(1).dataset_size, "4x[256, 256, 256]")
        } else {
            ("ImageNet", TrainingConfig::imagenet(1).dataset_size, "3x[226, 226]")
        };
        println!(
            "{:<12} {:<12} {:>12} {:>18} {:>11.1}M {:>8}",
            model.name,
            dataset,
            samples,
            shape,
            model.total_params() as f64 / 1e6,
            model.num_layers()
        );
    }
}
