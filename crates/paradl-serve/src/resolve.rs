//! Model-name resolution for the wire protocol.
//!
//! Queries travel with the model **by name** (shipping layer lists would
//! dwarf every other field), so the daemon maps names back to its bundled
//! model zoo here.

use paradl_core::model::Model;

/// Resolves a wire model name against the bundled zoo: exactly what
/// [`paradl_models::by_name`] accepts, the case-insensitive aliases like
/// `"resnet50"` and the display names `Model::name` carries (e.g.
/// `"CosmoFlow-256"`, the spelling served clients send).
pub fn resolve_model(name: &str) -> Option<Model> {
    paradl_models::by_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_aliases_and_display_names() {
        assert_eq!(resolve_model("resnet50").unwrap().name, "ResNet-50");
        assert_eq!(resolve_model("cosmoflow").unwrap().name, "CosmoFlow-256");
        assert_eq!(resolve_model("CosmoFlow-256").unwrap().name, "CosmoFlow-256");
        assert_eq!(resolve_model("cosmoflow-256").unwrap().name, "CosmoFlow-256");
        assert!(resolve_model("gpt-17").is_none());
        // `by_name` itself knows every display name of the zoo, so one
        // lookup builds only the model asked for.
        assert_eq!(paradl_models::by_name("CosmoFlow-256").unwrap().name, "CosmoFlow-256");
        let mut zoo = paradl_models::paper_models();
        zoo.push(paradl_models::alexnet());
        for model in zoo {
            let found = paradl_models::by_name(&model.name).expect("display name resolves");
            assert_eq!(found.name, model.name);
            assert_eq!(found.num_layers(), model.num_layers(), "{}", model.name);
        }
    }
}
