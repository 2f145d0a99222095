//! Model-name resolution for the wire protocol.
//!
//! Queries travel with the model **by name** (shipping layer lists would
//! dwarf every other field), so the daemon maps names back to its bundled
//! model zoo here. Each zoo model is built and keyed once per process, the
//! first time a name asks for it: every later request for any of its names
//! shares that entry.

use paradl_core::key::KeyedModel;
use paradl_core::model::Model;
use paradl_models::ZOO;
use std::sync::{Arc, OnceLock};

/// One lazily built entry per [`ZOO`] model.
static ENTRIES: [OnceLock<Arc<KeyedModel>>; ZOO.len()] = [const { OnceLock::new() }; ZOO.len()];

/// Resolves a wire model name against the bundled zoo: exactly what
/// [`paradl_models::by_name`] accepts, the case-insensitive aliases like
/// `"resnet50"` and the display names `Model::name` carries (e.g.
/// `"CosmoFlow-256"`, the spelling served clients send). Every name of one
/// model resolves to the same entry: the model with its key, built once.
pub fn resolve_entry(name: &str) -> Option<Arc<KeyedModel>> {
    let i = paradl_models::zoo_index(name)?;
    Some(Arc::clone(ENTRIES[i].get_or_init(|| Arc::new(KeyedModel::new((ZOO[i].build)())))))
}

/// The model [`resolve_entry`] resolves `name` to, as an owned copy.
pub fn resolve_model(name: &str) -> Option<Model> {
    resolve_entry(name).map(|entry| entry.model().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradl_core::key::ModelKey;
    use paradl_models::ZooModel;

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

    #[test]
    fn every_alias_resolves_to_one_keyed_entry() {
        for ZooModel { names, .. } in ZOO {
            let first = resolve_entry(names[0]).expect("zoo name resolves");
            let built = paradl_models::by_name(names[0]).expect("zoo name builds");
            assert_eq!(*first.model(), built, "{}", names[0]);
            assert_eq!(first.key(), ModelKey::of(&built), "{}", names[0]);
            let display = built.name.clone();
            let spellings = names.iter().map(|n| n.to_string()).chain([
                display.clone(),
                display.to_ascii_uppercase(),
                display.to_lowercase(),
            ]);
            for name in spellings {
                let entry = resolve_entry(&name).expect("every spelling resolves");
                assert!(Arc::ptr_eq(&entry, &first), "{name} resolves to another entry");
                assert_eq!(resolve_model(&name).as_ref(), Some(&built), "{name}");
            }
        }
    }
}
