//! Problem keys: one 64-bit key per part of an oracle problem, hashed from
//! the fields' bits.
//!
//! An engine core is valid for one (model, cluster, memory config)
//! problem, and the serve daemon coalesces queries that share a problem
//! and constraints. Both need a cheap identity for "the same problem";
//! this module provides it in parts, so each part is keyed once and the
//! parts combine:
//!
//! * [`ModelKey`] — the model name, the input shape, and every layer's
//!   kind, channels, spatial extents, kernel, stride and padding (layer
//!   names are left out: no cost depends on them),
//! * [`ClusterKey`] — every [`crate::compute::DeviceProfile`] field, the
//!   machine shape, and the three link parameter pairs,
//! * [`MemoryKey`] — the datum width `δ` and the memory-reuse factor `γ`,
//! * [`ConstraintsKey`] — every [`Constraints`] field,
//!
//! and [`ProblemKey`] is the (model, cluster, memory) triple that keys an
//! [`crate::engine::EngineCache`]. `batch_size`, `dataset_size` and
//! `epochs` key nothing: engine cores are batch-invariant.
//!
//! Fields enter 64-bit words (a model packs two small fields to a word)
//! and every word enters one of six lanes through the same step, an xor
//! into the lane followed by a multiply by an odd constant and a rotation.
//! Packing is bijective in each field and each step is a bijection of the
//! lane, so two inputs of the same layout (as many layers and spatial
//! dimensions) that differ in a single field always get different keys.
//! A ResNet-152 model key takes ≈ 3–5 µs from scratch
//! (`engine/resnet152_model_key`, shared 2-vCPU Xeon), about the time of
//! reading its fields. Keys are still only hashes: equal keys do not prove
//! equal problems, so the engine cache confirms a hit on the values
//! themselves. A [`KeyedModel`] carries its model key, so a model that is
//! resolved once (the daemon's zoo) is never hashed again.

use crate::cluster::ClusterSpec;
use crate::comm::LinkParams;
use crate::config::TrainingConfig;
use crate::layer::LayerKind;
use crate::model::Model;
use crate::oracle::{Constraints, PeSweep};

/// Multiplier of the word step: the 64-bit golden ratio, which is odd.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Lanes of a [`KeyHasher`]: a model layer is six words.
const LANES: usize = 6;

/// Words hashed in independent lanes, so the steps of one call do not wait
/// on each other's multiply.
struct KeyHasher {
    lanes: [u64; LANES],
}

/// Two fields in one word: bijective in each given the other, and
/// injective while both fit in 32 bits.
#[inline(always)]
fn pack(a: u64, b: u64) -> u64 {
    a ^ b.rotate_left(32)
}

/// One word into one lane: a bijection of the lane for a fixed word, and
/// of the word for a fixed lane.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(MIX).rotate_left(29)
}

/// The values of a slice in one word: the first two packed, any further
/// ones stepped in two at a time.
#[inline(always)]
fn slice_word(values: &[usize]) -> u64 {
    let at = |i: usize| values.get(i).map_or(0, |&v| v as u64);
    let mut word = pack(at(0), at(1));
    for rest in values.get(2..).unwrap_or_default().chunks(2) {
        word = step(word, pack(rest[0] as u64, rest.get(1).map_or(0, |&v| v as u64)));
    }
    word
}

impl KeyHasher {
    /// A hasher whose lanes start from `domain`, so the parts of a problem
    /// are hashed from different starting states.
    fn new(domain: u64) -> Self {
        KeyHasher { lanes: std::array::from_fn(|i| step(domain, i as u64)) }
    }

    /// One word into the first lane.
    fn word(&mut self, w: u64) {
        self.lanes[0] = step(self.lanes[0], w);
    }

    /// One word into each lane.
    #[inline(always)]
    fn step_lanes(&mut self, words: [u64; LANES]) {
        for (lane, w) in self.lanes.iter_mut().zip(words) {
            *lane = step(*lane, w);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// A length-prefixed string, eight bytes per word.
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        let mut chunks = s.as_bytes().chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
    }

    fn link(&mut self, link: &LinkParams) {
        self.f64(link.alpha);
        self.f64(link.beta);
    }

    /// Folds the lanes into one key: each lane through a rotation of its
    /// own, then MurmurHash3's bijective `fmix64` finalizer.
    fn finish(self) -> u64 {
        let mut h = 0;
        for (i, lane) in self.lanes.into_iter().enumerate() {
            h ^= lane.rotate_left(11 * i as u32);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The key of a [`Model`]: its name, input shape and every layer's kind,
/// channels, spatial extents, kernel, stride and padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelKey(u64);

impl ModelKey {
    /// Hashes `model`'s fields.
    pub fn of(model: &Model) -> Self {
        let mut h = KeyHasher::new(1);
        h.str(&model.name);
        h.word(model.input_channels as u64);
        h.word(model.input_spatial.len() as u64);
        h.word(slice_word(&model.input_spatial));
        h.word(model.layers.len() as u64);
        // One step of every lane per layer: the fields packed two to a
        // word, the four shape slices' lengths a byte apart in one.
        for l in &model.layers {
            let lens = l.in_spatial.len() as u64
                ^ (l.kernel.len() as u64).rotate_left(8)
                ^ (l.stride.len() as u64).rotate_left(16)
                ^ (l.padding.len() as u64).rotate_left(24);
            h.step_lanes([
                pack(layer_kind_code(l.kind), l.in_channels as u64),
                pack(l.out_channels as u64, lens),
                slice_word(&l.in_spatial),
                slice_word(&l.kernel),
                slice_word(&l.stride),
                slice_word(&l.padding),
            ]);
        }
        ModelKey(h.finish())
    }
}

fn layer_kind_code(kind: LayerKind) -> u64 {
    match kind {
        LayerKind::Conv => 0,
        LayerKind::Pool => 1,
        LayerKind::BatchNorm => 2,
        LayerKind::ReLU => 3,
        LayerKind::FullyConnected => 4,
        LayerKind::Add => 5,
        LayerKind::GlobalPool => 6,
    }
}

/// The key of a [`ClusterSpec`]: every device-profile field, the machine
/// shape and the three links, each float by its bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterKey(u64);

impl ClusterKey {
    /// Hashes `cluster`'s fields.
    pub fn of(cluster: &ClusterSpec) -> Self {
        let d = &cluster.device;
        let mut h = KeyHasher::new(2);
        h.f64(d.peak_flops);
        h.f64(d.conv_efficiency);
        h.f64(d.memory_bound_efficiency);
        h.f64(d.kernel_overhead);
        h.f64(d.update_elements_per_sec);
        h.word(cluster.gpus_per_node as u64);
        h.word(cluster.nodes_per_rack as u64);
        h.word(cluster.racks as u64);
        h.link(&cluster.intra_node);
        h.link(&cluster.intra_rack);
        h.link(&cluster.inter_rack);
        ClusterKey(h.finish())
    }
}

/// The key of the memory part of a [`TrainingConfig`]: `bytes_per_item`
/// (`δ`) and `memory_reuse` (`γ`), the only config fields an engine core
/// bakes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemoryKey(u64);

impl MemoryKey {
    /// Hashes `config`'s `δ` and `γ`; the batch, dataset and epochs are
    /// left out.
    pub fn of(config: &TrainingConfig) -> Self {
        let mut h = KeyHasher::new(3);
        h.f64(config.bytes_per_item);
        h.f64(config.memory_reuse);
        MemoryKey(h.finish())
    }
}

/// The key of a [`Constraints`]: every field, the memory capacity by its
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstraintsKey(u64);

impl ConstraintsKey {
    /// Hashes `constraints`' fields.
    pub fn of(constraints: &Constraints) -> Self {
        let mut h = KeyHasher::new(4);
        h.word(constraints.max_pes as u64);
        h.f64(constraints.memory_capacity_bytes);
        h.word(constraints.pipeline_segments as u64);
        match constraints.top_k {
            None => h.word(0),
            Some(k) => {
                h.word(1);
                h.word(k as u64);
            }
        }
        h.word(match constraints.sweep {
            PeSweep::PowersOfTwo => 0,
            PeSweep::Exhaustive => 1,
        });
        ConstraintsKey(h.finish())
    }
}

/// The key of an engine core's problem: (model, cluster, memory config).
/// Two problems that differ only in batch size, dataset size or epochs
/// share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProblemKey {
    /// The model's key.
    pub model: ModelKey,
    /// The cluster's key.
    pub cluster: ClusterKey,
    /// The key of the config's `δ` and `γ`.
    pub memory: MemoryKey,
}

impl ProblemKey {
    /// The key of `model` (kept with it) on `cluster` at `config`: only
    /// the cluster and `δ`, `γ` are hashed.
    pub fn of(model: &KeyedModel, cluster: &ClusterSpec, config: &TrainingConfig) -> Self {
        ProblemKey {
            model: model.key(),
            cluster: ClusterKey::of(cluster),
            memory: MemoryKey::of(config),
        }
    }

    /// Every part keyed to `bits`: distinct problems on one key, for
    /// tests of what a key collision does.
    #[cfg(test)]
    pub(crate) fn forced(bits: u64) -> Self {
        ProblemKey { model: ModelKey(bits), cluster: ClusterKey(bits), memory: MemoryKey(bits) }
    }
}

/// A model together with its [`ModelKey`], hashed once at construction.
/// The fields are private, so the key always matches the model.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedModel {
    model: Model,
    key: ModelKey,
}

impl KeyedModel {
    /// Keys `model`.
    pub fn new(model: Model) -> Self {
        let key = ModelKey::of(&model);
        KeyedModel { model, key }
    }

    /// The model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The model's key.
    pub fn key(&self) -> ModelKey {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::DeviceProfile;
    use crate::layer::Layer;

    fn model() -> Model {
        Model::new(
            "m",
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 16, (32, 32), 3, 1, 1),
                Layer::relu("r1", 16, &[32, 32]),
                Layer::pool2d("p1", 16, (32, 32), 2, 2),
                Layer::global_pool("g", 16, &[16, 16]),
                Layer::fully_connected("fc", 16, 10),
            ],
        )
    }

    /// A named edit of a value.
    type Edit<'a, T> = (&'a str, &'a dyn Fn(&mut T));

    /// Asserts that every edit changes the base value's key.
    fn all_differ<T, K: PartialEq + std::fmt::Debug>(
        base: &T,
        key: impl Fn(&T) -> K,
        edits: &[Edit<'_, T>],
    ) where
        T: Clone,
    {
        for (what, edit) in edits {
            let mut changed = base.clone();
            edit(&mut changed);
            assert_ne!(key(&changed), key(base), "{what} does not change the key");
        }
    }

    #[test]
    fn batch_dataset_and_epochs_key_nothing() {
        let (m, c) = (KeyedModel::new(model()), ClusterSpec::paper_system());
        let a = TrainingConfig::small(4096, 64);
        let b = TrainingConfig { batch_size: 128, dataset_size: 8192, epochs: 7, ..a };
        assert_eq!(ProblemKey::of(&m, &c, &a), ProblemKey::of(&m, &c, &b));
        assert_eq!(MemoryKey::of(&a), MemoryKey::of(&b));
        // Equal values key equally, however they were built.
        assert_eq!(ClusterKey::of(&c), ClusterKey::of(&ClusterSpec::paper_system()));
        assert_eq!(m.key(), ModelKey::of(&model()));
    }

    #[test]
    fn every_model_field_changes_the_key() {
        let base = model();
        all_differ(
            &base,
            ModelKey::of,
            &[
                ("name", &|m| m.name.push('x')),
                ("input_channels", &|m| m.input_channels += 1),
                ("input_spatial", &|m| m.input_spatial[1] += 1),
                ("input rank", &|m| m.input_spatial.push(1)),
                ("layer count", &|m| {
                    m.layers.pop();
                }),
                ("kind", &|m| m.layers[1].kind = LayerKind::BatchNorm),
                ("in_channels", &|m| m.layers[0].in_channels += 1),
                ("out_channels", &|m| m.layers[0].out_channels += 1),
                ("in_spatial", &|m| m.layers[2].in_spatial[0] += 1),
                ("kernel", &|m| m.layers[0].kernel[1] += 1),
                ("stride", &|m| m.layers[2].stride[0] += 1),
                ("padding", &|m| m.layers[0].padding[0] += 1),
                ("a spatial dimension", &|m| m.layers[0].padding.push(0)),
                ("layer order", &|m| m.layers.swap(0, 1)),
            ],
        );
        let mut renamed = base.clone();
        renamed.layers[0].name = "other".into();
        assert_eq!(ModelKey::of(&renamed), ModelKey::of(&base), "layer names key nothing");
    }

    #[test]
    fn every_cluster_bit_changes_the_key() {
        let base = ClusterSpec::paper_system();
        // One flipped bit in each float: the smallest change a field can
        // make.
        let flip = |x: &mut f64| *x = f64::from_bits(x.to_bits() ^ 1);
        all_differ(
            &base,
            ClusterKey::of,
            &[
                ("peak_flops", &|c| flip(&mut c.device.peak_flops)),
                ("conv_efficiency", &|c| flip(&mut c.device.conv_efficiency)),
                ("memory_bound_efficiency", &|c| flip(&mut c.device.memory_bound_efficiency)),
                ("kernel_overhead", &|c| flip(&mut c.device.kernel_overhead)),
                ("update_elements_per_sec", &|c| flip(&mut c.device.update_elements_per_sec)),
                ("gpus_per_node", &|c| c.gpus_per_node += 1),
                ("nodes_per_rack", &|c| c.nodes_per_rack += 1),
                ("racks", &|c| c.racks += 1),
                ("intra_node.alpha", &|c| flip(&mut c.intra_node.alpha)),
                ("intra_node.beta", &|c| flip(&mut c.intra_node.beta)),
                ("intra_rack.alpha", &|c| flip(&mut c.intra_rack.alpha)),
                ("intra_rack.beta", &|c| flip(&mut c.intra_rack.beta)),
                ("inter_rack.alpha", &|c| flip(&mut c.inter_rack.alpha)),
                ("inter_rack.beta", &|c| flip(&mut c.inter_rack.beta)),
                ("links swapped", &|c| std::mem::swap(&mut c.intra_rack, &mut c.inter_rack)),
                ("device", &|c| c.device = DeviceProfile::reference_cpu()),
            ],
        );
    }

    #[test]
    fn gamma_delta_and_every_constraint_change_their_keys() {
        let base = TrainingConfig::small(4096, 64);
        all_differ(
            &base,
            MemoryKey::of,
            &[
                ("bytes_per_item", &|c| c.bytes_per_item = 2.0),
                ("memory_reuse", &|c| {
                    c.memory_reuse = f64::from_bits(c.memory_reuse.to_bits() ^ 1)
                }),
                ("swapped", &|c| std::mem::swap(&mut c.bytes_per_item, &mut c.memory_reuse)),
            ],
        );
        let base = Constraints::default();
        all_differ(
            &base,
            ConstraintsKey::of,
            &[
                ("max_pes", &|c| c.max_pes += 1),
                ("memory_capacity_bytes", &|c| c.memory_capacity_bytes *= 2.0),
                ("pipeline_segments", &|c| c.pipeline_segments += 1),
                ("top_k", &|c| c.top_k = Some(10)),
                ("sweep", &|c| c.sweep = PeSweep::Exhaustive),
            ],
        );
        let ten = Constraints { top_k: Some(10), ..base };
        assert_ne!(
            ConstraintsKey::of(&ten),
            ConstraintsKey::of(&Constraints { top_k: Some(11), ..ten })
        );
        assert_ne!(
            ConstraintsKey::of(&Constraints { top_k: Some(0), ..base }),
            ConstraintsKey::of(&base)
        );
    }

    #[test]
    fn part_keys_do_not_coincide_across_domains() {
        // The same words under different parts: each part hashes from its
        // own start.
        let zero = Constraints {
            max_pes: 0,
            memory_capacity_bytes: 0.0,
            pipeline_segments: 0,
            top_k: None,
            sweep: PeSweep::PowersOfTwo,
        };
        let config = TrainingConfig {
            bytes_per_item: 0.0,
            memory_reuse: 0.0,
            ..TrainingConfig::small(1, 1)
        };
        assert_ne!(ConstraintsKey::of(&zero).0, MemoryKey::of(&config).0);
    }
}
