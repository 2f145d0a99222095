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
//! Each part is first a stream of 64-bit words, one per field (floats by
//! their bits, every string and slice after its length), so two values of
//! a part have the same fields (floats by their bits, a model's layer
//! names aside) exactly when their word streams are equal; the key hashes
//! that stream. Words enter six lanes in turn, each through the same step,
//! an xor into the lane followed by a multiply by an odd constant and a
//! rotation. Each step is a bijection of the lane, so two inputs whose
//! streams have the same length and differ in a single word always get
//! different keys. A ResNet-152 model key takes ≈ 8–9 µs
//! (`engine/resnet152_model_key`, shared 2-vCPU Xeon). Keys are still only
//! hashes: equal keys do not prove equal problems, so the engine cache
//! confirms a hit on the values themselves, and a
//! [`crate::grid::GridSweep`] confirms a resident column on the recorded
//! word streams. A [`KeyedModel`] carries its model key, so a model that
//! is resolved once (the daemon's zoo) is never hashed again.

use crate::cluster::ClusterSpec;
use crate::comm::LinkParams;
use crate::compute::DeviceProfile;
use crate::config::TrainingConfig;
use crate::layer::{Layer, LayerKind};
use crate::model::Model;
use crate::oracle::{Constraints, PeSweep};

/// Multiplier of the word step: the 64-bit golden ratio, which is odd.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Lanes of a [`KeyHasher`].
const LANES: usize = 6;

/// Where a value's words go: a [`KeyHasher`], a recorded `Vec<u64>`, a
/// [`Matcher`] checking them against a record, or a count.
trait WordSink {
    fn put(&mut self, word: u64);
}

impl WordSink for Vec<u64> {
    fn put(&mut self, word: u64) {
        self.push(word);
    }
}

/// Counts the words of a stream.
impl WordSink for usize {
    fn put(&mut self, _: u64) {
        *self += 1;
    }
}

/// Words hashed round robin into independent lanes, so consecutive steps
/// do not wait on each other's multiply.
struct KeyHasher {
    lanes: [u64; LANES],
}

/// One word into one lane: a bijection of the lane for a fixed word, and
/// of the word for a fixed lane.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(MIX).rotate_left(29)
}

impl KeyHasher {
    /// A hasher whose lanes start from `domain`, so the parts of a problem
    /// are hashed from different starting states.
    fn new(domain: u64) -> Self {
        KeyHasher { lanes: std::array::from_fn(|i| step(domain, i as u64)) }
    }

    /// The key of `words` under `domain`.
    fn of(domain: u64, words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = KeyHasher::new(domain);
        for w in words {
            h.put(w);
        }
        h.finish()
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

impl WordSink for KeyHasher {
    #[inline(always)]
    fn put(&mut self, word: u64) {
        // The first lane takes the word and moves to the back, so the
        // lanes take the words in turn.
        let [a, b, c, d, e, f] = self.lanes;
        self.lanes = [b, c, d, e, f, step(a, word)];
    }
}

/// Checks a word stream against recorded words, without allocating.
struct Matcher<'w> {
    words: &'w [u64],
    at: usize,
    same: bool,
}

impl WordSink for Matcher<'_> {
    fn put(&mut self, word: u64) {
        self.same &= self.words.get(self.at) == Some(&word);
        self.at += 1;
    }
}

/// A length-prefixed slice, one word per value.
fn slice_words(values: &[usize], sink: &mut impl WordSink) {
    sink.put(values.len() as u64);
    for &v in values {
        sink.put(v as u64);
    }
}

/// A length-prefixed string, eight bytes per word.
fn str_words(s: &str, sink: &mut impl WordSink) {
    sink.put(s.len() as u64);
    let mut chunks = s.as_bytes().chunks_exact(8);
    for chunk in &mut chunks {
        sink.put(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    sink.put(u64::from_le_bytes(tail));
}

/// The key of a [`Model`]: its name, input shape and every layer's kind,
/// channels, spatial extents, kernel, stride and padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelKey(u64);

impl ModelKey {
    /// Hashes `model`'s fields.
    pub fn of(model: &Model) -> Self {
        let mut h = KeyHasher::new(1);
        Self::walk(model, &mut h);
        ModelKey(h.finish())
    }

    /// The words [`ModelKey::of`] hashes: every field but the layers'
    /// names, one word each, every string and slice after its length. The
    /// vector holds no spare capacity.
    pub(crate) fn words(model: &Model) -> Vec<u64> {
        let mut len = 0usize;
        Self::walk(model, &mut len);
        let mut words = Vec::with_capacity(len);
        Self::walk(model, &mut words);
        words
    }

    /// Whether `words` are [`ModelKey::words`] of `model`; allocates
    /// nothing.
    pub(crate) fn words_match(words: &[u64], model: &Model) -> bool {
        let mut m = Matcher { words, at: 0, same: true };
        Self::walk(model, &mut m);
        m.same && m.at == words.len()
    }

    fn walk(model: &Model, sink: &mut impl WordSink) {
        let Model { name, input_channels, input_spatial, layers } = model;
        str_words(name, sink);
        sink.put(*input_channels as u64);
        slice_words(input_spatial, sink);
        sink.put(layers.len() as u64);
        for layer in layers {
            let Layer {
                name: _,
                kind,
                in_channels,
                out_channels,
                in_spatial,
                kernel,
                stride,
                padding,
            } = layer;
            sink.put(layer_kind_code(*kind));
            sink.put(*in_channels as u64);
            sink.put(*out_channels as u64);
            for values in [in_spatial, kernel, stride, padding] {
                slice_words(values, sink);
            }
        }
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
        ClusterKey(KeyHasher::of(2, Self::words(cluster)))
    }

    /// The words [`ClusterKey::of`] hashes: the device profile's
    /// ([`ClusterKey::device_words`]), then the machine shape and the
    /// links.
    pub(crate) fn words(cluster: &ClusterSpec) -> [u64; 14] {
        let ClusterSpec {
            ref device,
            gpus_per_node,
            nodes_per_rack,
            racks,
            intra_node,
            intra_rack,
            inter_rack,
        } = *cluster;
        let link = |l: LinkParams| {
            let LinkParams { alpha, beta } = l;
            [alpha.to_bits(), beta.to_bits()]
        };
        let [d0, d1, d2, d3, d4] = Self::device_words(device);
        let ([n0, n1], [r0, r1], [x0, x1]) = (link(intra_node), link(intra_rack), link(inter_rack));
        let (g, n, r) = (gpus_per_node as u64, nodes_per_rack as u64, racks as u64);
        [d0, d1, d2, d3, d4, g, n, r, n0, n1, r0, r1, x0, x1]
    }

    /// Every field of a device profile, by its bits.
    pub(crate) fn device_words(device: &DeviceProfile) -> [u64; 5] {
        let DeviceProfile {
            peak_flops,
            conv_efficiency,
            memory_bound_efficiency,
            kernel_overhead,
            update_elements_per_sec,
        } = *device;
        [
            peak_flops,
            conv_efficiency,
            memory_bound_efficiency,
            kernel_overhead,
            update_elements_per_sec,
        ]
        .map(f64::to_bits)
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
        MemoryKey(KeyHasher::of(3, Self::words(config)))
    }

    /// The words [`MemoryKey::of`] hashes: `δ` and `γ` by their bits.
    pub(crate) fn words(config: &TrainingConfig) -> [u64; 2] {
        [config.bytes_per_item.to_bits(), config.memory_reuse.to_bits()]
    }
}

/// The key of a [`Constraints`]: every field, the memory capacity by its
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstraintsKey(u64);

impl ConstraintsKey {
    /// Hashes `constraints`' fields.
    pub fn of(constraints: &Constraints) -> Self {
        ConstraintsKey(KeyHasher::of(4, Self::words(constraints)))
    }

    /// The words [`ConstraintsKey::of`] hashes: every field, `top_k` as
    /// whether it is set and its value.
    pub(crate) fn words(constraints: &Constraints) -> [u64; 6] {
        let Constraints { max_pes, memory_capacity_bytes, pipeline_segments, top_k, sweep } =
            *constraints;
        let sweep = match sweep {
            PeSweep::PowersOfTwo => 0,
            PeSweep::Exhaustive => 1,
        };
        [
            max_pes as u64,
            memory_capacity_bytes.to_bits(),
            pipeline_segments as u64,
            top_k.is_some() as u64,
            top_k.unwrap_or(0) as u64,
            sweep,
        ]
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
        let edits: [Edit<'_, Model>; 14] = [
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
        ];
        all_differ(&base, ModelKey::of, &edits);
        all_differ(&base, ModelKey::words, &edits);
        // Values past 32 bits are words of their own, not packed.
        all_differ(
            &base,
            ModelKey::words,
            &[("a wide value", &|m| m.layers[4].out_channels <<= 40)],
        );
        let mut renamed = base.clone();
        renamed.layers[0].name = "other".into();
        assert_eq!(ModelKey::of(&renamed), ModelKey::of(&base), "layer names key nothing");
        assert_eq!(ModelKey::words(&renamed), ModelKey::words(&base));
    }

    #[test]
    fn recorded_words_match_only_their_model() {
        let base = model();
        let words = ModelKey::words(&base);
        assert!(ModelKey::words_match(&words, &base));
        let mut longer = base.clone();
        longer.layers.push(Layer::fully_connected("fc2", 10, 10));
        assert!(!ModelKey::words_match(&words, &longer), "a longer stream");
        assert!(!ModelKey::words_match(&ModelKey::words(&longer), &base), "a shorter stream");
        let mut wider = base.clone();
        wider.layers[0].in_channels = 4;
        assert!(!ModelKey::words_match(&words, &wider), "one word differs");
        assert!(!ModelKey::words_match(&[], &base));
    }

    #[test]
    fn every_cluster_bit_changes_the_key() {
        let base = ClusterSpec::paper_system();
        // One flipped bit in each float: the smallest change a field can
        // make.
        let flip = |x: &mut f64| *x = f64::from_bits(x.to_bits() ^ 1);
        let edits: [Edit<'_, ClusterSpec>; 16] = [
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
        ];
        all_differ(&base, ClusterKey::of, &edits);
        all_differ(&base, ClusterKey::words, &edits);
        // The device words lead the cluster's.
        let device = ClusterKey::device_words(&base.device);
        assert_eq!(ClusterKey::words(&base)[..5], device);
        all_differ(&base, |c| ClusterKey::device_words(&c.device), &edits[..5]);
        let zero = ClusterSpec { device: DeviceProfile { peak_flops: 0.0, ..base.device }, ..base };
        let negative_zero =
            ClusterSpec { device: DeviceProfile { peak_flops: -0.0, ..base.device }, ..base };
        assert_ne!(ClusterKey::words(&zero), ClusterKey::words(&negative_zero), "−0.0 against 0.0");
    }

    #[test]
    fn gamma_delta_and_every_constraint_change_their_keys() {
        let base = TrainingConfig::small(4096, 64);
        let edits: [Edit<'_, TrainingConfig>; 3] = [
            ("bytes_per_item", &|c| c.bytes_per_item = 2.0),
            ("memory_reuse", &|c| c.memory_reuse = f64::from_bits(c.memory_reuse.to_bits() ^ 1)),
            ("swapped", &|c| std::mem::swap(&mut c.bytes_per_item, &mut c.memory_reuse)),
        ];
        all_differ(&base, MemoryKey::of, &edits);
        all_differ(&base, MemoryKey::words, &edits);
        let base = Constraints::default();
        let edits: [Edit<'_, Constraints>; 7] = [
            ("max_pes", &|c| c.max_pes += 1),
            ("memory_capacity_bytes", &|c| c.memory_capacity_bytes *= 2.0),
            ("memory_capacity_bytes −0.0", &|c| c.memory_capacity_bytes = -0.0),
            ("pipeline_segments", &|c| c.pipeline_segments += 1),
            ("top_k", &|c| c.top_k = Some(10)),
            ("top_k zero", &|c| c.top_k = Some(0)),
            ("sweep", &|c| c.sweep = PeSweep::Exhaustive),
        ];
        all_differ(&base, ConstraintsKey::of, &edits);
        all_differ(&base, ConstraintsKey::words, &edits);
        let ten = Constraints { top_k: Some(10), ..base };
        assert_ne!(
            ConstraintsKey::of(&ten),
            ConstraintsKey::of(&Constraints { top_k: Some(11), ..ten })
        );
        let zero = Constraints { memory_capacity_bytes: 0.0, ..base };
        assert_ne!(
            ConstraintsKey::words(&zero),
            ConstraintsKey::words(&Constraints { memory_capacity_bytes: -0.0, ..base })
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
