//! Token / position embedding lookup table.

use super::{Layer, Param, WeightCache};
use crate::init::{SeededRng, EMBEDDING_STD};
use crate::kernel::quantize::QuantizedEmbedding;
use crate::Tensor;

/// Lookup table `[vocab, dim]`; forward gathers rows by id, backward
/// scatter-adds gradients.
///
/// Since the ids are not a `Tensor`, the lookup uses [`Embedding::lookup`]
/// rather than the generic [`Layer::forward`]; `Layer` is still implemented
/// for parameter traversal, with `forward` panicking to catch misuse.
///
/// Like [`super::Linear`], the table can hold an int8 copy for the
/// quantized inference tier ([`Embedding::set_weight_cache`]): lookups
/// then gather dequantized rows. Inference-only; dropped on
/// `visit_params`.
pub struct Embedding {
    /// The table `[vocab, dim]`.
    pub table: Param,
    cache_ids: Option<Vec<usize>>,
    qt: Option<QuantizedEmbedding>,
}

impl Embedding {
    /// Creates a table with N(0, 0.02²) entries, the BERT-family default.
    pub fn new(name: &str, vocab: usize, dim: usize, rng: &mut SeededRng) -> Self {
        let table = Tensor::randn(&[vocab, dim], EMBEDDING_STD, rng);
        Self { table: Param::new(format!("{name}.table"), table), cache_ids: None, qt: None }
    }

    /// Holds the int8 copy of the table under an int8 plan (building it
    /// if missing) and no copy otherwise: lookups are gathers, so there
    /// is nothing to pre-pack and no kernel to pick. Idempotent.
    pub fn set_weight_cache(&mut self, cache: WeightCache) {
        if !cache.is_int8() {
            self.qt = None;
        } else if self.qt.is_none() {
            self.qt = Some(QuantizedEmbedding::quantize(&self.table.value));
        }
    }

    /// Whether quantized lookups are active.
    pub fn is_quantized(&self) -> bool {
        self.qt.is_some()
    }

    /// Bytes of the quantized form of this table (static accounting).
    pub fn quantized_weight_bytes(&self) -> usize {
        QuantizedEmbedding::bytes_for(self.vocab(), self.dim())
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.value.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.value.cols()
    }

    /// Gathers `ids` into an `[ids.len(), dim]` tensor.
    ///
    /// The rows are appended straight into capacity drawn from the
    /// [`crate::scratch`] arena — no zero-then-overwrite pass, and on a
    /// warm arena no allocation either (the encoder recycles consumed
    /// activation buffers back into the pool).
    ///
    /// # Panics
    /// Panics when an id is out of range — upstream tokenizers are expected
    /// to map unknown symbols to `<unk>` long before this point.
    pub fn lookup(&mut self, ids: &[usize]) -> Tensor {
        let dim = self.dim();
        let vocab = self.vocab();
        let mut data = crate::scratch::take(ids.len() * dim);
        for &id in ids {
            assert!(id < vocab, "embedding id {id} out of range (vocab {vocab})");
            match &self.qt {
                Some(q) => q.extend_row(id, &mut data),
                None => data.extend_from_slice(self.table.value.row(id)),
            }
        }
        self.cache_ids = Some(ids.to_vec());
        Tensor::from_vec(&[ids.len(), dim], data)
    }

    /// Scatter-adds `dy` rows into the table gradient.
    pub fn backward_ids(&mut self, dy: &Tensor) {
        assert!(self.qt.is_none(), "Embedding::backward on a quantized (inference-only) table");
        let ids = self.cache_ids.take().expect("Embedding::backward before lookup");
        assert_eq!(dy.rows(), ids.len(), "Embedding backward rows");
        for (r, &id) in ids.iter().enumerate() {
            let dy_row = dy.row(r);
            let g_row = self.table.grad.row_mut(id);
            for (g, d) in g_row.iter_mut().zip(dy_row) {
                *g += *d;
            }
        }
    }
}

impl Layer for Embedding {
    fn forward(&mut self, _x: &Tensor, _train: bool) -> Tensor {
        unreachable!("Embedding consumes ids; call lookup() instead of forward()")
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_ids(dy);
        Tensor::zeros(&[0])
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // &mut access can rewrite the table; the int8 copy must go.
        self.qt = None;
        f(&mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_gathers_rows() {
        let mut rng = SeededRng::new(7);
        let mut emb = Embedding::new("tok", 10, 4, &mut rng);
        let x = emb.lookup(&[3, 3, 9]);
        assert_eq!(x.shape(), &[3, 4]);
        assert_eq!(x.row(0), x.row(1));
        assert_eq!(x.row(2), emb.table.value.row(9));
    }

    #[test]
    fn backward_scatter_adds_duplicates() {
        let mut rng = SeededRng::new(8);
        let mut emb = Embedding::new("tok", 5, 2, &mut rng);
        let _ = emb.lookup(&[1, 1, 2]);
        let dy = Tensor::from_vec(&[3, 2], vec![1., 1., 2., 2., 5., 5.]);
        emb.backward_ids(&dy);
        assert_eq!(emb.table.grad.row(1), &[3., 3.]);
        assert_eq!(emb.table.grad.row(2), &[5., 5.]);
        assert_eq!(emb.table.grad.row(0), &[0., 0.]);
    }

    #[test]
    fn quantized_lookup_tracks_f32_and_cache_lifecycle() {
        let mut rng = SeededRng::new(9);
        let mut emb = Embedding::new("tok", 8, 6, &mut rng);
        let exact = emb.lookup(&[2, 5, 2]);
        emb.set_weight_cache(WeightCache::Infer(crate::kernel::default_plan().int8()));
        assert!(emb.is_quantized());
        let quant = emb.lookup(&[2, 5, 2]);
        assert_eq!(quant.row(0), quant.row(2), "duplicate ids must gather identical rows");
        for (a, b) in exact.data().iter().zip(quant.data()) {
            // Table entries are N(0, 0.02²): half a quantization step of
            // amax ≈ 0.05 is well below 1e-3.
            assert!((a - b).abs() < 1e-3, "int8 {b} too far from f32 {a}");
        }
        emb.visit_params(&mut |_| {});
        assert!(!emb.is_quantized(), "quantized cache survived visit_params");
        assert_eq!(emb.lookup(&[2, 5, 2]).data(), exact.data());
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn quantized_backward_panics() {
        let mut rng = SeededRng::new(10);
        let mut emb = Embedding::new("tok", 5, 2, &mut rng);
        emb.set_weight_cache(WeightCache::Infer(crate::kernel::default_plan().int8()));
        let _ = emb.lookup(&[1]);
        emb.backward_ids(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_id_panics() {
        let mut rng = SeededRng::new(8);
        let mut emb = Embedding::new("tok", 5, 2, &mut rng);
        let _ = emb.lookup(&[5]);
    }
}
