//! Model hyper-parameters.

/// Transformer hyper-parameters.
///
/// The paper fine-tunes a 12-layer, 768-dim RoBERTa. This reproduction's
/// defaults are scaled to train on a 2-core CPU in minutes while keeping
/// every architectural ingredient (multi-head attention, GELU FFN,
/// post-LN residuals, learned positions, CLS pooling, 2-dense head).
#[derive(Clone, Debug, PartialEq)]
pub struct ModelConfig {
    /// Vocabulary size (from the tokenizer).
    pub vocab: usize,
    /// Hidden width.
    pub d_model: usize,
    /// Attention heads (`d_model % n_heads == 0`).
    pub n_heads: usize,
    /// Encoder blocks.
    pub n_layers: usize,
    /// Feed-forward inner width.
    pub d_ff: usize,
    /// Maximum sequence length including the CLS token. The paper sets
    /// 110 (its longest snippet); the small profile truncates harder.
    pub max_len: usize,
    /// Dropout probability (classification head + embeddings).
    pub dropout: f32,
    /// Output classes (2 for all three tasks).
    pub n_classes: usize,
}

impl ModelConfig {
    /// Reproduction-scale profile: fast on 2 CPU cores.
    pub fn small(vocab: usize) -> Self {
        Self {
            vocab,
            d_model: 48,
            n_heads: 2,
            n_layers: 2,
            d_ff: 96,
            max_len: 72,
            dropout: 0.1,
            n_classes: 2,
        }
    }

    /// Paper-shaped profile: sequence cap 110 like PragFormer's input,
    /// wider and deeper (still far from the paper's 125M parameters).
    pub fn paper(vocab: usize) -> Self {
        Self {
            vocab,
            d_model: 96,
            n_heads: 4,
            n_layers: 4,
            d_ff: 192,
            max_len: 110,
            dropout: 0.1,
            n_classes: 2,
        }
    }

    /// Tiny profile for unit tests. `max_len` 48 still covers a typical
    /// unpadded snippet (~33 tokens, Table 7) — truncating harder would
    /// cut off the very tokens the task hinges on.
    pub fn tiny(vocab: usize) -> Self {
        Self {
            vocab,
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 48,
            dropout: 0.0,
            n_classes: 2,
        }
    }

    /// Per-head width.
    pub fn d_head(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Validates invariants; call before building a model.
    pub fn validate(&self) -> Result<(), String> {
        if self.vocab == 0 {
            return Err("vocab must be positive".into());
        }
        if self.d_model == 0 || self.n_heads == 0 || !self.d_model.is_multiple_of(self.n_heads) {
            return Err(format!(
                "d_model {} must be a positive multiple of n_heads {}",
                self.d_model, self.n_heads
            ));
        }
        if self.max_len < 2 {
            return Err("max_len must fit CLS plus at least one token".into());
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(format!("dropout {} outside [0,1)", self.dropout));
        }
        if self.n_classes < 2 {
            return Err("need at least two classes".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_validate() {
        assert!(ModelConfig::small(1000).validate().is_ok());
        assert!(ModelConfig::paper(1000).validate().is_ok());
        assert!(ModelConfig::tiny(10).validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ModelConfig::tiny(10);
        c.n_heads = 3; // 16 % 3 != 0
        assert!(c.validate().is_err());
        c = ModelConfig::tiny(0);
        assert!(c.validate().is_err());
        c = ModelConfig::tiny(10);
        c.max_len = 1;
        assert!(c.validate().is_err());
        c = ModelConfig::tiny(10);
        c.dropout = 1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn d_head_divides() {
        let c = ModelConfig::small(100);
        assert_eq!(c.d_head() * c.n_heads, c.d_model);
    }
}
