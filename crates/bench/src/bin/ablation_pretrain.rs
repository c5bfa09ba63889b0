//! Ablation A1: does MLM pre-training — the stand-in for the
//! paper's DeepSCC initialization — help the directive task?
//!
//! Trains the directive classifier twice from the same seed: once from
//! random init, once from an encoder pre-trained with the masked-language
//! -model objective on the (unlabeled) training snippets.

use pragformer_bench::{emit, parse_args};
use pragformer_core::encode_dataset;
use pragformer_corpus::{generate, Dataset};
use pragformer_eval::metrics::confusion;
use pragformer_eval::report::{f3, Table};
use pragformer_model::mlm::{pretrain, MlmSequence};
use pragformer_model::trainer::Trainer;
use pragformer_model::PragFormer;
use pragformer_tensor::init::SeededRng;
use pragformer_tokenize::Representation;

fn main() {
    let opts = parse_args();
    let scale = opts.scale;
    eprintln!("ablation A1 at {scale:?} scale: scratch vs MLM-pretrained…");
    let db = generate(&scale.generator(opts.seed));
    let ds = Dataset::directive(&db, opts.seed);
    let (min_freq, max_vocab) = scale.vocab_limits();
    let max_len = scale.model(8).max_len;
    let enc = encode_dataset(&db, &ds, Representation::Text, max_len, min_freq, max_vocab);
    let model_cfg = scale.model(enc.vocab.len());
    let trainer = Trainer::new(scale.train(opts.seed));

    // Arm 1: random initialization.
    let mut rng = SeededRng::new(opts.seed);
    let mut scratch = PragFormer::new(&model_cfg, &mut rng);
    let scratch_history = trainer.fit(&mut scratch, &enc.train, &enc.valid);

    // Arm 2: MLM pre-training on the unlabeled training snippets, with
    // the unlabeled validation split driving best-checkpoint selection
    // (both run on the shared bucketed engine).
    let as_seqs = |examples: &[pragformer_model::trainer::EncodedExample]| {
        examples.iter().map(|e| MlmSequence { ids: e.ids.clone() }).collect::<Vec<_>>()
    };
    let mlm_cfg = scale.mlm_train(opts.seed ^ 0x31AC);
    eprintln!("pre-training MLM for {} epochs…", mlm_cfg.epochs);
    let (state, mlm_history) =
        pretrain(&model_cfg, &as_seqs(&enc.train), &as_seqs(&enc.valid), &mlm_cfg);
    let mut rng2 = SeededRng::new(opts.seed);
    let mut pretrained = PragFormer::new(&model_cfg, &mut rng2);
    let restored = pretrained.load_state_dict(&state);
    let mlm_losses: Vec<f32> = mlm_history.iter().map(|m| m.train_loss).collect();
    eprintln!("restored {restored} encoder tensors; MLM losses {mlm_losses:?}");
    let pretrained_history = trainer.fit(&mut pretrained, &enc.train, &enc.valid);

    // Test-set accuracy of both arms.
    let eval = |model: &mut PragFormer| {
        let preds = pragformer_core::experiments::predict_all(model, &enc.test, 32);
        confusion(&preds, &enc.test_labels).metrics()
    };
    let m_scratch = eval(&mut scratch);
    let m_pre = eval(&mut pretrained);

    let mut t = Table::new(
        "Ablation A1 — MLM pre-training vs from-scratch (directive task)",
        &["Arm", "Test accuracy", "Test F1", "Best valid acc", "Epoch-1 valid acc"],
    );
    let best = |h: &[pragformer_model::EpochMetrics]| {
        h.iter().map(|m| m.valid_accuracy).fold(0.0f32, f32::max)
    };
    t.row(&[
        "from scratch".into(),
        f3(m_scratch.accuracy),
        f3(m_scratch.f1),
        f3(best(&scratch_history) as f64),
        f3(scratch_history[0].valid_accuracy as f64),
    ]);
    t.row(&[
        "MLM-pretrained".into(),
        f3(m_pre.accuracy),
        f3(m_pre.f1),
        f3(best(&pretrained_history) as f64),
        f3(pretrained_history[0].valid_accuracy as f64),
    ]);
    emit("ablation_pretrain", &t);
    println!("paper analogue: DeepSCC initialization \"provides an apt starting point\" (§4.1)");
}
