//! Seeded input generation: C loop snippets drawn from a corpus that the
//! repository's own generator builds from an input seed, malformed
//! variants of them, and Zipf-distributed request streams.
//!
//! Everything here is a pure function of the seed, so one `--seed` gives
//! the same inputs on every commit. The corpus generator models the
//! paper's dataset (Table 3 size, Table 4 lengths), so the inputs have
//! the length mix and naming style the advisor is built for. The only
//! hand-written code fills the short padded buckets the corpus never
//! reaches (see [`filler`]) and breaks snippets for the malformed share.

use pragformer_core::Scale;
use pragformer_corpus::{generate, GeneratorConfig};
use pragformer_model::batching::bucket_len;
use pragformer_tokenize::{tokens_for, Representation};
use std::collections::HashSet;

/// SplitMix64: small, fast and good enough for input generation.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Snippets per batch.
pub const BATCH: usize = 64;

/// Deliberately malformed snippets per batch (about 3%); the universe of
/// `serve_zipf` holds the same share.
pub const MALFORMED_PER_BATCH: usize = 2;

/// Padded lengths of the bucketed forward (`bucket_len` at the paper's
/// `max_len` 110).
const BUCKETS: [usize; 7] = [2, 4, 8, 16, 32, 64, 110];

/// Length classes: one per padded bucket, then the snippets longer than
/// the 110-token cap, which the encoder truncates.
pub const CLASSES: usize = BUCKETS.len() + 1;

/// Names of the length classes, for the description lines.
pub const CLASS_NAMES: [&str; CLASSES] = ["2", "4", "8", "16", "32", "64", "110", "trunc"];

/// The length class of a snippet with `tokens` lexical tokens: its valid
/// length counts the leading `<cls>` as the encoder does.
fn class_of(tokens: usize) -> usize {
    let max_len = Scale::Paper.model(1).max_len;
    let valid = tokens + 1;
    if valid > max_len {
        return CLASSES - 1;
    }
    let bucket = bucket_len(valid, max_len);
    BUCKETS.iter().position(|&b| b == bucket).expect("bucket_len gives a listed bucket")
}

/// Lexical tokens of a snippet as the advisor's encoder sees them.
fn token_count(src: &str) -> usize {
    let stmts = pragformer_cparse::parse_snippet(src).expect("filler snippets parse");
    tokens_for(&stmts, Representation::Text).len()
}

/// One generated input: the source text and whether it was built to fail
/// parsing.
#[derive(Clone)]
pub struct Snippet {
    pub src: String,
    pub malformed: bool,
}

/// The well-formed snippets of one input corpus, by length class.
pub struct Corpus {
    /// Distinct snippet sources of each class, in seeded order.
    classes: Vec<Vec<String>>,
}

impl Corpus {
    /// Generates `records` corpus records from an input seed derived from
    /// `seed` (never the advisor's own corpus) and sorts their loop code
    /// into length classes.
    pub fn generate(seed: u64, records: usize) -> Corpus {
        let mut rng = Rng::new(seed);
        let cfg =
            GeneratorConfig { target_records: records, ..GeneratorConfig::paper(rng.next_u64()) };
        let db = generate(&cfg);
        let mut classes = vec![Vec::new(); CLASSES];
        let mut seen = HashSet::with_capacity(db.len());
        for r in db.records() {
            let src = r.code();
            if seen.insert(src.clone()) {
                classes[class_of(tokens_for(&r.stmts, Representation::Text).len())].push(src);
            }
        }
        for class in &mut classes {
            rng.shuffle(class);
        }
        Corpus { classes }
    }

    /// Snippets per length class: the corpus's measured length histogram.
    pub fn histogram(&self) -> [usize; CLASSES] {
        std::array::from_fn(|c| self.classes[c].len())
    }

    /// Well-formed snippets of each class in every batch of [`BATCH`].
    /// A class the corpus never reaches gets one hand-written [`filler`],
    /// so every padded bucket runs; the other slots follow the corpus's
    /// class shares, rounded by largest remainder.
    pub fn batch_mix(&self) -> [usize; CLASSES] {
        let hist = self.histogram();
        let mut mix = [0usize; CLASSES];
        for (c, m) in mix.iter_mut().enumerate() {
            if hist[c] == 0 && c < BUCKETS.len() {
                *m = 1;
            }
        }
        let slots = BATCH - MALFORMED_PER_BATCH - mix.iter().sum::<usize>();
        let total: usize = hist.iter().sum();
        let exact: Vec<f64> = hist.iter().map(|&h| (h * slots) as f64 / total as f64).collect();
        for c in 0..CLASSES {
            mix[c] += exact[c] as usize;
        }
        let mut order: Vec<usize> = (0..CLASSES).collect();
        order.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = BATCH - MALFORMED_PER_BATCH - mix.iter().sum::<usize>();
        for &c in order.iter().take(short) {
            mix[c] += 1;
        }
        mix
    }

    /// `n` batches of [`BATCH`] distinct snippets, each with exactly the
    /// [`Corpus::batch_mix`] counts and [`MALFORMED_PER_BATCH`] malformed
    /// ones, in shuffled order. Corpus snippets are used once across all
    /// batches while the corpus lasts, so every batch is distinct.
    pub fn batches(&self, rng: &mut Rng, n: usize) -> Vec<Vec<Snippet>> {
        let mix = self.batch_mix();
        let mut next = [0usize; CLASSES];
        let mut take = |c: usize| {
            let class = &self.classes[c];
            let src = class[next[c] % class.len()].clone();
            next[c] += 1;
            src
        };
        let broken_from = (0..CLASSES).max_by_key(|&c| self.classes[c].len()).unwrap_or(0);
        (0..n)
            .map(|_| {
                let mut out: Vec<Snippet> = Vec::with_capacity(BATCH);
                for (c, &count) in mix.iter().enumerate() {
                    for k in 0..count {
                        let src = if self.classes[c].is_empty() { filler(c, k) } else { take(c) };
                        out.push(Snippet { src, malformed: false });
                    }
                }
                for _ in 0..MALFORMED_PER_BATCH {
                    out.push(Snippet { src: malformed(rng, &take(broken_from)), malformed: true });
                }
                rng.shuffle(&mut out);
                out
            })
            .collect()
    }

    /// `n` distinct snippets in seeded order: corpus snippets at the
    /// corpus's own length mix, [`MALFORMED_PER_BATCH`] in every
    /// [`BATCH`] broken. Needs `n` corpus snippets.
    pub fn universe(&self, rng: &mut Rng, n: usize) -> Vec<Snippet> {
        let mut all: Vec<&String> = self.classes.iter().flatten().collect();
        assert!(all.len() >= n, "corpus holds {} snippets, universe needs {n}", all.len());
        rng.shuffle(&mut all);
        let broken = n * MALFORMED_PER_BATCH / BATCH;
        let mut out: Vec<Snippet> = all[..n - broken]
            .iter()
            .map(|s| Snippet { src: (*s).clone(), malformed: false })
            .collect();
        out.extend(
            all[n - broken..n].iter().map(|s| Snippet { src: malformed(rng, s), malformed: true }),
        );
        rng.shuffle(&mut out);
        out
    }
}

/// A well-formed snippet of length class `class`, for the short classes
/// the corpus never reaches (its shortest loops are about 20 tokens).
/// `k` tells the snippets of one batch apart.
fn filler(class: usize, k: usize) -> String {
    let names = ["a", "b", "x", "y", "sum", "val"];
    let (a, b) = (names[k % names.len()], names[(k + 1) % names.len()]);
    let src = match class {
        0 => ";".to_string(),
        1 => format!("{a}++;"),
        2 => format!("{a} = {b};"),
        3 => format!("{a} += {b}[i] * {b}[i];"),
        _ => unreachable!("the corpus fills every class from 32 tokens up"),
    };
    assert_eq!(class_of(token_count(&src)), class, "filler {src:?}");
    src
}

/// Breaks a well-formed loop by unbalancing its parentheses, which no C
/// parser accepts: either the first `)` goes or a second `(` joins the
/// first.
fn malformed(rng: &mut Rng, good: &str) -> String {
    if rng.below(2) == 0 {
        good.replacen(')', "", 1)
    } else {
        good.replacen('(', "((", 1)
    }
}

/// Samples ranks `0..n` with probability proportional to `1 / (rank+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
