//! Order statistics, obs-registry snapshots and the result record.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Splits `xs`, in sample order, into consecutive windows of about `per`
/// samples each and returns the median over the windows of `f` on each.
/// Every sample lies in a window, and a spell of host noise moves only
/// the windows it falls in, not the run's figure.
pub fn window_median(xs: &[f64], per: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    let k = (xs.len() / per.max(1)).max(1);
    let n = xs.len();
    let per_window: Vec<f64> = (0..k).map(|i| f(&xs[i * n / k..(i + 1) * n / k])).collect();
    median(&per_window)
}

/// Every sample of the Prometheus exposition, keyed both by full series
/// (`name{labels}`) and by family name with its series summed.
/// Histogram families show up as `<name>_sum` and `<name>_count`.
pub fn obs_snapshot() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in pragformer_obs::render_prometheus().lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.rsplit_once(' ') else { continue };
        let Ok(v) = value.parse::<f64>() else { continue };
        if let Some((name, _)) = key.split_once('{') {
            *out.entry(name.to_string()).or_insert(0.0) += v;
        }
        *out.entry(key.to_string()).or_insert(0.0) += v;
    }
    out
}

/// `after - before` for one family.
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Adds `after - before` of every series to `acc`.
pub fn add_deltas(
    acc: &mut BTreeMap<String, f64>,
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) {
    for (name, v) in after {
        *acc.entry(name.clone()).or_insert(0.0) += v - before.get(name).copied().unwrap_or(0.0);
    }
}

/// `after - before` of every series.
pub fn deltas(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let mut acc = BTreeMap::new();
    add_deltas(&mut acc, before, after);
    acc
}

/// Ratio that reads 0 when nothing happened.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub checks: Vec<(&'static str, bool, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push((name, ok, detail));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }
}

/// FNV-1a over a stream of byte chunks: the advice digest later commits
/// compare bit for bit.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
