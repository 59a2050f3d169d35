//! Order statistics and seed derivation.

/// The `p`-th percentile (`0.0..=100.0`) of `values` by the nearest-rank
/// method: the smallest sample with at least `p`% of the samples at or
/// below it. Every result is an observed sample, never an interpolation.
/// `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median: the middle sample, or the mean of the two middle samples
/// of an even-sized slice. `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The geometric mean of positive ratios (how ratios to a baseline are
/// averaged). `None` for an empty slice or a non-positive ratio.
pub fn geomean(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() || ratios.iter().any(|&r| r <= 0.0 || !r.is_finite()) {
        return None;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
    Some((log_sum / ratios.len() as f64).exp())
}

/// Derives the seed of one named input stream from the workload seed:
/// FNV-1a over the label, mixed with the seed through SplitMix64. The
/// same `(seed, label)` always gives the same value, and different labels
/// give unrelated streams, so adding a stream never shifts another one.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(seed ^ splitmix64(h))
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates shuffle of `0..n`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}
