//! Order statistics for host-time samples: the median, the tail rule of
//! the benchmark — the highest percentile that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it — and best-of-repetitions times
//! of identical work.
//!
//! A shared host slows a process down in bursts (another tenant on the
//! same core), never speeds it up. Work that every repetition repeats bit
//! for bit is therefore timed in matched pieces, and each piece keeps its
//! best time across repetitions: a burst then costs only where it hit the
//! same piece in every repetition.

/// Samples a reported tail percentile must have strictly above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, in thousandths of a percent (so that the
/// rank arithmetic stays in integers and 99.9 is exact).
const TAIL_CANDIDATES_MILLI: [u64; 8] = [
    50_000, 75_000, 90_000, 95_000, 99_000, 99_900, 99_990, 99_999,
];

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One-based nearest rank of percentile `milli` (thousandths of a percent)
/// among `n` samples.
fn rank(n: usize, milli: u64) -> usize {
    (n as u64 * milli).div_ceil(100_000) as usize
}

/// A reported tail: which percentile, its value, and how many samples lie
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (e.g. `99.0`).
    pub percentile: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its nearest rank; `None` when even the median lacks
/// them, so a tail is never invented from too few samples.
///
/// # Panics
///
/// Panics if a sample is NaN.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let milli = TAIL_CANDIDATES_MILLI
        .iter()
        .copied()
        .filter(|&m| n - rank(n, m) >= TAIL_MIN_BEYOND)
        .max()?;
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let k = rank(n, milli);
    Some(Tail {
        percentile: milli as f64 / 1000.0,
        value: v[k - 1],
        beyond: n - k,
        samples: n,
    })
}

/// The element-wise minimum of matched pieces of identical work timed in
/// each of `reps`: the best time every piece took. `None` when there are
/// no repetitions or they split into different numbers of pieces.
pub fn best_of(reps: &[Vec<f64>]) -> Option<Vec<f64>> {
    let (first, rest) = reps.split_first()?;
    if rest.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| rest.iter().fold(first[i], |best, r| best.min(r[i])))
            .collect(),
    )
}

/// Best-of-`k` samples of one repeated operation timed `xs.len()` times in
/// a row: the rounds split into `k` consecutive blocks, and sample `i` is
/// the best of round `i` of every block, so the calls behind one sample
/// lie a block apart. Fewer than `k` rounds make as many blocks as there
/// are rounds; rounds past the last full block are dropped.
pub fn best_of_blocks(xs: &[f64], k: usize) -> Vec<f64> {
    let blocks = k.min(xs.len()).max(1);
    let len = (xs.len() / blocks).max(1);
    let reps: Vec<Vec<f64>> = xs.chunks(len).take(blocks).map(<[f64]>::to_vec).collect();
    best_of(&reps).unwrap_or_default()
}

/// `count (min / median / max)` of host-time samples, for a detail line.
pub fn summary(xs: &[f64]) -> String {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(0.0, f64::max);
    format!("{} ({min:.6} / {:.6} / {max:.6})", xs.len(), median(xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the rule cannot rely on pre-sorted input.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn twenty_samples_give_the_median_as_tail() {
        let t = tail(&ramp(20)).expect("20 samples carry a p50 tail");
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 10.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 20);
    }

    #[test]
    fn forty_samples_give_p75() {
        let t = tail(&ramp(40)).expect("40 samples carry a p75 tail");
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn a_thousand_samples_give_p99() {
        let t = tail(&ramp(1000)).expect("1000 samples carry a p99 tail");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn too_few_samples_report_no_tail() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn best_of_keeps_each_pieces_fastest_repetition() {
        let reps = vec![
            vec![1.0, 5.0, 3.0],
            vec![2.0, 4.0, 6.0],
            vec![3.0, 6.0, 1.0],
        ];
        assert_eq!(best_of(&reps), Some(vec![1.0, 4.0, 1.0]));
        assert_eq!(best_of(&reps[..1]), Some(reps[0].clone()));
        assert_eq!(best_of(&[]), None);
        assert_eq!(best_of(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn best_of_blocks_pairs_rounds_a_block_apart() {
        let xs = [4.0, 1.0, 3.0, 2.0, 9.0];
        assert_eq!(best_of_blocks(&xs, 2), vec![3.0, 1.0]);
        assert_eq!(
            best_of_blocks(&[4.0, 8.0, 1.0, 9.0, 6.0, 2.0], 3),
            vec![1.0, 2.0]
        );
        assert_eq!(best_of_blocks(&[2.0, 1.0], 4), vec![1.0]);
        assert_eq!(best_of_blocks(&[5.0], 4), vec![5.0]);
        assert!(best_of_blocks(&[], 4).is_empty());
    }

    #[test]
    fn every_reported_tail_keeps_ten_samples_beyond_it() {
        for n in 20..3000 {
            let t = tail(&ramp(n)).expect("n >= 20");
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n = {n}");
        }
    }
}
