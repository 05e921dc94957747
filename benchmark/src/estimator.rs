//! Reduction of raw per-cycle samples to the reported numbers.
//!
//! Every round of a workload performs the identical deterministic
//! operation sequence (asserted by checksum before these functions are
//! trusted), so the only thing that differs between rounds is noise,
//! and noise on a shared host is purely additive: a pre-empted or
//! cache-evicted stretch gets slower, never faster. The *quiet-time*
//! estimator exploits that: cut the run into fixed segments, take each
//! segment's time as the minimum over rounds, and sum the minima. It
//! is not valid for runs that do different work per round.

/// Cycles per quiet-time segment. Short enough that a noisy stretch of
/// the host spoils few segments of a round, long enough (about a
/// millisecond on the fastest workload) to span many clock reads. On
/// the reference host, 32 rounds of the `vt` stream repeated within
/// 1.5 % with 20-cycle segments, 2.1 % with 100 and 7.7 % with whole
/// runs.
pub const SEGMENT: usize = 20;

/// Sum over `segment`-cycle segments of the per-segment minimum over
/// rounds. All rounds must have the same length (the last segment may
/// be ragged). Returns 0 for no rounds.
pub fn quiet_time_ns(rounds: &[&[u64]], segment: usize) -> u64 {
    let Some(first) = rounds.first() else {
        return 0;
    };
    let cycles = first.len();
    assert!(
        rounds.iter().all(|r| r.len() == cycles),
        "quiet time needs operation-identical rounds"
    );
    let segment = segment.max(1);
    (0..cycles)
        .step_by(segment)
        .map(|start| {
            let end = (start + segment).min(cycles);
            rounds
                .iter()
                .map(|r| r[start..end].iter().sum::<u64>())
                .min()
                .unwrap_or(0)
        })
        .sum()
}

/// Per-cycle quiet latency: the minimum over rounds at each cycle
/// index.
pub fn quiet_cycles_ns(rounds: &[&[u64]]) -> Vec<u64> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|i| rounds.iter().map(|r| r[i]).min().unwrap_or(0))
        .collect()
}

/// The 1-based nearest rank of percentile `wanted` among `n` sorted
/// samples, lowered until at least ten samples lie beyond it
/// (choosing-metrics §1); the median rank when `n` < 20 cannot afford
/// any tail. The effective percentile is `rank / n`.
pub fn tail_rank(n: usize, wanted: f64) -> usize {
    if n < 20 {
        return n.div_ceil(2).max(1);
    }
    ((wanted * n as f64).ceil() as usize).clamp(1, n - 10)
}

/// The sample of 1-based nearest `rank` among `samples` (any order);
/// 0 for an empty sample. The median is `at_rank(s, s.len().div_ceil(2))`.
pub fn at_rank(samples: &[u64], rank: usize) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v.get(rank.clamp(1, v.len().max(1)) - 1)
        .copied()
        .unwrap_or(0)
}

/// Median and quartiles of a sample, for the spread printed beside
/// every quiet value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// Quartiles by linear interpolation between order statistics.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        n: v.len(),
    }
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_time_takes_segment_minima_across_rounds() {
        // Two segments of two cycles; each round is noisy in a
        // different segment, so the estimate is cleaner than either.
        let a = [10, 10, 90, 10];
        let b = [50, 10, 10, 10];
        assert_eq!(quiet_time_ns(&[&a, &b], 2), 20 + 20);
        // Segment edges matter: with one 4-cycle segment the minimum
        // is a whole round.
        assert_eq!(quiet_time_ns(&[&a, &b], 4), 80);
    }

    #[test]
    fn one_noisy_round_does_not_move_the_estimate() {
        let quiet = vec![7u64; 250];
        let mut noisy = quiet.clone();
        for x in noisy.iter_mut().skip(40).take(120) {
            *x = 700;
        }
        let clean = quiet_time_ns(&[&quiet, &quiet], 100);
        assert_eq!(quiet_time_ns(&[&quiet, &noisy, &quiet], 100), clean);
        assert_eq!(clean, 7 * 250);
    }

    #[test]
    fn ragged_last_segment_is_counted_once() {
        let a: Vec<u64> = (0..250).map(|_| 3).collect();
        assert_eq!(quiet_time_ns(&[&a], 100), 750);
        let b: Vec<u64> = (0..250).map(|i| if i >= 200 { 1 } else { 9 }).collect();
        // Segments 0 and 1 from `a`, ragged segment 2 (50 cycles) from `b`.
        assert_eq!(quiet_time_ns(&[&a, &b], 100), 300 + 300 + 50);
    }

    #[test]
    #[should_panic(expected = "operation-identical")]
    fn rounds_of_different_length_are_refused() {
        quiet_time_ns(&[&[1, 2, 3], &[1, 2]], 2);
    }

    #[test]
    fn quiet_cycles_are_per_index_minima() {
        assert_eq!(quiet_cycles_ns(&[&[5, 9, 2], &[6, 1, 8]]), vec![5, 1, 2]);
        assert!(quiet_cycles_ns(&[]).is_empty());
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(1000, 0.99), 990);
        assert_eq!(tail_rank(6000, 0.99), 5940);
        // 500 samples: p99 would leave only 5 beyond, so rank 490 (p98).
        assert_eq!(tail_rank(500, 0.99), 490);
        assert_eq!(tail_rank(250, 0.99), 240);
        assert_eq!(tail_rank(19, 0.99), 10);
        assert_eq!(tail_rank(1, 0.99), 1);
        for n in 20..1500usize {
            let rank = tail_rank(n, 0.99);
            assert!(n - rank >= 10, "n={n} rank={rank}");
        }
    }

    #[test]
    fn at_rank_is_nearest_rank_of_the_sorted_sample() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(at_rank(&v, 50), 50);
        assert_eq!(at_rank(&v, tail_rank(100, 0.99)), 90);
        assert_eq!(at_rank(&v, 100), 100);
        assert_eq!(at_rank(&v, 0), 1);
        assert_eq!(at_rank(&v, 500), 100);
        assert_eq!(at_rank(&[], 1), 0);
    }

    #[test]
    fn quartiles_interpolate() {
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }
}
