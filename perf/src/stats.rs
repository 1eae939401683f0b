//! Summary statistics for timing samples.
//!
//! A timing is reported as its median plus a tail: the highest
//! percentile that still has at least ten samples beyond it, capped at
//! p99 (reached at 1000 samples). The sample count travels with both.

/// Samples beyond the tail value that the tail rule demands.
const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); NaN
/// for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail value and the percentile it stands for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Its percentile: 99 from 1000 samples on, `100·(n − 10)/n` below
    /// that, and 100 (the maximum) under 11 samples, where no rank has
    /// ten samples beyond it.
    pub percentile: f64,
}

/// The tail of `values` by the rule in the module docs; NaN for no
/// samples.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
        };
    }
    let (index, percentile) = if n >= 100 * TAIL_BEYOND {
        // Nearest rank of p99: ⌈0.99·n⌉, 1-based.
        ((99 * n).div_ceil(100) - 1, 99.0)
    } else if n > TAIL_BEYOND {
        (
            n - TAIL_BEYOND - 1,
            100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        )
    } else {
        (n - 1, 100.0)
    };
    Tail {
        value: v[index],
        percentile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000));
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
        assert_eq!(ramp(1000).iter().filter(|&&x| x > t.value).count(), 10);
        let t = tail(&ramp(5000));
        assert_eq!((t.value, t.percentile), (4950.0, 99.0));
    }

    #[test]
    fn tail_below_1000_samples_keeps_exactly_ten_beyond() {
        let t = tail(&ramp(100));
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
        let t = tail(&ramp(40));
        assert_eq!((t.value, t.percentile), (30.0, 75.0));
        let t = tail(&ramp(11));
        assert_eq!((t.value, t.percentile), (1.0, 100.0 / 11.0));
    }

    #[test]
    fn tail_of_too_few_samples_is_the_maximum() {
        let t = tail(&ramp(7));
        assert_eq!((t.value, t.percentile), (7.0, 100.0));
        assert!(tail(&[]).value.is_nan());
    }
}
