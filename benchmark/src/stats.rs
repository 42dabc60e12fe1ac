//! Exact percentiles over raw samples, slice medians, and the metric record
//! the report prints.
//!
//! Latencies are kept as raw nanosecond samples and sorted: a log-bucketed
//! histogram's 3 % bucket width would be a third of the 10 % regression
//! bound.

/// How many equal slices a timed window is cut into. A metric's value is
/// the median of its slice values, so a host stall spoils one slice, not
/// the run.
pub const SLICES: usize = 5;

/// A traced run leaves the recorder off for this many leading slices, so
/// it can price its own tracing against them.
pub const UNTRACED_SLICES: usize = 2;

/// Whether the recorder is on in `slice` of a run.
pub fn traced_slice(traced: bool, slice: usize) -> bool {
    traced && slice >= UNTRACED_SLICES
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1); 0 if empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns its percentile.
pub fn percentile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, q)
}

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Which end of a metric's range is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The decile of `values` at their better end (nearest rank: the smallest
/// of up to ten values, the fourth smallest of forty).
///
/// For the crash cycles, which are tens of milliseconds long. The host
/// slows everything CPU-bound by 20-40 % in bursts of a few hundred
/// milliseconds, so a cycle is either in a burst or not and the cycle
/// times have two modes; their median flips from one mode to the other
/// with the share of the run the bursts cover (that share was near a half
/// while the driver checked, and the medians of identical runs spread by
/// 25-30 %). The bursts only ever add time, so the better decile is the
/// cost on an undisturbed host as long as a tenth of the cycles were.
pub fn better_decile(values: &[f64], better: Better) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    v[v.len().div_ceil(10) - 1]
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Smallest and largest of the slice (or cycle) values behind `value`.
    pub spread: Option<(f64, f64)>,
}

impl Metric {
    /// A single measurement.
    pub fn point(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            spread: None,
        }
    }

    /// The median of per-slice (or per-cycle) values, with min/max as spread.
    pub fn of_slices(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Metric {
            name,
            unit,
            value: median(values),
            spread: (!values.is_empty()).then_some((min, max)),
        }
    }

    /// The [`better_decile`] of per-cycle values, with min/max as spread.
    pub fn of_cycles(
        name: &'static str,
        unit: &'static str,
        values: &[f64],
        better: Better,
    ) -> Metric {
        Metric {
            value: better_decile(values, better),
            ..Metric::of_slices(name, unit, values)
        }
    }
}

/// `num / den`, or 0 when there was nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn better_decile_is_nearest_rank_from_the_better_end() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(better_decile(&v, Better::Lower), 4.0);
        assert_eq!(better_decile(&v, Better::Higher), 37.0);
        assert_eq!(better_decile(&v[..7], Better::Lower), 1.0);
        assert_eq!(better_decile(&v[..11], Better::Lower), 2.0);
        assert_eq!(better_decile(&[], Better::Lower), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
