//! Order statistics and the output line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The `q`-quantile of ascending `sorted` values, interpolating linearly
/// between the two nearest ranks; 0 for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// The median of unsorted values.
pub fn median(values: impl IntoIterator<Item = u64>) -> f64 {
    median_f64(values.into_iter().map(|v| v as f64))
}

/// The median of unsorted real values; 0 for none.
pub fn median_f64(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric by name with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7], 0.9), 7.0);
        assert_eq!(quantile(&[10, 20, 30, 40], 0.5), 25.0);
        assert_eq!(quantile(&[10, 20, 30, 40], 1.0), 40.0);
        assert_eq!(median([3, 1, 2]), 2.0);
        assert_eq!(median_f64([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64([]), 0.0);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "p50_us",
                value: 123.456789012,
                unit: "us",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_us\": {\"value\": 123.456789012, \"unit\": \"us\"}}}"
        );
    }
}
