//! Medians, metrics and the result line.

use crate::Checked;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median of `reps` timings of `run`, in nanoseconds per `units` of
/// work.
pub fn ns_per(reps: usize, units: usize, mut run: impl FnMut()) -> f64 {
    ns_per_fresh(reps, units, || (), |_| run())
}

/// [`ns_per`] on fresh state from `make` for every repetition; building
/// and dropping the state are outside the timed region.
pub fn ns_per_fresh<S>(
    reps: usize,
    units: usize,
    mut make: impl FnMut() -> S,
    mut run: impl FnMut(&mut S),
) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut state = make();
            let t = std::time::Instant::now();
            run(&mut state);
            let ns = t.elapsed().as_nanos() as f64;
            drop(state);
            ns / units.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. A non-finite value cannot be written as JSON, so it
/// marks the run incorrect and is written as 0.
pub fn result_json(correct: bool, checked: Checked, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", m.name);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && finite,
        checked.attempted.max(1),
        checked.failed,
        body.join(", ")
    )
}
