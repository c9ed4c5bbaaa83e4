//! What one benchmark run reports: named metrics with units, operation
//! counts, correctness errors and provenance details, printed as a table
//! followed by the one-line JSON result.

use crate::stats;
use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (jobs, or queued requests plus probes).
    pub attempted: u64,
    /// Operations that failed: jobs not completed, non-finite estimates,
    /// requests lost or duplicated by the drain, and every operation of a
    /// repetition whose simulated outcome broke bit-identity.
    pub failed: u64,
    /// Correctness violations, each naming the workload.
    pub errors: Vec<String>,
    /// Context printed before the result: provenance, sample counts,
    /// attribution.
    pub details: Vec<(String, String)>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Appends a detail line.
    pub fn detail(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.details.push((key.into(), value.into()));
    }

    /// Records `admissions_per_s`, `admit_p50_ms` and `admit_tail_ms` from
    /// per-decision latencies in seconds, with the tail's percentile and
    /// sample count as a detail line. Too few samples for a tail (an
    /// 8-tenant workload) report their maximum instead, and say so.
    pub fn admission_latencies(&mut self, workload: &str, samples: &[f64]) {
        if samples.is_empty() {
            self.errors
                .push(format!("{workload}: no admission decisions were timed"));
        }
        let tail_value = match stats::tail(samples) {
            Some(t) => {
                self.detail(
                    "admit_tail",
                    format!(
                        "p{} over {} admission decisions ({} beyond it)",
                        t.percentile, t.samples, t.beyond
                    ),
                );
                t.value
            }
            None => {
                self.detail(
                    "admit_tail",
                    format!(
                        "no percentile has {} of {} admission decisions beyond it; \
                         the maximum is reported",
                        stats::TAIL_MIN_BEYOND,
                        samples.len()
                    ),
                );
                samples.iter().copied().fold(f64::NAN, f64::max)
            }
        };
        let spent: f64 = samples.iter().sum();
        self.metric("admissions_per_s", "1/s", samples.len() as f64 / spent);
        let p50 = if samples.is_empty() {
            f64::NAN
        } else {
            stats::median(samples)
        };
        self.metric("admit_p50_ms", "ms", p50 * 1e3);
        self.metric("admit_tail_ms", "ms", tail_value * 1e3);
    }

    /// Whether the run passed every correctness check.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The human-readable lines printed before the result.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.details {
            let _ = writeln!(out, "# {key}: {value}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "# ERROR: {e}");
        }
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "# failed_ratio: {failed_ratio} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<32} {:>18} {}",
                m.name,
                format_number(m.value),
                m.unit
            );
        }
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                format_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never valid JSON) become `null`, and the run that
/// produced them is marked incorrect by its caller.
fn format_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Quotes `s` as a JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_result_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 8,
            ..Outcome::default()
        };
        o.metric("run_wall_s", "s", 1.25);
        o.metric("setup_s", "s", 0.5);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": {\
             \"run_wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_and_errors_make_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 4,
            failed: 1,
            ..Outcome::default()
        };
        assert!(!o.correct());
        o.failed = 0;
        o.errors.push("dm_contended: mismatch".into());
        assert!(!o.correct());
        assert!(o.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn admission_tail_falls_back_to_the_maximum_of_few_samples() {
        let mut o = Outcome::default();
        o.admission_latencies("dm_contended", &[0.002, 0.001, 0.004, 0.003]);
        let value = |name: &str| {
            o.metrics
                .iter()
                .find(|m| m.name == name)
                .expect("metric recorded")
                .value
        };
        assert_eq!(value("admit_tail_ms"), 4.0);
        assert_eq!(value("admit_p50_ms"), 2.5);
        assert_eq!(value("admissions_per_s"), 400.0);
        assert!(o.correct());

        let many: Vec<f64> = (1..=40).map(f64::from).collect();
        let mut o = Outcome::default();
        o.admission_latencies("small_jobs_fleet", &many);
        let tail = o.metrics.iter().find(|m| m.name == "admit_tail_ms");
        assert_eq!(tail.map(|m| m.value), Some(30_000.0));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
