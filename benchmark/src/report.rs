//! One run's result: the human-readable listing and the one-line JSON
//! object the driver reads, plus the result-file format `compare` reads.

use std::fmt::Write as _;

use caliper_format::Json;

use crate::calib::Timed;
use crate::spec;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name (must be in [`spec`]).
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// How it was obtained, e.g. `median of 12`.
    pub how: String,
}

/// Collects a run's metrics.
pub struct Metrics {
    /// What was measured so far.
    pub list: Vec<Measured>,
    /// The run's median machine speed relative to the reference (1.0
    /// until the run's calibration is in); printed, not applied — each
    /// sample carries the speed around it.
    pub speed: f64,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            list: Vec::new(),
            speed: 1.0,
        }
    }
}

impl Metrics {
    /// Record `name = value`.
    pub fn put(&mut self, name: &str, value: f64, how: impl Into<String>) {
        debug_assert!(spec::find(name).is_some(), "unknown metric {name}");
        self.list.push(Measured {
            name: name.to_string(),
            value,
            how: how.into(),
        });
    }

    /// Record the median of `samples` scaled by `scale`. An empty
    /// sample (its stage failed outright) records NaN, which fails the
    /// run when the result is validated.
    pub fn median(&mut self, name: &str, samples: &[f64], scale: f64) {
        let value = if samples.is_empty() {
            f64::NAN
        } else {
            crate::stats::median(samples) * scale
        };
        let best = samples.iter().copied().fold(f64::INFINITY, f64::min) * scale;
        let worst = samples.iter().copied().fold(0.0, f64::max) * scale;
        self.put(
            name,
            value,
            format!("median of {}, range {best:.4} .. {worst:.4}", samples.len()),
        );
    }

    /// Record the median of `samples`, each at reference machine speed
    /// (see [`crate::calib`]), scaled by `scale`.
    pub fn median_at_reference(&mut self, name: &str, samples: &[Timed], scale: f64) {
        if samples.is_empty() {
            return self.put(name, f64::NAN, "no samples");
        }
        let at_reference: Vec<f64> = samples.iter().map(Timed::at_reference).collect();
        let raw = crate::stats::median(&crate::calib::raw(samples)) * scale;
        self.put(
            name,
            crate::stats::median(&at_reference) * scale,
            self.how(samples.len(), raw),
        );
    }

    /// Record `work ÷ median(seconds)`, each sample at reference machine
    /// speed: the rate at the median run time.
    pub fn rate_at_reference(&mut self, name: &str, work: usize, seconds: &[Timed]) {
        if seconds.is_empty() {
            return self.put(name, f64::NAN, "no samples");
        }
        let at_reference: Vec<f64> = seconds.iter().map(Timed::at_reference).collect();
        let raw = work as f64 / crate::stats::median(&crate::calib::raw(seconds));
        self.put(
            name,
            work as f64 / crate::stats::median(&at_reference),
            self.how(seconds.len(), raw),
        );
    }

    fn how(&self, samples: usize, raw: f64) -> String {
        format!(
            "median of {samples} at reference speed; raw {raw:.4} at machine speed {:.3}",
            self.speed
        )
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Every output matched and every operation succeeded.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, or with wrong output.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Measured>,
}

impl RunResult {
    /// Check the result against the metric lists: every expected
    /// metric once, nothing else, every value finite. End-to-end
    /// metrics must also be non-zero.
    pub fn validate(&self) -> Result<(), String> {
        let expected: &[spec::MetricDef] = if self.trace {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        };
        for def in expected {
            let found: Vec<_> = self.metrics.iter().filter(|m| m.name == def.name).collect();
            match found.as_slice() {
                [m] if !m.value.is_finite() => return Err(format!("{} is {}", m.name, m.value)),
                [m] if !self.trace && m.value <= 0.0 => {
                    return Err(format!("{} is {}", m.name, m.value))
                }
                [_] => {}
                [] => return Err(format!("{} was not measured", def.name)),
                _ => return Err(format!("{} was measured twice", def.name)),
            }
        }
        if self.metrics.len() != expected.len() {
            return Err("a metric outside the benchmark's lists was reported".to_string());
        }
        Ok(())
    }

    /// `name value unit (how)` per metric, then the failure share.
    pub fn human(&self) -> String {
        let why = spec::WORKLOADS
            .iter()
            .find(|(name, _)| *name == self.workload)
            .map_or("", |w| w.1);
        let mut out = format!(
            "# workload={} seed={} trace={} correct={}\n# why: {why}\n",
            self.workload, self.seed, self.trace as u8, self.correct
        );
        for m in &self.metrics {
            let unit = spec::find(&m.name).map_or("", |d| d.unit);
            let _ = writeln!(
                out,
                "{:<36} {:>16.4} {:<10} ({})",
                m.name, m.value, unit, m.how
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<36} {share:>16.4} {:<10} ({} failed of {} attempted)",
            "failed_share", "share", self.failed, self.attempted
        );
        out
    }

    fn metrics_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let unit = spec::find(&m.name).map_or("", |d| d.unit);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    m.name, m.value
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn contract_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// One element of a result file's `runs` array.
    pub fn file_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.workload,
            self.seed,
            self.trace,
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// Parse one element of a result file's `runs` array.
    pub fn from_json(j: &Json) -> Option<RunResult> {
        let text = |key: &str| match j.get(key) {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let flag = |key: &str| match j.get(key) {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        };
        let num = |key: &str| j.get(key).and_then(Json::as_num);
        let Some(Json::Object(metrics)) = j.get("metrics") else {
            return None;
        };
        Some(RunResult {
            workload: text("workload")?,
            seed: num("seed")? as u64,
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    Some(Measured {
                        name: name.clone(),
                        value: m.get("value")?.as_num()?,
                        how: String::new(),
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// A result file: `{"runs": [ … ]}`.
pub fn file_json(runs: &[RunResult]) -> String {
    let items: Vec<String> = runs.iter().map(RunResult::file_json).collect();
    format!("{{\"runs\": [\n{}\n]}}\n", items.join(",\n"))
}

/// Parse a result file.
pub fn parse_file(text: &str) -> Result<Vec<RunResult>, String> {
    let json = caliper_format::parse_json(text).map_err(|e| format!("{e:?}"))?;
    match json.get("runs") {
        Some(Json::Array(items)) => items
            .iter()
            .map(|j| RunResult::from_json(j).ok_or_else(|| "malformed run entry".to_string()))
            .collect(),
        _ => Err("no \"runs\" array".to_string()),
    }
}
