//! What a run hands back: the op tally, the metrics by name, and the
//! result line the driver reads.

use crate::json::Value;
use crate::spec::{self, Workload};

/// Ops attempted and failed. An op fails on a typed error, a refusal or
/// a wrong answer; any failure fails the run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one op; `ok == false` prints why it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                println!("FAILED op: {}", what());
            }
        }
    }

    /// Counts `n` ops that cannot fail individually (already checked).
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }
}

#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    pub traced: bool,
    pub tally: Tally,
    /// A workload-validity assert did not hold (traced runs).
    pub invalid: bool,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(workload: Workload, traced: bool) -> Report {
        Report {
            workload,
            traced,
            tally: Tally::default(),
            invalid: false,
            metrics: Vec::new(),
        }
    }

    /// Records a metric and prints it with its unit and sample count.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: &str) {
        let m = spec::find(name).unwrap_or_else(|| panic!("metric {name} is not in the spec"));
        println!("{:<28} {:>14.4} {:<6} ({samples})", name, value, m.unit);
        self.metrics.push((name, value));
    }

    /// Enforces a workload-validity assert: prints it either way.
    pub fn valid(&mut self, ok: bool, what: &str) {
        println!("validity: {} — {what}", if ok { "ok" } else { "VIOLATED" });
        if !ok {
            self.invalid = true;
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && !self.invalid
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the metrics being every end-to-end metric
    /// (untraced) or every per-layer metric (traced), in spec order.
    pub fn result_line(&self) -> String {
        let wanted = if self.traced {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        let metrics = wanted.iter().map(|m| {
            let v = self
                .get(m.name)
                .unwrap_or_else(|| panic!("{} did not report {}", self.workload.name(), m.name));
            (
                m.name,
                Value::obj([("value", Value::Num(v)), ("unit", Value::str(m.unit))]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_string()
    }
}
