//! The result line a run prints last.

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Steps attempted (grid points or executive rounds).
    pub attempted: u64,
    /// Steps that errored or whose output check mismatched.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result. Values print in Rust's shortest
    /// round-trip form, so every measured digit survives.
    pub fn json_line(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for &(name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        o.metric("job_s", 1.25, "s");
        o.metric("peak_rss_mb", 130.0, "MB");
        let line = o.json_line().expect("finite");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"job_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 130, \"unit\": \"MB\"}}}"
        );
        o.failed = 1;
        assert!(!o.correct());
        o.metric("bad", f64::NAN, "s");
        assert!(o.json_line().is_err());
    }
}
