//! The result line and the output-check ledger.

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics every workload reports.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_us_per_frame: f64,
    pub cpu_us_per_frame: f64,
    pub peak_rss_mb: f64,
    pub gmacs_per_frame: f64,
    pub map_kitti: f64,
    pub map_citypersons: f64,
    pub mean_delay_frames: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub gpu_ms_per_frame: f64,
    pub worker_seconds: f64,
}

impl EndToEnd {
    /// The metrics by name with their units, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("setup_s", self.setup_s, "s"),
            m("wall_us_per_frame", self.wall_us_per_frame, "us"),
            m("cpu_us_per_frame", self.cpu_us_per_frame, "us"),
            m("peak_rss_mb", self.peak_rss_mb, "MB"),
            m("gmacs_per_frame", self.gmacs_per_frame, "GMAC"),
            m("map_kitti", self.map_kitti, "mAP"),
            m("map_citypersons", self.map_citypersons, "mAP"),
            m("mean_delay_frames", self.mean_delay_frames, "frames"),
            m("latency_p50_ms", self.latency_p50_ms, "ms"),
            m("latency_p99_ms", self.latency_p99_ms, "ms"),
            m("gpu_ms_per_frame", self.gpu_ms_per_frame, "ms"),
            m("worker_seconds", self.worker_seconds, "s"),
        ]
    }
}

/// Collects the failures of the output checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `result`; an `Err` is a failed output check.
    pub fn record(&mut self, result: Result<(), String>) {
        if let Err(msg) = result {
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Whether every recorded check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What one benchmark run prints.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result as one JSON object on one line. Values print in Rust's
    /// shortest round-trip form, so every measured digit survives.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `Err(msg())` unless `ok`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
