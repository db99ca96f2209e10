//! Output lines. Every line is one JSON object written with
//! `seal::json::escape`, so it parses with `seal::json::Json::parse`.

use seal::json::escape;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, unrounded.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one workload run produced.
pub struct RunReport {
    /// Every correctness check that failed (empty when the run is correct).
    pub failed_checks: Vec<String>,
    /// Ops attempted (timed and untimed, traced and untraced).
    pub attempted: u64,
    /// Ops that failed: a nonzero exit, an `ok:false` response, an item
    /// error, or a store error.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Context printed alongside the metrics: op counts, tail percentile.
    pub info: Vec<Metric>,
}

/// A JSON number with all its digits; `null` for a non-finite value, which
/// no metric should ever produce.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"workload":..,"metric":..,"value":..,"unit":..}`.
pub fn metric_line(workload: &str, m: &Metric) -> String {
    format!(
        "{{\"workload\":\"{}\",\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
        escape(workload),
        escape(m.name),
        num(m.value),
        escape(m.unit)
    )
}

/// The run-set record `--out` appends: a metric line plus the seed and
/// trace flag it was measured with.
pub fn record_line(workload: &str, seed: u64, trace: bool, m: &Metric) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{},\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
        escape(workload),
        u8::from(trace),
        escape(m.name),
        num(m.value),
        escape(m.unit)
    )
}

/// The final summary line: `{"correct","attempted","failed","metrics"}`.
pub fn summary_line(r: &RunReport) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                escape(m.name),
                num(m.value),
                escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.failed_checks.is_empty() && r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal::json::Json;

    fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }

    #[test]
    fn every_line_round_trips_through_the_json_parser() {
        let metrics = vec![
            m("latency_p50_ms", 431.25, "ms"),
            m("items_per_s", 7123.000000001, "1/s"),
            m("precision", 2.0 / 3.0, "ratio"),
            m("tiny", 1e-9, "s"),
            m("huge", 1e22, "count"),
            m("odd \"name\"\n", -0.5, "\\u"),
        ];
        let report = RunReport {
            failed_checks: Vec::new(),
            attempted: 80,
            failed: 0,
            metrics: metrics.clone(),
            info: Vec::new(),
        };
        let mut lines: Vec<String> = metrics
            .iter()
            .map(|x| metric_line("hunt_cold_4x", x))
            .collect();
        lines.extend(metrics.iter().map(|x| record_line("w\t1", 24225, true, x)));
        lines.push(summary_line(&report));
        for line in &lines {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(matches!(v, Json::Obj(_)), "{line}");
        }
        for (x, line) in metrics.iter().zip(&lines) {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("metric").and_then(Json::as_str), Some(x.name));
            assert_eq!(v.get("value").and_then(Json::as_num), Some(x.value));
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(x.unit));
        }
        let summary = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(summary.get("attempted").and_then(Json::as_num), Some(80.0));
        let p = summary.get("metrics").and_then(|ms| ms.get("precision"));
        assert_eq!(
            p.and_then(|p| p.get("value")).and_then(Json::as_num),
            Some(2.0 / 3.0)
        );
    }

    #[test]
    fn a_failed_op_or_check_makes_the_run_incorrect() {
        let mut r = RunReport {
            failed_checks: Vec::new(),
            attempted: 3,
            failed: 1,
            metrics: Vec::new(),
            info: Vec::new(),
        };
        assert!(summary_line(&r).starts_with("{\"correct\":false,"));
        r.failed = 0;
        r.failed_checks.push("reports differ".into());
        assert!(summary_line(&r).starts_with("{\"correct\":false,"));
    }
}
