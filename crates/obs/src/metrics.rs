//! Process-global metrics registry: counters, gauges, and histograms with
//! fixed power-of-two log-scale buckets.
//!
//! The registry is off by default; every recording call starts with one
//! relaxed atomic load and returns immediately while disabled. When
//! enabled (via [`enable`]), values accumulate under their metric name in
//! a `BTreeMap`, so a drained [`MetricsSnapshot`] is always name-sorted.
//!
//! # The `det` flag
//!
//! Each metric is tagged deterministic (`det: true`) or not. Deterministic
//! metrics — node/edge counts, cache hit/miss totals, prune events,
//! interner occupancy — are part of the jobs-invariance contract: their
//! final values must be identical for any `--jobs` count. Nondeterministic
//! metrics (`*_nd` recording functions: pool steals, queue depth, worker
//! counts, anything timing-derived) are reported but excluded from golden
//! comparisons via [`MetricsSnapshot::det_only`]. Mixing both kinds under
//! one name demotes the metric to nondeterministic.
//!
//! Counter totals are commutative, so per-event increments from pool
//! workers stay deterministic as long as the *set* of events is.

use crate::json::{escape_into, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<BTreeMap<String, Metric>>> = Mutex::new(None);

/// Whether the registry is currently collecting.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts collecting into a fresh registry (drops any prior contents).
pub fn enable() {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(BTreeMap::new());
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops collecting and drains the registry into a snapshot.
pub fn take() -> MetricsSnapshot {
    ENABLED.store(false, Ordering::Relaxed);
    let metrics = REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .unwrap_or_default();
    MetricsSnapshot { metrics }
}

/// One recorded metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic sum of increments.
    Counter(u64),
    /// Last-written (or max-merged) instantaneous value.
    Gauge(i64),
    /// Log-scale histogram: `buckets` maps a power-of-two exponent `e`
    /// (samples `v` with `2^(e-1) <= v < 2^e`; `e = 0` holds `v = 0`) to
    /// its sample count.
    Hist {
        count: u64,
        sum: u64,
        buckets: Vec<(u32, u64)>,
    },
}

/// A metric plus its determinism tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    pub value: MetricValue,
    pub det: bool,
}

/// Adds to a **deterministic** counter.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        record_counter(name, delta, true);
    }
}

/// Adds to a **nondeterministic** counter (pool steals, refills, ...).
#[inline]
pub fn counter_add_nd(name: &str, delta: u64) {
    if enabled() {
        record_counter(name, delta, false);
    }
}

/// Sets a **deterministic** gauge to `v`.
#[inline]
pub fn gauge_set(name: &str, v: i64) {
    if enabled() {
        record_gauge(name, v, true, false);
    }
}

/// Sets a **nondeterministic** gauge to `v`.
#[inline]
pub fn gauge_set_nd(name: &str, v: i64) {
    if enabled() {
        record_gauge(name, v, false, false);
    }
}

/// Raises a **nondeterministic** gauge to `max(current, v)` — a
/// high-water mark (queue depth, concurrent shard count).
#[inline]
pub fn gauge_max_nd(name: &str, v: i64) {
    if enabled() {
        record_gauge(name, v, false, true);
    }
}

/// Records one sample into a **deterministic** log-scale histogram.
#[inline]
pub fn hist_observe(name: &str, v: u64) {
    if enabled() {
        record_hist(name, v, true);
    }
}

/// Power-of-two bucket exponent for a sample: 0 for 0, else the number of
/// bits needed to represent `v` (1→1, 2..3→2, 4..7→3, ...).
fn bucket_exp(v: u64) -> u32 {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros()
    }
}

fn with_metric(name: &str, det: bool, update: impl FnOnce(&mut MetricValue), fresh: MetricValue) {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let Some(reg) = guard.as_mut() else { return };
    match reg.get_mut(name) {
        Some(m) => {
            m.det &= det;
            update(&mut m.value);
        }
        None => {
            let mut value = fresh;
            update(&mut value);
            reg.insert(name.to_string(), Metric { value, det });
        }
    }
}

fn record_counter(name: &str, delta: u64, det: bool) {
    with_metric(
        name,
        det,
        |v| {
            if let MetricValue::Counter(c) = v {
                *c += delta;
            }
        },
        MetricValue::Counter(0),
    );
}

fn record_gauge(name: &str, val: i64, det: bool, take_max: bool) {
    with_metric(
        name,
        det,
        |v| {
            if let MetricValue::Gauge(g) = v {
                *g = if take_max { (*g).max(val) } else { val };
            }
        },
        MetricValue::Gauge(i64::MIN),
    );
}

fn record_hist(name: &str, sample: u64, det: bool) {
    with_metric(
        name,
        det,
        |v| {
            if let MetricValue::Hist {
                count,
                sum,
                buckets,
            } = v
            {
                *count += 1;
                *sum += sample;
                let exp = bucket_exp(sample);
                match buckets.binary_search_by_key(&exp, |(e, _)| *e) {
                    Ok(i) => buckets[i].1 += 1,
                    Err(i) => buckets.insert(i, (exp, 1)),
                }
            }
        },
        MetricValue::Hist {
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        },
    );
}

/// A drained, name-sorted view of the registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub metrics: BTreeMap<String, Metric>,
}

impl MetricsSnapshot {
    /// The subset of metrics that are part of the determinism contract —
    /// what the golden-trace suite and the CI smoke compare.
    pub fn det_only(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self
                .metrics
                .iter()
                .filter(|(_, m)| m.det)
                .map(|(k, m)| (k.clone(), m.clone()))
                .collect(),
        }
    }

    /// Serializes to line-oriented JSON: a one-line header, one line per
    /// metric (name-sorted, so deterministic metrics diff cleanly), and a
    /// closing line. Parseable by [`MetricsSnapshot::parse`] and by
    /// line-based tools (`grep '"det":true'`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"seal_metrics\":1,\"metrics\":[\n");
        let n = self.metrics.len();
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            out.push_str("{\"name\":\"");
            escape_into(name, &mut out);
            out.push_str("\",");
            match &m.value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!(
                        "\"kind\":\"counter\",\"det\":{},\"value\":{c}",
                        m.det
                    ));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!(
                        "\"kind\":\"gauge\",\"det\":{},\"value\":{g}",
                        m.det
                    ));
                }
                MetricValue::Hist {
                    count,
                    sum,
                    buckets,
                } => {
                    out.push_str(&format!(
                        "\"kind\":\"hist\",\"det\":{},\"count\":{count},\"sum\":{sum},\"buckets\":[",
                        m.det
                    ));
                    for (j, (e, c)) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{e},{c}]"));
                    }
                    out.push(']');
                }
            }
            out.push('}');
            if i + 1 < n {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Parses the output of [`MetricsSnapshot::to_json`]: the file is one
    /// JSON document, read with [`Json::parse`].
    pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
        let doc = Json::parse(text).map_err(|e| format!("malformed metrics file: {e}"))?;
        if doc.get("seal_metrics").is_none() {
            return Err("missing seal_metrics header".to_string());
        }
        let entries = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("metrics file without a metrics array")?;
        let mut metrics = BTreeMap::new();
        for m in entries {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric without a name: {m:?}"))?;
            let bad = |key: &str| format!("metric {name}: missing or bad {key}");
            let u64_of = |key: &str| m.get(key).and_then(Json::as_u64).ok_or_else(|| bad(key));
            let det = m
                .get("det")
                .and_then(Json::as_bool)
                .ok_or_else(|| bad("det"))?;
            let value = match m.get("kind").and_then(Json::as_str) {
                Some("counter") => MetricValue::Counter(u64_of("value")?),
                Some("gauge") => MetricValue::Gauge(
                    m.get("value")
                        .and_then(Json::as_i64)
                        .ok_or_else(|| bad("value"))?,
                ),
                Some("hist") => {
                    let pair = |b: &Json| match b.as_arr()? {
                        [e, c] => Some((u32::try_from(e.as_u64()?).ok()?, c.as_u64()?)),
                        _ => None,
                    };
                    MetricValue::Hist {
                        count: u64_of("count")?,
                        sum: u64_of("sum")?,
                        buckets: m
                            .get("buckets")
                            .and_then(Json::as_arr)
                            .and_then(|bs| bs.iter().map(pair).collect())
                            .ok_or_else(|| bad("buckets"))?,
                    }
                }
                _ => return Err(bad("kind")),
            };
            metrics.insert(name.to_string(), Metric { value, det });
        }
        Ok(MetricsSnapshot { metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The registry is process-global; serialize the tests that use it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = lock();
        ENABLED.store(false, Ordering::Relaxed);
        counter_add("x", 5);
        enable();
        let snap = take();
        assert!(snap.metrics.is_empty());
    }

    #[test]
    fn counters_gauges_hists_accumulate() {
        let _l = lock();
        enable();
        counter_add("c", 2);
        counter_add("c", 3);
        gauge_set("g", -7);
        gauge_max_nd("hw", 3);
        gauge_max_nd("hw", 9);
        gauge_max_nd("hw", 4);
        hist_observe("h", 0);
        hist_observe("h", 1);
        hist_observe("h", 5);
        hist_observe("h", 5);
        let snap = take();
        assert_eq!(snap.metrics["c"].value, MetricValue::Counter(5));
        assert!(snap.metrics["c"].det);
        assert_eq!(snap.metrics["g"].value, MetricValue::Gauge(-7));
        assert_eq!(snap.metrics["hw"].value, MetricValue::Gauge(9));
        assert!(!snap.metrics["hw"].det);
        assert_eq!(
            snap.metrics["h"].value,
            MetricValue::Hist {
                count: 4,
                sum: 11,
                buckets: vec![(0, 1), (1, 1), (3, 2)],
            }
        );
    }

    #[test]
    fn mixed_det_demotes() {
        let _l = lock();
        enable();
        counter_add("m", 1);
        counter_add_nd("m", 1);
        let snap = take();
        assert!(!snap.metrics["m"].det);
        assert_eq!(snap.det_only().metrics.len(), 0);
    }

    #[test]
    fn json_roundtrip() {
        let _l = lock();
        enable();
        counter_add("solver.cache.hits", 41);
        counter_add_nd("pool.steals", 7);
        gauge_set("g \"q\"", -3);
        hist_observe("pdg.nodes_per_build", 130);
        let snap = take();
        let text = snap.to_json();
        let back = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), text);
        // det-only filtering works on the parsed form too.
        assert!(back.det_only().metrics.contains_key("solver.cache.hits"));
        assert!(!back.det_only().metrics.contains_key("pool.steals"));
    }

    #[test]
    fn bucket_exponents() {
        assert_eq!(bucket_exp(0), 0);
        assert_eq!(bucket_exp(1), 1);
        assert_eq!(bucket_exp(2), 2);
        assert_eq!(bucket_exp(3), 2);
        assert_eq!(bucket_exp(4), 3);
        assert_eq!(bucket_exp(u64::MAX), 64);
    }
}
