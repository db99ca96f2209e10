//! The per-layer cost ledger, derived from traced runs.
//!
//! Each traced op yields a `seal_obs` span forest and a metrics snapshot.
//! A span's *self time* is its duration minus its attached children, and
//! minus the detached task roots it issued: `infer.patch` and
//! `detect.shard` are opened with `task_span!`, so they land in the forest
//! as separate roots instead of as children of the call that started
//! them. Subtracting them from their issuer is what keeps the layers
//! summing to the op's wall time at `jobs = 1` (at `jobs > 1` they sum to
//! busy time, and `runtime.busy_frac` relates that to wall × lanes).
//! `seal stats` skips this subtraction, which is why it books nearly all
//! of a hunt's detection time to `cli.detect` itself.
//!
//! Every span name maps to one layer in [`SPAN_LAYERS`]. A name missing
//! from the table is booked to the residual, and the unit test over a
//! traced hunt fails, so a new span is added to the ledger on purpose.

use crate::report::Metric;
use crate::stats::median;
use seal::obs::metrics::MetricValue;
use seal::obs::{MetricsSnapshot, SpanRec, TraceData};
use std::collections::BTreeMap;

/// Self time attributed to no named layer.
pub const RESIDUAL: &str = "residual";
/// Time spent waiting for input rather than working; booked nowhere.
pub const WAIT: &str = "wait";

/// The ledger layer of every span the benchmark or the program emits.
/// `bench.*` spans are opened by the benchmark around each public call it
/// makes; the rest come from the program.
pub const SPAN_LAYERS: &[(&str, &str)] = &[
    ("bench.op", RESIDUAL),
    ("bench.kir", "kir"),
    ("frontend.compile", "kir"),
    ("bench.lower", "ir"),
    ("ir.lower", "ir"),
    ("bench.infer", "core.infer"),
    ("infer.patch", "core.infer"),
    ("patch.compile", "core.infer"),
    ("infer.diff", "core.diff"),
    ("infer.extract", "core.extract"),
    ("pdg.build", "pdg"),
    ("detect.search", "core.search"),
    ("bench.detect", "core.detect"),
    ("detect.shard", "core.shard"),
    ("bench.store.open", "store.open"),
    ("bench.store.flush", "store.flush"),
    // The request path. `cli.detect` also covers the target frontend on
    // a module-cache miss: `compile_many` has no span of its own.
    ("bench.request", "serve.cli"),
    ("cli.infer", "serve.cli"),
    ("cli.detect", "serve.cli"),
    ("serve.request", "serve.request"),
    // A connection span lasts while the client is idle between requests.
    ("serve.conn", WAIT),
    // Scale phases; chunk compilation has no span of its own and stays in
    // `scale.prepare`.
    ("bench.scale.prepare", "scale.prepare"),
    ("bench.scale.finish", "scale.finish"),
];

/// Detached task roots and the spans that may have issued them, in order
/// of preference; the first issuer present in the trace pays for them.
/// The per-patch spans appear as roots only when `seal::scale` infers on
/// pool workers, where nothing wraps them in a task span.
const TASK_ROOT_CALLERS: &[(&str, &[&str])] = &[
    ("infer.patch", &["cli.infer", "bench.infer"]),
    (
        "detect.shard",
        &["cli.detect", "bench.detect", "bench.scale.finish"],
    ),
    ("patch.compile", &["bench.scale.prepare"]),
    ("infer.diff", &["bench.scale.prepare"]),
    ("infer.extract", &["bench.scale.prepare"]),
];

/// The layer a span name is booked to, if the ledger knows the name.
pub fn layer_of(name: &str) -> Option<&'static str> {
    SPAN_LAYERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, layer)| *layer)
}

/// Self time in microseconds per span name over one trace, with detached
/// task roots subtracted from their issuer. Clamped at zero: at `jobs > 1`
/// the issued busy time can exceed the issuer's wall time.
pub fn self_us(trace: &TraceData) -> BTreeMap<&'static str, f64> {
    fn walk(r: &SpanRec, by: &mut BTreeMap<&'static str, f64>) {
        let children: u64 = r.children.iter().map(|c| c.dur_us).sum();
        *by.entry(r.name).or_default() += r.dur_us as f64 - children as f64;
        for c in &r.children {
            walk(c, by);
        }
    }
    let mut by = BTreeMap::new();
    for r in &trace.roots {
        walk(r, &mut by);
    }
    for r in &trace.roots {
        let issuers = TASK_ROOT_CALLERS
            .iter()
            .find(|(n, _)| *n == r.name)
            .map(|(_, i)| *i);
        if let Some(issuer) = issuers.and_then(|i| i.iter().find(|i| by.contains_key(*i))) {
            *by.get_mut(issuer).expect("issuer is present") -= r.dur_us as f64;
        }
    }
    for v in by.values_mut() {
        *v = v.max(0.0);
    }
    by
}

/// Every span name in a trace that [`SPAN_LAYERS`] does not list.
pub fn unknown_spans(trace: &TraceData) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = trace
        .flatten()
        .into_iter()
        .map(|(_, r)| r.name)
        .filter(|n| layer_of(n).is_none())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Per-layer metrics in `BENCHMARK.json` order, with their units. Layer
/// time is reported as its share of the traced ops' busy time, with
/// `ledger.busy_ms` as the scale (share × busy_ms = ms per op): a layer a
/// workload never enters reads 0 as a share, not as a constant time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kir.share", "ratio"),
    ("kir.units", "count"),
    ("ir.share", "ratio"),
    ("ir.functions", "count"),
    ("core.infer.share", "ratio"),
    ("core.diff.share", "ratio"),
    ("core.extract.share", "ratio"),
    ("core.specs", "count"),
    ("pdg.share", "ratio"),
    ("pdg.builds", "count"),
    ("pdg.nodes", "count"),
    ("pdg.edges", "count"),
    ("core.search.share", "ratio"),
    ("slice.paths", "count"),
    ("solver.queries", "count"),
    ("solver.sat_calls", "count"),
    ("solver.memo_hit_ratio", "ratio"),
    ("core.detect.share", "ratio"),
    ("core.shard.share", "ratio"),
    ("core.detect.regions", "count"),
    ("core.detect.skipped", "count"),
    ("core.detect.reports", "count"),
    ("core.detect.yield", "ratio"),
    ("runtime.pool.tasks", "count"),
    ("runtime.pool.parks", "count"),
    ("runtime.busy_frac", "ratio"),
    ("store.open.share", "ratio"),
    ("store.flush.share", "ratio"),
    ("store.bytes", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_read", "bytes"),
    ("cache.invalidations", "count"),
    ("warm.hits", "count"),
    ("warm.misses", "count"),
    ("warm.hit_ratio", "ratio"),
    ("warm.evictions", "count"),
    ("serve.request.share", "ratio"),
    ("serve.cli.share", "ratio"),
    ("serve.wait_frac", "ratio"),
    ("serve.conn_errors", "count"),
    ("scale.prepare.share", "ratio"),
    ("scale.finish.share", "ratio"),
    ("scale.chunks", "count"),
    ("spill.writes", "count"),
    ("spill.reads", "count"),
    ("spill.bytes_written", "bytes"),
    ("spill.bytes_read", "bytes"),
    ("ledger.busy_ms", "ms"),
    ("ledger.residual_frac", "ratio"),
    ("ledger.trace_overhead_frac", "ratio"),
];

/// Accumulates the traced ops of one workload run.
#[derive(Default)]
pub struct Ledger {
    /// Traced ops (for the daemon: traced requests).
    ops: usize,
    /// Summed self time per span name, µs.
    self_us: BTreeMap<&'static str, f64>,
    /// Summed counters. Besides the program's own, the benchmark records
    /// `bench.kir.units` (target units it compiled), `store.bytes` and
    /// `scale.chunks` into the same registry while an op is traced.
    counts: BTreeMap<String, f64>,
    /// Summed wall time of the traced ops, µs.
    wall_us: f64,
    /// `serve.request` durations, ms.
    server_ms: Vec<f64>,
    /// Unknown span names seen (booked to the residual).
    unknown: Vec<&'static str>,
}

impl Ledger {
    /// Books one traced window of `ops` ops that took `wall_us` in total.
    pub fn add(&mut self, ops: usize, wall_us: f64, trace: &TraceData, snap: &MetricsSnapshot) {
        self.ops += ops;
        self.wall_us += wall_us;
        for (name, us) in self_us(trace) {
            *self.self_us.entry(name).or_default() += us;
        }
        for (_, r) in trace.flatten() {
            if r.name == "serve.request" {
                self.server_ms.push(r.dur_us as f64 / 1e3);
            }
        }
        for (name, m) in &snap.metrics {
            if let MetricValue::Counter(c) = m.value {
                *self.counts.entry(name.clone()).or_default() += c as f64;
            }
        }
        for name in unknown_spans(trace) {
            if !self.unknown.contains(&name) {
                eprintln!("sealbench: span `{name}` has no ledger layer; booked to the residual");
                self.unknown.push(name);
            }
        }
    }

    fn layer_us(&self, layer: &str) -> f64 {
        self.self_us
            .iter()
            .filter(|(n, _)| layer_of(n).unwrap_or(RESIDUAL) == layer)
            .map(|(_, us)| us)
            .sum()
    }

    /// The per-layer metrics, in [`PER_LAYER`] order. `lanes` is how many
    /// ops can run at once (workers or connections); `traced_ms` and
    /// `untraced_ms` are the client-side op latencies of the two halves of
    /// the traced run.
    pub fn metrics(&self, lanes: usize, traced_ms: &[f64], untraced_ms: &[f64]) -> Vec<Metric> {
        let ops = self.ops.max(1) as f64;
        let c = |name: &str| self.counts.get(name).copied().unwrap_or(0.0);
        let per_op = |name: &str| c(name) / ops;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let busy_us: f64 = self
            .self_us
            .iter()
            .filter(|(n, _)| layer_of(n) != Some(WAIT))
            .map(|(_, us)| us)
            .sum();
        let share = |layer: &str| ratio(self.layer_us(layer), busy_us);
        let values = [
            share("kir"),
            (c("frontend.compiles") + c("bench.kir.units")) / ops,
            share("ir"),
            per_op("ir.lower.functions"),
            share("core.infer"),
            share("core.diff"),
            share("core.extract"),
            per_op("infer.specs"),
            share("pdg"),
            per_op("pdg.builds"),
            per_op("pdg.nodes"),
            per_op("pdg.edges"),
            share("core.search"),
            per_op("slice.paths"),
            per_op("detect.solver_queries"),
            per_op("solver.sat.calls"),
            ratio(c("solver.cache.hits"), c("solver.cache.queries")),
            share("core.detect"),
            share("core.shard"),
            per_op("detect.regions"),
            per_op("detect.skipped"),
            per_op("detect.reports"),
            // Reports per examined region. `detect.skipped` counts every
            // region that produced no report, not only instantiation
            // misses, so instantiated regions are not observable.
            ratio(c("detect.reports"), c("detect.regions")),
            per_op("pool.tasks"),
            per_op("pool.park_count"),
            ratio(busy_us, self.wall_us * lanes as f64),
            share("store.open"),
            share("store.flush"),
            per_op("store.bytes"),
            per_op("cache.hits"),
            per_op("cache.misses"),
            ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")),
            per_op("cache.bytes_read"),
            per_op("cache.invalidations"),
            per_op("serve.warm_hits"),
            per_op("serve.warm_misses"),
            ratio(
                c("serve.warm_hits"),
                c("serve.warm_hits") + c("serve.warm_misses"),
            ),
            per_op("serve.evictions"),
            share("serve.request"),
            share("serve.cli"),
            // The part of a client's median wait spent outside the
            // daemon's request span: socket, scheduling, queueing.
            if self.server_ms.is_empty() {
                0.0
            } else {
                1.0 - ratio(median(&self.server_ms), median(traced_ms))
            },
            c("serve.conn_errors"),
            share("scale.prepare"),
            share("scale.finish"),
            per_op("scale.chunks"),
            per_op("spill.writes"),
            per_op("spill.reads"),
            per_op("spill.bytes_written"),
            per_op("spill.bytes_read"),
            busy_us / ops / 1e3,
            share(RESIDUAL),
            ratio(median(traced_ms), median(untraced_ms)) - 1.0,
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, dur_ms: u64, children: Vec<SpanRec>) -> SpanRec {
        SpanRec {
            name,
            fields: Vec::new(),
            dur_us: dur_ms * 1000,
            children,
        }
    }

    #[test]
    fn detached_task_roots_are_subtracted_from_their_issuer() {
        // A request-path hunt at jobs = 1: `cli.detect` took 466 ms, of
        // which 33 ms were its own lowering child and 400 ms ran in two
        // detached `detect.shard` roots. Counting attached children only
        // (what `seal stats` does) books 433 ms to `cli.detect` itself.
        let trace = TraceData {
            roots: vec![
                span(
                    "bench.request",
                    500,
                    vec![
                        span("cli.infer", 30, vec![]),
                        span("cli.detect", 466, vec![span("ir.lower", 33, vec![])]),
                    ],
                ),
                span(
                    "infer.patch",
                    25,
                    vec![
                        span("patch.compile", 10, vec![]),
                        span("infer.diff", 9, vec![]),
                    ],
                ),
                span(
                    "detect.shard",
                    250,
                    vec![
                        span("pdg.build", 100, vec![]),
                        span("detect.search", 140, vec![]),
                    ],
                ),
                span(
                    "detect.shard",
                    150,
                    vec![
                        span("pdg.build", 60, vec![]),
                        span("detect.search", 80, vec![]),
                    ],
                ),
            ],
        };
        let s = self_us(&trace);
        assert_eq!(s["cli.detect"], 33_000.0);
        assert_eq!(s["cli.infer"], 5_000.0);
        assert_eq!(s["bench.request"], 4_000.0);
        assert_eq!(s["detect.shard"], 20_000.0);
        assert_eq!(s["infer.patch"], 6_000.0);
        // The self times partition the op: they sum to its wall time.
        assert_eq!(s.values().sum::<f64>(), 500_000.0);

        let mut ledger = Ledger::default();
        ledger.add(1, 500_000.0, &trace, &MetricsSnapshot::default());
        let m = ledger.metrics(1, &[500.0], &[490.0]);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("ledger.busy_ms"), 500.0);
        assert_eq!(get("serve.cli.share"), (4.0 + 5.0 + 33.0) / 500.0);
        assert_eq!(get("pdg.share"), 160.0 / 500.0);
        assert_eq!(get("core.search.share"), 220.0 / 500.0);
        assert_eq!(get("ledger.residual_frac"), 0.0);
        assert_eq!(get("runtime.busy_frac"), 1.0);
        assert!((get("ledger.trace_overhead_frac") - (500.0 / 490.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn issued_time_beyond_the_issuer_clamps_at_zero() {
        // Two workers: 300 ms of shard busy time inside a 200 ms call.
        let trace = TraceData {
            roots: vec![
                span("bench.scale.finish", 200, vec![]),
                span("detect.shard", 150, vec![]),
                span("detect.shard", 150, vec![]),
            ],
        };
        let s = self_us(&trace);
        assert_eq!(s["bench.scale.finish"], 0.0);
        assert_eq!(s["detect.shard"], 300_000.0);
    }

    #[test]
    fn per_layer_list_has_one_value_per_metric() {
        let m = Ledger::default().metrics(1, &[], &[]);
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(m.iter().all(|x| x.value.is_finite()));
    }
}
