//! `seal-obs` — the in-tree observability layer: hierarchical spans,
//! a metrics registry, deterministic trace serialization, and the
//! workspace's one JSON codec.
//!
//! Like everything else in the workspace it is dependency-free, and —
//! because instrumentation rides inside the analysis hot paths — it is
//! engineered to cost one relaxed atomic load per event while *disabled*
//! (the default), with an overhead budget of ≤2% on a full pipeline run.
//!
//! Two independent facilities, plus the codec their files are read with:
//!
//! * [`trace`] — hierarchical **spans** with monotonic timing, recorded
//!   into a per-run, thread-safe [`trace::Trace`]. The resulting span
//!   forest is *deterministic in structure*: span names, fields, nesting,
//!   counts, ordering, and the ids assigned at serialization time are
//!   byte-identical for any worker count and across runs — only the
//!   `dur_us` values vary (the golden-trace suite masks them). See the
//!   determinism contract in DESIGN.md's "Observability".
//! * [`metrics`] — a registry of **counters**, **gauges**, and
//!   **histograms** (fixed power-of-two log-scale buckets). Every metric
//!   carries a `det` flag: deterministic metrics (node counts, cache
//!   hit/miss, prune events, interner occupancy) are part of the
//!   jobs-invariance contract; nondeterministic ones (pool steals, queue
//!   depths, timings) are recorded but excluded from golden comparisons.
//! * [`json`] — the RFC-8259 parser and string escaper. Trace and metrics
//!   files are read with [`json::Json::parse`], and the `seal serve` line
//!   protocol uses the same codec (re-exported as `seal::json`). It
//!   lives here because every workspace crate already depends on this
//!   one, directly or through `seal-store`.
//!
//! Instrumented code uses the [`span!`]/[`task_span!`] macros and the
//! `metrics::counter_add`-family free functions; neither evaluates its
//! arguments when the corresponding facility is disabled.

pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::MetricsSnapshot;
pub use trace::{Span, SpanRec, SpanTotals, Trace, TraceData};

/// Opens a regular span: nests under the innermost open span on the
/// current thread (or becomes a root when there is none). Bind the result
/// (`let _span = span!(..)`) — dropping the guard closes the span.
///
/// ```
/// let _s = seal_obs::span!("pdg.build", funcs = 3);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::Span::enter($name, ::std::time::Instant::now(), ::std::vec::Vec::new())
        } else {
            $crate::trace::Span::disabled()
        }
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        if $crate::trace::enabled() {
            // The span starts before its fields render, so building a
            // label is booked to the span, not to its caller.
            let start = ::std::time::Instant::now();
            $crate::trace::Span::enter(
                $name,
                start,
                ::std::vec![$((stringify!($k), ($v).to_string())),+],
            )
        } else {
            $crate::trace::Span::disabled()
        }
    };
}

/// Opens a **task-root** span: always a root of the trace forest, never a
/// child — regardless of what is open on the current thread. Use for
/// per-item work that may run inline (`jobs = 1`) or on a pool worker
/// (`jobs > 1`): the trace structure is identical either way, which is
/// what makes the span forest jobs-invariant. Task roots are ordered
/// canonically (by name, fields, and subtree shape) at serialization
/// time, not by completion order.
#[macro_export]
macro_rules! task_span {
    ($name:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::Span::root($name, ::std::time::Instant::now(), ::std::vec::Vec::new())
        } else {
            $crate::trace::Span::disabled()
        }
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        if $crate::trace::enabled() {
            // The span starts before its fields render, so building a
            // label is booked to the span, not to its caller.
            let start = ::std::time::Instant::now();
            $crate::trace::Span::root(
                $name,
                start,
                ::std::vec![$((stringify!($k), ($v).to_string())),+],
            )
        } else {
            $crate::trace::Span::disabled()
        }
    };
}
