//! Hierarchical spans with monotonic timing and a deterministic JSONL
//! serialization.
//!
//! # Model
//!
//! A [`Span`] guard opened with [`crate::span!`] nests under the innermost
//! open span *on the same thread* (a thread-local stack); one opened with
//! [`crate::task_span!`] is always a root. Closing a span (dropping the
//! guard) stamps its duration; completed roots are shipped into the
//! installed [`Trace`].
//!
//! # Determinism contract
//!
//! The serialized forest is identical — ids, ordering, names, fields,
//! nesting — for any worker count and across repeated runs of a
//! deterministic program; only `dur_us` varies:
//!
//! * children appear in execution order, which is sequential (hence
//!   deterministic) within one task;
//! * attached roots (opened on the thread that installed the trace) keep
//!   their record order — the main thread runs phases sequentially;
//! * task roots (`task_span!`, or any root completing on another thread)
//!   are sorted by their canonical *masked* rendering — name, fields, and
//!   subtree shape, durations zeroed — so pool scheduling order cannot
//!   leak into the trace. Instrumentation must give concurrent task roots
//!   distinct names/fields/shapes (patch ids and shard scopes do).
//!
//! The practical discipline this imposes: every span recorded on a pool
//! worker must sit inside a `task_span!`.

use crate::json::{escape_into, Json};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

struct Collector {
    /// Completed roots in arrival order, tagged `detached` for task roots.
    roots: Vec<(bool, SpanRec)>,
    /// The thread that installed the trace; roots completed elsewhere are
    /// treated as detached even without `task_span!`.
    owner: ThreadId,
}

/// Whether a trace is currently installed. The macros check this before
/// evaluating their field expressions.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One completed span: a node of the trace forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name (dot-separated stage path, e.g. `pdg.build`).
    pub name: &'static str,
    /// Key→value annotations captured at open time.
    pub fields: Vec<(&'static str, String)>,
    /// Wall-clock duration in microseconds (the one nondeterministic
    /// component; masked by golden comparisons).
    pub dur_us: u64,
    /// Child spans in execution order.
    pub children: Vec<SpanRec>,
}

struct Pending {
    rec: SpanRec,
    start: Instant,
    detached: bool,
}

thread_local! {
    static STACK: RefCell<Vec<Pending>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one open span. Created by the [`crate::span!`] and
/// [`crate::task_span!`] macros; closing happens on drop.
#[must_use = "a span measures the scope it is bound to; bind it with `let _span = ...`"]
pub struct Span {
    active: bool,
}

impl Span {
    /// Opens a nesting span that started at `start` (macro backend;
    /// prefer [`crate::span!`]).
    pub fn enter(name: &'static str, start: Instant, fields: Vec<(&'static str, String)>) -> Span {
        Span::begin(name, start, fields, false)
    }

    /// Opens a task-root span that started at `start` (macro backend;
    /// prefer [`crate::task_span!`]).
    pub fn root(name: &'static str, start: Instant, fields: Vec<(&'static str, String)>) -> Span {
        Span::begin(name, start, fields, true)
    }

    /// The no-op guard the macros return while tracing is disabled.
    pub fn disabled() -> Span {
        Span { active: false }
    }

    fn begin(
        name: &'static str,
        start: Instant,
        fields: Vec<(&'static str, String)>,
        detached: bool,
    ) -> Span {
        if !enabled() {
            return Span::disabled();
        }
        STACK.with(|s| {
            s.borrow_mut().push(Pending {
                rec: SpanRec {
                    name,
                    fields,
                    dur_us: 0,
                    children: Vec::new(),
                },
                start,
                detached,
            })
        });
        Span { active: true }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let Some(mut p) = stack.pop() else {
                return; // trace swapped out mid-span; nothing to attribute
            };
            p.rec.dur_us = p.start.elapsed().as_micros() as u64;
            if !p.detached {
                if let Some(parent) = stack.last_mut() {
                    parent.rec.children.push(p.rec);
                    return;
                }
            }
            let mut guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(c) = guard.as_mut() {
                let detached = p.detached || std::thread::current().id() != c.owner;
                c.roots.push((detached, p.rec));
            }
        });
    }
}

/// Handle to the installed per-run trace. Only one trace can be installed
/// per process at a time; spans recorded anywhere in the process while it
/// is installed land in it.
pub struct Trace {
    finished: bool,
}

impl Trace {
    /// Installs a fresh trace collector and enables span recording.
    /// Returns `None` when a trace is already installed.
    pub fn install() -> Option<Trace> {
        let mut guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_some() {
            return None;
        }
        *guard = Some(Collector {
            roots: Vec::new(),
            owner: std::thread::current().id(),
        });
        ENABLED.store(true, Ordering::Relaxed);
        Some(Trace { finished: false })
    }

    /// Disables recording and returns the canonically ordered span forest.
    pub fn finish(mut self) -> TraceData {
        self.finished = true;
        ENABLED.store(false, Ordering::Relaxed);
        let collected = COLLECTOR
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .map(|c| c.roots)
            .unwrap_or_default();
        let mut attached = Vec::new();
        let mut detached = Vec::new();
        for (is_detached, rec) in collected {
            if is_detached {
                detached.push(rec);
            } else {
                attached.push(rec);
            }
        }
        // Canonical order for task roots: the masked rendering of the whole
        // subtree, so completion order (pool scheduling) cannot leak in and
        // even equal (name, fields) pairs order deterministically as long
        // as their subtrees are deterministic.
        detached.sort_by_cached_key(masked_key);
        attached.extend(detached);
        TraceData { roots: attached }
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if !self.finished {
            ENABLED.store(false, Ordering::Relaxed);
            COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()).take();
        }
    }
}

fn masked_key(r: &SpanRec) -> String {
    let mut out = String::new();
    masked_key_into(r, &mut out);
    out
}

fn masked_key_into(r: &SpanRec, out: &mut String) {
    out.push_str(r.name);
    for (k, v) in &r.fields {
        out.push('\u{1}');
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('[');
    for c in &r.children {
        masked_key_into(c, out);
        out.push(';');
    }
    out.push(']');
}

/// A finished trace: the canonically ordered span forest plus its JSONL
/// round-trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceData {
    /// Root spans in canonical order.
    pub roots: Vec<SpanRec>,
}

impl TraceData {
    /// Serializes to JSON Lines: a header line, then one line per span in
    /// depth-first order with ids assigned in that order (ids and `parent`
    /// references are therefore as deterministic as the forest itself).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::from("{\"seal_trace\":1}\n");
        let mut next_id = 1u64;
        for r in &self.roots {
            write_span(r, 0, &mut next_id, &mut out);
        }
        out
    }

    /// Parses the output of [`TraceData::to_jsonl`] back into a forest;
    /// each line is read with [`Json::parse`].
    pub fn parse_jsonl(text: &str) -> Result<TraceData, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        match lines.next().map(Json::parse) {
            Some(Ok(h)) if h.get("seal_trace").is_some() => {}
            _ => return Err("missing seal_trace header line".to_string()),
        }
        // Spans in file order, each with the position of its parent (which
        // precedes it) or `None` for a root.
        let mut spans: Vec<(Option<usize>, SpanRec)> = Vec::new();
        let mut position: HashMap<u64, usize> = HashMap::new();
        for line in lines {
            let span =
                Json::parse(line).map_err(|e| format!("malformed span line ({e}): {line}"))?;
            let field = |key: &str| {
                span.get(key)
                    .ok_or_else(|| format!("span line without {key}: {line}"))
            };
            let bad = |key: &str| format!("span line with a bad {key}: {line}");
            let id = field("id")?.as_u64().ok_or_else(|| bad("id"))?;
            let parent = field("parent")?.as_u64().ok_or_else(|| bad("parent"))?;
            let name = field("name")?.as_str().ok_or_else(|| bad("name"))?;
            let fields = field("fields")?.as_obj().ok_or_else(|| bad("fields"))?;
            let dur_us = field("dur_us")?.as_u64().ok_or_else(|| bad("dur_us"))?;
            let fields = fields
                .iter()
                .map(|(k, v)| Some((leak(k), v.as_str()?.to_string())))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| bad("fields"))?;
            let parent = match parent {
                0 => None,
                p => Some(
                    *position
                        .get(&p)
                        .ok_or_else(|| format!("span {id} references missing parent {p}"))?,
                ),
            };
            position.insert(id, spans.len());
            let rec = SpanRec {
                name: leak(name),
                fields,
                dur_us,
                children: Vec::new(),
            };
            spans.push((parent, rec));
        }
        // Rebuild bottom-up: every child sits after its parent, so popping
        // from the end finishes a span's children before the span itself
        // moves into its parent (children arrive last-first, hence the
        // reversals).
        let mut roots = Vec::new();
        while let Some((parent, mut rec)) = spans.pop() {
            rec.children.reverse();
            match parent {
                Some(p) => spans[p].1.children.push(rec),
                None => roots.push(rec),
            }
        }
        roots.reverse();
        Ok(TraceData { roots })
    }

    /// Flattened `(depth, span)` view in serialization order, for
    /// aggregation (`seal stats`) and structural assertions.
    pub fn flatten(&self) -> Vec<(usize, &SpanRec)> {
        let mut out = Vec::new();
        fn walk<'a>(r: &'a SpanRec, depth: usize, out: &mut Vec<(usize, &'a SpanRec)>) {
            out.push((depth, r));
            for c in &r.children {
                walk(c, depth + 1, out);
            }
        }
        for r in &self.roots {
            walk(r, 0, &mut out);
        }
        out
    }
}

/// Per-name aggregate of one trace ([`TraceData::span_totals`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_us: u64,
    /// Sum of their self times (see [`TraceData::span_totals`]).
    pub self_us: u64,
}

impl TraceData {
    /// Count, total and self time per span name.
    ///
    /// A span's self time is its duration minus its attached children,
    /// and minus the detached task roots it issued. A task root is opened
    /// with `task_span!`, so it lands in the forest as a separate root
    /// rather than as a child of the call that started it; `issuers` maps
    /// a task-root name to the name of the span that issues it, and each
    /// such root's duration is taken off that name's self time when the
    /// trace holds it. At `jobs = 1` the self times then partition the
    /// wall time of the non-issued roots. At `jobs > 1` the issued busy
    /// time can exceed the issuer's wall time, so each name's self time
    /// is clamped at zero.
    pub fn span_totals(&self, issuers: &[(&str, &str)]) -> BTreeMap<&'static str, SpanTotals> {
        // Signed and wide: self time can go negative before the clamp, and
        // durations come from a file.
        fn walk(r: &SpanRec, by: &mut BTreeMap<&'static str, (SpanTotals, i128)>) {
            let children: i128 = r.children.iter().map(|c| i128::from(c.dur_us)).sum();
            let (t, self_us) = by.entry(r.name).or_default();
            t.count += 1;
            t.total_us = t.total_us.saturating_add(r.dur_us);
            *self_us += i128::from(r.dur_us) - children;
            for c in &r.children {
                walk(c, by);
            }
        }
        let mut by = BTreeMap::new();
        for r in &self.roots {
            walk(r, &mut by);
        }
        for r in &self.roots {
            let issuer = issuers.iter().find(|(root, _)| *root == r.name);
            if let Some((_, self_us)) = issuer.and_then(|(_, i)| by.get_mut(*i)) {
                *self_us -= i128::from(r.dur_us);
            }
        }
        by.into_iter()
            .map(|(name, (mut t, self_us))| {
                t.self_us = u64::try_from(self_us.max(0)).unwrap_or(u64::MAX);
                (name, t)
            })
            .collect()
    }
}

/// Replaces each span line's `"dur_us":<digits>` value in a serialized
/// trace with `"dur_us":0` — the masking golden comparisons apply before
/// diffing. Only the top-level key is masked: [`TraceData::to_jsonl`]
/// writes it last on the line, after any span field that happens to be
/// named `dur_us`.
pub fn mask_durations(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    let needle = "\"dur_us\":";
    for line in jsonl.lines() {
        if let Some(at) = line.rfind(needle) {
            let tail = &line[at + needle.len()..];
            let digits = tail.chars().take_while(|c| c.is_ascii_digit()).count();
            out.push_str(&line[..at + needle.len()]);
            out.push('0');
            out.push_str(&tail[digits..]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

fn write_span(r: &SpanRec, parent: u64, next_id: &mut u64, out: &mut String) {
    let id = *next_id;
    *next_id += 1;
    out.push_str(&format!("{{\"id\":{id},\"parent\":{parent},\"name\":\""));
    escape_into(r.name, out);
    out.push_str("\",\"fields\":{");
    for (i, (k, v)) in r.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(k, out);
        out.push_str("\":\"");
        escape_into(v, out);
        out.push('"');
    }
    out.push_str(&format!("}},\"dur_us\":{}}}\n", r.dur_us));
    for c in &r.children {
        write_span(c, id, next_id, out);
    }
}

fn leak(s: &str) -> &'static str {
    Box::leak(s.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Trace installation is process-global; serialize the tests that use it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _l = lock();
        let trace = Trace::install().unwrap();
        {
            let _a = crate::span!("outer", item = 1);
            let _b = crate::span!("inner");
        }
        let data = trace.finish();
        assert_eq!(data.roots.len(), 1);
        assert_eq!(data.roots[0].name, "outer");
        assert_eq!(data.roots[0].fields, vec![("item", "1".to_string())]);
        assert_eq!(data.roots[0].children.len(), 1);
        assert_eq!(data.roots[0].children[0].name, "inner");
    }

    #[test]
    fn task_roots_do_not_nest_and_sort_canonically() {
        let _l = lock();
        let trace = Trace::install().unwrap();
        {
            let _outer = crate::span!("phase");
            // Reverse key order: canonical sort must restore b < c.
            {
                let _t = crate::task_span!("item", id = "c");
            }
            {
                let _t = crate::task_span!("item", id = "b");
            }
        }
        let data = trace.finish();
        let names: Vec<_> = data
            .roots
            .iter()
            .map(|r| (r.name, r.fields.clone()))
            .collect();
        assert_eq!(names[0].0, "phase");
        assert_eq!(names[1].1, vec![("id", "b".to_string())]);
        assert_eq!(names[2].1, vec![("id", "c".to_string())]);
    }

    #[test]
    fn worker_thread_roots_are_detached() {
        let _l = lock();
        let trace = Trace::install().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _t = crate::span!("on.worker");
            });
        });
        let data = trace.finish();
        assert_eq!(data.roots.len(), 1);
        assert_eq!(data.roots[0].name, "on.worker");
    }

    #[test]
    fn jsonl_roundtrip_and_masking() {
        let data = TraceData {
            roots: vec![SpanRec {
                name: "a",
                fields: vec![("k", "v \"quoted\"".to_string())],
                dur_us: 1234,
                children: vec![SpanRec {
                    name: "b",
                    fields: vec![],
                    dur_us: 56,
                    children: vec![],
                }],
            }],
        };
        let jsonl = data.to_jsonl();
        let back = TraceData::parse_jsonl(&jsonl).unwrap();
        assert_eq!(back, data);
        let masked = mask_durations(&jsonl);
        assert!(masked.contains("\"dur_us\":0"));
        assert!(!masked.contains("1234"));
        // Masking is idempotent and structure-preserving.
        assert_eq!(mask_durations(&masked), masked);
        let remasked = TraceData::parse_jsonl(&masked).unwrap();
        assert_eq!(remasked.flatten().len(), data.flatten().len());
    }

    /// Span fields may carry any key, the span line's own keys included,
    /// and any value: the reader and the masker must see the writer's line
    /// as JSON does, not match keys by text.
    #[test]
    fn fields_named_like_span_keys_round_trip_and_mask() {
        let odd = "\"q\" \u{1} é 😀 \\";
        let data = TraceData {
            roots: vec![SpanRec {
                name: "outer",
                fields: vec![
                    ("dur_us", odd.to_string()),
                    ("parent", "7".to_string()),
                    ("id", "\"dur_us\":9".to_string()),
                    ("name", "x".to_string()),
                    ("dur_us", String::new()),
                ],
                dur_us: 1234,
                children: vec![SpanRec {
                    name: "inner",
                    fields: vec![("name", odd.to_string())],
                    dur_us: 56,
                    children: vec![],
                }],
            }],
        };
        let jsonl = data.to_jsonl();
        assert_eq!(TraceData::parse_jsonl(&jsonl).unwrap(), data);

        let masked = mask_durations(&jsonl);
        let mut zeroed = data.clone();
        zeroed.roots[0].dur_us = 0;
        zeroed.roots[0].children[0].dur_us = 0;
        assert_eq!(masked, zeroed.to_jsonl());
        for line in masked.lines() {
            Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert_eq!(TraceData::parse_jsonl(&masked).unwrap(), zeroed);
    }

    #[test]
    fn disabled_spans_cost_nothing_and_record_nothing() {
        let _l = lock();
        assert!(!enabled());
        let _s = crate::span!("never");
        let trace = Trace::install().unwrap();
        let data = trace.finish();
        assert!(data.roots.is_empty());
    }

    #[test]
    fn second_install_is_rejected() {
        let _l = lock();
        let t1 = Trace::install().unwrap();
        assert!(Trace::install().is_none());
        drop(t1); // dropping uninstalls
        let t2 = Trace::install().unwrap();
        t2.finish();
    }

    fn rec(name: &'static str, dur_ms: u64, children: Vec<SpanRec>) -> SpanRec {
        SpanRec {
            name,
            fields: Vec::new(),
            dur_us: dur_ms * 1000,
            children,
        }
    }

    #[test]
    fn self_time_subtracts_issued_task_roots() {
        // A jobs = 1 hunt: `cli.detect` took 466 ms, 33 of them in its own
        // lowering child and 400 in two detached `detect.shard` roots.
        // Counting attached children only books 433 ms to `cli.detect`.
        let trace = TraceData {
            roots: vec![
                rec("cli.infer", 30, vec![]),
                rec("cli.detect", 466, vec![rec("ir.lower", 33, vec![])]),
                rec("infer.patch", 25, vec![rec("infer.diff", 9, vec![])]),
                rec("detect.shard", 250, vec![rec("pdg.build", 100, vec![])]),
                rec("detect.shard", 150, vec![rec("pdg.build", 60, vec![])]),
            ],
        };
        let issuers = [("infer.patch", "cli.infer"), ("detect.shard", "cli.detect")];
        let t = trace.span_totals(&issuers);
        assert_eq!(t["cli.detect"].self_us, 33_000);
        assert_eq!(t["cli.detect"].total_us, 466_000);
        assert_eq!(t["cli.infer"].self_us, 5_000);
        assert_eq!(t["detect.shard"].count, 2);
        assert_eq!(t["detect.shard"].self_us, 240_000);
        // The self times partition the issuing roots' wall time.
        let self_sum: u64 = t.values().map(|x| x.self_us).sum();
        assert_eq!(self_sum, 496_000);
        // Without the table, issued time stays with the issuer.
        assert_eq!(trace.span_totals(&[])["cli.detect"].self_us, 433_000);
    }

    #[test]
    fn issued_time_beyond_the_issuer_clamps_at_zero() {
        // Two workers: 300 ms of shard busy time inside a 200 ms call.
        let trace = TraceData {
            roots: vec![
                rec("cli.detect", 200, vec![]),
                rec("detect.shard", 150, vec![]),
                rec("detect.shard", 150, vec![]),
            ],
        };
        let t = trace.span_totals(&[("detect.shard", "cli.detect")]);
        assert_eq!(t["cli.detect"].self_us, 0);
        assert_eq!(t["detect.shard"].self_us, 300_000);
    }
}
