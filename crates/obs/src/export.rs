//! The [`ts3_json`] sink: serialise the span tree and the metrics
//! registry as `Json` documents (the schema documented in README
//! §Observability), and write the `ts3.bench.v1` rows every benchmark
//! binary reports through.

use crate::labels::{nearest_rank, MetricsSnapshot, HIST_BOUNDS};
use crate::trace::{EventRec, FieldValue, SpanRec};
use ts3_json::Json;

fn field_to_json(v: &FieldValue) -> Json {
    match v {
        FieldValue::I64(v) => Json::Num(*v as f64),
        FieldValue::U64(v) => Json::Num(*v as f64),
        FieldValue::F64(v) => Json::Num(*v),
        FieldValue::Bool(v) => Json::Bool(*v),
        FieldValue::Str(v) => Json::Str((*v).to_string()),
        FieldValue::Owned(v) => Json::Str(v.clone()),
    }
}

fn fields_to_json(fields: &[(&'static str, FieldValue)]) -> Json {
    Json::Obj(fields.iter().map(|(k, v)| (k.to_string(), field_to_json(v))).collect())
}

fn event_to_json(e: &EventRec) -> Json {
    Json::obj([
        ("name", Json::Str(e.name.to_string())),
        ("at_us", Json::Num(e.at_ns as f64 / 1e3)),
        ("fields", fields_to_json(&e.fields)),
    ])
}

fn span_to_json(spans: &[SpanRec], events: &[EventRec], i: usize) -> Json {
    let s = &spans[i];
    let mut node = Json::obj([
        ("name", Json::Str(s.name.to_string())),
        ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
        ("dur_us", Json::Num(s.dur_ns as f64 / 1e3)),
    ]);
    if !s.fields.is_empty() {
        node.insert("fields", fields_to_json(&s.fields));
    }
    let evs: Vec<Json> =
        events.iter().filter(|e| e.parent == Some(s.id)).map(event_to_json).collect();
    if !evs.is_empty() {
        node.insert("events", Json::Arr(evs));
    }
    let children: Vec<Json> = (0..spans.len())
        .filter(|&c| spans[c].parent == Some(s.id))
        .map(|c| span_to_json(spans, events, c))
        .collect();
    if !children.is_empty() {
        node.insert("children", Json::Arr(children));
    }
    node
}

/// Serialise recorded spans and events as a nested tree: an array of
/// root spans (events embedded under their parent span) plus an
/// `orphan_events` array for events fired outside any span.
pub fn trace_to_json(spans: &[SpanRec], events: &[EventRec]) -> Json {
    let mut spans: Vec<SpanRec> = spans.to_vec();
    spans.sort_by_key(|s| s.id);
    // A parent id that overflowed the collector cap leaves a dangling
    // link; treat such spans as roots so nothing is silently lost.
    let known: Vec<u64> = spans.iter().map(|s| s.id).collect();
    for s in &mut spans {
        if let Some(p) = s.parent {
            if !known.contains(&p) {
                s.parent = None;
            }
        }
    }
    let roots: Vec<Json> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none())
        .map(|i| span_to_json(&spans, events, i))
        .collect();
    let orphans: Vec<Json> =
        events.iter().filter(|e| e.parent.is_none()).map(event_to_json).collect();
    Json::obj([("spans", Json::Arr(roots)), ("orphan_events", Json::Arr(orphans))])
}

/// Serialise the zero-label series: counters and gauges as flat objects,
/// histograms with count/sum and only their non-empty buckets (keyed by
/// upper bound) so the dump stays readable.
pub fn metrics_to_json(snap: &MetricsSnapshot) -> Json {
    let counters =
        Json::Obj(snap.counters.iter().map(|(k, v)| (k.to_string(), Json::Num(*v as f64))).collect());
    let gauges =
        Json::Obj(snap.gauges.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect());
    let hists = Json::Obj(
        snap.hists
            .iter()
            .map(|(k, h)| {
                let buckets = Json::Obj(
                    h.buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| {
                            let key = if i < HIST_BOUNDS.len() {
                                format!("le_{}", HIST_BOUNDS[i])
                            } else {
                                "overflow".to_string()
                            };
                            (key, Json::Num(c as f64))
                        })
                        .collect(),
                );
                (
                    k.to_string(),
                    Json::obj([
                        ("count", Json::Num(h.count as f64)),
                        ("sum", Json::Num(h.sum)),
                        ("buckets", buckets),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj([("counters", counters), ("gauges", gauges), ("histograms", hists)])
}

/// Aggregate recorded spans into folded-stacks text — one line per
/// distinct span stack path, `root;child;leaf <self_us>` — the input
/// format flamegraph tooling eats directly. Self-time is the span's
/// duration minus its children's (clamped at zero so clock jitter
/// never produces negative samples); lines are sorted by path, so the
/// *set of paths* is deterministic even though the microsecond values
/// are wallclock.
pub fn folded_stacks(spans: &[SpanRec]) -> String {
    let mut spans: Vec<SpanRec> = spans.to_vec();
    spans.sort_by_key(|s| s.id);
    let index_of = |id: u64| spans.iter().position(|s| s.id == id);
    // Self time = duration minus direct children's durations.
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for s in &spans {
        if let Some(pi) = s.parent.and_then(index_of) {
            self_ns[pi] = self_ns[pi].saturating_sub(s.dur_ns);
        }
    }
    let mut folded: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut path = vec![s.name];
        let mut cur = s.parent;
        while let Some(pi) = cur.and_then(index_of) {
            path.push(spans[pi].name);
            cur = spans[pi].parent;
        }
        path.reverse();
        *folded.entry(path.join(";")).or_insert(0) += self_ns[i] / 1_000;
    }
    let mut out = String::new();
    for (path, us) in &folded {
        out.push_str(path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

/// One `(op, shape)` row of a `ts3.bench.v1` document. `median_ns` is
/// the value `bench_compare` gates on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRow {
    /// Operation name, e.g. `serve_latency`.
    pub op: String,
    /// Shape/variant tag, e.g. `c8` for 8 clients.
    pub shape: String,
    /// Gated metric.
    pub median_ns: u64,
    /// Lower quartile.
    pub p25_ns: u64,
    /// Upper quartile.
    pub p75_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Samples (or iterations) behind the row.
    pub iters: u64,
}

impl BenchRow {
    /// Row summarizing ascending-sorted nanosecond samples by
    /// [`nearest_rank`].
    pub fn from_sorted(op: &str, shape: &str, sorted: &[u64]) -> BenchRow {
        BenchRow {
            op: op.to_string(),
            shape: shape.to_string(),
            median_ns: nearest_rank(sorted, 0.50),
            p25_ns: nearest_rank(sorted, 0.25),
            p75_ns: nearest_rank(sorted, 0.75),
            min_ns: sorted.first().copied().unwrap_or(0),
            iters: sorted.len() as u64,
        }
    }

    /// Row for a single scalar metric (e.g. ns-per-forecast rate).
    pub fn scalar(op: &str, shape: &str, value_ns: u64, iters: u64) -> BenchRow {
        BenchRow {
            op: op.to_string(),
            shape: shape.to_string(),
            median_ns: value_ns,
            p25_ns: value_ns,
            p75_ns: value_ns,
            min_ns: value_ns,
            iters,
        }
    }
}

/// Render rows as a `ts3.bench.v1` document for a run at `threads`
/// worker threads. Keys and their order are the schema `bench_compare`
/// and the committed `results/BENCH_*.json` files share.
pub fn bench_json(threads: usize, rows: &[BenchRow]) -> Json {
    let entries: Json = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("op", Json::from(r.op.as_str())),
                ("shape", Json::from(r.shape.as_str())),
                ("median_ns", Json::Num(r.median_ns as f64)),
                ("p25_ns", Json::Num(r.p25_ns as f64)),
                ("p75_ns", Json::Num(r.p75_ns as f64)),
                ("min_ns", Json::Num(r.min_ns as f64)),
                ("iters", Json::Num(r.iters as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::from("ts3.bench.v1")),
        ("threads", Json::Num(threads as f64)),
        ("entries", entries),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::test_lock;

    #[test]
    fn bench_json_round_trips_through_ts3_json() {
        let rows = [
            BenchRow::from_sorted("serve_latency", "c8", &[80, 90, 100, 110, 200]),
            BenchRow::scalar("serve_rate", "c8", 12345, 64),
        ];
        assert_eq!((rows[0].min_ns, rows[0].median_ns, rows[0].iters), (80, 100, 5));
        let text = bench_json(2, &rows).to_string_pretty();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("ts3.bench.v1"));
        assert_eq!(doc.get("threads").unwrap().as_usize(), Some(2));
        let entries = doc.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 2);
        let keys: Vec<&str> =
            entries[0].as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["op", "shape", "median_ns", "p25_ns", "p75_ns", "min_ns", "iters"]);
        assert_eq!(entries[0].get("op").unwrap().as_str(), Some("serve_latency"));
        assert_eq!(entries[1].get("median_ns").unwrap().as_f64(), Some(12345.0));
    }

    #[test]
    fn trace_and_metrics_round_trip_through_parser() {
        let _g = test_lock();
        crate::set_level(1);
        crate::reset();
        {
            let mut s = crate::span("export.outer");
            s.field("m", 4u64);
            let _inner = crate::span("export.inner");
            crate::event("tick", |f| {
                f.set("loss", 0.25f64);
                f.set("why", "test");
            });
        }
        crate::counter_add("export.calls", 3);
        crate::gauge_set("export.norm", 2.0);
        crate::observe("export.dur", 0.01);
        let (spans, events, _) = crate::trace::snapshot_records();
        let doc = Json::obj([
            ("trace", trace_to_json(&spans, &events)),
            ("metrics", metrics_to_json(&crate::metrics_snapshot())),
        ]);
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).expect("dump parses");
        let roots = parsed.get("trace").unwrap().get("spans").unwrap().as_array().unwrap();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].get("name").unwrap().as_str(), Some("export.outer"));
        let children = roots[0].get("children").unwrap().as_array().unwrap();
        assert_eq!(children[0].get("name").unwrap().as_str(), Some("export.inner"));
        let events = children[0].get("events").unwrap().as_array().unwrap();
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("tick"));
        assert_eq!(
            events[0].get("fields").unwrap().get("loss").unwrap().as_f64(),
            Some(0.25)
        );
        let m = parsed.get("metrics").unwrap();
        assert_eq!(m.get("counters").unwrap().get("export.calls").unwrap().as_usize(), Some(3));
        assert_eq!(m.get("gauges").unwrap().get("export.norm").unwrap().as_f64(), Some(2.0));
        let h = m.get("histograms").unwrap().get("export.dur").unwrap();
        assert_eq!(h.get("count").unwrap().as_usize(), Some(1));
        crate::set_level(0);
        crate::reset();
    }

    #[test]
    fn folded_stacks_paths_and_self_time() {
        let _g = test_lock();
        crate::set_level(1);
        crate::reset();
        {
            let _outer = crate::span("outer");
            {
                let _inner = crate::span("inner");
            }
            {
                let _inner = crate::span("inner");
            }
        }
        let (spans, _, _) = crate::trace::snapshot_records();
        let folded = folded_stacks(&spans);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "two distinct paths: {folded}");
        assert!(lines[0].starts_with("outer "), "paths sorted: {folded}");
        assert!(lines[1].starts_with("outer;inner "), "repeat paths merge: {folded}");
        crate::set_level(0);
        crate::reset();
    }
}
