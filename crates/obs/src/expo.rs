//! Prometheus-style text exposition of the metrics registry.
//!
//! [`render`] walks one registry snapshot ([`crate::labels`]) and
//! writes it in the Prometheus exposition format — `# TYPE` headers,
//! `name{labels} value` samples, cumulative `_bucket{le="..."}`
//! histogram lines — so any standard scraper/grapher can ingest a ts3
//! dump without a converter.
//!
//! Ordering is **deterministic by construction**: families sort by
//! sanitized name, series within a family by their canonical label
//! set (already sorted by key, the zero-label series first), buckets by
//! ladder position. Two runs that record the same values render
//! byte-identical text — that is a verify.sh gate, so treat any
//! ordering change here as schema-breaking.
//!
//! Metric names arrive dot-separated (`serve.queue_depth`) and leave
//! underscore-separated (`serve_queue_depth`) per the exposition
//! grammar; label values are escaped (`\`, `"`, newline).

use crate::labels::{labeled_snapshot, LabelSet, HIST_BOUNDS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Dots and other non-grammar characters become underscores.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// `{k="v",k2="v2"}` for a canonical label set; empty string for none.
/// `extra` appends one more pair (used for `le`/`quantile`).
fn label_block(labels: &LabelSet, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Prometheus float rendering: shortest round-trip, `+Inf` for the
/// unbounded bucket.
fn num(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Cumulative `_bucket` lines + `_sum`/`_count` for one histogram
/// series on the shared ladder. Empty buckets are skipped (except the
/// mandatory `+Inf`), keeping the document proportional to data.
fn write_hist(
    out: &mut String,
    name: &str,
    labels: &LabelSet,
    buckets: &[u64],
    count: u64,
    sum: f64,
) {
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cum += c;
        if c == 0 {
            continue;
        }
        let le = if i < HIST_BOUNDS.len() { num(HIST_BOUNDS[i]) } else { "+Inf".to_string() };
        let _ = writeln!(out, "{name}_bucket{} {cum}", label_block(labels, Some(("le", &le))));
    }
    let _ = writeln!(out, "{name}_bucket{} {count}", label_block(labels, Some(("le", "+Inf"))));
    let _ = writeln!(out, "{name}_sum{} {}", label_block(labels, None), num(sum));
    let _ = writeln!(out, "{name}_count{} {count}", label_block(labels, None));
}

type Family<'a, V> = Vec<(&'a LabelSet, &'a V)>;

/// Group one family's series by sanitized name, keeping snapshot order
/// (label sets ascending, the zero-label series first) within a name.
fn families<'a, V>(
    series: &'a [((&'static str, LabelSet), V)],
) -> BTreeMap<String, Family<'a, V>> {
    let mut out: BTreeMap<String, Family<'a, V>> = BTreeMap::new();
    for ((name, labels), v) in series {
        out.entry(sanitize(name)).or_default().push((labels, v));
    }
    out
}

/// Render the registry as one Prometheus exposition document.
///
/// Families appear sorted by sanitized name; the zero-label series of
/// a name and its labeled series share one family, the zero-label
/// sample first. Labeled histograms additionally emit
/// `{quantile="0.5|0.9|0.99"}` summary lines from their exact (or
/// bucket-bound, see [`crate::HistStats::exact`]) percentiles;
/// zero-label histograms emit none.
pub fn render() -> String {
    let snap = labeled_snapshot();
    let mut out = String::new();
    for (name, series) in &families(&snap.counters) {
        let _ = writeln!(out, "# TYPE {name} counter");
        for (labels, v) in series {
            let _ = writeln!(out, "{name}{} {v}", label_block(labels, None));
        }
    }
    for (name, series) in &families(&snap.gauges) {
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (labels, v) in series {
            let _ = writeln!(out, "{name}{} {}", label_block(labels, None), num(**v));
        }
    }
    for (name, series) in &families(&snap.hists) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (labels, h) in series {
            write_hist(&mut out, name, labels, &h.buckets, h.count, h.sum);
            if labels.is_empty() {
                continue;
            }
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                let _ = writeln!(
                    out,
                    "{name}{} {}",
                    label_block(labels, Some(("quantile", q))),
                    num(v)
                );
            }
        }
    }
    if snap.dropped_series > 0 {
        let _ = writeln!(out, "# TYPE ts3_obs_dropped_series counter");
        let _ = writeln!(out, "ts3_obs_dropped_series {}", snap.dropped_series);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::test_lock;

    #[test]
    fn exposition_is_deterministic_and_merges_families() {
        let _g = test_lock();
        crate::set_level(1);
        crate::reset();
        crate::counter_add("serve.requests", 7);
        crate::labels::counter_add_l("serve.requests", &[("tenant", "1")], 4);
        crate::labels::counter_add_l("serve.requests", &[("tenant", "0")], 3);
        crate::gauge_set("serve.queue_depth", 2.0);
        crate::observe("serve.coalesce_hold", 1.0);
        crate::labels::observe_l("serve.latency_ticks", &[("tenant", "0")], 2.0);
        crate::labels::observe_l("serve.latency_ticks", &[("tenant", "0")], 4.0);
        let a = render();
        let b = render();
        assert_eq!(a, b, "same state must render byte-identical");
        assert!(a.contains("# TYPE serve_requests counter\nserve_requests 7\n"));
        assert!(a.contains("serve_requests{tenant=\"0\"} 3\n"));
        assert!(a.contains("serve_requests{tenant=\"1\"} 4\n"));
        let t0 = a.find("tenant=\"0\"").unwrap();
        let t1 = a.find("tenant=\"1\"").unwrap();
        assert!(t0 < t1, "series sorted by label set");
        assert!(a.contains("serve_queue_depth 2\n"));
        assert!(a.contains("serve_coalesce_hold_bucket{le=\"+Inf\"} 1\n"));
        assert!(!a.contains("serve_coalesce_hold{quantile="), "zero-label: no quantile lines");
        assert!(a.contains("serve_latency_ticks_bucket{tenant=\"0\",le=\"2\"} 1\n"));
        // Nearest-rank over [2, 4]: round(0.5) rounds up, so p50 = 4.
        assert!(a.contains("serve_latency_ticks{tenant=\"0\",quantile=\"0.5\"} 4\n"));
        assert!(a.contains("serve_latency_ticks{tenant=\"0\",quantile=\"0.99\"} 4\n"));
        assert!(a.contains("serve_latency_ticks_count{tenant=\"0\"} 2\n"));
        crate::set_level(0);
        crate::reset();
    }

    #[test]
    fn label_values_are_escaped() {
        let _g = test_lock();
        crate::set_level(1);
        crate::reset();
        crate::labels::counter_add_l("odd", &[("k", "a\"b\\c")], 1);
        let text = render();
        assert!(text.contains("odd{k=\"a\\\"b\\\\c\"} 1\n"));
        crate::set_level(0);
        crate::reset();
    }
}
