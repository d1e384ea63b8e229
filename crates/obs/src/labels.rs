//! The metrics registry: counters, gauges and fixed-bucket histograms,
//! every series keyed by `(name, sorted label set)`.
//!
//! A static-name call (`counter_add`, `gauge_set`, `observe`) is the
//! `_l` call with no labels: one registry, one snapshot, one reset.
//! Series live in `BTreeMap`s, so iteration order (and therefore every
//! dump and the text exposition) is deterministic by construction — the
//! same reason the FFT plan cache and autograd backward use `BTreeMap`.
//!
//! Design constraints, in order:
//!
//! * **Fixed cardinality.** Label values are caller-supplied strings
//!   (tenant ids, model names); an unbounded set would turn the registry
//!   into a leak. Each metric name admits at most
//!   `MAX_SERIES_PER_METRIC` distinct non-empty label sets; further
//!   sets are dropped and counted in [`LabeledSnapshot::dropped_series`],
//!   never silently lost. The zero-label series does not count toward
//!   the cap.
//! * **Exact tail latencies.** Histograms keep a log-bucketed 1-2-5
//!   ladder ([`HIST_BOUNDS`]) *and* (up to `MAX_EXACT_SAMPLES`
//!   observations) the raw samples, so snapshots report exact
//!   [`nearest_rank`] p50/p90/p99 rather than bucket upper bounds. Past
//!   the cap the buckets keep counting and percentiles degrade to
//!   bucket-resolution upper bounds ([`HistStats::exact`] says which you
//!   got).
//! * **Cheap plain series.** A zero-label write builds an empty label
//!   set, which does not allocate, so bumping an existing static-name
//!   counter or gauge allocates nothing even with tracing on.
//!
//! Like everything in `ts3-obs`, recording is gated on `TS3_TRACE >= 1`
//! and the disabled path is one relaxed atomic load.

use crate::gate;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Fixed histogram bucket upper bounds: a 1-2-5 ladder covering
/// `1e-9 ..= 1e9` (units are whatever the caller observes — seconds,
/// norms, ratios). Values above the last bound land in the overflow
/// bucket at index `HIST_BOUNDS.len()`.
pub const HIST_BOUNDS: [f64; 55] = [
    1e-9, 2e-9, 5e-9, 1e-8, 2e-8, 5e-8, 1e-7, 2e-7, 5e-7, 1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1e0, 2e0, 5e0, 1e1,
    2e1, 5e1, 1e2, 2e2, 5e2, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7,
    2e7, 5e7, 1e8, 2e8, 5e8, 1e9,
];

/// Most distinct non-empty label sets one metric name may accumulate;
/// later sets are dropped (and counted) to keep cardinality
/// production-safe.
const MAX_SERIES_PER_METRIC: usize = 64;

/// Raw samples kept per histogram for exact percentiles; beyond this the
/// buckets keep counting but percentiles become bucket upper bounds.
const MAX_EXACT_SAMPLES: usize = 8_192;

/// A canonical label set: `(key, value)` pairs sorted by key. Two call
/// sites naming the same labels in a different order hit the same
/// series. The empty set is a static-name series.
pub type LabelSet = Vec<(&'static str, String)>;

type Key = (&'static str, LabelSet);

fn canon(labels: &[(&'static str, &str)]) -> LabelSet {
    let mut v: LabelSet = labels.iter().map(|(k, val)| (*k, (*val).to_string())).collect();
    v.sort_by_key(|(k, _)| *k);
    v
}

/// One histogram: ladder buckets plus (while under the sample cap) the
/// raw observations.
#[derive(Debug, Clone)]
struct Hist {
    count: u64,
    sum: f64,
    buckets: Vec<u64>,
    samples: Vec<f64>,
    samples_capped: bool,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    hists: BTreeMap<Key, Hist>,
    dropped_series: u64,
}

/// True when the series `key` exists or may still be created: zero-label
/// series always may, labeled ones while their name is under the cap.
fn admits<V>(map: &BTreeMap<Key, V>, key: &Key) -> bool {
    key.1.is_empty()
        || map.contains_key(key)
        || map.keys().filter(|(n, l)| *n == key.0 && !l.is_empty()).count()
            < MAX_SERIES_PER_METRIC
}

fn registry() -> &'static Mutex<Registry> {
    static R: OnceLock<Mutex<Registry>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Registry::default()))
}

/// Add `delta` to the counter `name` (created at zero on first use).
/// No-op when tracing is disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    counter_add_l(name, &[], delta);
}

/// Set the gauge `name` to `value` (last write wins). No-op when
/// tracing is disabled.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    gauge_set_l(name, &[], value);
}

/// Record `value` into the fixed-bucket histogram `name`. No-op when
/// tracing is disabled; NaN observations are dropped.
#[inline]
pub fn observe(name: &'static str, value: f64) {
    observe_l(name, &[], value);
}

/// Add `delta` to the counter `name` with `labels` (created at zero on
/// first use). No-op when tracing is disabled; dropped (and counted)
/// past the per-metric cardinality cap.
#[inline]
pub fn counter_add_l(name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
    if !gate::enabled() {
        return;
    }
    let key = (name, canon(labels));
    // ts3-lint: allow(no-unwrap-in-lib) registry mutex poisoning means a recording thread panicked; metrics state is unrecoverable
    let mut r = registry().lock().unwrap();
    if !admits(&r.counters, &key) {
        r.dropped_series += 1;
        return;
    }
    *r.counters.entry(key).or_insert(0) += delta;
}

/// Set the gauge `name` with `labels` to `value` (last write wins).
/// No-op when tracing is disabled.
#[inline]
pub fn gauge_set_l(name: &'static str, labels: &[(&'static str, &str)], value: f64) {
    if !gate::enabled() {
        return;
    }
    let key = (name, canon(labels));
    // ts3-lint: allow(no-unwrap-in-lib) registry mutex poisoning means a recording thread panicked; metrics state is unrecoverable
    let mut r = registry().lock().unwrap();
    if !admits(&r.gauges, &key) {
        r.dropped_series += 1;
        return;
    }
    r.gauges.insert(key, value);
}

/// Index of the 1-2-5 ladder bucket for `value` (overflow = last index).
fn bucket_index(value: f64) -> usize {
    HIST_BOUNDS.iter().position(|&b| value <= b).unwrap_or(HIST_BOUNDS.len())
}

/// Record `value` into the log-bucketed histogram `name` with `labels`.
/// No-op when tracing is disabled; NaN observations are dropped.
#[inline]
pub fn observe_l(name: &'static str, labels: &[(&'static str, &str)], value: f64) {
    if !gate::enabled() || value.is_nan() {
        return;
    }
    let idx = bucket_index(value);
    let key = (name, canon(labels));
    // ts3-lint: allow(no-unwrap-in-lib) registry mutex poisoning means a recording thread panicked; metrics state is unrecoverable
    let mut r = registry().lock().unwrap();
    if !admits(&r.hists, &key) {
        r.dropped_series += 1;
        return;
    }
    let h = r.hists.entry(key).or_insert_with(|| Hist {
        count: 0,
        sum: 0.0,
        buckets: vec![0; HIST_BOUNDS.len() + 1],
        samples: Vec::new(),
        samples_capped: false,
    });
    h.count += 1;
    h.sum += value;
    h.buckets[idx] += 1;
    if h.samples.len() < MAX_EXACT_SAMPLES {
        h.samples.push(value);
    } else {
        h.samples_capped = true;
    }
}

/// The statistics of one histogram series.
#[derive(Debug, Clone, PartialEq)]
pub struct HistStats {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// True when the percentiles are exact (computed from raw samples);
    /// false when the sample cap was hit and they are ladder-bucket
    /// upper bounds.
    pub exact: bool,
    /// Per-bucket counts on the [`HIST_BOUNDS`] ladder (tail bucket is
    /// overflow).
    pub buckets: Vec<u64>,
}

/// Index of the nearest-rank `q`-quantile among `n > 0` ascending
/// samples: `round((n - 1) * q)`, clamped to the last sample.
fn rank_index(n: u64, q: f64) -> u64 {
    (((n - 1) as f64 * q).round() as u64).min(n - 1)
}

/// Nearest-rank `q`-quantile (`0.0 ..= 1.0`) of an ascending-sorted
/// slice; `T::default()` (zero) for an empty one. This is the one
/// percentile rule of the workspace: metric snapshots, timelines and
/// every `ts3.bench.v1` row use it.
///
/// ```
/// let samples = [10u64, 20, 30, 40, 50];
/// assert_eq!(ts3_obs::nearest_rank(&samples, 0.5), 30);
/// assert_eq!(ts3_obs::nearest_rank(&samples, 0.99), 50);
/// assert_eq!(ts3_obs::nearest_rank::<f64>(&[], 0.5), 0.0);
/// ```
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[rank_index(sorted.len() as u64, q) as usize]
}

/// Bucket-resolution percentile: the upper bound of the ladder bucket
/// containing the nearest-rank observation.
fn bucket_rank(buckets: &[u64], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let target = rank_index(count, q);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if c > 0 && seen > target {
            return if i < HIST_BOUNDS.len() { HIST_BOUNDS[i] } else { f64::INFINITY };
        }
    }
    f64::INFINITY
}

impl HistStats {
    fn from_hist(h: &Hist) -> HistStats {
        let (p50, p90, p99, exact) = if h.samples_capped {
            (
                bucket_rank(&h.buckets, h.count, 0.50),
                bucket_rank(&h.buckets, h.count, 0.90),
                bucket_rank(&h.buckets, h.count, 0.99),
                false,
            )
        } else {
            let mut sorted = h.samples.clone();
            sorted.sort_by(f64::total_cmp);
            let q = |q| nearest_rank(&sorted, q);
            (q(0.50), q(0.90), q(0.99), true)
        };
        HistStats { count: h.count, sum: h.sum, p50, p90, p99, exact, buckets: h.buckets.clone() }
    }
}

/// A point-in-time copy of the registry, every family ordered by
/// `(name, labels)` (the `BTreeMap` order, zero-label series first
/// within a name), so dumps and expositions are deterministic.
#[derive(Debug, Clone, Default)]
pub struct LabeledSnapshot {
    /// `(name, labels)` → accumulated counter value.
    pub counters: Vec<((&'static str, LabelSet), u64)>,
    /// `(name, labels)` → last gauge value.
    pub gauges: Vec<((&'static str, LabelSet), f64)>,
    /// `(name, labels)` → histogram statistics.
    pub hists: Vec<((&'static str, LabelSet), HistStats)>,
    /// Writes rejected by the per-metric cardinality cap.
    pub dropped_series: u64,
}

/// Snapshot every series of the registry.
pub fn labeled_snapshot() -> LabeledSnapshot {
    // ts3-lint: allow(no-unwrap-in-lib) registry mutex poisoning means a recording thread panicked; metrics state is unrecoverable
    let r = registry().lock().unwrap();
    LabeledSnapshot {
        counters: r.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        gauges: r.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        hists: r.hists.iter().map(|(k, h)| (k.clone(), HistStats::from_hist(h))).collect(),
        dropped_series: r.dropped_series,
    }
}

/// The zero-label series of the registry, each family sorted by name:
/// what the static-name calls recorded.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → accumulated value.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge name → last value.
    pub gauges: Vec<(&'static str, f64)>,
    /// Histogram name → statistics.
    pub hists: Vec<(&'static str, HistStats)>,
}

fn zero_label<V>(series: Vec<(Key, V)>) -> Vec<(&'static str, V)> {
    series.into_iter().filter(|((_, l), _)| l.is_empty()).map(|((n, _), v)| (n, v)).collect()
}

/// Snapshot the zero-label series (sorted by name within each family).
pub fn metrics_snapshot() -> MetricsSnapshot {
    let s = labeled_snapshot();
    MetricsSnapshot {
        counters: zero_label(s.counters),
        gauges: zero_label(s.gauges),
        hists: zero_label(s.hists),
    }
}

/// Clear every series and the dropped-series count.
pub fn reset_metrics() {
    // ts3-lint: allow(no-unwrap-in-lib) registry mutex poisoning means a recording thread panicked; metrics state is unrecoverable
    let mut r = registry().lock().unwrap();
    *r = Registry::default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::test_lock;

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = test_lock();
        crate::set_level(0);
        reset_metrics();
        counter_add("c", 5);
        gauge_set("g", 1.0);
        observe("h", 0.5);
        counter_add_l("c", &[("tenant", "0")], 5);
        gauge_set_l("g", &[("tenant", "0")], 1.0);
        observe_l("h", &[("tenant", "0")], 0.5);
        let s = labeled_snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty() && s.hists.is_empty());
        assert_eq!(s.dropped_series, 0);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let _g = test_lock();
        crate::set_level(1);
        reset_metrics();
        counter_add("b.calls", 2);
        counter_add("a.calls", 1);
        counter_add("b.calls", 3);
        counter_add_l("a.calls", &[("tenant", "0")], 9);
        gauge_set("norm", 1.5);
        gauge_set("norm", 0.5);
        observe("dur", 0.003);
        observe("dur", 0.03);
        observe("dur", 1e12); // overflow bucket
        let s = metrics_snapshot();
        assert_eq!(s.counters, vec![("a.calls", 1), ("b.calls", 5)], "labeled series left out");
        assert_eq!(s.gauges, vec![("norm", 0.5)]);
        let (_, h) = &s.hists[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[bucket_index(0.003)], 1);
        assert_eq!(h.buckets[bucket_index(0.03)], 1);
        assert_eq!(h.buckets[HIST_BOUNDS.len()], 1);
        crate::set_level(0);
        reset_metrics();
    }

    #[test]
    fn bucket_index_ladder() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1e-9), 0);
        assert_eq!(bucket_index(1.1e-9), 1);
        assert_eq!(bucket_index(1.0), 27);
        assert_eq!(bucket_index(2e9), HIST_BOUNDS.len());
    }

    #[test]
    fn bucket_index_edge_cases() {
        // Every exact bound lands in its own bucket (bounds are upper
        // bounds, comparison is `<=`), and the next representable value
        // up spills into the following one.
        for (i, &b) in HIST_BOUNDS.iter().enumerate() {
            assert_eq!(bucket_index(b), i, "exact bound {b}");
            let expected_next = if i + 1 < HIST_BOUNDS.len() { i + 1 } else { HIST_BOUNDS.len() };
            assert_eq!(bucket_index(b * (1.0 + 1e-12)), expected_next, "just above {b}");
        }
        // Zero and negatives clamp into the first bucket.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NEG_INFINITY), 0);
        assert_eq!(bucket_index(f64::MIN_POSITIVE), 0);
        // Overflow: above the last bound, and +inf.
        assert_eq!(bucket_index(1e9 + 1.0), HIST_BOUNDS.len());
        assert_eq!(bucket_index(f64::INFINITY), HIST_BOUNDS.len());
        // NaN compares false with every bound, so it falls through to
        // the overflow index — `observe` drops NaN before ever getting
        // here, but the function itself must not panic or index out of
        // bounds.
        assert_eq!(bucket_index(f64::NAN), HIST_BOUNDS.len());
    }

    #[test]
    fn observe_drops_nan_but_counts_infinity() {
        let _g = test_lock();
        crate::set_level(1);
        reset_metrics();
        observe("edge", f64::NAN);
        let s = metrics_snapshot();
        assert!(s.hists.is_empty(), "NaN observation must be dropped");
        observe("edge", f64::INFINITY);
        let s = metrics_snapshot();
        assert_eq!(s.hists[0].1.count, 1);
        assert_eq!(s.hists[0].1.buckets[HIST_BOUNDS.len()], 1, "inf lands in overflow");
        crate::set_level(0);
        reset_metrics();
    }

    #[test]
    fn nearest_rank_matches_bench_convention() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&s, 0.0), 1);
        assert_eq!(nearest_rank(&s, 0.5), 6); // round(9 * 0.5) = 5 -> s[5]
        assert_eq!(nearest_rank(&s, 0.99), 10);
        assert_eq!(nearest_rank::<u64>(&[], 0.5), 0);
    }

    #[test]
    fn label_order_is_canonicalized_and_series_accumulate() {
        let _g = test_lock();
        crate::set_level(1);
        reset_metrics();
        counter_add_l("serve.requests", &[("tenant", "1"), ("model", "DLinear")], 2);
        counter_add_l("serve.requests", &[("model", "DLinear"), ("tenant", "1")], 3);
        counter_add_l("serve.requests", &[("tenant", "0"), ("model", "TS3Net")], 1);
        gauge_set_l("depth", &[("tenant", "0")], 4.0);
        gauge_set_l("depth", &[("tenant", "0")], 2.0);
        let s = labeled_snapshot();
        assert_eq!(s.counters.len(), 2, "swapped label order must hit the same series");
        // BTreeMap order: "DLinear" sorts before "TS3Net".
        let (key, v) = &s.counters[0];
        assert_eq!(key.0, "serve.requests");
        assert_eq!(key.1, vec![("model", "DLinear".to_string()), ("tenant", "1".to_string())]);
        assert_eq!(*v, 5);
        assert_eq!(s.gauges[0].1, 2.0, "gauge is last-write-wins");
        crate::set_level(0);
        reset_metrics();
    }

    #[test]
    fn labeled_hist_reports_exact_percentiles() {
        let _g = test_lock();
        crate::set_level(1);
        reset_metrics();
        // 1..=100 ticks: exact nearest-rank percentiles are knowable.
        for v in 1..=100u64 {
            observe_l("lat", &[("tenant", "0")], v as f64);
        }
        let s = labeled_snapshot();
        let (_, h) = &s.hists[0];
        assert_eq!(h.count, 100);
        assert!(h.exact);
        assert_eq!(h.p50, 51.0); // round(99 * 0.5) = 50 -> sorted[50]
        assert_eq!(h.p90, 90.0); // round(99 * 0.9) = 89 -> sorted[89]
        assert_eq!(h.p99, 99.0); // round(99 * 0.99) = 98 -> sorted[98]
        assert_eq!(h.sum, 5050.0);
        crate::set_level(0);
        reset_metrics();
    }

    #[test]
    fn cardinality_cap_drops_and_counts_new_series() {
        let _g = test_lock();
        crate::set_level(1);
        reset_metrics();
        // The zero-label series of the same name does not use up a slot.
        counter_add("capped", 1);
        for i in 0..(MAX_SERIES_PER_METRIC + 5) {
            let v = i.to_string();
            counter_add_l("capped", &[("tenant", v.as_str())], 1);
        }
        // Existing series still accept writes at the cap.
        counter_add_l("capped", &[("tenant", "0")], 1);
        counter_add("capped", 1);
        let s = labeled_snapshot();
        let capped: Vec<_> = s
            .counters
            .iter()
            .filter(|((n, l), _)| *n == "capped" && !l.is_empty())
            .collect();
        assert_eq!(capped.len(), MAX_SERIES_PER_METRIC, "all 64 labeled series survive");
        assert_eq!(s.dropped_series, 5);
        assert_eq!(capped[0].1, 2, "series under the cap keep accumulating");
        assert_eq!(metrics_snapshot().counters, vec![("capped", 2)]);
        crate::set_level(0);
        reset_metrics();
    }

    #[test]
    fn sample_cap_degrades_to_bucket_upper_bounds() {
        let _g = test_lock();
        crate::set_level(1);
        reset_metrics();
        for _ in 0..(MAX_EXACT_SAMPLES + 10) {
            observe("big", 3.0);
        }
        let s = labeled_snapshot();
        let (_, h) = &s.hists[0];
        assert_eq!(h.count, (MAX_EXACT_SAMPLES + 10) as u64);
        assert!(!h.exact);
        assert_eq!(h.p50, 5.0, "3.0 lands in the (2, 5] ladder bucket");
        assert_eq!(h.p99, 5.0);
        crate::set_level(0);
        reset_metrics();
    }
}
