//! Lock-free serving metrics: log2 histograms and the Prometheus
//! exposition behind the `METRICS` verb.
//!
//! The predecessor of this module was a 1024-slot latency ring behind a
//! `try_lock` — bounded memory, but lossy twice over: contended pushes
//! were *shed* and an unlucky window of 1024 samples is all the
//! quantiles ever saw. The engine's route-dependent cost spread (PTIME
//! monadic vs exponential Thm 5.3) makes dropped tails exactly the
//! samples an operator needs.
//!
//! A [`Histogram`] here is 64 fixed log2 buckets of relaxed
//! [`AtomicU64`]s: `record` is a handful of wait-free atomic adds (no
//! locks, no shedding, no allocation), readers never serialize writers,
//! and the full value range of a `u64` is covered — bucket `i` holds
//! values in `[2^(i-1), 2^i)`, so quantile estimates carry at most one
//! power-of-two of error, plenty for p50/p99 over nanosecond latencies
//! spanning six orders of magnitude.
//!
//! The [`MetricsRegistry`] is the per-database bundle: one histogram
//! per protocol verb and abort status, one per engine route actually
//! fired (see [`indord_entail::route`]), one for commit-queue depth,
//! and monotone counters for the engine totals (states expanded,
//! pair-table hits/misses). [`MetricsRegistry::render_prometheus`]
//! writes the standard text exposition format.

use indord_entail::Route;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets — one per `u64` bit position, so any
/// nanosecond (or queue-depth) value lands in exactly one bucket.
pub const BUCKETS: usize = 64;

/// Index of the bucket holding `value`: 0 for 0, else
/// `64 - leading_zeros`, capped into the last bucket.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` value).
fn upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-bucket log2 histogram. Wait-free to record, lock-free to
/// read; reads are racy-consistent (a concurrent `record` may or may
/// not be visible), which is exactly the contract quantile estimates
/// need.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation. Never blocks, never sheds.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (a racy-consistent snapshot).
    pub fn snapshot(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The `q`-quantile as the upper bound of the bucket where the
    /// cumulative count crosses `q · total` — an "at most" estimate
    /// with one power-of-two of resolution. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.snapshot();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return upper_bound(i);
            }
        }
        u64::MAX
    }

    /// `(p50, p99)` — the drop-in replacement for the latency ring's
    /// quantile pair consumed by `STATS`.
    pub fn p50_p99(&self) -> (u64, u64) {
        (self.quantile(0.50), self.quantile(0.99))
    }
}

/// Protocol verbs carrying a latency histogram. Fixed cardinality on
/// purpose: the registry is allocation-free after construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `FACT`/`ASSERT` — the write path (queue wait through publish).
    Fact,
    /// `PREPARE` — query compilation through the mutator.
    Prepare,
    /// `ENTAIL` — certain-answer evaluation.
    Entail,
    /// `COUNTERMODEL` — evaluation plus witness rendering.
    Countermodel,
    /// `BATCH` — a prepared panel evaluated together.
    Batch,
    /// Everything else that reaches a database (`STATS`, `FLUSH`, ...).
    Other,
}

impl Verb {
    /// All verbs, in exposition order.
    pub const ALL: [Verb; 6] = [
        Verb::Fact,
        Verb::Prepare,
        Verb::Entail,
        Verb::Countermodel,
        Verb::Batch,
        Verb::Other,
    ];

    /// The `verb` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Fact => "fact",
            Verb::Prepare => "prepare",
            Verb::Entail => "entail",
            Verb::Countermodel => "countermodel",
            Verb::Batch => "batch",
            Verb::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Verb::Fact => 0,
            Verb::Prepare => 1,
            Verb::Entail => 2,
            Verb::Countermodel => 3,
            Verb::Batch => 4,
            Verb::Other => 5,
        }
    }
}

/// Whether a request ran to completion or was cut by its deadline.
/// Aborted requests get their own label so a deadline storm's
/// elapsed-at-abort samples can't flatter (or pollute) the completed
/// tail — yet still show up in the per-verb totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request completed (successfully or with a non-deadline
    /// error).
    Ok,
    /// The request was aborted by its deadline; the recorded value is
    /// the elapsed time at abort.
    Aborted,
}

impl Status {
    /// The `status` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Aborted => "aborted",
        }
    }

    fn index(self) -> usize {
        match self {
            Status::Ok => 0,
            Status::Aborted => 1,
        }
    }
}

/// The per-database metrics bundle: request latency by verb and abort
/// status, evaluation latency by fired engine route, commit-queue
/// depth, and monotone engine-work counters.
#[derive(Debug)]
pub struct MetricsRegistry {
    verbs: [[Histogram; 2]; Verb::ALL.len()],
    routes: [Histogram; Route::ALL.len()],
    queue_depth: Histogram,
    states_expanded: AtomicU64,
    pair_hits: AtomicU64,
    pair_misses: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry (all histograms pre-created so exposition rows
    /// are stable from the first scrape).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            verbs: std::array::from_fn(|_| std::array::from_fn(|_| Histogram::new())),
            routes: std::array::from_fn(|_| Histogram::new()),
            queue_depth: Histogram::new(),
            states_expanded: AtomicU64::new(0),
            pair_hits: AtomicU64::new(0),
            pair_misses: AtomicU64::new(0),
        }
    }

    /// Records a request's wall time under its verb and abort status.
    pub fn record_verb(&self, verb: Verb, status: Status, ns: u64) {
        self.verbs[verb.index()][status.index()].record(ns);
    }

    /// Records an evaluation's wall time under the engine route that
    /// actually fired.
    pub fn record_route(&self, route: Route, ns: u64) {
        let i = Route::ALL
            .iter()
            .position(|&r| r == route)
            .expect("route in ALL");
        self.routes[i].record(ns);
    }

    /// Records the commit-queue depth observed at one enqueue.
    pub fn record_queue_depth(&self, depth: u64) {
        self.queue_depth.record(depth);
    }

    /// Accumulates a request's engine-counter delta into the monotone
    /// totals.
    pub fn add_engine_counters(&self, delta: &indord_core::counters::EngineCounters) {
        self.states_expanded
            .fetch_add(delta.states_expanded, Ordering::Relaxed);
        self.pair_hits.fetch_add(delta.pair_hits, Ordering::Relaxed);
        self.pair_misses
            .fetch_add(delta.pair_misses, Ordering::Relaxed);
    }

    /// The verb histogram for `(verb, status)` — `STATS` quantiles and
    /// tests read through this.
    pub fn verb_histogram(&self, verb: Verb, status: Status) -> &Histogram {
        &self.verbs[verb.index()][status.index()]
    }

    /// The commit-queue depth histogram.
    pub fn queue_depth_histogram(&self) -> &Histogram {
        &self.queue_depth
    }

    /// `(p50, p99)` over *completed* requests of all verbs combined —
    /// the wire-compatible source of the `STATS` `p50_ns`/`p99_ns`
    /// fields. Aborted samples are excluded, as the ring's were (an
    /// aborted request never reached its `record_latency`).
    pub fn p50_p99(&self) -> (u64, u64) {
        let mut merged = [0u64; BUCKETS];
        for verb in &self.verbs {
            for (m, b) in merged.iter_mut().zip(verb[Status::Ok.index()].snapshot()) {
                *m += b;
            }
        }
        let total: u64 = merged.iter().sum();
        if total == 0 {
            return (0, 0);
        }
        let quantile = |q: f64| -> u64 {
            let target = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (i, &c) in merged.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return upper_bound(i);
                }
            }
            u64::MAX
        };
        (quantile(0.50), quantile(0.99))
    }

    /// Engine-work totals `(states_expanded, pair_hits, pair_misses)`.
    pub fn engine_totals(&self) -> (u64, u64, u64) {
        (
            self.states_expanded.load(Ordering::Relaxed),
            self.pair_hits.load(Ordering::Relaxed),
            self.pair_misses.load(Ordering::Relaxed),
        )
    }

    /// Renders the registry in Prometheus text exposition format,
    /// labelling every series with `db`. Empty verb/route series are
    /// rendered too (stable scrape shape); empty *status* series are
    /// elided only for `aborted` to keep the common case compact.
    pub fn render_prometheus(&self, db: &str) -> String {
        let mut out = String::with_capacity(8 * 1024);
        out.push_str(
            "# HELP indord_request_duration_ns Request wall time by verb, nanoseconds.\n\
             # TYPE indord_request_duration_ns histogram\n",
        );
        for verb in Verb::ALL {
            for status in [Status::Ok, Status::Aborted] {
                let h = self.verb_histogram(verb, status);
                if status == Status::Aborted && h.count() == 0 {
                    continue;
                }
                let labels = format!(
                    "db=\"{db}\",verb=\"{}\",status=\"{}\"",
                    verb.as_str(),
                    status.as_str()
                );
                render_histogram(&mut out, "indord_request_duration_ns", &labels, h);
            }
        }
        out.push_str(
            "# HELP indord_route_duration_ns Evaluation wall time by fired engine route, nanoseconds.\n\
             # TYPE indord_route_duration_ns histogram\n",
        );
        for (i, route) in Route::ALL.iter().enumerate() {
            let labels = format!("db=\"{db}\",route=\"{}\"", route.as_str());
            render_histogram(
                &mut out,
                "indord_route_duration_ns",
                &labels,
                &self.routes[i],
            );
        }
        out.push_str(
            "# HELP indord_commit_queue_depth Commit-queue depth sampled at enqueue.\n\
             # TYPE indord_commit_queue_depth histogram\n",
        );
        render_histogram(
            &mut out,
            "indord_commit_queue_depth",
            &format!("db=\"{db}\""),
            &self.queue_depth,
        );
        let (states, hits, misses) = self.engine_totals();
        for (name, help, value) in [
            (
                "indord_states_expanded_total",
                "States interned by the Thm 5.3 search.",
                states,
            ),
            (
                "indord_pair_hits_total",
                "Pair-table acquisitions served from the memo table.",
                hits,
            ),
            (
                "indord_pair_misses_total",
                "Pair-table acquisitions that ran the fixpoint computation.",
                misses,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name}{{db=\"{db}\"}} {value}\n"
            ));
        }
        out
    }
}

/// Writes one histogram in exposition format: cumulative `_bucket`
/// rows (empty buckets between occupied ones included, trailing empty
/// ones collapsed into `+Inf`), then `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let counts = h.snapshot();
    let total: u64 = counts.iter().sum();
    let last_occupied = counts.iter().rposition(|&c| c > 0);
    let mut cumulative = 0u64;
    if let Some(last) = last_occupied {
        for (i, &c) in counts.iter().enumerate().take(last + 1) {
            cumulative += c;
            out.push_str(&format!(
                "{name}_bucket{{{labels},le=\"{}\"}} {cumulative}\n",
                upper_bound(i)
            ));
        }
    }
    out.push_str(&format!("{name}_bucket{{{labels},le=\"+Inf\"}} {total}\n"));
    out.push_str(&format!("{name}_sum{{{labels}}} {}\n", h.sum()));
    out.push_str(&format!("{name}_count{{{labels}}} {total}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every value's bucket upper bound dominates it (the "at most"
        // quantile contract), except in the capped last bucket.
        for v in [0u64, 1, 2, 3, 1023, 1024, 1 << 40, u64::MAX] {
            assert!(upper_bound(bucket_of(v)) >= v, "{v}");
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_the_data() {
        let h = Histogram::new();
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record(v);
        }
        let (p50, p99) = h.p50_p99();
        assert!(p50 > 0);
        assert!(p99 >= p50);
        assert!(p99 >= 100_000, "p99 must reach the tail sample: {p99}");
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 101_500);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.p50_p99(), (0, 0));
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn registry_p50_p99_merges_ok_samples_only() {
        let m = MetricsRegistry::new();
        m.record_verb(Verb::Entail, Status::Ok, 1_000);
        m.record_verb(Verb::Fact, Status::Ok, 2_000);
        m.record_verb(Verb::Entail, Status::Aborted, u64::MAX / 2);
        let (p50, p99) = m.p50_p99();
        assert!(p50 >= 1_000 && p99 < u64::MAX / 4, "({p50}, {p99})");
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_consistent() {
        let m = MetricsRegistry::new();
        m.record_verb(Verb::Entail, Status::Ok, 5_000);
        m.record_verb(Verb::Entail, Status::Ok, 9_000);
        m.record_route(indord_entail::Route::Seq, 4_000);
        m.record_queue_depth(1);
        m.add_engine_counters(&indord_core::counters::EngineCounters {
            states_expanded: 7,
            pair_hits: 3,
            pair_misses: 2,
        });
        let text = m.render_prometheus("lab");
        // _count equals the recorded observations.
        assert!(
            text.contains(
                "indord_request_duration_ns_count{db=\"lab\",verb=\"entail\",status=\"ok\"} 2"
            ),
            "{text}"
        );
        // +Inf bucket equals _count on every series.
        for line in text.lines().filter(|l| l.contains("le=\"+Inf\"")) {
            let series = line.split("_bucket").next().unwrap();
            let inf: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            let labels = line
                .split('{')
                .nth(1)
                .unwrap()
                .split(",le=")
                .next()
                .unwrap();
            let count_line = text
                .lines()
                .find(|l| l.starts_with(&format!("{series}_count{{{labels}}}")))
                .unwrap_or_else(|| panic!("missing count for {series}{{{labels}}}"));
            let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
            assert_eq!(inf, count, "{line}");
        }
        // Buckets are cumulative (non-decreasing within a series).
        let entail_buckets: Vec<u64> = text
            .lines()
            .filter(|l| {
                l.starts_with(
                    "indord_request_duration_ns_bucket{db=\"lab\",verb=\"entail\",status=\"ok\"",
                )
            })
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(
            entail_buckets.windows(2).all(|w| w[0] <= w[1]),
            "{entail_buckets:?}"
        );
        assert!(
            text.contains("indord_states_expanded_total{db=\"lab\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("indord_pair_hits_total{db=\"lab\"} 3"),
            "{text}"
        );
        // Aborted series are elided when empty.
        assert!(!text.contains("status=\"aborted\""), "{text}");
        m.record_verb(Verb::Entail, Status::Aborted, 1_000);
        assert!(m.render_prometheus("lab").contains("status=\"aborted\""));
    }
}
