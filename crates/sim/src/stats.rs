//! Statistic primitives used throughout the simulator.
//!
//! The paper reports three kinds of quantities: latencies (Figure 6),
//! bandwidths (Figure 7) and execution times / bus occupancies (Figure 8 and
//! §5.2). The types in this module cover all three:
//!
//! * [`Counter`] — a monotonically increasing event count.
//! * [`Histogram`] — sample distribution with mean/min/max/percentiles, used
//!   for per-message latencies.
//! * [`LatencyHistogram`] — a fixed-size log-bucketed (power-of-two) latency
//!   distribution whose record and merge paths are pure integer arithmetic,
//!   so per-shard histograms compose into machine totals bit-identically in
//!   any merge order. This is the tail-latency instrument for the
//!   request/response service workloads.
//! * [`OccupancyTracker`] — accumulates how many cycles a shared resource
//!   (a bus) was busy, broken down by transaction kind, which is exactly what
//!   the memory-bus-occupancy comparison in §5.2 needs.
//! * [`StatsRegistry`] — a string-keyed collection of the above so harness
//!   code can dump everything uniformly.
//!
//! Aggregation across shards, nodes and campaign cells goes through one
//! trait, [`Merge`], so a new counter cannot silently be dropped from a
//! hand-written merge function.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::Cycle;

/// Combining two statistics of the same kind into one.
///
/// Every aggregate the simulator reports — per-node message counters,
/// fabric totals, checkpoint accounting, latency histograms — is built by
/// merging per-shard partials. Routing all of them through this one trait
/// keeps the aggregation code generic and makes "forgot to merge the new
/// field" a review-visible diff on the `Merge` impl rather than a silent
/// bug in some hand-rolled summing loop.
///
/// Implementations must be **associative and commutative**: merging the
/// same partials in any grouping or order must produce bit-identical
/// results, because shard counts and executor schedules vary while the
/// reported totals may not (determinism invariants 1–7).
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);

    /// Merges an iterator of parts into a fresh default value.
    fn merged<I>(parts: I) -> Self
    where
        Self: Default + Sized,
        I: IntoIterator<Item = Self>,
    {
        let mut total = Self::default();
        for part in parts {
            total.merge(&part);
        }
        total
    }
}

/// A simple monotonically increasing counter.
///
/// ```
/// use cni_sim::stats::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Adds one to the counter.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Resets the counter to zero.
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

/// A sample distribution.
///
/// Stores every sample (the simulations here produce at most a few hundred
/// thousand samples per run, so this is cheap) and computes summary
/// statistics on demand.
///
/// ```
/// use cni_sim::stats::Histogram;
/// let mut h = Histogram::new();
/// for v in [10, 20, 30] { h.record(v); }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.min(), Some(10));
/// assert_eq!(h.max(), Some(30));
/// assert!((h.mean().unwrap() - 20.0).abs() < 1e-9);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Arithmetic mean, if any samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum() as f64 / self.samples.len() as f64)
        }
    }

    /// The `p`-th percentile (0.0..=100.0) using nearest-rank, if non-empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    /// Removes all samples.
    pub fn reset(&mut self) {
        self.samples.clear();
    }

    /// Iterates over the raw samples in recording order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.samples.iter().copied()
    }
}

/// Number of power-of-two buckets in a [`LatencyHistogram`].
pub const LATENCY_BUCKETS: usize = 64;

/// A deterministic log-bucketed latency distribution.
///
/// Bucket `0` holds the value `0`; bucket `i` (for `1 <= i < 63`) holds
/// values in `[2^(i-1), 2^i - 1]` — i.e. a sample lands in the bucket of its
/// bit length; bucket `63` absorbs everything from `2^62` up. Recording and
/// merging are pure `u64` additions (plus an integer `max`), so merging the
/// same partial histograms in **any order or grouping produces bit-identical
/// results** — the property the sharded driver needs to report one machine
/// total regardless of shard count, executor mode or lookahead mode. There
/// are no floats anywhere in the record/merge/quantile paths.
///
/// Quantiles are nearest-rank over the bucket upper bounds, clamped to the
/// exact recorded maximum, so `quantile_permille(1000)` is the exact max
/// and tail quantiles are conservative (never under-reported) to within a
/// factor of two.
///
/// ```
/// use cni_sim::stats::{LatencyHistogram, Merge};
/// let mut a = LatencyHistogram::new();
/// let mut b = LatencyHistogram::new();
/// for v in [3, 5, 900] { a.record(v); }
/// b.record(17);
/// a.merge(&b);
/// assert_eq!(a.count(), 4);
/// assert_eq!(a.max(), 900);
/// assert_eq!(a.quantile_permille(1000), 900);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a sample of `value` cycles lands in: its bit length,
    /// clamped to the top bucket.
    pub fn bucket_index(value: u64) -> usize {
        let bits = (u64::BITS - value.leading_zeros()) as usize;
        bits.min(LATENCY_BUCKETS - 1)
    }

    /// The largest value bucket `index` can hold (inclusive).
    pub fn bucket_upper_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            i if i >= LATENCY_BUCKETS - 1 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Records one latency sample, in cycles.
    pub fn record(&mut self, cycles: u64) {
        self.buckets[Self::bucket_index(cycles)] += 1;
        self.count += 1;
        // Wrapping keeps the sum associative/commutative even for
        // adversarial full-range samples; realistic cycle latencies never
        // come near 2^64.
        self.sum = self.sum.wrapping_add(cycles);
        self.max = self.max.max(cycles);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples, in cycles.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact largest recorded sample (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The per-bucket sample counts.
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// The `q`‰ quantile (nearest-rank; `q` in `0..=1000`, so p50 is
    /// `500`, p99 is `990`, p99.9 is `999`) as an integer cycle count.
    ///
    /// Returns the containing bucket's upper bound, clamped to the exact
    /// recorded maximum; zero when the histogram is empty. Integer
    /// arithmetic only, so the result is a pure function of the bucket
    /// contents.
    ///
    /// # Panics
    ///
    /// Panics if `q > 1000`.
    pub fn quantile_permille(&self, q: u64) -> u64 {
        assert!(q <= 1000, "quantile out of range: {q}‰");
        if self.count == 0 {
            return 0;
        }
        // Nearest-rank: the smallest rank r (1-based) with r*1000 >= q*count.
        let rank = (q * self.count).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_bound(index).min(self.max);
            }
        }
        self.max
    }

    /// Removes all samples.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl Merge for LatencyHistogram {
    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Tracks how long a shared resource was occupied, broken down by a caller
/// supplied kind label.
///
/// Buses use this to report occupancy per transaction type; the §5.2 claim
/// that CQ-based CNIs cut memory-bus occupancy by ~66 % relative to `NI2w`
/// is computed from two of these trackers.
///
/// ```
/// use cni_sim::stats::OccupancyTracker;
/// let mut t = OccupancyTracker::new();
/// t.record("uncached_load", 28);
/// t.record("uncached_load", 28);
/// t.record("cache_to_cache", 42);
/// assert_eq!(t.total_busy(), 98);
/// assert_eq!(t.busy_for("uncached_load"), 56);
/// assert_eq!(t.transactions(), 3);
/// ```
// No `Deserialize`: the interned `&'static str` keys make the tracker
// serializable but not deserializable (real serde cannot conjure a
// `&'static str` from input data), and nothing round-trips trackers.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize)]
pub struct OccupancyTracker {
    // `(kind, transactions, busy cycles)`, sorted by kind, so equality and
    // iteration order do not depend on the order kinds first appeared.
    // Kinds are interned static labels: recording a transaction on the
    // simulator's hot path must not allocate (a `String` key per bus
    // transaction showed up as the dominant allocation in the machine loop),
    // and a bus sees only a handful of kinds, so a scan comparing label
    // pointers finds the entry faster than any string-keyed map.
    by_kind: Vec<(&'static str, u64, Cycle)>,
    total_busy: Cycle,
    transactions: u64,
}

impl OccupancyTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a transaction of `kind` that occupied the resource for
    /// `cycles` cycles.
    ///
    /// `kind` is a `&'static str` so the per-transaction record is
    /// allocation-free; every call site labels transactions with string
    /// literals anyway.
    pub fn record(&mut self, kind: &'static str, cycles: Cycle) {
        self.add(kind, 1, cycles);
        self.total_busy += cycles;
        self.transactions += 1;
    }

    /// Adds `n` transactions and `cycles` busy cycles to `kind`'s entry,
    /// inserting the entry in kind order on first use.
    fn add(&mut self, kind: &'static str, n: u64, cycles: Cycle) {
        // Call sites pass string literals, so the same kind is almost always
        // the same pointer; equal text behind another pointer falls through
        // to the ordered search.
        let index = match self.by_kind.iter().position(|e| std::ptr::eq(e.0, kind)) {
            Some(index) => index,
            None => match self.by_kind.binary_search_by(|e| e.0.cmp(kind)) {
                Ok(index) => index,
                Err(index) => {
                    self.by_kind.insert(index, (kind, 0, 0));
                    index
                }
            },
        };
        let entry = &mut self.by_kind[index];
        entry.1 += n;
        entry.2 += cycles;
    }

    fn get(&self, kind: &str) -> Option<&(&'static str, u64, Cycle)> {
        self.by_kind.iter().find(|e| e.0 == kind)
    }

    /// Total busy cycles across all kinds.
    pub fn total_busy(&self) -> Cycle {
        self.total_busy
    }

    /// Total number of transactions across all kinds.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Busy cycles attributed to `kind` (zero if never recorded).
    pub fn busy_for(&self, kind: &str) -> Cycle {
        self.get(kind).map_or(0, |e| e.2)
    }

    /// Number of transactions of `kind` (zero if never recorded).
    pub fn count_for(&self, kind: &str) -> u64 {
        self.get(kind).map_or(0, |e| e.1)
    }

    /// Utilisation in `0.0..=1.0` over an elapsed wall-clock interval.
    ///
    /// Returns zero when `elapsed` is zero.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.total_busy as f64 / elapsed as f64
        }
    }

    /// Iterates over `(kind, transaction count, busy cycles)` in
    /// lexicographic kind order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64, Cycle)> + '_ {
        self.by_kind.iter().copied()
    }

    /// Resets the tracker.
    pub fn reset(&mut self) {
        self.by_kind.clear();
        self.total_busy = 0;
        self.transactions = 0;
    }
}

impl Merge for OccupancyTracker {
    fn merge(&mut self, other: &Self) {
        for (kind, n, cycles) in other.iter() {
            self.add(kind, n, cycles);
        }
        self.total_busy += other.total_busy;
        self.transactions += other.transactions;
    }
}

/// A string-keyed registry of counters and histograms.
///
/// Harness binaries use this to dump everything a simulation collected in a
/// uniform, diffable format.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct StatsRegistry {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

impl StatsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating if necessary) the counter named `name`.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        self.counters.entry(name.to_owned()).or_default()
    }

    /// Returns (creating if necessary) the histogram named `name`.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_owned()).or_default()
    }

    /// Reads a counter's value, zero if it does not exist.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Reads a histogram, `None` if it does not exist.
    pub fn histogram_ref(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates over counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.get()))
    }

    /// Iterates over histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Clears every counter and histogram (keys are retained).
    pub fn reset(&mut self) {
        for c in self.counters.values_mut() {
            c.reset();
        }
        for h in self.histograms.values_mut() {
            h.reset();
        }
    }
}

impl fmt::Display for StatsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.counters() {
            writeln!(f, "{name}: {value}")?;
        }
        for (name, hist) in self.histograms() {
            writeln!(
                f,
                "{name}: n={} mean={:.1} min={:?} max={:?}",
                hist.count(),
                hist.mean().unwrap_or(0.0),
                hist.min(),
                hist.max()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 50.5).abs() < 1e-9);
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(100.0), Some(100));
        let median = h.percentile(50.0).unwrap();
        assert!((50..=51).contains(&median));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn histogram_percentile_rejects_out_of_range() {
        let h = Histogram::new();
        let _ = h.percentile(101.0);
    }

    #[test]
    fn latency_bucket_boundaries_are_pinned_powers_of_two() {
        // The bucket layout is a wire-format-like contract: RESULTS.md
        // quantiles and the cross-shard determinism tests both depend on
        // it, so pin it explicitly.
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(7), 3);
        assert_eq!(LatencyHistogram::bucket_index(8), 4);
        for i in 1..=62 {
            let low = 1u64 << (i - 1);
            let high = (1u64 << i) - 1;
            assert_eq!(LatencyHistogram::bucket_index(low), i, "2^{}", i - 1);
            assert_eq!(LatencyHistogram::bucket_index(high), i, "2^{i} - 1");
        }
        assert_eq!(LatencyHistogram::bucket_index(1 << 62), 63);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 63);
        assert_eq!(LatencyHistogram::bucket_upper_bound(0), 0);
        assert_eq!(LatencyHistogram::bucket_upper_bound(1), 1);
        assert_eq!(LatencyHistogram::bucket_upper_bound(5), 31);
        assert_eq!(LatencyHistogram::bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn latency_quantiles_are_integer_and_clamped_to_max() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_permille(500), 0);
        for v in [10, 10, 10, 900] {
            h.record(v);
        }
        // Ranks 1..=3 land in bucket 4 (values 8..=15, upper bound 15);
        // rank 4 is the exact max.
        assert_eq!(h.quantile_permille(500), 15);
        assert_eq!(h.quantile_permille(750), 15);
        assert_eq!(h.quantile_permille(990), 900);
        assert_eq!(h.quantile_permille(1000), 900);
        // A single-sample histogram reports the exact value everywhere.
        let mut one = LatencyHistogram::new();
        one.record(123_456);
        for q in [0, 500, 990, 999, 1000] {
            assert_eq!(one.quantile_permille(q), 123_456, "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn latency_quantile_rejects_out_of_range() {
        let _ = LatencyHistogram::new().quantile_permille(1001);
    }

    #[test]
    fn latency_merge_is_associative_and_commutative_under_fuzz() {
        use crate::rng::DetRng;
        let mut rng = DetRng::new(0x7A11_1A7E);
        for round in 0..64 {
            // Three random partial histograms with samples spanning the
            // full bucket range (skewed small like real latencies).
            let mut parts = [LatencyHistogram::new(); 3];
            for part in &mut parts {
                for _ in 0..rng.gen_index(40) {
                    let magnitude = rng.gen_index(64) as u32;
                    part.record(rng.next_u64() >> magnitude);
                }
            }
            let [a, b, c] = parts;
            // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            let mut bc = b;
            bc.merge(&c);
            let mut right = a;
            right.merge(&bc);
            assert_eq!(left, right, "associativity, round {round}");
            // a ⊕ b == b ⊕ a
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            assert_eq!(ab, ba, "commutativity, round {round}");
            // And the whole is the fold of the parts, via the trait helper.
            let folded = Merge::merged([a, b, c]);
            assert_eq!(left, folded, "merged() fold, round {round}");
            assert_eq!(
                folded.count(),
                a.count() + b.count() + c.count(),
                "counts add, round {round}"
            );
        }
    }

    #[test]
    fn occupancy_breakdown_and_merge() {
        let mut a = OccupancyTracker::new();
        a.record("x", 10);
        a.record("y", 5);
        let mut b = OccupancyTracker::new();
        b.record("x", 7);
        a.merge(&b);
        assert_eq!(a.total_busy(), 22);
        assert_eq!(a.busy_for("x"), 17);
        assert_eq!(a.count_for("x"), 2);
        assert_eq!(a.transactions(), 3);
        assert!((a.utilization(44) - 0.5).abs() < 1e-9);
        assert_eq!(a.utilization(0), 0.0);
    }

    #[test]
    fn occupancy_kinds_are_ordered_whatever_the_recording_order() {
        // The same label text behind a different pointer is the same kind.
        let membus: &'static str = Box::leak(String::from("membus").into_boxed_str());
        assert!(!std::ptr::eq(membus, "membus"));
        let mut a = OccupancyTracker::new();
        for (kind, cycles) in [("zeta", 1), ("alpha", 2), ("membus", 3), ("alpha", 4)] {
            a.record(kind, cycles);
        }
        let mut b = OccupancyTracker::new();
        for (kind, cycles) in [(membus, 3), ("alpha", 4), ("zeta", 1), ("alpha", 2)] {
            b.record(kind, cycles);
        }
        assert_eq!(a, b);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            [("alpha", 2, 6), ("membus", 1, 3), ("zeta", 1, 1)]
        );
        assert_eq!(b.busy_for("membus"), 3);
        assert_eq!(b.count_for("missing"), 0);
        let mut c = OccupancyTracker::new();
        c.record("beta", 9);
        let ac = OccupancyTracker::merged([a.clone(), c.clone()]);
        assert_eq!(ac, OccupancyTracker::merged([c, a]));
        assert_eq!(
            ac.iter().map(|(kind, ..)| kind).collect::<Vec<_>>(),
            ["alpha", "beta", "membus", "zeta"]
        );
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = StatsRegistry::new();
        reg.counter("messages").add(12);
        reg.histogram("latency").record(300);
        assert_eq!(reg.counter_value("messages"), 12);
        assert_eq!(reg.counter_value("missing"), 0);
        assert_eq!(reg.histogram_ref("latency").unwrap().count(), 1);
        let rendered = reg.to_string();
        assert!(rendered.contains("messages: 12"));
        reg.reset();
        assert_eq!(reg.counter_value("messages"), 0);
    }
}
