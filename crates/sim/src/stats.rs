//! Measurement collection: histograms, counters and flow tables.
//!
//! These are the instruments behind the paper's distribution plots —
//! Figure 9's latency and queue-size probability distributions, and the
//! latency min/avg/max bands of §6.1.2.

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// A fixed-width-bin histogram over `u64` samples (e.g. queue depth in
/// cells, latency in nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bin_width: u64,
    bins: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Samples ≥ `bin_width * bins.len()` land here (and in `max`).
    overflow: u64,
}

impl Histogram {
    /// A histogram of `nbins` bins, each `bin_width` wide. Sample `x` lands
    /// in bin `x / bin_width`.
    pub fn new(bin_width: u64, nbins: usize) -> Self {
        assert!(bin_width > 0 && nbins > 0);
        Histogram {
            bin_width,
            bins: vec![0; nbins],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            overflow: 0,
        }
    }

    /// The bin sample `x` lands in. The queue-depth histograms are one
    /// cell wide and take a sample or two per cell hop: they skip the
    /// 64-bit divide by a runtime width.
    #[inline]
    fn bin_of(&self, x: u64) -> usize {
        if self.bin_width == 1 {
            x as usize
        } else {
            (x / self.bin_width) as usize
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: u64) {
        self.count += 1;
        self.sum += x as u128;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let idx = self.bin_of(x);
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }
    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }
    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }
    /// Arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Probability mass of bin `i` (fraction of samples).
    pub fn pmf(&self, i: usize) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.bins[i] as f64 / self.count as f64
        }
    }

    /// Fraction of samples at or above `x` (complementary CDF); used for the
    /// paper's tail-probability plots (Fig 9 right, log scale).
    pub fn ccdf(&self, x: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let start = (x / self.bin_width) as usize;
        let mut above: u64 = self.overflow;
        for i in start..self.bins.len() {
            above += self.bins[i];
        }
        // The start bin may contain samples below x; this is a bin-resolution
        // approximation, acceptable for bin_width == 1 (exact) and plots.
        above as f64 / self.count as f64
    }

    /// Approximate quantile by scanning bins, under the same nearest-rank
    /// convention as [`quantile_of_sorted`] (`rank = round(q·(n−1))`): the
    /// result is the inclusive **upper** edge of the bin holding that
    /// rank's sample, clamped to the recorded maximum — the true quantile
    /// is never under-reported (the old lower-edge convention could
    /// under-report by a full bucket). Exceptions: `q = 0.0` returns the
    /// exact recorded minimum, and an all-overflow histogram returns the
    /// recorded maximum (the bins cannot resolve the overflow region).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0;
        }
        if q == 0.0 {
            return self.min();
        }
        let target = (q * (self.count - 1) as f64).round() as u64 + 1;
        let mut acc = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target {
                return ((i as u64 + 1) * self.bin_width - 1).min(self.max);
            }
        }
        self.max
    }

    /// Iterate `(bin_lower_edge, probability_mass)` over non-empty bins.
    pub fn nonempty_bins(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (i as u64 * self.bin_width, c as f64 / self.count as f64))
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Merge another histogram with identical geometry.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bin_width, other.bin_width);
        assert_eq!(self.bins.len(), other.bins.len());
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.overflow += other.overflow;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} mean={:.2} p50={} p99={} max={}",
            self.count,
            self.min(),
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max
        )
    }
}

/// Sub-bucket resolution of [`QuantileSketch`]: each power-of-two decade
/// splits into `2^SKETCH_SUB_BITS` equal-width bins, bounding relative
/// quantile error at `1 / 2^SKETCH_SUB_BITS`.
const SKETCH_SUB_BITS: u32 = 6;
const SKETCH_SUB: u64 = 1 << SKETCH_SUB_BITS;
/// Total bins: `SKETCH_SUB` exact unit bins for values `< SKETCH_SUB`,
/// then `64 − SKETCH_SUB_BITS` decades of `SKETCH_SUB` sub-bins each,
/// covering all of `u64`.
const SKETCH_NBINS: usize = (SKETCH_SUB as usize) * (64 - SKETCH_SUB_BITS as usize + 1);

/// A fixed-size, mergeable quantile sketch over `u64` samples
/// (picosecond durations in practice), in the HDR-histogram style:
/// log-spaced decades, each split into `SKETCH_SUB` linear sub-bins.
///
/// Properties the sharded engines rely on:
/// - **Bounded memory**: always exactly `SKETCH_NBINS` `u64` bins
///   (~30 KB), independent of sample count — the bounded-memory
///   [`FlowStats`] mode stores one of these instead of a per-flow table.
/// - **Deterministic & commutative merge**: [`QuantileSketch::merge`] is
///   bin-wise integer addition plus min/max/count/sum folds, so merging
///   shard sketches yields bit-identical state in *any* shard order, and
///   identical to recording all samples into one sketch directly.
/// - **Documented error bound**: values `< SKETCH_SUB` are exact; above
///   that a bin spanning `[lo, hi]` has width `≤ lo / SKETCH_SUB`, so a
///   reported quantile `v` satisfies `exact ≤ v ≤ exact · (1 + 1/64)`
///   (never under-reported, same upper-edge convention as
///   [`Histogram::quantile`]). Min and max are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    bins: Vec<u64>,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            bins: vec![0; SKETCH_NBINS],
        }
    }

    /// Bin index of value `v`: exact below `SKETCH_SUB`; above, the
    /// decade is `⌊log2 v⌋` and the sub-bin the next `SKETCH_SUB_BITS`
    /// bits of the mantissa.
    fn index(v: u64) -> usize {
        if v < SKETCH_SUB {
            return v as usize;
        }
        let decade = 63 - v.leading_zeros() as u64; // ≥ SKETCH_SUB_BITS
        let g = decade - SKETCH_SUB_BITS as u64;
        (SKETCH_SUB + g * SKETCH_SUB + ((v >> g) - SKETCH_SUB)) as usize
    }

    /// Inclusive upper edge of bin `idx` (the value `quantile` reports).
    fn bin_upper(idx: usize) -> u64 {
        let i = idx as u64;
        if i < SKETCH_SUB {
            return i;
        }
        let g = (i - SKETCH_SUB) / SKETCH_SUB;
        let sub = (i - SKETCH_SUB) % SKETCH_SUB;
        // The top bin's edge is 2^64; wrap to u64::MAX.
        ((SKETCH_SUB + sub + 1) << g).wrapping_sub(1)
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.bins[Self::index(v)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }
    /// Exact smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }
    /// Exact largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }
    /// Exact arithmetic mean (0.0 if empty) — `sum` is kept in `u128`.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Quantile under the [`quantile_of_sorted`] nearest-rank convention
    /// (`rank = round(q·(n−1))`), reporting the inclusive upper edge of
    /// the bin holding that rank's sample, clamped to the exact maximum.
    /// `q = 0.0` is the exact minimum. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return None;
        }
        if q == 0.0 {
            return Some(self.min);
        }
        let target = (q * (self.count - 1) as f64).round() as u64 + 1;
        let mut acc = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            acc += c;
            if acc >= target {
                return Some(Self::bin_upper(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another sketch: bin-wise addition plus count/sum/min/max
    /// folds. Commutative and associative, hence shard-order independent.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// A named monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }
    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// One finite flow (message) in a flow-completion-time experiment: who
/// sent how much to whom, when it started and (if it did) when its last
/// byte left the destination.
///
/// This is the engine-agnostic FCT surface shared by the transport-level
/// fat-tree simulator and the cell-accurate fabric engine, so the Fig 10
/// experiments can report both from one record type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// Source node index (host or Fabric Adapter, engine-dependent).
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Flow size in bytes.
    pub bytes: u64,
    /// When the flow was offered to the network.
    pub start: SimTime,
    /// When the last byte completed, if it did within the run.
    pub finished: Option<SimTime>,
}

impl FlowRecord {
    /// Flow completion time, if finished.
    pub fn fct(&self) -> Option<SimDuration> {
        self.finished.map(|f| f.since(self.start))
    }
}

/// Bounded-memory flow bookkeeping: counts, an exact FCT sum, and a
/// [`QuantileSketch`] of picosecond FCTs — fixed size regardless of how
/// many flows the run offers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SketchBook {
    offered: u64,
    finished: u64,
    fct_sum_ps: u128,
    fct_ps: QuantileSketch,
}

/// The two bookkeeping modes of [`FlowStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum Book {
    /// Per-flow table: exact quantiles, O(flows) memory.
    Table(Vec<FlowRecord>),
    /// Counts + sketch: bounded memory, quantiles within the
    /// [`QuantileSketch`] error bound.
    Sketch(SketchBook),
}

/// Per-flow FCT accounting plus an FCT histogram, in one of two modes:
/// the default **table** mode keeps every [`FlowRecord`] (exact
/// quantiles), the **sketch** mode ([`FlowStats::new_sketched`]) keeps
/// only counts and a [`QuantileSketch`] so million-flow streaming runs
/// use bounded memory.
///
/// Derives `PartialEq`/`Eq` so determinism suites can assert two
/// same-seed runs produce **bit-identical** flow measurements — in both
/// modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStats {
    book: Book,
    fct_ns: Histogram,
}

impl Default for FlowStats {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowStats {
    /// An empty table-mode instance. The histogram uses 1 µs bins out to
    /// ~65 ms; exact quantiles come from the per-flow table, the
    /// histogram serves distribution plots and merge-across-runs
    /// summaries.
    pub fn new() -> Self {
        FlowStats {
            book: Book::Table(Vec::new()),
            fct_ns: Histogram::new(1_000, 65_536),
        }
    }

    /// An empty sketch-mode instance: bounded memory, no per-flow
    /// records.
    pub fn new_sketched() -> Self {
        FlowStats {
            book: Book::Sketch(SketchBook {
                offered: 0,
                finished: 0,
                fct_sum_ps: 0,
                fct_ps: QuantileSketch::new(),
            }),
            fct_ns: Histogram::new(1_000, 65_536),
        }
    }

    /// True in bounded-memory sketch mode.
    pub fn is_sketched(&self) -> bool {
        matches!(self.book, Book::Sketch(_))
    }

    /// Register a flow; returns its index for [`FlowStats::finish`]. In
    /// sketch mode only the offered count advances (the index is the
    /// running count, for callers that thread ids through).
    pub fn add(&mut self, src: u32, dst: u32, bytes: u64, start: SimTime) -> u32 {
        match &mut self.book {
            Book::Table(records) => {
                records.push(FlowRecord {
                    src,
                    dst,
                    bytes,
                    start,
                    finished: None,
                });
                (records.len() - 1) as u32
            }
            Book::Sketch(sb) => {
                sb.offered += 1;
                (sb.offered - 1) as u32
            }
        }
    }

    /// Mark flow `idx`, started at `start`, finished at `at` and record
    /// its FCT. Table mode fills row `idx` (whose start must be `start`);
    /// sketch mode has no rows and folds the FCT into the sketch.
    pub fn finish(&mut self, idx: u32, start: SimTime, at: SimTime) {
        let fct = at.since(start);
        match &mut self.book {
            Book::Table(records) => {
                let r = &mut records[idx as usize];
                debug_assert!(r.finished.is_none(), "flow finished twice");
                debug_assert_eq!(r.start, start, "flow {idx} finished with another start");
                r.finished = Some(at);
            }
            Book::Sketch(sb) => {
                sb.finished += 1;
                sb.fct_sum_ps += fct.as_ps() as u128;
                sb.fct_ps.record(fct.as_ps());
            }
        }
        self.fct_ns.record(fct.as_nanos_f64() as u64);
    }

    /// The per-flow table, in registration order (empty in sketch mode).
    pub fn records(&self) -> &[FlowRecord] {
        match &self.book {
            Book::Table(records) => records,
            Book::Sketch(_) => &[],
        }
    }

    /// Number of registered flows.
    pub fn len(&self) -> usize {
        match &self.book {
            Book::Table(records) => records.len(),
            Book::Sketch(sb) => sb.offered as usize,
        }
    }

    /// True when no flows were registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of completed flows.
    pub fn completed(&self) -> usize {
        match &self.book {
            Book::Table(records) => records.iter().filter(|r| r.finished.is_some()).count(),
            Book::Sketch(sb) => sb.finished as usize,
        }
    }

    /// FCT histogram (nanosecond samples, 1 µs bins).
    pub fn fct_histogram_ns(&self) -> &Histogram {
        &self.fct_ns
    }

    /// Completed FCTs, ascending (empty in sketch mode — the individual
    /// durations are gone by design).
    pub fn fcts_sorted(&self) -> Vec<SimDuration> {
        let mut v: Vec<SimDuration> = self.records().iter().filter_map(|r| r.fct()).collect();
        v.sort_unstable();
        v
    }

    /// FCT quantile over completed flows (`None` when none completed).
    /// `q = 0.0` is the minimum, `q = 1.0` the maximum. Exact in table
    /// mode; within the [`QuantileSketch`] error bound in sketch mode.
    /// Table mode sorts on every call — for many quantiles use
    /// [`FlowStats::fct_quantiles`], which sorts once.
    pub fn fct_quantile(&self, q: f64) -> Option<SimDuration> {
        match &self.book {
            Book::Table(_) => quantile_of_sorted(&self.fcts_sorted(), q),
            Book::Sketch(sb) => sb.fct_ps.quantile(q).map(SimDuration::from_ps),
        }
    }

    /// Many FCT quantiles in one pass: table mode sorts **once** and
    /// indexes per `q` (the old per-call [`FlowStats::fct_quantile`]
    /// loop re-sorted the table for every quantile); sketch mode reads
    /// the sketch. Each entry is `None` when no flow completed.
    pub fn fct_quantiles(&self, qs: &[f64]) -> Vec<Option<SimDuration>> {
        match &self.book {
            Book::Table(_) => {
                let sorted = self.fcts_sorted();
                qs.iter().map(|&q| quantile_of_sorted(&sorted, q)).collect()
            }
            Book::Sketch(sb) => qs
                .iter()
                .map(|&q| sb.fct_ps.quantile(q).map(SimDuration::from_ps))
                .collect(),
        }
    }

    /// Merge the finishes of `other` into `self` (sharded-run reduction).
    ///
    /// **Table mode** (both sides): both tables must describe the same
    /// registered flow list (same length, same `src`/`dst`/`bytes`/`start`
    /// per index — the sharded fabric registers every flow on every shard,
    /// but each flow finishes on exactly one). Finishes are taken
    /// index-wise; the FCT histograms merge bin-wise, so the absorbed
    /// table is bit-identical to the one a sequential run records.
    ///
    /// **Sketch mode** (both sides): counts and sums add, sketch and
    /// histogram merge bin-wise. Every operation is commutative, so the
    /// reduction is bit-identical in any shard order and across shard
    /// counts. Shards hold *partial* books (each flow is offered and
    /// finished on one shard), so no length precondition applies.
    ///
    /// Mixed modes panic — a run picks one mode up front.
    pub fn absorb_finishes(&mut self, other: &FlowStats) {
        match (&mut self.book, &other.book) {
            (Book::Table(mine), Book::Table(theirs)) => {
                assert_eq!(mine.len(), theirs.len(), "absorbing a different flow table");
                for (m, t) in mine.iter_mut().zip(theirs) {
                    debug_assert_eq!(
                        (m.src, m.dst, m.bytes, m.start),
                        (t.src, t.dst, t.bytes, t.start),
                        "absorbing a different flow table"
                    );
                    if let Some(f) = t.finished {
                        assert!(
                            m.finished.is_none() || m.finished == Some(f),
                            "flow finished on two shards"
                        );
                        m.finished = Some(f);
                    }
                }
            }
            (Book::Sketch(mine), Book::Sketch(theirs)) => {
                mine.offered += theirs.offered;
                mine.finished += theirs.finished;
                mine.fct_sum_ps += theirs.fct_sum_ps;
                mine.fct_ps.merge(&theirs.fct_ps);
            }
            _ => panic!("absorbing mismatched flow-stat modes (table vs sketch)"),
        }
        self.fct_ns.merge(&other.fct_ns);
    }

    /// Mean FCT over completed flows (`None` when none completed); exact
    /// in both modes (the sketch book keeps the picosecond sum).
    pub fn fct_mean(&self) -> Option<SimDuration> {
        let (n, sum) = match &self.book {
            Book::Table(records) => {
                let (mut n, mut sum) = (0u128, 0u128);
                for d in records.iter().filter_map(|r| r.fct()) {
                    n += 1;
                    sum += d.as_ps() as u128;
                }
                (n, sum)
            }
            Book::Sketch(sb) => (sb.finished as u128, sb.fct_sum_ps),
        };
        if n == 0 {
            return None;
        }
        Some(SimDuration::from_ps((sum / n) as u64))
    }

    /// A sketch-mode copy of this instance: table rows collapse into
    /// counts + sketch (finished flows recorded in registration order —
    /// though order is immaterial, every sketch operation commutes). Lets
    /// exact-table runs be compared bit-for-bit against bounded-memory
    /// runs of the same scenario. A sketch-mode instance just clones.
    pub fn sketched(&self) -> FlowStats {
        match &self.book {
            Book::Sketch(_) => self.clone(),
            Book::Table(records) => {
                let mut out = FlowStats::new_sketched();
                for r in records {
                    out.add(r.src, r.dst, r.bytes, r.start);
                }
                for (idx, r) in records.iter().enumerate() {
                    if let Some(at) = r.finished {
                        out.finish(idx as u32, r.start, at);
                    }
                }
                out
            }
        }
    }
}

/// Nearest-rank quantile over an ascending slice (`None` when empty):
/// `q = 0.0` is the minimum, `q = 1.0` the maximum. The indexing
/// behind [`FlowStats::fct_quantile`], exposed so callers reading many
/// quantiles can sort once and index repeatedly.
pub fn quantile_of_sorted(sorted: &[SimDuration], q: f64) -> Option<SimDuration> {
    assert!((0.0..=1.0).contains(&q));
    if sorted.is_empty() {
        return None;
    }
    let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    Some(sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic() {
        let mut h = Histogram::new(1, 100);
        for x in [1u64, 2, 2, 3, 10] {
            h.record(x);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert!((h.mean() - 3.6).abs() < 1e-9);
        assert!((h.pmf(2) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn histogram_bins_by_division_at_every_width() {
        // Width 1 takes the divide-free path, the others the divide; both
        // must put every sample where `x / width` says, overflow included.
        let mut rng = crate::DetRng::from_label(7, "histogram-bins");
        for width in [1u64, 2, 100] {
            let nbins = 64;
            let mut one = Histogram::new(width, nbins);
            let (mut bins, mut overflow) = (vec![0u64; nbins], 0u64);
            for _ in 0..10_000 {
                let x = rng.below(width * 80);
                let n = rng.below(4);
                (0..n).for_each(|_| one.record(x));
                match bins.get_mut((x / width) as usize) {
                    Some(b) => *b += n,
                    None => overflow += n,
                }
            }
            assert!(overflow > 0, "width {width}: overflow not exercised");
            assert_eq!((&one.bins, one.overflow), (&bins, overflow), "{width}");
        }
    }

    #[test]
    fn histogram_ccdf_exact_with_unit_bins() {
        let mut h = Histogram::new(1, 32);
        for x in 0..10u64 {
            h.record(x);
        }
        assert!((h.ccdf(0) - 1.0).abs() < 1e-12);
        assert!((h.ccdf(5) - 0.5).abs() < 1e-12);
        assert!((h.ccdf(10) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(1, 1000);
        for x in 1..=100u64 {
            h.record(x);
        }
        // Nearest-rank over 1..=100: rank(0.5) = round(0.5·99) = 50 →
        // the 51st value. Matches `quantile_of_sorted` exactly at width 1.
        assert_eq!(h.quantile(0.5), 51);
        assert_eq!(h.quantile(0.99), 99);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn histogram_quantile_agrees_with_exact_table() {
        // Cross-check the bin-scan convention against the exact
        // nearest-rank table: at unit bins they must agree exactly; at
        // coarse bins the histogram reports the upper edge of the exact
        // value's bin, so `exact ≤ hist < exact_bin_lower + width`.
        let samples: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 10_000).collect();
        let sorted_d: Vec<SimDuration> = {
            let mut v: Vec<SimDuration> =
                samples.iter().map(|&s| SimDuration::from_ps(s)).collect();
            v.sort_unstable();
            v
        };
        let mut unit = Histogram::new(1, 10_000);
        let mut coarse = Histogram::new(100, 100);
        for &s in &samples {
            unit.record(s);
            coarse.record(s);
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = quantile_of_sorted(&sorted_d, q).unwrap().as_ps();
            assert_eq!(unit.quantile(q), exact, "q={q}: unit bins must be exact");
            let c = coarse.quantile(q);
            assert!(
                c >= exact && c < (exact / 100 + 1) * 100,
                "q={q}: coarse {c} vs exact {exact}"
            );
        }
    }

    #[test]
    fn quantile_zero_returns_recorded_min_not_bin_zero() {
        // Leading bins empty: q=0 must report the true minimum, not 0.
        let mut h = Histogram::new(1, 1000);
        for x in [50u64, 60, 70] {
            h.record(x);
        }
        assert_eq!(h.quantile(0.0), 50);
        // And a coarse-binned histogram reports the exact sample minimum,
        // not its bin's lower edge.
        let mut c = Histogram::new(100, 10);
        c.record(250);
        assert_eq!(c.quantile(0.0), 250);
        // Empty histogram stays at 0.
        assert_eq!(Histogram::new(1, 4).quantile(0.0), 0);
    }

    #[test]
    fn quantile_one_with_overflow_returns_max() {
        let mut h = Histogram::new(1, 4);
        h.record(2);
        h.record(100); // overflow
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 2);
    }

    #[test]
    fn quantile_all_overflow_returns_max() {
        let mut h = Histogram::new(1, 4);
        h.record(100);
        h.record(200);
        assert_eq!(h.quantile(0.0), 100, "q=0 is the recorded min");
        assert_eq!(h.quantile(0.5), 200, "bins cannot resolve overflow");
        assert_eq!(h.quantile(1.0), 200);
    }

    #[test]
    fn histogram_overflow_counted() {
        let mut h = Histogram::new(1, 4);
        h.record(100);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.count(), 1);
        assert!((h.ccdf(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(1, 8);
        let mut b = Histogram::new(1, 8);
        a.record(1);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 3);
    }

    #[test]
    fn flow_stats_records_and_quantiles() {
        let mut fs = FlowStats::new();
        let a = fs.add(0, 1, 1_000, SimTime::ZERO);
        let b = fs.add(2, 3, 2_000, SimTime::from_micros(5));
        let c = fs.add(4, 5, 3_000, SimTime::ZERO);
        fs.finish(a, SimTime::ZERO, SimTime::from_micros(10));
        fs.finish(b, SimTime::from_micros(5), SimTime::from_micros(25)); // fct = 20µs
        assert_eq!(fs.len(), 3);
        assert_eq!(fs.completed(), 2);
        assert_eq!(fs.records()[c as usize].fct(), None);
        assert_eq!(fs.fct_quantile(0.0), Some(SimDuration::from_micros(10)));
        assert_eq!(fs.fct_quantile(1.0), Some(SimDuration::from_micros(20)));
        assert_eq!(fs.fct_mean(), Some(SimDuration::from_micros(15)));
        assert_eq!(fs.fct_histogram_ns().count(), 2);
        // Bit-identical comparison is what determinism suites rely on.
        let clone = fs.clone();
        assert_eq!(fs, clone);
    }

    #[test]
    fn absorb_finishes_reduces_to_the_sequential_table() {
        // One "sequential" table vs the same flows split over two
        // "shards" (each finishing a disjoint subset): absorbing must be
        // bit-identical, histogram included.
        let add_all = |fs: &mut FlowStats| {
            fs.add(0, 1, 1_000, SimTime::ZERO);
            fs.add(1, 0, 2_000, SimTime::from_micros(1));
            fs.add(2, 3, 3_000, SimTime::from_micros(2));
        };
        let mut seq = FlowStats::new();
        add_all(&mut seq);
        seq.finish(0, SimTime::ZERO, SimTime::from_micros(10));
        seq.finish(2, SimTime::from_micros(2), SimTime::from_micros(30));
        let mut a = FlowStats::new();
        add_all(&mut a);
        a.finish(0, SimTime::ZERO, SimTime::from_micros(10));
        let mut b = FlowStats::new();
        add_all(&mut b);
        b.finish(2, SimTime::from_micros(2), SimTime::from_micros(30));
        a.absorb_finishes(&b);
        assert_eq!(a, seq);
    }

    #[test]
    #[should_panic(expected = "different flow table")]
    fn absorb_rejects_mismatched_tables() {
        let mut a = FlowStats::new();
        a.add(0, 1, 100, SimTime::ZERO);
        let b = FlowStats::new();
        a.absorb_finishes(&b);
    }

    #[test]
    fn empty_flow_stats_yield_none() {
        let fs = FlowStats::new();
        assert!(fs.is_empty());
        assert_eq!(fs.fct_quantile(0.5), None);
        assert_eq!(fs.fct_mean(), None);
    }

    #[test]
    fn sketch_bins_partition_u64() {
        // Every value maps into range, edges are consistent, and the bin
        // upper edge is the largest value mapping to that bin.
        for v in (0..200u64).chain([
            1_000,
            65_535,
            65_536,
            1 << 20,
            u64::MAX / 3,
            u64::MAX - 1,
            u64::MAX,
        ]) {
            let idx = QuantileSketch::index(v);
            assert!(idx < SKETCH_NBINS, "v={v} idx={idx}");
            let upper = QuantileSketch::bin_upper(idx);
            assert!(v <= upper, "v={v} upper={upper}");
            if upper < u64::MAX {
                assert_eq!(
                    QuantileSketch::index(upper + 1),
                    idx + 1,
                    "v={v}: upper edge {upper} must close the bin"
                );
            }
            assert_eq!(QuantileSketch::index(upper), idx);
        }
        assert_eq!(QuantileSketch::index(u64::MAX), SKETCH_NBINS - 1);
        assert_eq!(QuantileSketch::bin_upper(SKETCH_NBINS - 1), u64::MAX);
    }

    #[test]
    fn sketch_exact_below_sub_and_bounded_above() {
        let mut s = QuantileSketch::new();
        let samples: Vec<u64> = (1..=5_000u64).map(|i| i * i).collect();
        for &v in &samples {
            s.record(v);
        }
        let sorted: Vec<SimDuration> = samples.iter().map(|&v| SimDuration::from_ps(v)).collect();
        for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = quantile_of_sorted(&sorted, q).unwrap().as_ps();
            let got = s.quantile(q).unwrap();
            assert!(got >= exact, "q={q}: {got} under-reports {exact}");
            let bound = exact + exact / SKETCH_SUB + 1;
            assert!(
                got <= bound,
                "q={q}: {got} above bound {bound} (exact {exact})"
            );
        }
        // Small values are exact.
        let mut t = QuantileSketch::new();
        for v in 0..SKETCH_SUB {
            t.record(v);
        }
        assert_eq!(t.quantile(0.5).unwrap(), SKETCH_SUB / 2);
        assert_eq!(t.min(), 0);
        assert_eq!(t.max(), SKETCH_SUB - 1);
    }

    #[test]
    fn sketch_merge_is_order_independent_and_matches_direct() {
        let samples: Vec<u64> = (0..3_000u64).map(|i| (i * 48_271) % 1_000_000).collect();
        let mut direct = QuantileSketch::new();
        for &v in &samples {
            direct.record(v);
        }
        // Split into 4 "shards", merge in two different orders.
        let shards: Vec<QuantileSketch> = (0..4)
            .map(|s| {
                let mut sk = QuantileSketch::new();
                for &v in samples.iter().skip(s).step_by(4) {
                    sk.record(v);
                }
                sk
            })
            .collect();
        let mut asc = QuantileSketch::new();
        for sh in &shards {
            asc.merge(sh);
        }
        let mut desc = QuantileSketch::new();
        for sh in shards.iter().rev() {
            desc.merge(sh);
        }
        assert_eq!(asc, direct, "sharded merge must equal direct recording");
        assert_eq!(desc, direct, "merge order must not matter");
    }

    #[test]
    fn sketched_flow_stats_bound_memory_and_match_table() {
        let mut table = FlowStats::new();
        let mut sk = FlowStats::new_sketched();
        assert!(sk.is_sketched() && !table.is_sketched());
        for i in 0..50u32 {
            let start = SimTime::from_micros(i as u64);
            let id_t = table.add(i, i + 1, 1_000, start);
            let id_s = sk.add(i, i + 1, 1_000, start);
            assert_eq!(id_t, id_s, "sketch mode must hand out the same ids");
        }
        for i in 0..40u32 {
            let start = SimTime::from_micros(i as u64);
            let end = SimTime::from_micros(i as u64 + 7 + i as u64 % 3);
            table.finish(i, start, end);
            sk.finish(i, start, end);
        }
        assert_eq!(sk.len(), table.len());
        assert_eq!(sk.completed(), table.completed());
        assert_eq!(
            sk.fct_mean(),
            table.fct_mean(),
            "mean is exact in both modes"
        );
        assert_eq!(sk.fct_histogram_ns(), table.fct_histogram_ns());
        assert!(
            sk.records().is_empty(),
            "sketch mode keeps no per-flow rows"
        );
        // `sketched()` collapses a table into the identical sketch book.
        assert_eq!(table.sketched(), sk);
        // Quantiles: FCTs are 7..9 µs in ps — relative bound 1/64.
        for q in [0.0, 0.5, 0.99, 1.0] {
            let exact = table.fct_quantile(q).unwrap().as_ps();
            let got = sk.fct_quantile(q).unwrap().as_ps();
            assert!(got >= exact && got <= exact + exact / 64 + 1, "q={q}");
        }
        // fct_quantiles agrees with the one-at-a-time path in both modes.
        let qs = [0.0, 0.25, 0.5, 1.0];
        for fs in [&table, &sk] {
            let many = fs.fct_quantiles(&qs);
            for (i, &q) in qs.iter().enumerate() {
                assert_eq!(many[i], fs.fct_quantile(q));
            }
        }
    }

    #[test]
    fn sketch_mode_absorb_is_shard_order_independent() {
        // Partial books (disjoint flows per shard) must reduce to the
        // same state in any order — the sharded fabric's guarantee.
        let book = |flows: &[(u32, u64)]| {
            let mut fs = FlowStats::new_sketched();
            for &(src, fct_us) in flows {
                let idx = fs.add(src, src + 1, 500, SimTime::ZERO);
                fs.finish(idx, SimTime::ZERO, SimTime::from_micros(fct_us));
            }
            fs
        };
        let a = book(&[(0, 10), (1, 20)]);
        let b = book(&[(2, 30)]);
        let c = book(&[(3, 40), (4, 50), (5, 60)]);
        let mut fwd = a.clone();
        fwd.absorb_finishes(&b);
        fwd.absorb_finishes(&c);
        let mut rev = c.clone();
        rev.absorb_finishes(&b);
        rev.absorb_finishes(&a);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.len(), 6);
        assert_eq!(fwd.completed(), 6);
        assert_eq!(fwd.fct_quantile(0.0), Some(SimDuration::from_micros(10)));
    }

    #[test]
    #[should_panic(expected = "mismatched flow-stat modes")]
    fn absorb_rejects_mixed_modes() {
        let mut a = FlowStats::new();
        a.absorb_finishes(&FlowStats::new_sketched());
    }
}
