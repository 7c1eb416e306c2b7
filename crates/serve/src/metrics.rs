//! Lock-free request metrics: per-endpoint counters plus a sub-log2
//! latency histogram, all plain atomics so recording never contends.

use std::sync::atomic::{AtomicU64, Ordering};

use gittables_embed::MemoStats;
use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::engine::EngineBuildStats;

/// The routable endpoints, used to key per-endpoint counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/health`
    Health,
    /// `/metrics`
    Metrics,
    /// `/search`
    Search,
    /// `/complete`
    Complete,
    /// `/types`
    Types,
    /// `/types/{label}/tables`
    TypeTables,
    /// `/tables/{id}`
    Table,
    /// `/shutdown`
    Shutdown,
    /// `/reload`
    Reload,
    /// Anything unrouted (404s).
    Other,
}

/// Number of distinct endpoints (the counter array length).
pub const NUM_ENDPOINTS: usize = 10;

/// All endpoints, aligned with the counter array.
pub const ENDPOINTS: [Endpoint; NUM_ENDPOINTS] = [
    Endpoint::Health,
    Endpoint::Metrics,
    Endpoint::Search,
    Endpoint::Complete,
    Endpoint::Types,
    Endpoint::TypeTables,
    Endpoint::Table,
    Endpoint::Shutdown,
    Endpoint::Reload,
    Endpoint::Other,
];

impl Endpoint {
    /// Stable name used in `/metrics` output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Health => "health",
            Endpoint::Metrics => "metrics",
            Endpoint::Search => "search",
            Endpoint::Complete => "complete",
            Endpoint::Types => "types",
            Endpoint::TypeTables => "type_tables",
            Endpoint::Table => "table",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Reload => "reload",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        ENDPOINTS.iter().position(|e| *e == self).expect("listed")
    }
}

/// Latencies below this many microseconds get one bucket per value —
/// exact at the bottom of the scale, where sub-log2 quarters would be
/// fractions of a microsecond wide.
const LINEAR_BUCKETS: u64 = 16;

/// First octave covered by the sub-log2 region (`2^4 == LINEAR_BUCKETS`).
const FIRST_OCTAVE: u32 = 4;

/// Sub-buckets per octave: each power-of-two range `[2^o, 2^{o+1})` is
/// split into 4 equal linear quarters, bounding the quantile estimate's
/// relative error at ~25% instead of ~100% for a plain log2 histogram —
/// the difference between p50 == p99 == 255µs and a readable tail.
const SUB_BUCKETS: usize = 4;

/// Total bucket count: 16 exact single-µs buckets, then 4 quarters for
/// each octave 4..=63. The last bucket is open-ended.
const BUCKETS: usize = LINEAR_BUCKETS as usize + (64 - FIRST_OCTAVE as usize) * SUB_BUCKETS;

/// Request counters + latency histogram. Cheap to share (`&self` only).
#[derive(Debug)]
pub struct Metrics {
    counts: [AtomicU64; NUM_ENDPOINTS],
    ok: AtomicU64,
    client_errors: AtomicU64,
    shard_errors: AtomicU64,
    histogram: [AtomicU64; BUCKETS],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            ok: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            shard_errors: AtomicU64::new(0),
            histogram: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a latency in microseconds: exact below
/// [`LINEAR_BUCKETS`], then octave quarters (log2 with 4 linear
/// sub-buckets — the two bits after the leading one pick the quarter).
fn bucket(us: u64) -> usize {
    if us < LINEAR_BUCKETS {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros();
    let quarter = ((us >> (octave - 2)) & 0b11) as usize;
    let b = LINEAR_BUCKETS as usize + (octave - FIRST_OCTAVE) as usize * SUB_BUCKETS + quarter;
    b.min(BUCKETS - 1)
}

/// Largest latency falling into bucket `i` (the quantile estimate).
fn bucket_upper(i: usize) -> u64 {
    if i < LINEAR_BUCKETS as usize {
        return i as u64;
    }
    let rel = i - LINEAR_BUCKETS as usize;
    let octave = FIRST_OCTAVE + (rel / SUB_BUCKETS) as u32;
    let quarter = (rel % SUB_BUCKETS) as u64;
    let step = 1u64 << (octave - 2);
    (1u64 << octave)
        .saturating_add((quarter + 1).saturating_mul(step))
        .saturating_sub(1)
}

impl Metrics {
    /// Creates zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handled request.
    pub fn record(&self, endpoint: Endpoint, status: u16, latency_us: u64) {
        self.counts[endpoint.index()].fetch_add(1, Ordering::Relaxed);
        if (200..300).contains(&status) {
            self.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.client_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.histogram[bucket(latency_us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one scatter-gather fan-out that failed because a shard's
    /// query panicked (the request got a typed 500).
    pub fn record_shard_error(&self) {
        self.shard_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Latency quantile estimate in microseconds: the upper bound of the
    /// histogram bucket containing the `q`-quantile request (0 when no
    /// requests were recorded).
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .histogram
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // Rank of the quantile request, 1-based.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Snapshot for `/metrics`, folding in the response-cache stats and
    /// the serving snapshot's own facts: the engine's cold-start
    /// breakdown and how many requests it has scattered.
    #[must_use]
    pub fn snapshot(
        &self,
        cache: CacheStats,
        engine: EngineBuildStats,
        fanouts: u64,
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            engine,
            fanouts,
            total_requests: self.total(),
            ok: self.ok.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            shard_errors: self.shard_errors.load(Ordering::Relaxed),
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
            requests: ENDPOINTS
                .iter()
                .map(|e| EndpointCount {
                    endpoint: e.name().to_string(),
                    count: self.counts[e.index()].load(Ordering::Relaxed),
                })
                .collect(),
            cache,
            word_memo: MemoStats::default(),
        }
    }
}

/// One endpoint's request count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointCount {
    /// Endpoint name (see [`Endpoint::name`]).
    pub endpoint: String,
    /// Requests routed to it.
    pub count: u64,
}

/// `/metrics` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests handled since start.
    pub total_requests: u64,
    /// Responses with a 2xx status.
    pub ok: u64,
    /// Responses with a non-2xx status.
    pub client_errors: u64,
    /// Fan-outs that failed because a shard's query panicked (each one
    /// also counts as a non-2xx response). The panic is caught on the
    /// server worker that ran the query, which goes on serving.
    pub shard_errors: u64,
    /// Requests the serving snapshot scattered to every shard (`/search`,
    /// `/types`, `/types/{label}/tables` on a multi-shard set), each run
    /// shard by shard on the worker that took it. Counted per snapshot:
    /// like `engine`, a reload resets it.
    pub fanouts: u64,
    /// Estimated median handler latency (µs, histogram upper bound).
    /// Includes cache replays: this is observed response latency, so it
    /// drops as the cache warms — cold-query cost is the p99 tail.
    pub p50_us: u64,
    /// Estimated 99th-percentile handler latency (µs).
    pub p99_us: u64,
    /// Per-endpoint request counts.
    pub requests: Vec<EndpointCount>,
    /// Response-cache statistics.
    pub cache: CacheStats,
    /// Word-vector memo statistics of the serving snapshot's query
    /// embedders (`/search` embeds on shard 0, `/complete` on the shared
    /// completion index). Like `engine`, a reload resets them; zero in a
    /// snapshot assembled outside a server ([`Metrics::snapshot`]).
    pub word_memo: MemoStats,
    /// Cold-start breakdown of the serving engine (store load vs index
    /// build), fixed at engine construction.
    pub engine: EngineBuildStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_exact_then_quartered() {
        // Exact single-µs buckets at the bottom.
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(15), 15);
        // Octave 4 ([16, 32)) splits into quarters of 4µs.
        assert_eq!(bucket(16), 16);
        assert_eq!(bucket(19), 16);
        assert_eq!(bucket(20), 17);
        assert_eq!(bucket(31), 19);
        assert_eq!(bucket(32), 20);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_is_tight_and_monotonic() {
        // Every value maps into a bucket whose upper bound is >= the
        // value and within 25% of it (exact below 16µs).
        for us in [0, 1, 7, 15, 16, 17, 100, 200, 255, 999, 12_345, 1_000_000] {
            let upper = bucket_upper(bucket(us));
            assert!(upper >= us, "{us} -> {upper}");
            assert!(upper <= us + us / 4 + 1, "{us} -> {upper} too coarse");
        }
        for i in 1..BUCKETS {
            assert!(bucket_upper(i) > bucket_upper(i - 1), "bucket {i}");
        }
    }

    #[test]
    fn sub_millisecond_tails_distinguishable() {
        // The regression the sub-log2 buckets fix: 100µs vs 200µs landed
        // in the same [128, 256) log2 bucket, so `/metrics` reported
        // p50 == p99 == 255. Quarters keep them apart.
        assert_ne!(bucket(100), bucket(200));
        let m = Metrics::new();
        // 98 fast + 2 slow out of 100: the p99 rank (99th smallest)
        // falls on the slow tail.
        for _ in 0..98 {
            m.record(Endpoint::Search, 200, 100);
        }
        m.record(Endpoint::Search, 200, 200);
        m.record(Endpoint::Search, 200, 200);
        let (p50, p99) = (m.quantile_us(0.50), m.quantile_us(0.99));
        assert!(p50 < p99, "p50 {p50} must stay below p99 {p99}");
        assert!((100..=125).contains(&p50), "{p50}");
        assert!((200..=250).contains(&p99), "{p99}");
    }

    #[test]
    fn quantiles_from_histogram() {
        let m = Metrics::new();
        assert_eq!(m.quantile_us(0.5), 0);
        // 99 fast requests (~1µs) and one slow (= 1s).
        for _ in 0..99 {
            m.record(Endpoint::Search, 200, 1);
        }
        m.record(Endpoint::Search, 200, 1_000_000);
        assert_eq!(m.total(), 100);
        assert!(m.quantile_us(0.5) <= 1, "{}", m.quantile_us(0.5));
        assert!(m.quantile_us(0.99) <= 1);
        assert!(m.quantile_us(1.0) >= 1_000_000);
    }

    #[test]
    fn snapshot_counts_statuses() {
        let m = Metrics::new();
        m.record(Endpoint::Search, 200, 5);
        m.record(Endpoint::Other, 404, 5);
        let s = m.snapshot(CacheStats::default(), EngineBuildStats::default(), 0);
        assert_eq!(s.total_requests, 2);
        assert_eq!(s.ok, 1);
        assert_eq!(s.client_errors, 1);
        let search = s.requests.iter().find(|r| r.endpoint == "search").unwrap();
        assert_eq!(search.count, 1);
        assert!(s.requests.iter().any(|r| r.endpoint == "reload"));
    }
}
