//! Multi-backend host pooling: rate budgets, circuit breakers, failover.
//!
//! At crawl scale the extraction pipeline talks to several rate-limited,
//! independently flaky endpoints (API mirrors, regional replicas) rather
//! than one infallible host. [`HostPool`] wraps N replica backends behind
//! the [`CodeHost`] trait and, per operation:
//!
//! * routes to the **healthiest in-budget replica** — closed-breaker
//!   replicas first, then half-open probes, lowest smoothed latency
//!   winning ties;
//! * enforces a per-replica **token-bucket rate budget**
//!   ([`RateBudget`]), waiting for the earliest refill when every
//!   replica is out of budget;
//! * trips a per-replica **circuit breaker** ([`CircuitBreaker`]) after
//!   a run of consecutive transient failures, ejects the replica for a
//!   cooldown, then re-admits it through a single half-open probe;
//! * **fails over** transient errors to a different replica. Every
//!   attempt is one backend call on the replica routing chose.
//!
//! Permanent faults ([`HostError::CorruptContent`]) are different: a
//! corrupt *mirror copy* is healed by another replica, but once every
//! replica has returned corrupt for the same file the pool reports the
//! corruption — it is a property of the content, not the transport.
//!
//! # Determinism
//!
//! With [`PoolPolicy::deterministic`] set, the pool schedules against a
//! virtual clock ([`PoolClock::Virtual`]) and simulates each request's
//! latency as a pure function of `(seed, replica, operation, attempt)`.
//! Every routing, breaker and budget decision then depends
//! only on the operation sequence — never wall time — which is what lets
//! the fault-injection oracle assert that a transient-only multi-backend
//! run is *bit-identical* to the fault-free single-host run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::clock::PoolClock;
use crate::fault::mix;
use crate::host::{CodeHost, HostError};
use crate::search::{Query, SearchResponse};
use crate::unpoisoned;

/// When a replica's breaker opens and how long it stays open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive transient failures that trip the breaker open. Zero is
    /// treated as one.
    pub failure_threshold: u32,
    /// How long an open breaker rejects traffic before allowing a
    /// half-open probe.
    pub cooldown_ms: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 4,
            cooldown_ms: 1_000,
        }
    }
}

/// A token-bucket rate budget applied to each replica independently:
/// `capacity` requests may burst, then one token refills every
/// `refill_interval_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateBudget {
    /// Maximum tokens the bucket holds (burst size). Zero is treated as
    /// one.
    pub capacity: u32,
    /// Milliseconds per refilled token. Zero disables the budget.
    pub refill_interval_ms: u64,
}

/// Full scheduling policy of a [`HostPool`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolPolicy {
    /// Seed of the deterministic routing/tie-break/latency schedule.
    pub seed: u64,
    /// Total attempts (including the first) across all replicas before
    /// the pool gives up on an operation. Zero means `2 × replicas + 2`.
    pub max_attempts: u32,
    /// Per-replica circuit-breaker thresholds.
    pub breaker: BreakerPolicy,
    /// Per-replica rate budget; `None` means unmetered.
    pub budget: Option<RateBudget>,
    /// Schedule against a virtual clock with simulated latencies, making
    /// every decision a pure function of `(seed, operation, attempt)`.
    /// Off, the pool uses wall time and measured latencies.
    pub deterministic: bool,
}

/// The three circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows, consecutive failures are counted.
    Closed,
    /// Tripped: traffic is rejected until the cooldown expires.
    Open,
    /// One probe request is in flight; its outcome closes or re-opens
    /// the breaker.
    HalfOpen,
}

/// A consecutive-failure circuit breaker: `Closed` trips `Open` after
/// [`BreakerPolicy::failure_threshold`] transient failures in a row;
/// after [`BreakerPolicy::cooldown_ms`] a single probe is admitted
/// (`HalfOpen`), whose success closes the breaker and whose failure
/// re-opens it for another cooldown.
///
/// The breaker is a plain state machine over explicit millisecond
/// timestamps — no hidden clock — so its transitions are directly
/// property-testable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    cooldown_ms: u64,
    state: BreakerState,
    consecutive_failures: u32,
    open_until_ms: u64,
    opens: u64,
    probes: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    #[must_use]
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            failure_threshold: policy.failure_threshold.max(1),
            cooldown_ms: policy.cooldown_ms,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until_ms: 0,
            opens: 0,
            probes: 0,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive transient failures recorded while closed.
    #[must_use]
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// How many times the breaker has tripped open.
    #[must_use]
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// How many half-open probes have been admitted.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// When an open breaker's cooldown expires (meaningless unless open).
    #[must_use]
    pub fn open_until_ms(&self) -> u64 {
        self.open_until_ms
    }

    /// Whether a request may be routed here at `now_ms`: closed, or open
    /// with an expired cooldown (the request would become the half-open
    /// probe). A breaker already probing admits nothing else.
    #[must_use]
    pub fn admissible(&self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => now_ms >= self.open_until_ms,
        }
    }

    /// Commits to routing a request here at `now_ms`; an open breaker
    /// past its cooldown transitions to `HalfOpen`.
    pub fn admit(&mut self, now_ms: u64) {
        if self.state == BreakerState::Open && now_ms >= self.open_until_ms {
            self.state = BreakerState::HalfOpen;
            self.probes += 1;
        }
    }

    /// Records a successful (or authoritative, e.g. corrupt-content)
    /// response: the breaker closes and the failure run resets.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Records a transient failure at `now_ms`: extends the failure run,
    /// trips the breaker at the threshold, and re-opens a failed probe
    /// for another cooldown.
    pub fn record_failure(&mut self, now_ms: u64) {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.open_until_ms = now_ms + self.cooldown_ms;
                self.opens += 1;
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.failure_threshold {
                    self.state = BreakerState::Open;
                    self.open_until_ms = now_ms + self.cooldown_ms;
                    self.opens += 1;
                }
            }
            // A late failure while already open cannot trip anything
            // further. It happens when pipeline workers share the pool:
            // another worker's request, admitted before the trip, can
            // fail after it.
            BreakerState::Open => {}
        }
    }
}

/// One replica's token bucket.
#[derive(Debug)]
struct TokenBucket {
    capacity: u32,
    refill_interval_ms: u64,
    tokens: u32,
    last_refill_ms: u64,
}

impl TokenBucket {
    fn new(budget: RateBudget, now_ms: u64) -> Self {
        TokenBucket {
            capacity: budget.capacity.max(1),
            refill_interval_ms: budget.refill_interval_ms,
            tokens: budget.capacity.max(1),
            last_refill_ms: now_ms,
        }
    }

    fn refill(&mut self, now_ms: u64) {
        if self.refill_interval_ms == 0 {
            self.tokens = self.capacity;
            return;
        }
        let elapsed = now_ms.saturating_sub(self.last_refill_ms);
        let refilled = elapsed / self.refill_interval_ms;
        if refilled > 0 {
            let refilled_u32 = u32::try_from(refilled.min(u64::from(self.capacity))).unwrap_or(0);
            self.tokens = (self.tokens + refilled_u32).min(self.capacity);
            if self.tokens == self.capacity {
                self.last_refill_ms = now_ms;
            } else {
                self.last_refill_ms += refilled * self.refill_interval_ms;
            }
        }
    }

    /// Whether a token is (or will be, after refill) available at
    /// `now_ms`, without consuming it.
    fn available(&self, now_ms: u64) -> bool {
        if self.tokens > 0 || self.refill_interval_ms == 0 {
            return true;
        }
        now_ms.saturating_sub(self.last_refill_ms) >= self.refill_interval_ms
    }

    /// Consumes one token at `now_ms` (the caller checked availability).
    fn take(&mut self, now_ms: u64) {
        self.refill(now_ms);
        self.tokens = self.tokens.saturating_sub(1);
    }

    /// Earliest time a token will be available.
    fn next_available_ms(&self, now_ms: u64) -> u64 {
        if self.available(now_ms) {
            now_ms
        } else {
            self.last_refill_ms + self.refill_interval_ms
        }
    }
}

/// Per-replica scheduling statistics, part of [`PoolStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Replica name (`replica-0`, `replica-1`, …).
    pub name: String,
    /// Requests routed here (including probes).
    pub attempts: u64,
    /// Successful responses returned.
    pub served: u64,
    /// Transient errors returned.
    pub transient_errors: u64,
    /// Breaker state at snapshot time.
    pub breaker: BreakerState,
    /// Times this replica's breaker tripped open.
    pub breaker_opens: u64,
    /// Half-open probes admitted here.
    pub breaker_probes: u64,
}

/// A snapshot of pool scheduling counters; see
/// [`HostPool::stats`]. Monotonic except the per-replica breaker states.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Operations entering the pool (each may fan out into several
    /// replica attempts).
    pub operations: u64,
    /// Transient failures failed over to another replica or attempt.
    pub failovers: u64,
    /// Retired: the pool no longer hedges, so this always reads 0. It
    /// stays while the benchmark's trace still reads it.
    pub hedges: u64,
    /// Retired with [`PoolStats::hedges`]; always 0.
    pub hedges_won: u64,
    /// Times the pool had to wait for a rate budget or breaker cooldown.
    pub budget_waits: u64,
    /// Per-replica breakdown, in replica order.
    pub replicas: Vec<ReplicaStats>,
}

impl PoolStats {
    /// Sum of breaker trips across replicas.
    #[must_use]
    pub fn breaker_opens(&self) -> u64 {
        self.replicas.iter().map(|r| r.breaker_opens).sum()
    }

    /// The counter deltas since an `earlier` snapshot of the same pool
    /// (breaker states stay as in `self`). Used for per-pass crawl
    /// reports.
    #[must_use]
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        let replicas = self
            .replicas
            .iter()
            .map(|r| {
                let e = earlier.replicas.iter().find(|e| e.name == r.name);
                ReplicaStats {
                    name: r.name.clone(),
                    attempts: r.attempts - e.map_or(0, |e| e.attempts),
                    served: r.served - e.map_or(0, |e| e.served),
                    transient_errors: r.transient_errors - e.map_or(0, |e| e.transient_errors),
                    breaker: r.breaker,
                    breaker_opens: r.breaker_opens - e.map_or(0, |e| e.breaker_opens),
                    breaker_probes: r.breaker_probes - e.map_or(0, |e| e.breaker_probes),
                }
            })
            .collect();
        PoolStats {
            operations: self.operations - earlier.operations,
            failovers: self.failovers - earlier.failovers,
            budget_waits: self.budget_waits - earlier.budget_waits,
            replicas,
            ..PoolStats::default()
        }
    }
}

/// Mutable per-replica scheduling state, all behind one lock.
struct ReplicaState {
    breaker: CircuitBreaker,
    bucket: Option<TokenBucket>,
    /// Exponentially smoothed response latency, ms; 0 until first sample.
    ewma_latency_ms: f64,
    attempts: u64,
    served: u64,
    transient_errors: u64,
}

/// Upper bound on wait-and-retry iterations while every replica is out
/// of budget or cooling down, so a misconfigured pool errors instead of
/// spinning.
const MAX_WAITS: u32 = 64;

/// A [`CodeHost`] routing every operation across N replica backends with
/// rate budgets, circuit breakers and transient-failure failover. See
/// the `pool` module docs for the scheduling rules.
pub struct HostPool<H> {
    replicas: Vec<H>,
    names: Vec<String>,
    state: Mutex<Vec<ReplicaState>>,
    clock: PoolClock,
    policy: PoolPolicy,
    operations: AtomicU64,
    failovers: AtomicU64,
    budget_waits: AtomicU64,
}

impl<H: CodeHost> HostPool<H> {
    /// Pools `hosts` (named `replica-0`, `replica-1`, …) under `policy`.
    ///
    /// # Panics
    /// When `hosts` is empty.
    #[must_use]
    pub fn new(hosts: Vec<H>, policy: PoolPolicy) -> Self {
        assert!(!hosts.is_empty(), "a HostPool needs at least one replica");
        let clock = if policy.deterministic {
            PoolClock::virtual_clock()
        } else {
            PoolClock::wall()
        };
        let now = clock.now_ms();
        let state = hosts
            .iter()
            .map(|_| ReplicaState {
                breaker: CircuitBreaker::new(policy.breaker),
                bucket: policy.budget.map(|b| TokenBucket::new(b, now)),
                ewma_latency_ms: 0.0,
                attempts: 0,
                served: 0,
                transient_errors: 0,
            })
            .collect();
        let names = (0..hosts.len()).map(|i| format!("replica-{i}")).collect();
        HostPool {
            replicas: hosts,
            names,
            state: Mutex::new(state),
            clock,
            policy,
            operations: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            budget_waits: AtomicU64::new(0),
        }
    }

    /// Number of replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the pool has no replicas (never true: `new` panics on
    /// empty input, but clippy insists `len` has a companion).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica backend at `idx`.
    #[must_use]
    pub fn replica(&self, idx: usize) -> &H {
        &self.replicas[idx]
    }

    /// Snapshot of the scheduling counters and breaker states.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let state = unpoisoned(self.state.lock());
        PoolStats {
            operations: self.operations.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            budget_waits: self.budget_waits.load(Ordering::Relaxed),
            replicas: state
                .iter()
                .enumerate()
                .map(|(i, rs)| ReplicaStats {
                    name: self.names[i].clone(),
                    attempts: rs.attempts,
                    served: rs.served,
                    transient_errors: rs.transient_errors,
                    breaker: rs.breaker.state(),
                    breaker_opens: rs.breaker.opens(),
                    breaker_probes: rs.breaker.probes(),
                })
                .collect(),
            ..PoolStats::default()
        }
    }

    fn effective_max_attempts(&self) -> u32 {
        if self.policy.max_attempts > 0 {
            self.policy.max_attempts
        } else {
            u32::try_from(self.replicas.len()).unwrap_or(u32::MAX) * 2 + 2
        }
    }

    /// Simulated latency for deterministic mode: 4–31 ms, a pure
    /// function of `(seed, replica, operation, attempt)`.
    fn sim_latency_ms(&self, idx: usize, key: &str, attempt: u32) -> u64 {
        let replica_seed = self
            .policy
            .seed
            .wrapping_add((idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        4 + mix(replica_seed, key, 0x51ED ^ u64::from(attempt)) % 28
    }

    /// Picks the healthiest admissible replica not in `excluded`:
    /// closed breakers rank before half-open probes, lower smoothed
    /// latency wins within a rank, and exact ties break by a seeded hash
    /// of `(operation, attempt)` so the choice is deterministic yet
    /// spread across replicas.
    fn pick(&self, excluded: &[usize], now_ms: u64, key: &str, attempt: u32) -> Option<usize> {
        let state = unpoisoned(self.state.lock());
        let mut candidates: Vec<(u8, u64, usize)> = Vec::with_capacity(state.len());
        for (i, rs) in state.iter().enumerate() {
            if excluded.contains(&i) {
                continue;
            }
            let rank = match rs.breaker.state() {
                BreakerState::Closed => 0u8,
                BreakerState::Open if rs.breaker.admissible(now_ms) => 1,
                BreakerState::Open | BreakerState::HalfOpen => continue,
            };
            if let Some(bucket) = &rs.bucket {
                if !bucket.available(now_ms) {
                    continue;
                }
            }
            // Latency is compared in coarse 32 ms buckets: genuinely
            // slow replicas are depreferred, but small jitter does not
            // pin all traffic to one replica — the seeded tie-break
            // spreads same-bucket load, which keeps a failing replica
            // visited often enough for its breaker to trip.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let latency_bucket = (rs.ewma_latency_ms as u64) / 32;
            candidates.push((rank, latency_bucket, i));
        }
        drop(state);
        if candidates.is_empty() {
            return None;
        }
        candidates.sort_unstable();
        let best = (candidates[0].0, candidates[0].1);
        let top: Vec<usize> = candidates
            .iter()
            .take_while(|c| (c.0, c.1) == best)
            .map(|c| c.2)
            .collect();
        let pick = if top.len() == 1 {
            top[0]
        } else {
            let h = mix(self.policy.seed, key, 0x9001 ^ u64::from(attempt));
            top[usize::try_from(h % top.len() as u64).unwrap_or(0)]
        };
        Some(pick)
    }

    /// Earliest time any replica becomes admissible again (budget refill
    /// or breaker cooldown), for wait scheduling.
    fn earliest_eligible_ms(&self, now_ms: u64) -> u64 {
        let state = unpoisoned(self.state.lock());
        let mut earliest = u64::MAX;
        for rs in state.iter() {
            let mut avail = now_ms;
            match rs.breaker.state() {
                BreakerState::Closed => {}
                BreakerState::Open => avail = avail.max(rs.breaker.open_until_ms()),
                BreakerState::HalfOpen => continue,
            }
            if let Some(bucket) = &rs.bucket {
                avail = avail.max(bucket.next_available_ms(now_ms));
            }
            earliest = earliest.min(avail);
        }
        if earliest == u64::MAX {
            now_ms + self.policy.breaker.cooldown_ms.max(1)
        } else {
            earliest.max(now_ms + 1)
        }
    }

    /// Routes one raw request to replica `idx`: consumes a token, admits
    /// through the breaker, invokes `op`, then records the outcome and
    /// latency (simulated in deterministic mode, measured otherwise). In
    /// deterministic mode the virtual clock then advances by that
    /// latency.
    fn attempt_on<T>(
        &self,
        idx: usize,
        key: &str,
        attempt: u32,
        op: &impl Fn(&H) -> Result<T, HostError>,
    ) -> Result<T, HostError> {
        {
            let mut state = unpoisoned(self.state.lock());
            let now = self.clock.now_ms();
            let rs = &mut state[idx];
            if let Some(bucket) = &mut rs.bucket {
                bucket.take(now);
            }
            rs.breaker.admit(now);
            rs.attempts += 1;
        }
        let started = Instant::now();
        let result = op(&self.replicas[idx]);
        let latency_ms = if self.policy.deterministic {
            self.sim_latency_ms(idx, key, attempt)
        } else {
            u64::try_from(started.elapsed().as_millis())
                .unwrap_or(u64::MAX)
                .max(1)
        };
        let mut state = unpoisoned(self.state.lock());
        let now = self.clock.now_ms();
        let rs = &mut state[idx];
        match &result {
            Ok(_) => {
                rs.breaker.record_success();
                rs.served += 1;
            }
            // Corrupt content is an authoritative response about the
            // file, not a replica health problem.
            Err(HostError::CorruptContent { .. }) => rs.breaker.record_success(),
            Err(_) => {
                rs.transient_errors += 1;
                rs.breaker.record_failure(now);
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let sample = latency_ms as f64;
        rs.ewma_latency_ms = if rs.ewma_latency_ms == 0.0 {
            sample
        } else {
            0.7 * rs.ewma_latency_ms + 0.3 * sample
        };
        drop(state);
        if self.policy.deterministic {
            self.clock.advance_by(latency_ms);
        }
        result
    }

    /// The full scheduling loop for one operation: route, fail over,
    /// wait on budgets/cooldowns, bounded by
    /// [`PoolPolicy::max_attempts`].
    fn call<T>(&self, key: &str, op: impl Fn(&H) -> Result<T, HostError>) -> Result<T, HostError> {
        self.operations.fetch_add(1, Ordering::Relaxed);
        let max_attempts = self.effective_max_attempts();
        // Replicas not to re-route to this round: transient failures are
        // cleared once everyone has failed (streaks may clear on retry);
        // corrupt verdicts are permanent for this operation.
        let mut tried: Vec<usize> = Vec::new();
        let mut corrupt_replicas: Vec<usize> = Vec::new();
        let mut corrupt_error: Option<HostError> = None;
        let mut last_transient = HostError::Timeout;
        let mut waits = 0u32;
        let mut attempt = 0u32;
        while attempt < max_attempts {
            let now = self.clock.now_ms();
            let Some(idx) = self.pick(&tried, now, key, attempt) else {
                if tried.len() > corrupt_replicas.len()
                    && self.pick(&corrupt_replicas, now, key, attempt).is_some()
                {
                    // Every untried replica is unavailable but a
                    // transient-failed one is admissible again — its
                    // fault streak may have cleared.
                    tried.clone_from(&corrupt_replicas);
                    continue;
                }
                waits += 1;
                if waits > MAX_WAITS {
                    return Err(corrupt_error.unwrap_or(last_transient));
                }
                self.budget_waits.fetch_add(1, Ordering::Relaxed);
                let target = self.earliest_eligible_ms(now);
                self.clock.advance_to(target);
                continue;
            };
            attempt += 1;
            match self.attempt_on(idx, key, attempt, &op) {
                Ok(value) => return Ok(value),
                Err(err @ HostError::CorruptContent { .. }) => {
                    // `pick` skipped every replica in `tried`, which
                    // holds all of `corrupt_replicas`: no duplicate.
                    corrupt_replicas.push(idx);
                    tried.push(idx);
                    if corrupt_replicas.len() == self.replicas.len() {
                        // Every replica agrees the content is corrupt:
                        // report the permanent fault.
                        return Err(err);
                    }
                    corrupt_error = Some(err);
                }
                Err(err) => {
                    last_transient = err;
                    tried.push(idx);
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                }
            }
            if tried.len() == self.replicas.len() {
                // All replicas failed this round; re-admit the
                // transient ones (streaked faults clear on retry) but
                // never the corrupt ones.
                tried.clone_from(&corrupt_replicas);
            }
        }
        Err(corrupt_error.unwrap_or(last_transient))
    }
}

impl<H: CodeHost> CodeHost for HostPool<H> {
    fn count(&self, query: &Query) -> Result<usize, HostError> {
        self.call(&format!("count:{query}"), |h| h.count(query))
    }

    fn search(&self, query: &Query, page: usize) -> Result<SearchResponse, HostError> {
        self.call(&format!("search:{query}:p{page}"), |h| {
            h.search(query, page)
        })
    }

    fn fetch(&self, repository: &str, path: &str) -> Result<Option<String>, HostError> {
        self.call(&format!("fetch:{repository}/{path}"), |h| {
            h.fetch(repository, path)
        })
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSpec, FlakyHost};
    use crate::host::GitHost;
    use crate::model::{RepoFile, Repository};

    fn sample_host() -> GitHost {
        let host = GitHost::new();
        for i in 0..12 {
            host.add_repository(Repository {
                full_name: format!("u{i}/r{i}"),
                license: Some("mit".into()),
                fork: false,
                files: vec![RepoFile::new("data.csv", format!("id,v\n{i},x\n"))],
            });
        }
        host
    }

    fn det_policy(seed: u64) -> PoolPolicy {
        PoolPolicy {
            seed,
            deterministic: true,
            ..PoolPolicy::default()
        }
    }

    #[test]
    fn single_replica_pool_is_transparent() {
        let pool = HostPool::new(vec![sample_host()], det_policy(1));
        let direct = sample_host();
        for i in 0..12 {
            let (repo, path) = (format!("u{i}/r{i}"), "data.csv");
            assert_eq!(
                CodeHost::fetch(&pool, &repo, path).unwrap(),
                direct.fetch(&repo, path)
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.operations, 12);
        assert_eq!(stats.replicas[0].attempts, 12);
        assert_eq!(stats.replicas[0].served, 12);
    }

    #[test]
    fn failover_heals_transient_faults() {
        let flaky = FlakyHost::new(sample_host(), FaultSpec::transient(7, 0.6));
        let pool = HostPool::new(
            vec![FlakyHost::new(sample_host(), FaultSpec::default()), flaky],
            det_policy(3),
        );
        for i in 0..12 {
            let got = CodeHost::fetch(&pool, &format!("u{i}/r{i}"), "data.csv")
                .unwrap()
                .unwrap();
            assert_eq!(got, format!("id,v\n{i},x\n"));
        }
        let stats = pool.stats();
        assert_eq!(stats.operations, 12);
    }

    #[test]
    fn blackout_replica_trips_breaker_and_pool_survives() {
        let dead = FlakyHost::new(
            sample_host(),
            FaultSpec {
                seed: 1,
                transient_rate: 1.0,
                max_consecutive: u32::MAX,
                ..FaultSpec::default()
            },
        );
        let healthy = FlakyHost::new(sample_host(), FaultSpec::default());
        let policy = PoolPolicy {
            breaker: BreakerPolicy {
                failure_threshold: 3,
                cooldown_ms: 50,
            },
            ..det_policy(9)
        };
        let pool = HostPool::new(vec![dead, healthy], policy);
        for round in 0..3 {
            for i in 0..12 {
                let got = CodeHost::fetch(&pool, &format!("u{i}/r{i}"), "data.csv")
                    .unwrap()
                    .unwrap();
                assert_eq!(got, format!("id,v\n{i},x\n"), "round {round}");
            }
        }
        let stats = pool.stats();
        assert!(stats.breaker_opens() >= 1, "{stats:?}");
        assert!(stats.replicas[0].transient_errors > 0);
        assert_eq!(stats.replicas[1].transient_errors, 0);
        assert!(
            stats.replicas[1].served >= 30,
            "healthy replica carries the load: {stats:?}"
        );
    }

    #[test]
    fn deterministic_mode_reproduces_stats_exactly() {
        let run = || {
            let pool = HostPool::new(
                vec![
                    FlakyHost::new(sample_host(), FaultSpec::transient(5, 0.3)),
                    FlakyHost::new(sample_host(), FaultSpec::transient(6, 0.3)),
                ],
                PoolPolicy {
                    budget: Some(RateBudget {
                        capacity: 4,
                        refill_interval_ms: 3,
                    }),
                    ..det_policy(11)
                },
            );
            let mut log = Vec::new();
            for i in 0..12 {
                let (repo, path) = (format!("u{i}/r{i}"), "data.csv");
                log.push(format!("{repo}:{:?}", CodeHost::fetch(&pool, &repo, path)));
            }
            (log, pool.stats())
        };
        let (log_a, stats_a) = run();
        let (log_b, stats_b) = run();
        assert_eq!(log_a, log_b);
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn rate_budget_throttles_via_virtual_clock() {
        let pool = HostPool::new(
            vec![sample_host()],
            PoolPolicy {
                budget: Some(RateBudget {
                    capacity: 2,
                    refill_interval_ms: 500,
                }),
                ..det_policy(2)
            },
        );
        for i in 0..12 {
            CodeHost::fetch(&pool, &format!("u{i}/r{i}"), "data.csv").unwrap();
        }
        let stats = pool.stats();
        assert!(
            stats.budget_waits > 0,
            "12 fetches over a 2-token bucket must wait: {stats:?}"
        );
    }

    #[test]
    fn corrupt_on_every_replica_reports_corruption() {
        // Same corrupt seed on both replicas: the content itself is bad.
        let spec = FaultSpec {
            seed: 4,
            corrupt_rate: 0.5,
            ..FaultSpec::default()
        };
        let pool = HostPool::new(
            vec![
                FlakyHost::new(sample_host(), spec.clone()),
                FlakyHost::new(sample_host(), spec),
            ],
            det_policy(8),
        );
        let mut corrupt_seen = 0;
        for i in 0..12 {
            if let Err(e) = CodeHost::fetch(&pool, &format!("u{i}/r{i}"), "data.csv") {
                assert!(!e.is_transient(), "{e}");
                corrupt_seen += 1;
            }
        }
        assert!(corrupt_seen > 0, "rate 0.5 over 12 files must hit");
    }

    #[test]
    fn corrupt_mirror_copy_is_healed_by_other_replica() {
        // Different corrupt seeds: replica-0's copy of some file is bad
        // but replica-1's is fine — the pool serves the good copy.
        let pool = HostPool::new(
            vec![
                FlakyHost::new(
                    sample_host(),
                    FaultSpec {
                        seed: 4,
                        corrupt_rate: 0.5,
                        corrupt_seed: Some(40),
                        ..FaultSpec::default()
                    },
                ),
                FlakyHost::new(sample_host(), FaultSpec::default()),
            ],
            det_policy(8),
        );
        for i in 0..12 {
            let got = CodeHost::fetch(&pool, &format!("u{i}/r{i}"), "data.csv")
                .unwrap()
                .unwrap();
            assert_eq!(got, format!("id,v\n{i},x\n"));
        }
        assert!(pool.replica(0).counts().corrupt > 0, "scenario must hit");
    }

    #[test]
    fn breaker_unit_transitions() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 2,
            cooldown_ms: 100,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(1);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admissible(50));
        assert!(b.admissible(101));
        b.admit(101);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_failure(102);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        b.admit(202);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
    }
}
