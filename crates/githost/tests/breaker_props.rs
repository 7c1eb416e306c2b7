//! Property tests of the circuit-breaker state machine and the pool's
//! replica-ejection behavior.
//!
//! The breaker is a plain state machine over explicit timestamps, so it
//! can be driven with arbitrary success/failure/advance sequences and
//! checked against its invariants directly; the pool-level property is
//! the PR 8 oracle extended to replicas: a 100%-faulty backend is
//! ejected and the surviving replica serves the exact fault-free
//! responses.

use gittables_githost::{
    BreakerPolicy, BreakerState, CircuitBreaker, CodeHost, FaultSpec, FlakyHost, GitHost, HostPool,
    PoolPolicy, PoolStats, RepoFile, Repository,
};
use proptest::prelude::*;

/// One step of a driven breaker: a request outcome or the passage of
/// time.
#[derive(Debug, Clone, Copy)]
enum Step {
    Success,
    Failure,
    AdvanceMs(u64),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..3, 1u64..400), 1..120).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, ms)| match kind {
                0 => Step::Success,
                1 => Step::Failure,
                _ => Step::AdvanceMs(ms),
            })
            .collect()
    })
}

/// Replays `steps` the way the pool drives a breaker: admit when
/// admissible, then record the outcome. Returns the breaker for final
/// checks.
fn drive(policy: BreakerPolicy, steps: &[Step]) -> CircuitBreaker {
    let mut breaker = CircuitBreaker::new(policy);
    let mut now: u64 = 0;
    for step in steps {
        match *step {
            Step::AdvanceMs(ms) => now += ms,
            outcome => {
                if !breaker.admissible(now) {
                    // The pool never routes to an inadmissible breaker;
                    // time passes instead.
                    now += 1;
                    continue;
                }
                breaker.admit(now);
                // Invariant: admitting an open-past-cooldown breaker
                // makes it the half-open probe; otherwise it stays
                // closed.
                assert_ne!(breaker.state(), BreakerState::Open);
                match outcome {
                    Step::Success => breaker.record_success(),
                    Step::Failure => breaker.record_failure(now),
                    Step::AdvanceMs(_) => unreachable!(),
                }
                // Invariant: a recorded outcome always leaves the
                // breaker out of the probing state.
                assert_ne!(breaker.state(), BreakerState::HalfOpen);
            }
        }
    }
    breaker
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any driven sequence keeps the breaker's bookkeeping consistent:
    /// the failure run never reaches the threshold while closed, an
    /// open breaker always has a cooldown deadline ahead of the trip,
    /// and probes never exceed opens (every probe needed a prior trip).
    #[test]
    fn transitions_stay_consistent(
        threshold in 1u32..6,
        cooldown in 1u64..300,
        steps in steps(),
    ) {
        let breaker = drive(
            BreakerPolicy { failure_threshold: threshold, cooldown_ms: cooldown },
            &steps,
        );
        prop_assert!(breaker.consecutive_failures() <= threshold);
        if breaker.state() == BreakerState::Closed {
            prop_assert!(breaker.consecutive_failures() < threshold);
        }
        prop_assert!(breaker.probes() <= breaker.opens());
    }

    /// A success always converges the machine to `Closed` with a clean
    /// failure run, from any reachable state.
    #[test]
    fn success_always_closes(
        threshold in 1u32..6,
        cooldown in 1u64..300,
        steps in steps(),
    ) {
        let mut breaker = drive(
            BreakerPolicy { failure_threshold: threshold, cooldown_ms: cooldown },
            &steps,
        );
        breaker.record_success();
        prop_assert_eq!(breaker.state(), BreakerState::Closed);
        prop_assert_eq!(breaker.consecutive_failures(), 0);
    }

    /// Uninterrupted failures trip the breaker after exactly
    /// `threshold` of them, and it stays open until the cooldown
    /// expires, after which exactly one probe is admitted.
    #[test]
    fn failure_run_trips_at_threshold(
        threshold in 1u32..8,
        cooldown in 1u64..500,
    ) {
        let mut breaker = CircuitBreaker::new(
            BreakerPolicy { failure_threshold: threshold, cooldown_ms: cooldown },
        );
        for i in 0..threshold {
            prop_assert_eq!(breaker.state(), BreakerState::Closed, "failure {}", i);
            breaker.admit(0);
            breaker.record_failure(0);
        }
        prop_assert_eq!(breaker.state(), BreakerState::Open);
        prop_assert_eq!(breaker.opens(), 1);
        prop_assert!(!breaker.admissible(cooldown - 1));
        prop_assert!(breaker.admissible(cooldown));
        breaker.admit(cooldown);
        prop_assert_eq!(breaker.state(), BreakerState::HalfOpen);
        prop_assert!(!breaker.admissible(cooldown), "only one probe at a time");
        prop_assert_eq!(breaker.probes(), 1);
    }

    /// The pool-level ejection property: one of two replicas is 100%
    /// faulty, yet every fetch succeeds with the healthy replica's
    /// (fault-free) bytes, the dead replica's breaker has tripped, and
    /// the healthy replica carried the load — for any seed.
    #[test]
    fn blackout_replica_is_ejected_for_any_seed(seed in 0u64..1_000) {
        let dead = FlakyHost::new(sample_host(), FaultSpec {
            seed,
            transient_rate: 1.0,
            max_consecutive: u32::MAX,
            ..FaultSpec::default()
        });
        let healthy = FlakyHost::new(sample_host(), FaultSpec::default());
        let pool = HostPool::new(vec![dead, healthy], PoolPolicy {
            seed,
            deterministic: true,
            breaker: BreakerPolicy { failure_threshold: 3, cooldown_ms: 200 },
            ..PoolPolicy::default()
        });
        for round in 0..3 {
            for i in 0..10 {
                let got = pool.fetch(&format!("u{i}/r{i}"), "t.csv");
                prop_assert_eq!(
                    got.unwrap().unwrap(),
                    format!("id,v\n{i},w\n"),
                    "round {} seed {}", round, seed
                );
            }
        }
        let stats = pool.stats();
        prop_assert!(stats.breaker_opens() >= 1, "{:?}", stats);
        prop_assert_eq!(stats.replicas[1].transient_errors, 0);
        prop_assert!(stats.replicas[1].served >= 30, "{:?}", stats);
        prop_assert_eq!(backend_calls(&stats), stats.operations + stats.failovers);
    }

    /// One backend call per attempt, counted: over two transient-faulty
    /// replicas every operation succeeds, so each backend call is either
    /// an operation's one success or a transient error that failed over.
    #[test]
    fn every_attempt_is_one_backend_call(seed in 0u64..1_000, rate in 0.0f64..0.6) {
        let pool = HostPool::new(
            vec![
                FlakyHost::new(sample_host(), FaultSpec::transient(seed, rate)),
                FlakyHost::new(sample_host(), FaultSpec::transient(seed + 1, rate)),
            ],
            PoolPolicy { seed, deterministic: true, ..PoolPolicy::default() },
        );
        for round in 0..3 {
            for i in 0..10 {
                let got = pool.fetch(&format!("u{i}/r{i}"), "t.csv");
                prop_assert!(got.is_ok(), "round {} seed {}: {:?}", round, seed, got);
            }
        }
        let stats = pool.stats();
        prop_assert_eq!(backend_calls(&stats), stats.operations + stats.failovers);
        let transient: u64 = stats.replicas.iter().map(|r| r.transient_errors).sum();
        prop_assert_eq!(transient, stats.failovers);
    }
}

/// Ten repositories `u{i}/r{i}`, each holding one `t.csv`.
fn sample_host() -> GitHost {
    let host = GitHost::new();
    for i in 0..10 {
        host.add_repository(Repository {
            full_name: format!("u{i}/r{i}"),
            license: Some("mit".into()),
            fork: false,
            files: vec![RepoFile::new("t.csv", format!("id,v\n{i},w\n"))],
        });
    }
    host
}

/// Requests the pool sent to any backend.
fn backend_calls(stats: &PoolStats) -> u64 {
    stats.replicas.iter().map(|r| r.attempts).sum()
}
