//! Client-side resilience: reconnecting, retrying, backing off.
//!
//! A [`RetryingClient`] wraps the raw [`Connection`] with the policy a
//! well-behaved production client should follow against a daemon that
//! sheds load and a network that drops bytes:
//!
//! * **retry only idempotent outcomes** — [`Response::Shed`],
//!   [`Response::DeadlineExpired`], transport-level I/O errors (reset,
//!   timeout, checksum damage, EOF mid-response), and
//!   [`ErrorKind::Protocol`](crate::proto::ErrorKind::Protocol) errors. All of these mean the query was never
//!   evaluated, or was evaluated and the answer lost — and since oracle
//!   queries are pure, resending is always safe. Fatal errors
//!   (`BadRequest`, `TooLarge`, `Internal`, `ShuttingDown`) are returned
//!   immediately: the request itself is the problem.
//! * **reconnect on transport failure** — the connection is dropped and
//!   re-established before the next attempt.
//! * **capped exponential backoff with seeded jitter** — attempt `n` sleeps
//!   `min(base * 2^n, max) * U(0.5, 1.0)`, with the jitter drawn from a
//!   SplitMix64 stream so a seeded run backs off reproducibly.

use crate::client::Connection;
use crate::fault::{FaultConfig, FaultPlan, FaultTrace};
use crate::proto::{Request, Response};
use crate::server::Bind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::time::Duration;

/// When and how hard to retry.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt after that.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
        }
    }
}

/// Why a request ultimately failed after retries were exhausted.
#[derive(Debug)]
pub enum RetryError {
    /// A non-retryable response (fatal error, shutdown notice).
    Fatal(Response),
    /// Every attempt failed with a retryable outcome; the last one.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The final retryable outcome (`Ok` = a shed/expired/protocol
        /// response, `Err` = a transport error).
        last: Result<Response, io::Error>,
    },
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Fatal(response) => write!(f, "fatal response: {response:?}"),
            RetryError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last outcome: {last:?}")
            }
        }
    }
}

/// Counters a retrying client accumulates across requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryStats {
    /// Requests that eventually succeeded.
    pub succeeded: u64,
    /// Requests that failed fatally (non-retryable response).
    pub fatal: u64,
    /// Requests that exhausted every attempt.
    pub exhausted: u64,
    /// Retries triggered by transport-level I/O errors.
    pub io_retries: u64,
    /// Retries triggered by `Shed` responses.
    pub shed_retries: u64,
    /// Retries triggered by `DeadlineExpired` responses.
    pub deadline_retries: u64,
    /// Retries triggered by retryable (`Protocol`) error responses.
    pub protocol_retries: u64,
    /// Reconnections performed.
    pub reconnects: u64,
    /// Total attempts across all requests.
    pub attempts: u64,
}

impl RetryStats {
    /// All retries, regardless of trigger.
    pub fn retries(&self) -> u64 {
        self.io_retries + self.shed_retries + self.deadline_retries + self.protocol_retries
    }
}

/// A client that reconnects and retries per a [`RetryPolicy`]. Optionally
/// injects a fresh seeded [`FaultPlan`] below each connection it opens
/// (client-side chaos): connection `n` uses `fault_seed + n`, so the whole
/// run is reproducible from the base seed.
#[derive(Debug)]
pub struct RetryingClient {
    target: Bind,
    policy: RetryPolicy,
    jitter: StdRng,
    connection: Option<Connection>,
    faults: Option<FaultConfig>,
    fault_seed: u64,
    connections_opened: u64,
    fault_trace: FaultTrace,
    stats: RetryStats,
}

impl RetryingClient {
    /// A client for `target` with `policy`; `jitter_seed` pins the backoff
    /// jitter stream.
    pub fn new(target: Bind, policy: RetryPolicy, jitter_seed: u64) -> Self {
        RetryingClient {
            target,
            policy,
            jitter: StdRng::seed_from_u64(jitter_seed),
            connection: None,
            faults: None,
            fault_seed: 0,
            connections_opened: 0,
            fault_trace: FaultTrace::default(),
            stats: RetryStats::default(),
        }
    }

    /// Injects client-side faults: every connection this client opens is
    /// wrapped in a [`FaultPlan`] seeded `seed + connection_index`.
    pub fn with_faults(mut self, config: FaultConfig, seed: u64) -> Self {
        self.faults = Some(config);
        self.fault_seed = seed;
        self
    }

    /// Replaces the fault config for connections opened from now on
    /// (used by escalating chaos schedules). `None` disables injection.
    pub fn set_faults(&mut self, config: Option<FaultConfig>) {
        self.faults = config;
        // Force a reconnect so the new config takes effect immediately.
        self.connection = None;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Aggregate fault trace over every connection this client has opened
    /// (including the live one).
    pub fn fault_trace(&self) -> FaultTrace {
        let mut total = self.fault_trace;
        if let Some(live) = self.connection.as_ref().and_then(|c| c.fault_trace()) {
            total.absorb(&live);
        }
        total
    }

    fn drop_connection(&mut self) {
        if let Some(connection) = self.connection.take() {
            if let Some(trace) = connection.fault_trace() {
                self.fault_trace.absorb(&trace);
            }
        }
    }

    fn ensure_connected(&mut self) -> io::Result<&mut Connection> {
        if self.connection.is_none() {
            let connection = match self.faults {
                Some(config) => {
                    let seed = self.fault_seed.wrapping_add(self.connections_opened);
                    Connection::connect_faulty(&self.target, FaultPlan::new(config, seed))?
                }
                None => Connection::connect(&self.target)?,
            };
            self.connections_opened += 1;
            if self.connections_opened > 1 {
                self.stats.reconnects += 1;
            }
            self.connection = Some(connection);
        }
        Ok(self.connection.as_mut().expect("just connected"))
    }

    fn backoff(&mut self, attempt: u32) {
        let exp = self.policy.base_backoff.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.policy.max_backoff);
        let jitter = self.jitter.gen_range(0.5f64..1.0);
        std::thread::sleep(Duration::from_micros((capped.as_micros() as f64 * jitter) as u64));
    }

    /// Sends `request` until it yields a non-retryable outcome or the
    /// policy's attempts are exhausted.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, RetryError> {
        let mut last: Option<Result<Response, io::Error>> = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                self.backoff(attempt - 1);
            }
            self.stats.attempts += 1;
            let outcome = match self.ensure_connected() {
                Ok(connection) => connection.roundtrip(request),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(response) if response.retryable() => {
                    match &response {
                        Response::Shed => self.stats.shed_retries += 1,
                        Response::DeadlineExpired => self.stats.deadline_retries += 1,
                        _ => self.stats.protocol_retries += 1,
                    }
                    last = Some(Ok(response));
                }
                Ok(response) => {
                    if matches!(response, Response::Error { .. } | Response::ShuttingDown) {
                        self.stats.fatal += 1;
                        return Err(RetryError::Fatal(response));
                    }
                    self.stats.succeeded += 1;
                    return Ok(response);
                }
                Err(e) => {
                    // Transport damage: the connection is unusable. Drop it
                    // so the next attempt reconnects.
                    self.stats.io_retries += 1;
                    self.drop_connection();
                    last = Some(Err(e));
                }
            }
        }
        self.stats.exhausted += 1;
        Err(RetryError::Exhausted {
            attempts: self.policy.max_attempts,
            last: last.expect("at least one attempt ran"),
        })
    }

    /// Sends one query (no deadline unless given) with retries.
    pub fn query(
        &mut self,
        query: &paradl_core::query::Query,
        deadline_ms: Option<u64>,
    ) -> Result<Response, RetryError> {
        self.roundtrip(&Request::Query { query: query.clone(), deadline_ms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_jittered_deterministically() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(40),
        };
        // Two clients with the same jitter seed draw the same sleeps.
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for attempt in 0u32..6 {
            let exp = policy.base_backoff.saturating_mul(1u32 << attempt.min(16));
            let capped = exp.min(policy.max_backoff);
            assert!(capped <= policy.max_backoff);
            let ja: f64 = a.gen_range(0.5f64..1.0);
            let jb: f64 = b.gen_range(0.5f64..1.0);
            assert_eq!(ja, jb);
            assert!((0.5..1.0).contains(&ja));
        }
    }

    #[test]
    fn connecting_to_a_dead_target_exhausts_with_io_errors() {
        let target = Bind::Unix(std::env::temp_dir().join("paradl-retry-nowhere.sock"));
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(200),
        };
        let mut client = RetryingClient::new(target, policy, 1);
        match client.roundtrip(&Request::Ping) {
            Err(RetryError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(last.is_err(), "expected a transport error, got {last:?}");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(client.stats().io_retries, 3);
        assert_eq!(client.stats().exhausted, 1);
        assert_eq!(client.stats().succeeded, 0);
    }
}
