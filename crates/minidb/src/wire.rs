//! The simulated client/server wire.
//!
//! The paper's transfer costs come from JDBC round trips between the
//! middleware (a Java process) and Oracle. In this reproduction both ends
//! live in one process, so an in-process link charges each data movement
//! against a configurable profile: a fixed latency per round trip plus a
//! bandwidth term over the encoded bytes. One fetch round trip carries a
//! cursor's *fetch size* of rows — the JDBC row-prefetch setting the
//! paper discusses in Section 3.2. `row_prefetch` is the connection's
//! default fetch size; a cursor may set its own
//! ([`crate::DbCursor::set_fetch_size`]), which changes the round trips
//! of a result but never its bytes.
//!
//! By default charges accrue on a **virtual clock** (deterministic, free
//! to run), and experiment harnesses report wall time + virtual wire
//! time; `WireMode::Sleep` makes the link actually sleep instead.
//!
//! The link can also *fail*: [`Link::transfer`] numbers every round trip
//! and consults an optional [`FaultInjector`] (see [`crate::fault`]),
//! which may slow the transfer down or make it fail transiently or
//! fatally. With no injector installed the fault path is a single
//! relaxed atomic load per batch — the infallible [`Link::charge`] entry
//! points are unchanged for callers that cannot fail.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::fault::{Fault, FaultInjector, WireFailure};
use parking_lot::RwLock;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Accumulate charges on a virtual clock (default).
    Virtual,
    /// Really sleep for each charge (makes wall-clock benchmarks include
    /// transfer time directly).
    Sleep,
}

/// Link cost model.
#[derive(Debug, Clone, Copy)]
pub struct LinkProfile {
    /// Fixed cost per client/server round trip (µs).
    pub roundtrip_latency_us: f64,
    /// Payload bandwidth (bytes per second).
    pub bytes_per_sec: f64,
    /// Default fetch size: rows a client cursor fetches per round trip
    /// until it sets its own (JDBC row prefetch / `setFetchSize`).
    pub row_prefetch: usize,
    pub mode: WireMode,
}

impl Default for LinkProfile {
    /// A LAN-ish profile close to the paper's setup: sub-millisecond round
    /// trips, a few MB/s effective throughput, a default fetch size of
    /// 50 rows.
    fn default() -> Self {
        LinkProfile {
            roundtrip_latency_us: 500.0,
            bytes_per_sec: 4.0 * 1024.0 * 1024.0,
            row_prefetch: 50,
            mode: WireMode::Virtual,
        }
    }
}

impl LinkProfile {
    /// A free link: zero latency and infinite bandwidth. Used by unit
    /// tests that do not exercise transfer costs.
    pub fn instant() -> Self {
        LinkProfile {
            roundtrip_latency_us: 0.0,
            bytes_per_sec: f64::INFINITY,
            row_prefetch: 100,
            mode: WireMode::Virtual,
        }
    }
}

/// The shared link; every [`crate::Connection`] of a database charges the
/// same link.
pub struct Link {
    profile: LinkProfile,
    accumulated_ns: AtomicU64,
    /// Lifetime count of round trips; numbers the trips for scripted
    /// fault schedules ("fail the Nth round trip").
    roundtrips: AtomicU64,
    /// Fast-path switch: `transfer` consults the injector only when set.
    faults_on: AtomicBool,
    injector: RwLock<Option<Arc<dyn FaultInjector>>>,
}

impl Default for Link {
    fn default() -> Self {
        Link::new(LinkProfile::default())
    }
}

impl Link {
    pub fn new(profile: LinkProfile) -> Self {
        Link {
            profile,
            accumulated_ns: AtomicU64::new(0),
            roundtrips: AtomicU64::new(0),
            faults_on: AtomicBool::new(false),
            injector: RwLock::new(None),
        }
    }

    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }

    /// Install a fault injector; subsequent [`Link::transfer`] calls
    /// consult it per round trip.
    pub fn set_injector(&self, injector: Arc<dyn FaultInjector>) {
        *self.injector.write() = Some(injector);
        self.faults_on.store(true, Ordering::Release);
    }

    /// Remove any installed injector, restoring the infallible fast path.
    pub fn clear_injector(&self) {
        self.faults_on.store(false, Ordering::Release);
        *self.injector.write() = None;
    }

    /// Whether an injector is currently installed.
    pub fn faults_enabled(&self) -> bool {
        self.faults_on.load(Ordering::Acquire)
    }

    /// Pure cost of a transfer under the profile (no accrual).
    fn cost(&self, roundtrips: u64, bytes: u64) -> Duration {
        let us = self.profile.roundtrip_latency_us * roundtrips as f64
            + bytes as f64 / self.profile.bytes_per_sec * 1e6;
        Duration::from_nanos((us * 1000.0) as u64)
    }

    /// Accrue a duration on the virtual clock (or really sleep it).
    fn accrue(&self, d: Duration) -> Duration {
        self.accumulated_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        if self.profile.mode == WireMode::Sleep && !d.is_zero() {
            std::thread::sleep(d);
        }
        d
    }

    /// Charge a transfer of `roundtrips` round trips carrying `bytes`
    /// payload bytes; returns the charged duration. Infallible: faults
    /// are never injected on this path.
    pub fn charge(&self, roundtrips: u64, bytes: u64) -> Duration {
        self.roundtrips.fetch_add(roundtrips, Ordering::Relaxed);
        self.accrue(self.cost(roundtrips, bytes))
    }

    /// The fallible transfer: like [`Link::charge`], but each round trip
    /// is numbered and offered to the installed [`FaultInjector`].
    /// Latency faults (spike/throttle) inflate the returned duration;
    /// error faults abort the transfer, still charging the round trips
    /// attempted before the failure (reported in
    /// [`WireFailure::charged`]).
    ///
    /// With no injector installed this is one extra relaxed load over
    /// `charge` — nothing is allocated and no per-row work is added.
    pub fn transfer(&self, roundtrips: u64, bytes: u64) -> Result<Duration, WireFailure> {
        let rts = roundtrips.max(1);
        let first = self.roundtrips.fetch_add(rts, Ordering::Relaxed) + 1;
        if !self.faults_on.load(Ordering::Relaxed) {
            return Ok(self.accrue(self.cost(rts, bytes)));
        }
        let injector = self.injector.read().clone();
        let Some(injector) = injector else {
            return Ok(self.accrue(self.cost(rts, bytes)));
        };
        let mut extra = Duration::ZERO;
        let mut throttle = 1.0f64;
        for rt in first..first + rts {
            let fail = |msg: String, fatal: bool, made: u64, extra: Duration| WireFailure {
                fatal,
                msg,
                charged: self.accrue(self.cost(made, 0) + extra),
            };
            match injector.inject(rt) {
                None => {}
                Some(Fault::Spike(d)) => extra += d,
                Some(Fault::Throttle(f)) => throttle = throttle.max(f.max(1.0)),
                Some(Fault::Transient(msg)) => {
                    return Err(fail(msg, false, rt - first + 1, extra));
                }
                Some(Fault::Disconnect) => {
                    return Err(fail(
                        format!("connection dropped by peer (round trip {rt})"),
                        false,
                        rt - first + 1,
                        extra,
                    ));
                }
                Some(Fault::Fatal(msg)) => {
                    return Err(fail(msg, true, rt - first + 1, extra));
                }
            }
        }
        Ok(self.accrue(self.cost(rts, bytes).mul_f64(throttle) + extra))
    }

    /// Charge a non-transfer delay to the wire clock (retry backoff).
    pub fn stall(&self, d: Duration) -> Duration {
        self.accrue(d)
    }

    /// Total virtual time charged so far.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.accumulated_ns.load(Ordering::Relaxed))
    }

    /// Lifetime round trips made on this link.
    pub fn roundtrips(&self) -> u64 {
        self.roundtrips.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.accumulated_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn charges_accumulate() {
        let link = Link::new(LinkProfile {
            roundtrip_latency_us: 1000.0,
            bytes_per_sec: 1e6,
            row_prefetch: 10,
            mode: WireMode::Virtual,
        });
        // 3 roundtrips (3ms) + 1e6 bytes at 1MB/s (1s)
        let d = link.charge(3, 1_000_000);
        assert!((d.as_secs_f64() - 1.003).abs() < 1e-6, "{d:?}");
        assert_eq!(link.total(), d);
        link.reset();
        assert_eq!(link.total(), Duration::ZERO);
    }

    #[test]
    fn instant_profile_is_free() {
        let link = Link::new(LinkProfile::instant());
        assert_eq!(link.charge(1_000_000, u64::MAX / 4), Duration::ZERO);
    }

    #[test]
    fn transfer_without_injector_matches_charge() {
        let link = Link::new(LinkProfile {
            roundtrip_latency_us: 100.0,
            bytes_per_sec: 1e6,
            row_prefetch: 10,
            mode: WireMode::Virtual,
        });
        let a = link.charge(2, 500);
        let b = link.transfer(2, 500).unwrap();
        assert_eq!(a, b);
        assert_eq!(link.roundtrips(), 4);
    }

    #[test]
    fn scripted_fault_fails_the_exact_round_trip() {
        let link = Link::new(LinkProfile {
            roundtrip_latency_us: 1000.0,
            bytes_per_sec: f64::INFINITY,
            row_prefetch: 10,
            mode: WireMode::Virtual,
        });
        link.set_injector(Arc::new(FaultPlan::scripted([(2, Fault::Disconnect)])));
        assert!(link.transfer(1, 0).is_ok()); // round trip 1
        let err = link.transfer(1, 0).unwrap_err(); // round trip 2
        assert!(!err.fatal);
        // the failed attempt still cost its round trip
        assert_eq!(err.charged, Duration::from_millis(1));
        assert!(link.transfer(1, 0).is_ok()); // round trip 3: recovered
        link.clear_injector();
        assert!(!link.faults_enabled());
    }

    #[test]
    fn spike_and_throttle_slow_but_do_not_fail() {
        let link = Link::new(LinkProfile {
            roundtrip_latency_us: 1000.0,
            bytes_per_sec: f64::INFINITY,
            row_prefetch: 10,
            mode: WireMode::Virtual,
        });
        link.set_injector(Arc::new(
            FaultPlan::scripted([(1, Fault::Spike(Duration::from_millis(7)))])
                .with_fault_at(2, Fault::Throttle(3.0)),
        ));
        assert_eq!(link.transfer(1, 0).unwrap(), Duration::from_millis(8));
        assert_eq!(link.transfer(1, 0).unwrap(), Duration::from_millis(3));
    }
}
