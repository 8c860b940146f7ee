//! The metric registry: named counters and span timers behind cheap
//! cloneable handles.
//!
//! A [`Registry`] is an `Arc` around shared state, so cloning one and
//! handing it to an engine, a worker pool and a reporting thread all
//! observe the same metrics. Handles ([`Counter`], [`SpanTimer`]) are
//! resolved once by name and then update lock-free (both are atomics).
//!
//! Disabling a registry ([`Registry::set_enabled`]) turns every handle
//! into a no-op — span timers stop reading the clock entirely — so
//! instrumented code paths cost one relaxed atomic load when
//! observability is off.

use parking_lot::Mutex;
use plc_core::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct TimerData {
    count: AtomicU64,
    nanos: AtomicU64,
}

enum Metric {
    Counter(Arc<AtomicU64>),
    Timer(Arc<TimerData>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Timer(_) => "timer",
        }
    }
}

struct RegistryInner {
    enabled: AtomicBool,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// A shared, named-metric registry. Clones share state.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .field("metrics", &self.inner.metrics.lock().len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                enabled: AtomicBool::new(true),
                metrics: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// An empty registry with recording turned off (every handle is a
    /// no-op until [`set_enabled`](Registry::set_enabled)`(true)`).
    pub fn disabled() -> Self {
        let r = Self::new();
        r.set_enabled(false);
        r
    }

    /// Whether handles currently record.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off for every handle of this registry.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    fn try_resolve<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> (Metric, T),
        reuse: impl FnOnce(&Metric) -> Option<T>,
    ) -> Result<T> {
        let mut metrics = self.inner.metrics.lock();
        if let Some(existing) = metrics.get(name) {
            return reuse(existing).ok_or_else(|| {
                Error::runtime(format!(
                    "metric {name:?} already registered as a {}",
                    existing.kind()
                ))
            });
        }
        let (metric, handle) = make();
        metrics.insert(name.to_string(), metric);
        Ok(handle)
    }

    /// Get or create the counter `name`, or fail with a typed error if
    /// `name` is already registered as a different metric kind. Library
    /// code instrumenting caller-supplied registries should prefer this
    /// over [`counter`](Registry::counter).
    pub fn try_counter(&self, name: &str) -> Result<Counter> {
        self.try_resolve(
            name,
            || {
                let cell = Arc::new(AtomicU64::new(0));
                (
                    Metric::Counter(cell.clone()),
                    Counter {
                        cell,
                        owner: self.inner.clone(),
                    },
                )
            },
            |m| match m {
                Metric::Counter(cell) => Some(Counter {
                    cell: cell.clone(),
                    owner: self.inner.clone(),
                }),
                _ => None,
            },
        )
    }

    /// Get or create the span timer `name`, or fail with a typed error if
    /// `name` is already registered as a different metric kind.
    pub fn try_timer(&self, name: &str) -> Result<SpanTimer> {
        self.try_resolve(
            name,
            || {
                let data = Arc::new(TimerData {
                    count: AtomicU64::new(0),
                    nanos: AtomicU64::new(0),
                });
                (
                    Metric::Timer(data.clone()),
                    SpanTimer {
                        data,
                        owner: self.inner.clone(),
                    },
                )
            },
            |m| match m {
                Metric::Timer(data) => Some(SpanTimer {
                    data: data.clone(),
                    owner: self.inner.clone(),
                }),
                _ => None,
            },
        )
    }

    /// Get or create the counter `name`. Convenience wrapper around
    /// [`try_counter`](Registry::try_counter) for application code that
    /// controls its own metric names.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        self.try_counter(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Get or create the span timer `name`. Convenience wrapper around
    /// [`try_timer`](Registry::try_timer).
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn timer(&self, name: &str) -> SpanTimer {
        self.try_timer(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A point-in-time snapshot of every metric, names sorted, suitable
    /// for deterministic JSON export.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.inner.metrics.lock();
        let mut snap = RegistrySnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(cell) => snap.counters.push(CounterSnapshot {
                    name: name.clone(),
                    value: cell.load(Ordering::Relaxed),
                }),
                Metric::Timer(data) => {
                    let count = data.count.load(Ordering::Relaxed);
                    let nanos = data.nanos.load(Ordering::Relaxed);
                    snap.timers.push(TimerSnapshot {
                        name: name.clone(),
                        count,
                        total_secs: nanos as f64 * 1e-9,
                    });
                }
            }
        }
        snap
    }

    /// Serialize [`snapshot`](Registry::snapshot) as one compact JSON
    /// document (names sorted → byte-deterministic for equal contents).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.snapshot()).expect("registry snapshot serializes infallibly")
    }

    /// Write [`to_json`](Registry::to_json) to `path` **atomically**
    /// (temp file in the same directory + rename, via
    /// [`plc_core::fs::atomic_write`]): a crash mid-export leaves either
    /// the previous snapshot or the new one on disk, never a torn JSON
    /// document. This is how long-running jobs persist their metrics
    /// alongside each checkpoint flush.
    pub fn write_json_atomic(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut doc = self.to_json();
        doc.push('\n');
        plc_core::fs::atomic_write(path, doc.as_bytes())
    }
}

/// Monotone event counter handle.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    owner: Arc<RegistryInner>,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.owner.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Accumulating wall-clock timer for a named span.
///
/// [`start`](SpanTimer::start) returns a guard that records the elapsed
/// time when dropped; when the owning registry is disabled the guard
/// never reads the clock.
#[derive(Clone)]
pub struct SpanTimer {
    data: Arc<TimerData>,
    owner: Arc<RegistryInner>,
}

impl SpanTimer {
    /// Start a span; the returned guard records on drop. The guard owns
    /// a handle to the timer, so it outlives any borrow of the timer
    /// itself (instrumented code can hold it across `&mut self` calls).
    #[inline]
    pub fn start(&self) -> SpanGuard {
        let started = if self.owner.enabled.load(Ordering::Relaxed) {
            Some((self.data.clone(), Instant::now()))
        } else {
            None
        };
        SpanGuard { started }
    }

    /// Record an externally measured span.
    pub fn record(&self, duration: std::time::Duration) {
        if self.owner.enabled.load(Ordering::Relaxed) {
            self.data.count.fetch_add(1, Ordering::Relaxed);
            self.data
                .nanos
                .fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Record `count` spans measured together: adds `count` spans and
    /// their combined wall time in one shot. Batched instrumentation for
    /// hot loops where a clock read per span would dominate the spans
    /// themselves; the aggregate (count, total nanos) is exactly what
    /// `count` individual [`record`](SpanTimer::record) calls would
    /// accumulate.
    pub fn record_many(&self, count: u64, total: std::time::Duration) {
        if count > 0 && self.owner.enabled.load(Ordering::Relaxed) {
            self.data.count.fetch_add(count, Ordering::Relaxed);
            self.data
                .nanos
                .fetch_add(total.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Spans recorded so far.
    pub fn count(&self) -> u64 {
        self.data.count.load(Ordering::Relaxed)
    }

    /// Total recorded time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.data.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Drop guard produced by [`SpanTimer::start`].
pub struct SpanGuard {
    started: Option<(Arc<TimerData>, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((data, started)) = self.started.take() {
            data.count.fetch_add(1, Ordering::Relaxed);
            data.nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Snapshot of one span timer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimerSnapshot {
    /// Registered name.
    pub name: String,
    /// Spans recorded.
    pub count: u64,
    /// Total recorded seconds.
    pub total_secs: f64,
}

/// Every metric of a registry at one instant, names sorted per kind.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Span timers, sorted by name.
    pub timers: Vec<TimerSnapshot>,
}

impl RegistrySnapshot {
    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The timer named `name`, if present.
    pub fn timer(&self, name: &str) -> Option<&TimerSnapshot> {
        self.timers.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = Registry::new();
        let a = reg.counter("steps");
        let b = reg.counter("steps");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("steps"), Some(5));
    }

    #[test]
    fn clones_share_state() {
        let reg = Registry::new();
        let clone = reg.clone();
        reg.counter("x").add(3);
        assert_eq!(clone.snapshot().counter("x"), Some(3));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        let c = reg.counter("c");
        let t = reg.timer("t");
        c.inc();
        {
            let _span = t.start();
        }
        t.record(std::time::Duration::from_millis(5));
        t.record_many(3, std::time::Duration::from_millis(5));
        assert_eq!(c.get(), 0);
        assert_eq!(t.count(), 0);
        // Re-enabling makes the same handles live again.
        reg.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn span_timer_accumulates() {
        let reg = Registry::new();
        let t = reg.timer("work");
        {
            let _g = t.start();
        }
        t.record(std::time::Duration::from_micros(100));
        assert_eq!(t.count(), 2);
        assert!(t.total_secs() >= 100e-6);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("name");
        let _ = reg.timer("name");
    }

    #[test]
    fn try_getters_return_typed_errors() {
        let reg = Registry::new();
        let c = reg.try_counter("name").expect("fresh name");
        c.inc();
        // Same kind → shared handle, not an error.
        assert_eq!(reg.try_counter("name").expect("same kind").get(), 1);
        // Different kinds → typed error naming the existing kind.
        let err = match reg.try_timer("name") {
            Ok(_) => panic!("kind mismatch must fail"),
            Err(e) => e,
        };
        let msg = err.to_string();
        assert!(msg.contains("already registered as a counter"), "{msg}");
        reg.timer("span");
        let msg = reg
            .try_counter("span")
            .err()
            .expect("kind mismatch")
            .to_string();
        assert!(msg.contains("already registered as a timer"), "{msg}");
        // The failed lookups must not have clobbered either metric.
        let snap = reg.snapshot();
        assert_eq!(snap.counter("name"), Some(1));
        assert_eq!(snap.timer("span").map(|t| t.count), Some(0));
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let make = || {
            let reg = Registry::new();
            reg.counter("zeta").add(1);
            reg.counter("alpha").add(2);
            reg.timer("mid").record(std::time::Duration::from_millis(1));
            reg.to_json()
        };
        let a = make();
        let b = make();
        assert_eq!(a, b);
        assert!(a.find("alpha").unwrap() < a.find("zeta").unwrap());
        let back: RegistrySnapshot = serde_json::from_str(&a).expect("parse");
        assert_eq!(back.counter("alpha"), Some(2));
    }

    #[test]
    fn atomic_json_export_round_trips_and_overwrites() {
        let path = std::env::temp_dir().join(format!("plc_obs_export_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let reg = Registry::new();
        reg.counter("job.points_done").add(3);
        reg.write_json_atomic(&path).expect("export");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, format!("{}\n", reg.to_json()));
        // A second export replaces the file wholesale.
        reg.counter("job.points_done").add(1);
        reg.write_json_atomic(&path).expect("re-export");
        let text = std::fs::read_to_string(&path).expect("read back");
        let back: RegistrySnapshot = serde_json::from_str(text.trim()).expect("parse");
        assert_eq!(back.counter("job.points_done"), Some(4));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<SpanTimer>();
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let reg = Registry::new();
        let c = reg.counter("n");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
