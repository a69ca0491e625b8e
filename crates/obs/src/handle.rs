//! The instrumentation handle threaded through the pipeline.
//!
//! [`Obs`] is a cheap clonable handle that is either *disabled* (every
//! call is a no-op — no lock, no clock read, no allocation) or *enabled*
//! (writes go to a shared [`Collector`] behind a mutex). A panic on a
//! thread that held the lock leaves the collector usable, since each write
//! is one map update, so a poisoned lock is still taken.

use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::collector::Collector;

/// A cloneable, possibly-disabled handle to a shared [`Collector`].
#[derive(Debug, Clone, Default)]
pub struct Obs {
    shared: Option<Arc<Mutex<Collector>>>,
}

impl Obs {
    /// A handle that records nothing; every operation is a no-op.
    pub fn disabled() -> Self {
        Obs { shared: None }
    }

    /// A live handle backed by a fresh collector.
    pub fn enabled() -> Self {
        Obs { shared: Some(Arc::new(Mutex::new(Collector::new()))) }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Adds `delta` to the counter `name`.
    pub fn incr(&self, name: &str, delta: u64) {
        if let Some(shared) = &self.shared {
            shared.lock().unwrap_or_else(PoisonError::into_inner).incr(name, delta);
        }
    }

    /// Sets the gauge `name` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(shared) = &self.shared {
            shared.lock().unwrap_or_else(PoisonError::into_inner).set_gauge(name, value);
        }
    }

    /// Records `value` in the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(shared) = &self.shared {
            shared.lock().unwrap_or_else(PoisonError::into_inner).observe(name, value);
        }
    }

    /// Starts a stage span. Recorded (calls + items + wall time) when the
    /// returned guard drops; reads the clock only when enabled.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.span_inner(Cow::Borrowed(name))
    }

    /// [`Obs::span`] for stage names built at runtime (e.g. per-experiment
    /// stages like `experiment.t4`).
    pub fn span_owned(&self, name: String) -> Span<'_> {
        self.span_inner(Cow::Owned(name))
    }

    fn span_inner(&self, name: Cow<'static, str>) -> Span<'_> {
        Span {
            obs: self,
            name,
            items: 0,
            started: if self.shared.is_some() { Some(Instant::now()) } else { None },
        }
    }

    /// A copy of everything recorded so far (empty when disabled).
    pub fn snapshot(&self) -> Collector {
        match &self.shared {
            Some(shared) => shared.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => Collector::new(),
        }
    }
}

/// RAII guard for one timed stage invocation.
///
/// On drop it records one call, the accumulated item count, and — when
/// the parent handle is enabled — the elapsed wall time under the span's
/// stage name.
#[derive(Debug)]
pub struct Span<'a> {
    obs: &'a Obs,
    name: Cow<'static, str>,
    items: u64,
    started: Option<Instant>,
}

impl Span<'_> {
    /// Attributes `n` work items to this span.
    pub fn add_items(&mut self, n: u64) {
        self.items += n;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(shared) = &self.obs.shared {
            let wall_nanos = self
                .started
                .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
                .unwrap_or(0);
            shared
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record_stage(&self.name, self.items, wall_nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        obs.incr("c", 1);
        obs.gauge("g", 1.0);
        obs.observe("h", 1);
        {
            let mut span = obs.span("stage");
            span.add_items(10);
        }
        assert!(!obs.is_enabled());
        assert!(obs.snapshot().is_empty());
    }

    #[test]
    fn span_records_calls_items_and_time() {
        let obs = Obs::enabled();
        {
            let mut span = obs.span("stage");
            span.add_items(3);
        }
        {
            let mut span = obs.span("stage");
            span.add_items(4);
        }
        let snap = obs.snapshot();
        let stats = &snap.stages["stage"];
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.items, 7);
    }

    #[test]
    fn owned_span_names_record_like_static_ones() {
        let obs = Obs::enabled();
        {
            let mut span = obs.span_owned(format!("experiment.{}", "t4"));
            span.add_items(6);
        }
        assert_eq!(obs.snapshot().stages["experiment.t4"].items, 6);
    }

    #[test]
    fn clones_share_the_collector() {
        let obs = Obs::enabled();
        let other = obs.clone();
        other.incr("c", 1);
        obs.incr("c", 1);
        assert_eq!(obs.snapshot().counters["c"], 2);
    }
}
