//! The benchmark's own tracing: spans recorded around calls into the
//! program's public functions, kept in memory and summarised when the run
//! ends, plus window deltas of the program's `obs` registries read through
//! their public `snapshot()`.

use std::time::{Duration, Instant};

use spmspv::obs::{HistogramSnapshot, Json, Snapshot};

#[derive(Debug, Clone)]
struct SpanRecord {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// An in-memory span recorder. Disabled, `open`/`close` record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Switches recording on or off (the traced and untraced halves of a
    /// run share one recorder).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed();
        let parent = self.stack.last().copied();
        self.spans.push(SpanRecord { name, start: now, end: now, parent });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(i) = self.stack.pop() {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum()
    }

    /// Self time of the spans named `name`: their duration minus the part
    /// their child spans cover.
    pub fn self_time(&self, name: &str) -> Duration {
        let mut total = self.total(name);
        for child in &self.spans {
            if let Some(p) = child.parent {
                if self.spans[p].name == name {
                    total = total.saturating_sub(child.end - child.start);
                }
            }
        }
        total
    }

    /// Per-name count, total and self time, for the provenance line.
    pub fn summary(&self) -> Json {
        Json::Obj(
            self.names()
                .into_iter()
                .map(|name| {
                    let ms = |d: Duration| Json::Num(d.as_secs_f64() * 1e3);
                    let entry = Json::obj([
                        ("count", Json::Int(self.count(name) as i64)),
                        ("total_ms", ms(self.total(name))),
                        ("self_ms", ms(self.self_time(name))),
                    ]);
                    (name.to_string(), entry)
                })
                .collect(),
        )
    }
}

/// The batch kernel's step histograms in the global registry, with the
/// per-layer metric each one feeds.
pub const BATCH_STEPS: [(&str, &str); 4] = [
    ("batch.estimate_ms", "batch.estimate"),
    ("batch.bucketing_ms", "batch.bucketing"),
    ("batch.merge_ms", "batch.merge"),
    ("batch.output_ms", "batch.output"),
];

/// The change of one registry between two snapshots.
#[derive(Debug)]
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    /// The change from `before` to `after`.
    pub fn new(before: Snapshot, after: Snapshot) -> Self {
        Delta { before, after }
    }

    /// Counter increase over the window.
    pub fn counter(&self, name: &str) -> u64 {
        let get = |s: &Snapshot| s.counter(name).unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before))
    }

    /// Histogram samples recorded during the window (bucket-wise
    /// difference; `min`/`max` are unknown and left open).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        let empty = HistogramSnapshot::default();
        let after = self.after.histogram(name).unwrap_or(&empty);
        let before = self.before.histogram(name).unwrap_or(&empty);
        let buckets = after
            .buckets
            .iter()
            .filter_map(|&(idx, n)| {
                let old = before.buckets.iter().find(|(i, _)| *i == idx).map_or(0, |b| b.1);
                (n > old).then_some((idx, n - old))
            })
            .collect();
        HistogramSnapshot {
            buckets,
            count: after.count - before.count,
            sum: after.sum - before.sum,
            min: 0,
            max: u64::MAX,
        }
    }

    /// Milliseconds recorded into a nanosecond histogram during the window.
    pub fn sum_ms(&self, name: &str) -> f64 {
        self.histogram(name).sum as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmspv::obs::{ObsConfig, Registry};

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.open("outer");
        std::thread::sleep(Duration::from_millis(4));
        t.span("inner", || std::thread::sleep(Duration::from_millis(6)));
        t.close();
        assert_eq!(t.count("outer"), 1);
        assert!(t.total("outer") >= Duration::from_millis(10));
        let own = t.self_time("outer");
        assert!(own >= Duration::from_millis(4) && own < Duration::from_millis(6), "{own:?}");

        let mut off = Tracer::new(false);
        off.span("x", || ());
        assert_eq!(off.count("x"), 0);
    }

    #[test]
    fn registry_delta_covers_only_the_window() {
        let reg = Registry::new(ObsConfig::default());
        reg.counter("c").add(5);
        reg.histogram("h").record(1_000);
        let before = reg.snapshot();
        reg.counter("c").add(2);
        reg.histogram("h").record(3_000_000);
        let d = Delta::new(before, reg.snapshot());
        assert_eq!(d.counter("c"), 2);
        assert_eq!(d.counter("missing"), 0);
        let h = d.histogram("h");
        assert_eq!((h.count, h.sum), (1, 3_000_000));
        assert!((d.sum_ms("h") - 3.0).abs() < 1e-9);
        let q = h.quantile(0.5) as f64;
        assert!((q - 3e6).abs() / 3e6 < 1.0 / 16.0, "{q}");
    }
}
