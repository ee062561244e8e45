//! The measurement loop both BFS workloads share: solves back to back for the
//! window, each checked off the clock. Traced runs alternate traced and
//! untraced solves, so the tracing overhead is measured within one process.

use std::time::{Duration, Instant};

use spmspv::obs::Json;

use crate::report::{named, Phase, Report};
use crate::stats::{percentile, sorted, tail_supported};
use crate::trace::Tracer;
use crate::Args;

/// What the window measured.
#[derive(Debug, Default)]
pub struct Solves {
    /// Wall time of every solve, in order (ms).
    ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    check: Duration,
    window: Duration,
    wrong: u64,
    first_error: Option<String>,
}

/// Runs `solve(i)` for i = 0, 1, … until `args.seconds` have passed, timing
/// each call inside a span named `span`, and hands every result to `check`
/// outside the timed span.
pub fn measure<R>(
    args: &Args,
    tracer: &mut Tracer,
    span: &'static str,
    mut solve: impl FnMut(usize) -> R,
    mut check: impl FnMut(R) -> Result<(), String>,
) -> Solves {
    let mut s = Solves::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let traced = args.trace && i % 2 == 1;
        tracer.set_enabled(traced);
        tracer.open(span);
        let t = Instant::now();
        let r = solve(i);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.close();

        let c = Instant::now();
        tracer.open("bench.check");
        if let Err(e) = check(r) {
            s.wrong += 1;
            s.first_error.get_or_insert(e);
        }
        tracer.close();
        s.check += c.elapsed();

        s.ms.push(ms);
        if args.trace {
            if traced {
                s.traced_ms.push(ms)
            } else {
                s.untraced_ms.push(ms)
            }
        }
        i += 1;
    }
    s.window = start.elapsed();
    tracer.set_enabled(args.trace);
    s
}

impl Solves {
    /// Number of solves.
    pub fn count(&self) -> usize {
        self.ms.len()
    }

    /// Summed solve time (ms).
    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// Records the measure phase, the end-to-end metrics (untraced runs)
    /// and the named metrics with their sample counts. `edges` is the
    /// Graph500 traversed-edge count over all solves.
    pub fn report(&self, report: &mut Report, setup_s: &[f64], edges: u64, trace: bool) {
        report.phases.push(Phase::new("measure", self.count() as u64, self.wrong));
        report.wrong += self.wrong;
        if let Some(e) = &self.first_error {
            report.note("first_check_failure", Json::str(e.clone()));
        }
        let by_solve = sorted(&self.ms);
        let (p50, p90) = (percentile(&by_solve, 0.5), percentile(&by_solve, 0.9));
        let mteps = edges as f64 / (self.total_ms() / 1e3) / 1e6;
        let setup = percentile(&sorted(setup_s), 0.5);
        let n = self.count();
        report.note("window_s", Json::Num(self.window.as_secs_f64()));
        report.note(
            "named",
            Json::obj([
                ("setup_s", named(setup, "s", setup_s.len())),
                ("solve_ms_p50", named(p50, "ms", n)),
                ("solve_ms_p90", named(p90, "ms", n)),
                ("mteps", named(mteps, "MTEPS", n)),
            ]),
        );
        if !tail_supported(n, 0.9) {
            report.note("tail_warning", Json::str("fewer than 100 solves: p90 has < 10 beyond"));
        }
        if !trace {
            report.set("setup_s", setup);
            report.set("latency_ms_p50", p50);
            report.set("mteps", mteps);
        }
    }

    /// Window time no span covers, per solve: the loop's own overhead.
    pub fn unattributed_ms(&self) -> f64 {
        let covered = self.total_ms() + self.check.as_secs_f64() * 1e3;
        (self.window.as_secs_f64() * 1e3 - covered) / self.count().max(1) as f64
    }

    /// Median traced solve over median untraced solve, minus one.
    pub fn trace_overhead(&self) -> f64 {
        percentile(&sorted(&self.traced_ms), 0.5) / percentile(&sorted(&self.untraced_ms), 0.5)
            - 1.0
    }
}
