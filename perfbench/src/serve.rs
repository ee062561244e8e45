//! `serve-engine`: open-loop Poisson arrivals from one generator thread into
//! `Engine::serve` (default `EngineConfig`, PlusTimes) over the R-MAT
//! stand-in — first at a fixed rate, then saturation bursts for throughput,
//! then up a rate ladder for capacity.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparse_substrate::{CscMatrix, MaskBits, PlusTimes, SparseVec};
use spmspv::engine::{Engine, EngineConfig, MxvRequest, Ticket};
use spmspv::obs::{self, Json};
use spmspv::ops::Mxv;
use spmspv::MaskMode;

use crate::inputs::{self, Rng, ServeRequest};
use crate::report::{named, nproc, resident_mb, Phase, Report};
use crate::stats::{capacity, mean, percentile, sorted, Rung};
use crate::trace::{Delta, Tracer, BATCH_STEPS};
use crate::{Args, Scale};

/// The fixed offered rate of the latency phase (requests per second).
const FIXED_RATE: f64 = 100.0;
/// The latency limit on a ladder rung's p99 that defines capacity. Host
/// stalls of up to ~40 ms occur on small shared VMs; a limit above them
/// makes a rung fail on queueing, not on the host.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// The ladder's first rung, as a share of the saturation rate.
const LADDER_START: f64 = 0.7;
/// Ladder step: each rung offers 5% more than the last.
const LADDER_STEP: f64 = 1.05;
/// Engine builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Requests served by each build's warm-up flush.
const WARMUP_REQUESTS: usize = 512;
/// Distinct pre-generated requests the schedule cycles through; also the
/// size of one saturation burst.
const POOL: usize = 8192;
/// Saturation bursts per run; their pooled drain rate is reported.
const BURSTS: usize = 7;
/// Pool entries whose every reply is compared with the oracle.
const ORACLE_POOL_SAMPLE: usize = 64;
/// Replies compared with the oracle, at most.
const ORACLE_REPLIES: usize = 512;

type ServeEngine<'m> = Engine<'m, f64, f64, PlusTimes>;

/// Everything the schedule sends, generated before any clock starts.
struct Inputs {
    a: CscMatrix<f64>,
    pool: Vec<ServeRequest>,
    mask: Arc<MaskBits>,
    gaps: Vec<f64>,
    sampled: Vec<bool>,
}

impl Inputs {
    fn request(&self, seq: usize) -> MxvRequest<f64> {
        let r = &self.pool[seq % self.pool.len()];
        let request = MxvRequest::new(r.frontier.clone());
        if r.masked {
            request.mask(Arc::clone(&self.mask), MaskMode::Complement)
        } else {
            request
        }
    }
}

/// What one open-loop phase observed.
struct Observed {
    rate: f64,
    /// Latency from due time to ticket resolution, in send order (ms).
    latency_ms: Vec<f64>,
    /// How late the generator submitted each request (ms).
    lag_ms: Vec<f64>,
    failed: u64,
    /// `(pool index, reply)` for sampled pool entries.
    replies: Vec<(usize, SparseVec<f64>)>,
}

/// Sends `inputs.request(first..)` open-loop at `rate` for `length` (at
/// most `count` requests), collecting every ticket on a second thread. An
/// infinite rate queues all `count` requests at once.
fn drive(
    engine: &ServeEngine<'_>,
    inputs: &Inputs,
    first: usize,
    (rate, length, count): (f64, Duration, usize),
    tracer: &mut Tracer,
) -> Observed {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Ticket<f64>)>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut seen = Observed {
                rate,
                latency_ms: Vec::new(),
                lag_ms: Vec::new(),
                failed: 0,
                replies: Vec::new(),
            };
            for (seq, due, sent, ticket) in rx {
                let result = ticket.wait();
                let done = Instant::now();
                seen.latency_ms.push(ms(done - due));
                seen.lag_ms.push(ms(sent - due));
                let idx = seq % inputs.pool.len();
                match result {
                    Ok(y) if inputs.sampled[idx] && seen.replies.len() < ORACLE_REPLIES => {
                        seen.replies.push((idx, y))
                    }
                    Ok(_) => {}
                    Err(_) => seen.failed += 1,
                }
            }
            seen
        });
        let session = engine.session();
        let start = Instant::now();
        let mut due = start;
        for k in 0..count {
            due += Duration::from_secs_f64(inputs.gaps[(first + k) % inputs.gaps.len()] / rate);
            if due - start > length {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let request = inputs.request(first + k);
            let sent = Instant::now();
            tracer.open("engine.Session::submit");
            let ticket = session.submit(request);
            tracer.close();
            tx.send((first + k, due, sent, ticket)).expect("collector outlives the sender");
        }
        drop(tx);
        collector.join().expect("collector thread")
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Builds an engine and serves the warm-up requests through one flush.
fn setup<'m>(
    a: &'m CscMatrix<f64>,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> (ServeEngine<'m>, u64) {
    let engine = tracer.span("engine.Engine::over_with", || {
        Engine::over_with(a, PlusTimes, EngineConfig::default())
    });
    let tickets: Vec<_> = (0..WARMUP_REQUESTS).map(|i| engine.submit(inputs.request(i))).collect();
    tracer.span("engine.Engine::flush", || engine.flush());
    let failed = tickets.iter().filter(|t| !matches!(t.try_take(), Some(Ok(_)))).count();
    (engine, failed as u64)
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let generated = Instant::now();
    let a = match args.scale {
        Scale::Full => inputs::scalefree_graph(16, args.seed),
        Scale::Tiny => inputs::scalefree_graph(8, args.seed),
    };
    let mut rng = Rng::new(args.seed, 2);
    let (pool, mask) = inputs::serve_requests(&a, POOL, &mut rng);
    let gaps = inputs::unit_gaps(1 << 18, &mut rng);
    let mut sampled = vec![false; POOL];
    for _ in 0..ORACLE_POOL_SAMPLE {
        sampled[rng.below(POOL)] = true;
    }
    let inputs = Inputs { a, pool, mask, gaps, sampled };
    report.note_inputs(
        "rmat graph500 edge-factor 14 (ljournal-2008 stand-in)",
        &inputs.a,
        generated.elapsed(),
    );
    let a = &inputs.a;
    let mean_flops = mean(&inputs.pool.iter().map(|r| r.flops as f64).collect::<Vec<_>>());

    let mut tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    let mut setup_failed = 0;
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        tracer.open("setup");
        let (e, failed) = setup(a, &inputs, &mut tracer);
        tracer.close();
        setup_s.push(t.elapsed().as_secs_f64());
        setup_failed += failed;
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up ran");
    report.phases.push(Phase::new("setup", (SETUP_REPS * WARMUP_REQUESTS) as u64, setup_failed));

    let total = Duration::from_secs_f64(args.seconds);
    let engine_before = engine.obs().snapshot();
    let mut seq = 0usize;
    let mut phases: Vec<(String, Observed)> = Vec::new();
    let mut rss_mb = 0.0;
    let mut mid = None;
    engine.serve(|e| {
        // Fixed rate. Traced runs split it into an untraced and a traced
        // half, so the tracing overhead is measured within one process.
        let halves: &[(&str, bool)] = if args.trace {
            &[("fixed-untraced", false), ("fixed-traced", true)]
        } else {
            &[("fixed", false)]
        };
        let share = if args.trace { 0.3 } else { 0.35 };
        for &(name, traced) in halves {
            tracer.set_enabled(traced);
            let o =
                drive(e, &inputs, seq, (FIXED_RATE, total.mul_f64(share), usize::MAX), &mut tracer);
            seq += o.latency_ms.len();
            phases.push((name.to_string(), o));
        }
        tracer.set_enabled(false);
        // Memory after the fixed rate: the bursts and the overload rungs
        // queue backlogs whose size is a matter of timing.
        rss_mb = resident_mb();
        mid = Some((e.obs().snapshot(), obs::global().snapshot()));
        let ladder_end = Instant::now() + total.mul_f64(0.65);
        // Saturation: the whole pool queued at once, several times; the
        // drain rate is the engine's throughput with full coalescing.
        for b in 0..BURSTS {
            let o = drive(e, &inputs, seq, (f64::INFINITY, Duration::ZERO, POOL), &mut tracer);
            seq += POOL;
            phases.push((format!("burst{b}"), o));
        }
        if args.trace {
            return;
        }
        // Capacity: climb in 5% steps from 70% of the saturation rate until
        // a rate misses the limit twice (one retry, so a single host stall
        // cannot end the ladder).
        let rung = total.mul_f64(0.025);
        let mut rate = LADDER_START * saturation(&phases);
        let mut retried = false;
        while Instant::now() + rung < ladder_end {
            let o = drive(e, &inputs, seq, (rate, rung, usize::MAX), &mut tracer);
            seq += o.latency_ms.len();
            let ok = to_rung(&o).passes(LATENCY_LIMIT_MS);
            phases.push((format!("rung@{rate:.0}"), o));
            if ok {
                rate *= LADDER_STEP;
                retried = false;
            } else if retried {
                break;
            } else {
                retried = true;
            }
        }
    });
    tracer.set_enabled(args.trace);
    let (engine_mid, global_mid) = mid.expect("the fixed rate ran");
    let fixed_engine = Delta::new(engine_before, engine_mid.clone());
    let burst_engine = Delta::new(engine_mid, engine.obs().snapshot());
    let burst_global = Delta::new(global_mid, obs::global().snapshot());

    // Oracle: each sampled reply against the request run alone through a
    // single-vector descriptor with the engine's options.
    let options = EngineConfig::default().options;
    let mut plain = Mxv::over(a).semiring(&PlusTimes).options(options.clone()).prepare();
    let mut masked = Mxv::over(a)
        .semiring(&PlusTimes)
        .options(options)
        .mask(&inputs.mask, MaskMode::Complement)
        .prepare();
    let mut checked = 0u64;
    let mut wrong = 0u64;
    for (_, o) in &phases {
        for (idx, y) in o.replies.iter().take(ORACLE_REPLIES.saturating_sub(checked as usize)) {
            let r = &inputs.pool[*idx];
            let expect = if r.masked { masked.run(&r.frontier) } else { plain.run(&r.frontier) };
            checked += 1;
            // Request values are small integers, so every sum is exact and
            // equal entries are bit-identical entries.
            wrong += u64::from(!y.same_entries(&expect));
        }
    }
    report.wrong = wrong;
    for (name, o) in &phases {
        report.phases.push(Phase::new(name.clone(), o.latency_ms.len() as u64, o.failed));
    }
    report.phases.push(Phase::new("oracle-check", checked, wrong));

    let fixed: Vec<&Observed> =
        phases.iter().filter(|(n, _)| n.starts_with("fixed")).map(|(_, o)| o).collect();
    let latency: Vec<f64> = fixed.iter().flat_map(|o| o.latency_ms.iter().copied()).collect();
    let lag: Vec<f64> = fixed.iter().flat_map(|o| o.lag_ms.iter().copied()).collect();
    let (by_latency, by_lag) = (sorted(&latency), sorted(&lag));
    let (p50, p90, p99) =
        (percentile(&by_latency, 0.5), percentile(&by_latency, 0.9), percentile(&by_latency, 0.99));
    let (lag50, lag99) = (percentile(&by_lag, 0.5), percentile(&by_lag, 0.99));
    let mean_gap_ms = 1e3 / FIXED_RATE;
    if lag99 > mean_gap_ms {
        report.invalid = Some(format!(
            "generator lag p99 {lag99:.3} ms exceeds the mean inter-arrival gap {mean_gap_ms:.3} ms"
        ));
    }
    let rungs: Vec<Rung> =
        phases.iter().filter(|(n, _)| n.starts_with("rung")).map(|(_, o)| to_rung(o)).collect();
    let capacity_rps = capacity(&rungs, LATENCY_LIMIT_MS).unwrap_or(0.0);
    let saturation_rps = saturation(&phases);
    let mteps = saturation_rps * mean_flops / 1e6;
    let setup_median = percentile(&sorted(&setup_s), 0.5);

    report.note(
        "threads",
        Json::obj([
            ("engine_kernel", Json::Int(nproc() as i64)),
            ("engine_server", Json::Int(1)),
            ("generator", Json::Int(1)),
            ("collector", Json::Int(1)),
        ]),
    );
    report.note_memory(rss_mb);
    report.note("mean_flops_per_request", Json::Num(mean_flops));
    report.note("fixed_rate_rps", Json::Num(FIXED_RATE));
    report.note("latency_limit_ms", Json::Num(LATENCY_LIMIT_MS));
    report.note(
        "ladder",
        Json::Arr(
            phases
                .iter()
                .filter(|(n, _)| n.starts_with("rung"))
                .map(|(n, o)| {
                    let r = to_rung(o);
                    Json::obj([
                        ("rung", Json::str(n.clone())),
                        ("requests", Json::Int(o.latency_ms.len() as i64)),
                        ("p99_ms", Json::Num(r.p99())),
                        ("backlog_grew", Json::Bool(r.backlog_grew(LATENCY_LIMIT_MS))),
                        ("pass", Json::Bool(r.passes(LATENCY_LIMIT_MS))),
                    ])
                })
                .collect(),
        ),
    );
    report.note(
        "named",
        Json::obj([
            ("setup_s", named(setup_median, "s", setup_s.len())),
            ("req_ms_p50", named(p50, "ms", latency.len())),
            ("req_ms_p90", named(p90, "ms", latency.len())),
            ("req_ms_p99", named(p99, "ms", latency.len())),
            ("capacity_rps", named(capacity_rps, "1/s", rungs.len())),
            ("saturation_rps", named(saturation_rps, "1/s", BURSTS)),
            ("loadgen.lag_ms_p50", named(lag50, "ms", lag.len())),
            ("loadgen.lag_ms_p99", named(lag99, "ms", lag.len())),
        ]),
    );
    if !crate::stats::tail_supported(latency.len(), 0.99) {
        report.note("tail_warning", Json::str("fewer than 1000 requests: p99 has < 10 beyond"));
    }

    if !args.trace {
        report.set("setup_s", setup_median);
        report.set("latency_ms_p50", p50);
        report.set("mteps", mteps);
        return report;
    }

    // Latency layers at the fixed rate; throughput layers over the bursts.
    let per_fixed = |x: f64| x / latency.len().max(1) as f64;
    let burst_requests = (BURSTS * POOL) as f64;
    let wait = fixed_engine.histogram("engine.queue.wait");
    report.set("engine.submit_us", {
        let n = tracer.count("engine.Session::submit").max(1) as f64;
        tracer.total("engine.Session::submit").as_secs_f64() * 1e6 / n
    });
    report.set("engine.queue.wait_p50", wait.quantile(0.5) as f64 / 1e6);
    report.set("engine.queue.wait_p99", wait.quantile(0.99) as f64 / 1e6);
    report.set("loadgen.lag_ms_p50", lag50);
    report.set("loadgen.lag_ms_p99", lag99);
    let flush_ms = |d: &Delta, p: &str| d.sum_ms(&format!("engine.flush.{p}"));
    let per_flush =
        ["assemble", "execute", "demux"].map(|p| flush_ms(&fixed_engine, p)).iter().sum::<f64>()
            / fixed_engine.counter("engine.flushes").max(1) as f64;
    let queue_ms = wait.sum as f64 / 1e6 / wait.count.max(1) as f64;
    report.set(
        "unattributed_ms",
        per_fixed(latency.iter().sum::<f64>() - lag.iter().sum::<f64>()) - queue_ms - per_flush,
    );
    let half = |name: &str| {
        let o = &phases.iter().find(|(n, _)| n == name).expect("both halves ran").1;
        percentile(&sorted(&o.latency_ms), 0.5)
    };
    report.set("trace_overhead", half("fixed-traced") / half("fixed-untraced") - 1.0);

    for p in ["assemble", "execute", "demux"] {
        report.set(
            &format!("engine.flush.{p}_ms"),
            1e3 * flush_ms(&burst_engine, p) / burst_requests,
        );
    }
    // The choice counters count fused batches, one per resolved run.
    let batches = burst_engine.counter("engine.fused_batches").max(1) as f64;
    report.set(
        "engine.lanes_per_batch",
        burst_engine.counter("engine.lanes_executed") as f64 / batches,
    );
    for kernel in ["bucket", "naive", "rowsplit"] {
        for backend in ["dense", "lanemajor", "hashed"] {
            let name = format!("engine.choice.{kernel}.{backend}");
            report.set(&name, burst_engine.counter(&name) as f64 / batches);
        }
    }
    for (metric, hist) in BATCH_STEPS {
        report.set(metric, burst_global.sum_ms(hist) / burst_requests);
    }
    report.set("kernel.flops", mean_flops);
    report.set(
        "kernel.ns_per_flop",
        flush_ms(&burst_engine, "execute") * 1e6 / (mean_flops * burst_requests),
    );
    report.note("spans", tracer.summary());
    report
}

/// Throughput over the saturation bursts: requests served per second of
/// drain time, all bursts pooled.
fn saturation(phases: &[(String, Observed)]) -> f64 {
    let (requests, drain_ms) = phases
        .iter()
        .filter(|(n, _)| n.starts_with("burst"))
        .map(|(_, o)| (o.latency_ms.len() as f64, o.latency_ms.iter().fold(0.0, |m, &l| l.max(m))))
        .fold((0.0, 0.0), |(r, d), (n, l)| (r + n, d + l));
    requests * 1e3 / drain_ms
}

fn to_rung(o: &Observed) -> Rung {
    Rung { rate: o.rate, latencies_ms: o.latency_ms.clone(), failed: o.failed }
}
