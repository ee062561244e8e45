//! `bfs-scalefree` and `bfs-mesh`: repeated single-source BFS through one
//! reused `bfs_prepared` descriptor (default algorithm, threads = nproc).

use std::time::{Duration, Instant};

use sparse_substrate::{CscMatrix, PlusTimes, Select2ndMin};
use spmspv::obs::{self, Json};
use spmspv::ops::{Mxv, PreparedMxv};
use spmspv::{MaskMode, SpMSpVBucket, SpMSpVOptions, StepTimings};
use spmspv_graphs::{bfs_frontiers, bfs_prepared, BfsResult};

use crate::check::validate_bfs_tree;
use crate::inputs::{self, Rng};
use crate::report::{nproc, resident_mb, Phase, Report};
use crate::solves;
use crate::stats::{column_flops, traversed_edges};
use crate::trace::{Delta, Tracer, BATCH_STEPS};
use crate::{Args, Scale};

/// Descriptor builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Warm-up searches per descriptor build (part of set-up), from the
/// highest-degree vertices so every build does the same work.
const WARMUP_SOLVES: usize = 2;
/// Seeded sources the measurement cycles through.
const SOURCES: usize = 4096;
/// Searches replayed through the bucket kernel's step timer (traced runs).
const REPLAY_SOURCES: usize = 4;

/// Which stand-in graph the search runs on.
#[derive(Debug, Clone, Copy)]
pub enum Graph {
    /// ljournal-2008 stand-in: R-MAT scale 16, Graph500 skew.
    ScaleFree,
    /// hugetric-00020 stand-in: 300×300 triangular mesh.
    Mesh,
}

fn prepare(a: &CscMatrix<f64>, threads: usize) -> PreparedMxv<'_, f64, usize, Select2ndMin> {
    Mxv::over(a)
        .semiring(&Select2ndMin)
        .masked(MaskMode::Complement)
        .options(SpMSpVOptions::with_threads(threads))
        .prepare()
}

/// Runs the workload.
pub fn run(graph: Graph, args: &Args) -> Report {
    let mut report = Report::default();
    let threads = nproc();

    let generated = Instant::now();
    let (a, generator) = match (graph, args.scale) {
        (Graph::ScaleFree, scale) => (
            inputs::scalefree_graph(if scale == Scale::Full { 16 } else { 8 }, args.seed),
            "rmat graph500 edge-factor 14 (ljournal-2008 stand-in)",
        ),
        (Graph::Mesh, scale) => (
            inputs::mesh_graph(if scale == Scale::Full { 300 } else { 20 }),
            "triangular mesh (hugetric-00020 stand-in)",
        ),
    };
    let warmup = inputs::top_degree(&a, WARMUP_SOLVES);
    let sources = inputs::sources(&a, SOURCES, &mut Rng::new(args.seed, 1));
    report.note_inputs(generator, &a, generated.elapsed());
    report.note("threads", Json::obj([("ops", Json::Int(threads as i64))]));

    let mut tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut op = None;
    let mut setup_failed = 0;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        tracer.open("setup");
        let mut prepared = tracer.span("ops.prepare", || prepare(&a, threads));
        let results: Vec<BfsResult> = warmup
            .iter()
            .map(|&s| tracer.span("graphs.bfs_prepared", || bfs_prepared(&mut prepared, s)))
            .collect();
        tracer.close();
        setup_s.push(t.elapsed().as_secs_f64());
        setup_failed += warmup
            .iter()
            .zip(&results)
            .filter(|(&s, r)| validate_bfs_tree(&a, s, &r.parents, &r.levels).is_err())
            .count() as u64;
        op = Some(prepared);
    }
    let mut op = op.expect("at least one set-up ran");
    report.phases.push(Phase::new("setup", (SETUP_REPS * warmup.len()) as u64, setup_failed));
    report.wrong += setup_failed;

    let global_before = obs::global().snapshot();
    let (mut run_time, mut levels, mut edges, mut flops) = (Duration::ZERO, 0usize, 0u64, 0u64);
    let source = |i: usize| sources[i % sources.len()];
    let solves = solves::measure(
        args,
        &mut tracer,
        "graphs.bfs_prepared",
        |i| (source(i), bfs_prepared(&mut op, source(i))),
        |(s, r)| {
            run_time += r.spmspv_time;
            levels += r.iterations;
            edges += traversed_edges(&a, &r.levels);
            flops +=
                column_flops(&a, r.levels.iter().enumerate().filter_map(|(v, l)| l.map(|_| v)));
            validate_bfs_tree(&a, s, &r.parents, &r.levels)
        },
    );
    report.note_memory(resident_mb());
    let global = Delta::new(global_before, obs::global().snapshot());
    solves.report(&mut report, &setup_s, edges, args.trace);
    if !args.trace {
        return report;
    }

    let per_solve = |x: f64| x / solves.count().max(1) as f64;
    let run_ms = run_time.as_secs_f64() * 1e3;
    report.set("graphs.levels", per_solve(levels as f64));
    report.set("graphs.self_ms", per_solve(solves.total_ms() - run_ms));
    report.set("ops.run_ms", per_solve(run_ms));
    report.set("ops.run_us_per_call", run_ms * 1e3 / levels.max(1) as f64);
    report.set("kernel.flops", per_solve(flops as f64));
    report.set("kernel.ns_per_flop", run_time.as_nanos() as f64 / flops.max(1) as f64);
    for choice in ["adaptive.single.bucket", "adaptive.single.sequential"] {
        report.set(choice, per_solve(global.counter(choice) as f64));
    }
    for (metric, hist) in BATCH_STEPS {
        report.set(metric, per_solve(global.sum_ms(hist)));
    }
    report.set("unattributed_ms", solves.unattributed_ms());
    report.set("trace_overhead", solves.trace_overhead());

    // Fig. 6 split: whole searches' frontiers replayed through the bucket
    // kernel's step timer, after the window.
    let mut steps = StepTimings::default();
    let replayed = &sources[..REPLAY_SOURCES.min(sources.len())];
    let mut kernel = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(threads));
    for &s in replayed {
        for frontier in bfs_frontiers(&a, s) {
            tracer.open("bucket.multiply_with_timings");
            steps += kernel.multiply_with_timings(&frontier, &PlusTimes).1;
            tracer.close();
        }
    }
    let per_replay = |d: Duration| d.as_secs_f64() * 1e3 / replayed.len() as f64;
    report.set("bucket.estimate_ms", per_replay(steps.estimate));
    report.set("bucket.bucketing_ms", per_replay(steps.bucketing));
    report.set("bucket.merge_ms", per_replay(steps.merge));
    report.set("bucket.output_ms", per_replay(steps.output));
    report.note("replayed_searches", Json::Int(replayed.len() as i64));
    report.note("spans", tracer.summary());
    report
}
