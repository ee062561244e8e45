//! `msbfs-fleet`: `multi_bfs_routed` with 16 seeded sources through
//! `ShardedEngine::connect` to two in-process `ShardHost`s on loopback
//! (one kernel thread each), on a triangular mesh.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sparse_substrate::{CscMatrix, Select2ndMin};
use spmspv::engine::EngineConfig;
use spmspv::net::{ShardHost, ShardHostHandle, TcpConfig};
use spmspv::obs::{self, Json, ObsConfig};
use spmspv::shard::{ShardPlan, ShardedEngine};
use spmspv::SpMSpVOptions;
use spmspv_graphs::{multi_bfs, multi_bfs_routed, MultiBfsResult};

use crate::check::validate_bfs_tree;
use crate::inputs::{self, Rng};
use crate::report::{resident_mb, Phase, Report};
use crate::solves;
use crate::stats::{column_flops, traversed_edges};
use crate::trace::{Delta, Tracer, BATCH_STEPS};
use crate::{Args, Scale};

const SHARDS: usize = 2;
const SOURCES_PER_SOLVE: usize = 16;
/// Seeded source sets the measurement cycles through.
const SOURCE_SETS: usize = 64;
/// Fleet launches per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Solves (the first ones) also compared with a local `multi_bfs`.
const ORACLE_SOLVES: usize = 2;

type Router = ShardedEngine<f64, usize, Select2ndMin>;

/// A connected router and the hosts it dials.
struct Fleet {
    router: Router,
    hosts: Vec<ShardHostHandle>,
}

impl Fleet {
    /// Plans, splits, binds and spawns the hosts, and connects the router
    /// (handshake included).
    fn launch(a: &CscMatrix<f64>, tracer: &mut Tracer) -> Fleet {
        let plan = tracer.span("shard.ShardPlan::balanced", || {
            ShardPlan::balanced(a, SHARDS).with_fingerprints_of(a)
        });
        let parts = tracer.span("sparse.CscMatrix::column_split", || a.column_split(plan.bounds()));
        let hosts: Vec<ShardHostHandle> = parts
            .into_iter()
            .enumerate()
            .map(|(s, part)| {
                tracer.span("net.ShardHost::bind", || {
                    ShardHost::<f64, usize, Select2ndMin>::bind(
                        ("127.0.0.1", 0),
                        s,
                        plan.range(s),
                        part,
                        Select2ndMin,
                        EngineConfig::default().options(SpMSpVOptions::with_threads(1)),
                    )
                    .expect("bind an ephemeral loopback port")
                    .spawn()
                })
            })
            .collect();
        let addrs: Vec<SocketAddr> = hosts.iter().map(ShardHostHandle::addr).collect();
        let router = tracer.span("net.ShardedEngine::connect", || {
            ShardedEngine::connect(
                plan,
                a.nrows(),
                Select2ndMin,
                &addrs,
                TcpConfig::default(),
                ObsConfig::default(),
            )
            .expect("dial and handshake every host")
        });
        Fleet { router, hosts }
    }

    /// Drops the router, then stops every host and joins its threads.
    fn shutdown(self) {
        drop(self.router);
        for host in self.hosts {
            host.shutdown();
        }
    }
}

/// Validates every tree of one solve.
fn check(a: &CscMatrix<f64>, r: &MultiBfsResult) -> Result<(), String> {
    r.sources.iter().enumerate().try_for_each(|(s, &src)| {
        validate_bfs_tree(a, src, &r.parents[s], &r.levels[s])
            .map_err(|e| format!("source {src}: {e}"))
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let generated = Instant::now();
    let side = if args.scale == Scale::Full { 110 } else { 12 };
    let a = inputs::mesh_graph(side);
    let warmup = inputs::top_degree(&a, SOURCES_PER_SOLVE);
    let sets = inputs::sources(&a, SOURCE_SETS * SOURCES_PER_SOLVE, &mut Rng::new(args.seed, 3));
    report.note_inputs(&format!("triangular mesh {side}x{side}"), &a, generated.elapsed());
    report.note(
        "threads",
        Json::obj([
            ("hosts", Json::Int(SHARDS as i64)),
            ("host_engine_kernel", Json::Int(1)),
            ("router_connections", Json::Int(SHARDS as i64)),
        ]),
    );
    report.note("sources_per_solve", Json::Int(SOURCES_PER_SOLVE as i64));

    let mut tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    let mut setup_wrong = 0u64;
    let mut fleet: Option<Fleet> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = fleet.take() {
            old.shutdown();
        }
        let t = Instant::now();
        tracer.open("setup");
        let f = Fleet::launch(&a, &mut tracer);
        let r = tracer.span("graphs.multi_bfs_routed", || multi_bfs_routed(&f.router, &warmup));
        tracer.close();
        setup_s.push(t.elapsed().as_secs_f64());
        setup_wrong += u64::from(check(&a, &r).is_err());
        fleet = Some(f);
    }
    let fleet = fleet.expect("at least one launch ran");
    report.phases.push(Phase::new("setup", SETUP_REPS as u64, setup_wrong));
    report.wrong += setup_wrong;

    let router_before = fleet.router.obs().snapshot();
    let global_before = obs::global().snapshot();
    let (mut flush_time, mut levels, mut edges, mut flops) = (Duration::ZERO, 0usize, 0u64, 0u64);
    let mut kept: Vec<MultiBfsResult> = Vec::new();
    let solves = solves::measure(
        args,
        &mut tracer,
        "graphs.multi_bfs_routed",
        |i| {
            let set = i % SOURCE_SETS;
            multi_bfs_routed(&fleet.router, &sets[set * SOURCES_PER_SOLVE..][..SOURCES_PER_SOLVE])
        },
        |r| {
            flush_time += r.spmspv_time;
            levels += r.iterations;
            for lv in &r.levels {
                edges += traversed_edges(&a, lv);
                flops += column_flops(&a, lv.iter().enumerate().filter_map(|(v, l)| l.map(|_| v)));
            }
            let valid = check(&a, &r);
            if kept.len() < ORACLE_SOLVES {
                kept.push(r);
            }
            valid
        },
    );
    report.note_memory(resident_mb());
    let router = Delta::new(router_before, fleet.router.obs().snapshot());
    let global = Delta::new(global_before, obs::global().snapshot());
    fleet.shutdown();

    // Oracle: the first solves against the local single-engine traversal.
    let oracle_wrong = kept
        .iter()
        .filter(|r| {
            let local = multi_bfs(&a, &r.sources, SpMSpVOptions::default());
            local.parents != r.parents || local.levels != r.levels
        })
        .count() as u64;
    report.phases.push(Phase::new("oracle-check", kept.len() as u64, oracle_wrong));
    report.wrong += oracle_wrong;
    if oracle_wrong > 0 {
        report.note("oracle_failure", Json::str("fleet result differs from local multi_bfs"));
    }
    solves.report(&mut report, &setup_s, edges, args.trace);
    if !args.trace {
        return report;
    }

    let per_solve = |x: f64| x / solves.count().max(1) as f64;
    let flush_ms = flush_time.as_secs_f64() * 1e3;
    report.set("graphs.levels", per_solve(levels as f64));
    report.set("graphs.self_ms", per_solve(solves.total_ms() - flush_ms));
    report.set("shard.flush_ms", per_solve(flush_ms));
    report.set("shard.merge_ms", per_solve(router.sum_ms("shard.merge.time")));
    let fanout = router.histogram("shard.fanout");
    report.set("shard.fanout_mean", fanout.sum as f64 / fanout.count.max(1) as f64);
    report.set("net.rpc_ms", per_solve(router.sum_ms("net.rpc.time")));
    report.set("net.encode_ms", per_solve(router.sum_ms("net.encode.time")));
    report.set("net.decode_ms", per_solve(router.sum_ms("net.decode.time")));
    report.set("net.bytes_out", per_solve(router.counter("net.bytes.out") as f64));
    report.set("net.bytes_in", per_solve(router.counter("net.bytes.in") as f64));
    report.set("net.reconnects", router.counter("net.reconnects") as f64);
    let mut kernel_ms = 0.0;
    for (metric, hist) in BATCH_STEPS {
        kernel_ms += global.sum_ms(hist);
        report.set(metric, per_solve(global.sum_ms(hist)));
    }
    report.set("kernel.flops", per_solve(flops as f64));
    report.set("kernel.ns_per_flop", kernel_ms * 1e6 / flops.max(1) as f64);
    report.set("unattributed_ms", solves.unattributed_ms());
    report.set("trace_overhead", solves.trace_overhead());
    report.note("spans", tracer.summary());
    report
}
