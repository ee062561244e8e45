//! The repository benchmark: one command runs a named workload from a seed,
//! checks its outputs, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bfs-scalefree --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `report.rs` for both catalogues). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The line before it carries the run's provenance.

mod bfs;
mod check;
mod fleet;
mod inputs;
mod report;
mod serve;
mod solves;
mod stats;
mod trace;

use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-source BFS on the scale-free (R-MAT) stand-in.
    BfsScalefree,
    /// Single-source BFS on the high-diameter mesh stand-in.
    BfsMesh,
    /// Open-loop Poisson traffic into `Engine::serve`.
    ServeEngine,
    /// 16-source lock-step BFS through a 2-host TCP shard fleet.
    MsbfsFleet,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] =
        [Workload::BfsScalefree, Workload::BfsMesh, Workload::ServeEngine, Workload::MsbfsFleet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BfsScalefree => "bfs-scalefree",
            Workload::BfsMesh => "bfs-mesh",
            Workload::ServeEngine => "serve-engine",
            Workload::MsbfsFleet => "msbfs-fleet",
        }
    }
}

/// Input size: the benchmark's own, or a tiny one for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Tiny graphs, for the benchmark's own tests.
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value}: expected 0 < s <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, scale: Scale::Full })
}

/// Runs one workload and returns its report.
pub fn run(args: &Args) -> report::Report {
    let mut report = match args.workload {
        Workload::BfsScalefree => bfs::run(bfs::Graph::ScaleFree, args),
        Workload::BfsMesh => bfs::run(bfs::Graph::Mesh, args),
        Workload::ServeEngine => serve::run(args),
        Workload::MsbfsFleet => fleet::run(args),
    };
    report.note("workload", spmspv::obs::Json::str(args.workload.name()));
    report.note("seed", spmspv::obs::Json::Int(args.seed as i64));
    report.note("git_rev", spmspv::obs::Json::str(report::git_rev()));
    report.note("nproc", spmspv::obs::Json::Int(report::nproc() as i64));
    report.note("trace", spmspv::obs::Json::Bool(args.trace));
    report
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    let catalogue = if args.trace { report::PER_LAYER } else { report::END_TO_END };
    println!("{}", report.provenance_line());
    println!("{}", report.result_line(catalogue));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv("--workload bfs-mesh --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::BfsMesh, 7, 10.0, true));
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--seed 1")).is_err());
        assert!(parse(&argv("--workload bfs-mesh --trace 2")).is_err());
        assert!(parse(&argv("--workload bfs-mesh --seconds")).is_err());
    }

    /// Every workload at tiny size ends with error rate 0 and every metric
    /// of its mode present, traced and untraced.
    #[test]
    fn tiny_smoke_of_every_workload() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                // Long enough for the serving ladder to run a few rungs.
                let seconds = if workload == Workload::ServeEngine { 3.0 } else { 0.5 };
                let args = Args { workload, seed: 3, seconds, trace, scale: Scale::Tiny };
                let r = run(&args);
                let catalogue = if trace { report::PER_LAYER } else { report::END_TO_END };
                assert!(r.attempted() > 0, "{} attempted nothing", workload.name());
                assert_eq!(r.error_rate(), 0.0, "{} trace={trace}", workload.name());
                assert!(r.correct(), "{}: {}", workload.name(), r.provenance_line());
                let line = r.result_line(catalogue);
                for (name, _) in catalogue {
                    assert!(line.contains(&format!("\"{name}\"")), "{name} missing");
                }
                if !trace {
                    for (name, _) in report::END_TO_END {
                        assert!(r.metrics[*name] > 0.0, "{} {name} is 0", workload.name());
                    }
                }
            }
        }
    }
}
