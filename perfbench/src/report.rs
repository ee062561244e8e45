//! What a run reports: the metric catalogue (end-to-end and per-layer, with
//! units), the run's provenance, and the final JSON line.

use std::collections::BTreeMap;
use std::time::Duration;

use sparse_substrate::CscMatrix;
use spmspv::obs::Json;

/// End-to-end metrics: every workload reports all of them with
/// `--trace 0`. An "op" is one BFS solve (bfs-*, msbfs-fleet) or one
/// request (serve-engine).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("latency_ms_p50", "ms"), ("mteps", "MTEPS")];

/// Per-layer metrics: every workload reports all of them with `--trace 1`;
/// a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.levels", "levels/op"),
    ("graphs.self_ms", "ms/op"),
    ("ops.run_ms", "ms/op"),
    ("ops.run_us_per_call", "us/call"),
    ("kernel.flops", "flops/op"),
    ("kernel.ns_per_flop", "ns/flop"),
    ("adaptive.single.bucket", "calls/op"),
    ("adaptive.single.sequential", "calls/op"),
    ("bucket.estimate_ms", "ms/op"),
    ("bucket.bucketing_ms", "ms/op"),
    ("bucket.merge_ms", "ms/op"),
    ("bucket.output_ms", "ms/op"),
    ("engine.submit_us", "us/call"),
    ("engine.queue.wait_p50", "ms"),
    ("engine.queue.wait_p99", "ms"),
    ("engine.flush.assemble_ms", "ms/1k_req"),
    ("engine.flush.execute_ms", "ms/1k_req"),
    ("engine.flush.demux_ms", "ms/1k_req"),
    ("engine.lanes_per_batch", "lanes/batch"),
    ("engine.choice.bucket.dense", "share"),
    ("engine.choice.bucket.lanemajor", "share"),
    ("engine.choice.bucket.hashed", "share"),
    ("engine.choice.naive.dense", "share"),
    ("engine.choice.naive.lanemajor", "share"),
    ("engine.choice.naive.hashed", "share"),
    ("engine.choice.rowsplit.dense", "share"),
    ("engine.choice.rowsplit.lanemajor", "share"),
    ("engine.choice.rowsplit.hashed", "share"),
    ("batch.estimate_ms", "ms/op"),
    ("batch.bucketing_ms", "ms/op"),
    ("batch.merge_ms", "ms/op"),
    ("batch.output_ms", "ms/op"),
    ("shard.flush_ms", "ms/op"),
    ("shard.merge_ms", "ms/op"),
    ("shard.fanout_mean", "shards/req"),
    ("net.rpc_ms", "ms/op"),
    ("net.encode_ms", "ms/op"),
    ("net.decode_ms", "ms/op"),
    ("net.bytes_out", "bytes/op"),
    ("net.bytes_in", "bytes/op"),
    ("net.reconnects", "count"),
    ("unattributed_ms", "ms/op"),
    ("trace_overhead", "share"),
    ("loadgen.lag_ms_p50", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
];

/// Attempted / ok / failed counts of one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase name (`setup`, `measure`, `check`, a ladder rung, ...).
    pub name: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were shed, timed out, or answered wrongly.
    pub failed: u64,
}

impl Phase {
    /// A phase with its counts.
    pub fn new(name: impl Into<String>, attempted: u64, failed: u64) -> Self {
        Phase { name: name.into(), attempted, failed }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Phases in run order; `attempted`/`failed` of the run are their sums.
    pub phases: Vec<Phase>,
    /// Output-check failures (wrong answers), also counted in `phases`.
    pub wrong: u64,
    /// Why the measurement itself is invalid, if it is (an open-loop
    /// generator that fell behind its schedule).
    pub invalid: Option<String>,
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<String, f64>,
    /// Provenance and the workload's own named metrics.
    pub provenance: Vec<(String, Json)>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds a provenance entry.
    pub fn note(&mut self, key: &str, value: Json) {
        self.provenance.push((key.to_string(), value));
    }

    /// Records the generated graph and how long input generation took.
    pub fn note_inputs(&mut self, generator: &str, a: &CscMatrix<f64>, took: Duration) {
        self.note(
            "graph",
            Json::obj([
                ("generator", Json::str(generator)),
                ("n", Json::Int(a.ncols() as i64)),
                ("nnz", Json::Int(a.nnz() as i64)),
            ]),
        );
        self.note("input_gen_s", Json::Num(took.as_secs_f64()));
    }

    /// Records the resident memory of the live program (see
    /// [`resident_mb`]) and the process high-water mark.
    pub fn note_memory(&mut self, rss_mb: f64) {
        self.note("rss_mb", Json::Num(rss_mb));
        self.note("vm_hwm_mb", Json::Num(status_mb("VmHWM")));
    }

    /// Operations attempted across all phases.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Operations failed across all phases.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The run's error rate: failed (incl. shed, timed out, wrong) /
    /// attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// Whether every output check passed and the measurement is valid.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.failed() == 0 && self.invalid.is_none()
    }

    /// The provenance line (printed before the result line).
    pub fn provenance_line(&self) -> String {
        let mut p = self.provenance.clone();
        p.push((
            "phases".into(),
            Json::Arr(
                self.phases
                    .iter()
                    .map(|ph| {
                        Json::obj([
                            ("name", Json::str(ph.name.clone())),
                            ("attempted", Json::Int(ph.attempted as i64)),
                            ("ok", Json::Int((ph.attempted - ph.failed) as i64)),
                            ("failed", Json::Int(ph.failed as i64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        p.push(("error_rate".into(), Json::Num(self.error_rate())));
        p.push(("wrong_answers".into(), Json::Int(self.wrong as i64)));
        p.push((
            "invalid".into(),
            self.invalid.as_ref().map(|s| Json::str(s.clone())).unwrap_or(Json::Null),
        ));
        Json::Obj(vec![("provenance".into(), Json::Obj(p))]).render()
    }

    /// The result line: the catalogue's metrics for this mode, every one
    /// present (a layer the workload does not exercise reads 0).
    pub fn result_line(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.attempted() as i64)),
            ("failed".into(), Json::Int(self.failed() as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// A named metric with its unit and the samples behind it, for the
/// provenance line.
pub fn named(value: f64, unit: &str, samples: usize) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::str(unit)),
        ("samples", Json::Int(samples as i64)),
    ])
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`, ...), in MB.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident memory of the live program, in MB: the heap's free pages are
/// handed back to the kernel first (glibc `malloc_trim`), so the reading
/// counts what the program holds, not what input generation, earlier
/// set-up repetitions or per-thread arenas happen to have cached. The
/// process high-water mark `VmHWM` is set by input generation (the R-MAT
/// generator's triple buffers) and is kept in the provenance only.
pub fn resident_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases free
        // pages of the allocator's own arenas; glibc serialises it with
        // every other allocator call.
        unsafe {
            malloc_trim(0);
        }
    }
    status_mb("VmRSS")
}

/// The commit the checkout was built from, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<String> {
            let body = &spec[spec.find(&format!("\"{section}\"")).expect("section present")..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let names = |c: &[(&str, &str)]| c.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(listed("end_to_end"), names(END_TO_END));
        assert_eq!(listed("per_layer"), names(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }

    #[test]
    fn result_line_carries_every_metric() {
        let mut r = Report::default();
        r.phases.push(Phase::new("measure", 10, 0));
        r.set("setup_s", 0.5);
        let line = r.result_line(END_TO_END);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")));
        }
        r.wrong = 1;
        assert!(r.result_line(END_TO_END).contains("\"correct\":false"));
    }
}
