//! # optinline-perfbench
//!
//! The repository's end-to-end benchmark. One binary runs one named
//! workload for a fixed time, checks every answer against an independent
//! reference, and prints its metrics as the last line of standard output:
//!
//! ```text
//! perfbench --workload search-suite --seed 1 --seconds 20 --trace 0
//! ```
//!
//! - `search-suite` ([`batch`]): the paper's exhaustive search, cold and in
//!   process, one suite file at a time.
//! - `autotune-large` ([`batch`]): Algorithm 3 on the modules exhaustive
//!   search cannot reach.
//! - `serve-zipf` ([`serve_zipf`]): an open loop of Zipf-distributed
//!   requests against an in-process daemon over a Unix socket.
//!
//! `--trace 0` reports the end-to-end metrics ([`END_TO_END`]); `--trace 1`
//! runs the same workload with benchmark-side spans ([`trace`]) and reports
//! the per-layer metrics ([`PER_LAYER`]). The benchmark only calls the
//! crates' public functions; it changes nothing in them. `WORKLOADS.md`
//! records why each workload exists and which layers it loads.

#![warn(missing_docs)]

pub mod batch;
pub mod idle;
pub mod layers;
pub mod serve_zipf;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, `(name, unit)`, in report order. Every workload
/// reports every one of them; `WORKLOADS.md` gives each its meaning per
/// workload. Must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("size_ratio_geo", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A workload that
/// bypasses a layer reports 0 for it. Units ending in `.exact` mark counts
/// that repeated exactly between two traced runs of one seed on the batch
/// workloads (no serve-zipf count repeats: it depends on timing). Must
/// match `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.eval.queries", "count.exact"),
    ("core.eval.compiles", "count"),
    ("core.eval.busy_s", "s"),
    ("core.eval.memo_hit_ratio", "ratio"),
    ("core.eval.fme_per_compile", "ratio"),
    ("core.search.self_s", "s"),
    ("core.dag.tasks", "count.exact"),
    ("core.dag.steals", "count"),
    ("core.dag.dedup_hits", "count.exact"),
    ("core.autotune.self_s", "s"),
    ("core.autotune.probes_per_round", "count.exact"),
    ("opt.compile_us", "us"),
    ("opt.pass_invocations_per_compile", "count"),
    ("opt.cap_hits", "count"),
    ("codegen.size_us", "us"),
    ("ir.parse_ms", "ms"),
    ("callgraph.tree_build_ms", "ms"),
    ("heuristics.baseline_ms", "ms"),
    ("ir.interp_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.lines_per_append", "ratio"),
    ("store.disk_mb", "MiB"),
    ("cli.handle_ms", "ms"),
    ("cli.handle_self_ms", "ms"),
    ("serve.transport_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.wakeups_per_req", "ratio"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.low_p50_ms", "ms"),
    ("loadgen.low_p99_ms", "ms"),
    ("loadgen.high_tail_ms", "ms"),
    ("loadgen.worst_segment_p95_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["search-suite", "autotune-large", "serve-zipf"];

/// Input size: `Full` is the benchmark; `Small` keeps the same code paths
/// on CI-sized inputs for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The real benchmark inputs.
    Full,
    /// Tiny inputs, seconds-long runs.
    Small,
}

/// One run's settings, parsed from the command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Run with spans and report [`PER_LAYER`] instead of [`END_TO_END`].
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Bytes a deliberately wrong evaluator in the search path adds to the
    /// size of every configuration that inlines a site, to check that the
    /// correctness gates catch it; 0 (the default) keeps it honest.
    pub inject_size_bias: u64,
    /// Scratch directory for caches, sockets and trace output.
    pub work_dir: PathBuf,
}

impl Options {
    /// Parses `--workload W --seed N --seconds S --trace 0|1` plus the
    /// optional `--scale small|full` and `--inject-size-bug <bytes>`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut scale = Scale::Full;
        let mut inject_size_bias = 0;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    }
                }
                "--scale" => {
                    scale = match value()?.as_str() {
                        "full" => Scale::Full,
                        "small" => Scale::Small,
                        other => return Err(format!("--scale must be small or full, got {other}")),
                    }
                }
                "--inject-size-bug" => {
                    inject_size_bias =
                        value()?.parse().map_err(|e| format!("--inject-size-bug: {e}"))?
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload} (expected {})", WORKLOADS.join("|")));
        }
        let seed = seed.ok_or("--seed is required")?;
        let seconds = seconds.ok_or("--seconds is required")?;
        let work_dir =
            PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
        Ok(Options { workload, seed, seconds, trace, scale, inject_size_bias, work_dir })
    }
}

/// What one run found: correctness tallies, metrics, and human-readable
/// detail lines (sample counts, percentile levels, failures).
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (modules evaluated, requests sent, gate checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Detail lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a detail line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Counts one checked operation, failing it with `why` when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let why = why();
            if self.lines.iter().filter(|l| l.starts_with("FAIL")).count() < 20 {
                self.lines.push(format!("FAIL {why}"));
            }
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `table` with its unit. A metric the
    /// run did not measure is itself a failure.
    pub fn result_line(&mut self, table: &[(&'static str, &str)]) -> String {
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            match self.metrics.get(name).copied().filter(|v| v.is_finite()) {
                Some(v) => {
                    metrics.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
                }
                None => self.check(false, || format!("metric {name} was not measured")),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs the workload `opts` names and returns its report.
pub fn run(opts: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("creating {}: {e}", opts.work_dir.display()))?;
    let report = match opts.workload.as_str() {
        "search-suite" => batch::run(batch::Kind::Search, opts),
        "autotune-large" => batch::run(batch::Kind::Autotune, opts),
        "serve-zipf" => serve_zipf::run(opts),
        other => Err(format!("unknown workload {other}")),
    };
    // Caches and sockets are per run; trace files are kept beside them.
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    report
}
