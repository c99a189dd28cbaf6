//! Shared plumbing for the experiment harness: evaluator construction,
//! relative-size accounting, and report output (stdout + `results/`).

use optinline_codegen::X86Like;
use optinline_core::{
    cache_meta, module_fingerprint, Evaluator, EvaluatorStats, InliningConfiguration,
    PersistentCache, SearchSession, SizeEvaluator,
};
use optinline_heuristics::CostModelInliner;
use optinline_workloads::{spec_suite, Benchmark, Scale};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// The harness-wide hash-consing session for the task-DAG search
/// executor: every exhaustive search in a run shares it, so repeated
/// subproblems across experiments evaluate once, and the stats footer can
/// report cumulative executor counters. Sharing one session across files
/// is sound because memo keys carry each evaluator's
/// [`memo_scope`](Evaluator::memo_scope) (a module/target fingerprint):
/// two files whose residual trees collide on shape and site numbering
/// still resolve in separate domains.
pub fn search_session() -> &'static SearchSession {
    static SESSION: OnceLock<SearchSession> = OnceLock::new();
    SESSION.get_or_init(SearchSession::new)
}

/// Harness context: scale, exhaustive-search budget, output directory.
#[derive(Debug)]
pub struct Ctx {
    /// Workload scale.
    pub scale: Scale,
    /// Only files whose recursively partitioned space is at most
    /// `2^exhaustive_bits` are searched exhaustively (paper: `2^18`).
    pub exhaustive_bits: u32,
    /// Where reports are written.
    pub out_dir: PathBuf,
    /// Use the component-scoped incremental evaluator (default) instead of
    /// whole-module compiles (`--full-eval`).
    pub incremental: bool,
    /// Directory for the persistent evaluation store (`--cache-dir`, or
    /// the `OPTINLINE_CACHE_DIR` environment variable): a second harness
    /// run answers every repeated size query from disk. `None` disables
    /// persistence.
    pub cache_dir: Option<PathBuf>,
}

impl Ctx {
    /// Default context: full scale, `2^14` exhaustive budget, `results/`,
    /// incremental evaluation.
    pub fn new() -> Self {
        Ctx {
            scale: Scale::Full,
            exhaustive_bits: 14,
            out_dir: PathBuf::from("results"),
            incremental: true,
            cache_dir: std::env::var_os("OPTINLINE_CACHE_DIR").map(PathBuf::from),
        }
    }

    /// Prints a report and writes it to `results/<name>.txt`.
    pub fn report(&self, name: &str, body: &str) {
        println!("{body}");
        if let Err(e) = std::fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            println!("[written to {}]", path.display());
        }
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Self::new()
    }
}

/// One file of the suite wrapped with its evaluator and the baseline
/// heuristic's configuration/size (computed once, shared by experiments).
#[derive(Debug)]
pub struct FileCase {
    /// Benchmark this file belongs to.
    pub bench: &'static str,
    /// File (module) name.
    pub file: String,
    /// Size evaluator (x86-like target; incremental or full per
    /// [`Ctx::incremental`]).
    pub evaluator: SizeEvaluator,
    /// The LLVM-`-Os`-like baseline configuration.
    pub heuristic: InliningConfiguration,
    /// Baseline size (the experiments' 100% reference).
    pub heuristic_size: u64,
    /// Size with inlining disabled.
    pub no_inline_size: u64,
}

/// Loads the suite and precomputes per-file baselines. With a cache
/// directory, every evaluator gets a persistent scope in one shared
/// store, addressed by its `memo_scope` identity — the same addressing
/// the CLI uses, so harness and CLI runs share warm entries.
pub fn load_cases(scale: Scale, incremental: bool, cache_dir: Option<&Path>) -> Vec<FileCase> {
    let suite: Vec<Benchmark> = spec_suite(scale);
    let mut cases = Vec::new();
    for bench in suite {
        for module in bench.files {
            let file = module.name.clone();
            let mut evaluator = SizeEvaluator::new(module, Box::new(X86Like), incremental);
            if let Some(dir) = cache_dir {
                let fp = evaluator.memo_scope().unwrap_or_else(|| {
                    module_fingerprint(evaluator.module(), evaluator.target().name())
                });
                let meta = cache_meta(evaluator.module(), evaluator.target().name());
                match PersistentCache::open(dir, fp, &meta) {
                    Ok(cache) => evaluator = evaluator.with_persist(Arc::new(cache)),
                    Err(e) => eprintln!("warning: cache disabled for {file}: {e}"),
                }
            }
            let heuristic = InliningConfiguration::from_decisions(
                CostModelInliner::default().decide(evaluator.module(), &X86Like),
            );
            let heuristic_size = evaluator.size_of(&heuristic);
            let no_inline_size = evaluator.size_of(&InliningConfiguration::clean_slate());
            cases.push(FileCase {
                bench: bench.name,
                file,
                evaluator,
                heuristic,
                heuristic_size,
                no_inline_size,
            });
        }
    }
    cases
}

/// Aggregates evaluator counters across the whole suite.
pub fn aggregate_stats(cases: &[FileCase]) -> EvaluatorStats {
    let mut agg = EvaluatorStats::default();
    for c in cases {
        let s = c.evaluator.stats();
        agg.queries += s.queries;
        agg.compiles += s.compiles;
        agg.cache_hits += s.cache_hits;
        agg.cache_misses += s.cache_misses;
        agg.cache_evictions += s.cache_evictions;
        agg.compile_time += s.compile_time;
        agg.full_module_equivalents += s.full_module_equivalents;
        agg.fixpoint_cap_hits += s.fixpoint_cap_hits;
        agg.pipeline.absorb(&s.pipeline);
        agg.executor_tasks += s.executor_tasks;
        agg.executor_steals += s.executor_steals;
        agg.dedup_hits += s.dedup_hits;
        agg.persist_hits += s.persist_hits;
        agg.persist_misses += s.persist_misses;
        agg.persist_loaded += s.persist_loaded;
    }
    agg
}

/// One-line evaluator footer for experiment reports: cumulative compile
/// work across the suite so far.
pub fn stats_footer(cases: &[FileCase]) -> String {
    let mut stats = aggregate_stats(cases);
    stats.absorb_executor(search_session().stats());
    // All cases share one store (same directory), so its store-wide I/O
    // counters fold in exactly once.
    if let Some(cache) = cases.iter().find_map(|c| c.evaluator.persist()) {
        stats.absorb_store(cache.store_stats());
    }
    format!("evaluator: {}", stats.render())
}

/// Benchmark names in suite order.
pub fn bench_names(cases: &[FileCase]) -> Vec<&'static str> {
    let mut names = Vec::new();
    for c in cases {
        if !names.contains(&c.bench) {
            names.push(c.bench);
        }
    }
    names
}

/// Sums `f` over a benchmark's files.
pub fn bench_total(cases: &[FileCase], bench: &str, f: impl Fn(&FileCase) -> u64) -> u64 {
    cases.iter().filter(|c| c.bench == bench).map(f).sum()
}

/// Renders a per-benchmark relative-size table (vs the heuristic baseline).
pub fn relative_table(title: &str, cases: &[FileCase], tuned: impl Fn(&FileCase) -> u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>10}",
        "benchmark", "baseline(B)", "tuned(B)", "relative"
    );
    let mut rels = Vec::new();
    let mut grand_base = 0u64;
    let mut grand_tuned = 0u64;
    for name in bench_names(cases) {
        let base = bench_total(cases, name, |c| c.heuristic_size);
        let t = bench_total(cases, name, &tuned);
        grand_base += base;
        grand_tuned += t;
        let rel = 100.0 * t as f64 / base as f64;
        rels.push(rel);
        let _ = writeln!(out, "{name:<12} {base:>12} {t:>12} {rel:>9.1}%");
    }
    let median = optinline_core::analysis::median(&rels);
    let total = 100.0 * grand_tuned as f64 / grand_base as f64;
    let _ = writeln!(out, "{:-<50}", "");
    let _ = writeln!(out, "{:<12} median relative size: {median:>6.2}%", "");
    let _ = writeln!(out, "{:<12} total  relative size: {total:>6.2}%", "");
    out
}
