//! The batch workloads, run one module at a time in process:
//!
//! - `search-suite`: the paper's exhaustive search (recursively partitioned
//!   tree, task-DAG executor, incremental evaluator), cold, over the
//!   non-trivial suite files whose search space is under a cap.
//! - `autotune-large`: Algorithm 3 with clean-slate and heuristic inits
//!   combined, over the modules exhaustive search cannot reach.
//!
//! A run works through whole passes over a seeded order of its modules
//! until the time is up, so every run measures the same module set. Each
//! module is solved cold (fresh evaluator and session), then once more
//! warm (same evaluator, session and heuristic configuration) — the
//! in-process analogue of a request whose answer is already known.

use crate::layers::{self, self_seconds, tracing_overhead, zero_all};
use crate::stats::{geo_mean, median, ms, peak_rss_mb, quantile};
use crate::trace::{maybe_span, TracedEvaluator, Tracer};
use crate::{Options, Report, Scale};
use optinline_callgraph::{InlineGraph, PartitionStrategy};
use optinline_check::BuggyEvaluator;
use optinline_codegen::X86Like;
use optinline_core::autotune::Autotuner;
use optinline_core::{
    evaluate_inlining_tree_dag, exhaustive_search, space_size, try_build_inlining_tree,
    CompilerEvaluator, Evaluator, EvaluatorStats, ExecutorStats, InliningConfiguration,
    InliningTree, ModuleEvaluator, SearchSession, SizeEvaluator, WorkerPool,
};
use optinline_heuristics::CostModelInliner;
use optinline_ir::Module;
use optinline_workloads::rng::StdRng;
use optinline_workloads::{amalgamation, large_library, spec_suite};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which batch workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `search-suite`.
    Search,
    /// `autotune-large`.
    Autotune,
}

/// Search spaces (points of the recursively partitioned tree) a
/// `search-suite` file must have: at least `.0` so the search does real
/// work, at most `.1` so no single file dominates a pass.
fn search_space(scale: Scale) -> (u128, u128) {
    match scale {
        Scale::Full => (40, 256),
        Scale::Small => (4, 64),
    }
}

/// Percentile of `op_tail_ms`. It is fixed, so runs that fit a different
/// number of passes stay comparable: the highest percentile with ten
/// samples beyond it would move from p90 at two passes to p95 at three, and
/// the slowest twentieth of the autotune modules (amalgamation and the large
/// libraries) take several times longer than the rest. Two passes give p90
/// more than ten samples beyond it on both workloads.
pub const TAIL_LEVEL: f64 = 0.9;

/// Autotuning rounds per init (the paper's combined mode runs both inits).
pub const AUTOTUNE_ROUNDS: usize = 1;

/// Files with at most this many sites are also checked against the naive
/// enumeration of all `2^sites` configurations.
pub const NAIVE_MAX_SITES: usize = 12;

/// Whole-module compiles the naive enumerations of one run may spend.
/// Enumerating every eligible file would take about a minute on the
/// reference machine, so a run checks the eligible files in its seeded
/// order until this budget is spent (a third to a half of them); other
/// seeds check other files. Small-scale runs check every eligible file.
fn naive_budget(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 1 << 15,
        Scale::Small => u64::MAX,
    }
}

/// Threads the correctness gates run on; they are not timed.
const GATE_THREADS: usize = 2;

/// Set-up is timed this many times — once at the start, half the rest
/// halfway through and the other half at the end of the run, so the median
/// samples the machine at several moments — and its median reported.
const SETUP_REPS: usize = 21;

/// One module of the workload.
#[derive(Debug, Clone)]
pub struct Job {
    /// Suite-relative name.
    pub name: String,
    /// The module.
    pub module: Module,
}

/// Generates the workload's modules and orders them by `seed`.
pub fn select(kind: Kind, scale: Scale, seed: u64) -> Vec<Job> {
    let suite_scale = match scale {
        Scale::Full => optinline_workloads::Scale::Full,
        Scale::Small => optinline_workloads::Scale::Small,
    };
    let space = |m: &Module, cap: u128| {
        let graph = InlineGraph::from_module(m);
        try_build_inlining_tree(&graph, PartitionStrategy::Paper, cap).map(|t| space_size(&t))
    };
    let suite =
        spec_suite(suite_scale).into_iter().flat_map(|b| b.files).map(|m| (m.name.clone(), m));
    let mut jobs: Vec<Job> = match kind {
        Kind::Search => {
            let (lo, hi) = search_space(scale);
            suite
                .filter(|(_, m)| space(m, hi).is_some_and(|s| s >= lo))
                .map(|(name, module)| Job { name, module })
                .collect()
        }
        Kind::Autotune => {
            // Suite files over the search cap are the ones search skips.
            let min = search_space(scale).1;
            std::iter::once(amalgamation(suite_scale))
                .chain(large_library(suite_scale))
                .map(|m| (m.name.clone(), m))
                .chain(suite.filter(|(_, m)| space(m, min).is_none()))
                .map(|(name, module)| Job { name, module })
                .collect()
        }
    };
    // Seeded Fisher-Yates: the seed orders the pass, the set is fixed.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.gen_range(0..i + 1));
    }
    jobs
}

/// The baseline heuristic's configuration (the LLVM-like cost model).
pub fn heuristic_config(module: &Module) -> InliningConfiguration {
    InliningConfiguration::from_decisions(CostModelInliner::default().decide(module, &X86Like))
}

/// The evaluator the searches run on: the incremental one or — to prove
/// the gates work — one that inflates by `inject_size_bias` bytes the size
/// of every configuration that inlines a site (0 leaves it honest). A bias
/// of 1 misreports the optimum's size; a huge bias hides every optimum that
/// inlines, so the search returns the clean slate at its true size.
pub fn evaluator(module: Module, inject_size_bias: u64) -> Box<dyn ModuleEvaluator> {
    let ev = SizeEvaluator::new(module, Box::new(X86Like), true);
    if inject_size_bias > 0 {
        let marker = ev.module().iter_funcs().next().map(|(_, f)| f.name.clone());
        Box::new(BuggyEvaluator::new(ev, marker.unwrap_or_default(), inject_size_bias))
    } else {
        Box::new(ev)
    }
}

/// One module's answer and what it cost.
#[derive(Debug, Clone)]
struct Outcome {
    config: InliningConfiguration,
    size: u64,
    heuristic: u64,
    stats: EvaluatorStats,
    exec: ExecutorStats,
    rounds: usize,
    cold: Duration,
    warm: Duration,
}

fn query(
    ev: &dyn ModuleEvaluator,
    config: &InliningConfiguration,
    tracer: Option<&Tracer>,
    parent: u64,
    req: u64,
) -> u64 {
    match tracer {
        Some(t) => TracedEvaluator::new(ev, t, parent, req).size_of(config),
        None => ev.size_of(config),
    }
}

fn search(
    ev: &dyn ModuleEvaluator,
    tree: &InliningTree,
    session: &SearchSession,
    pool: &WorkerPool,
    tracer: Option<&Tracer>,
    parent: u64,
    req: u64,
) -> (InliningConfiguration, u64) {
    let base = InliningConfiguration::clean_slate();
    match tracer {
        Some(t) => t.span("core.search", parent, req, |id| {
            let traced = TracedEvaluator::new(ev, t, id, req);
            evaluate_inlining_tree_dag(tree, &traced, base, pool, Some(session))
        }),
        None => evaluate_inlining_tree_dag(tree, ev, base, pool, Some(session)),
    }
}

/// Autotunes from both inits and keeps the better: `(config, size, rounds)`.
/// `fan_out` spreads each round's probes over the worker pool, as the
/// program does; without it they run on the calling thread.
fn autotune(
    ev: &dyn ModuleEvaluator,
    heuristic: &InliningConfiguration,
    fan_out: bool,
    tracer: Option<&Tracer>,
    parent: u64,
    req: u64,
) -> (InliningConfiguration, u64, usize) {
    let tune = |e: &dyn Evaluator| {
        let tuner = Autotuner::new(e, ev.sites().clone());
        let tuner = if fan_out { tuner } else { tuner.sequential() };
        let clean = tuner.clean_slate(AUTOTUNE_ROUNDS);
        let init = tuner.run(heuristic.clone(), AUTOTUNE_ROUNDS);
        let best = Autotuner::combine([&clean, &init]);
        (best.config, best.size, clean.rounds.len() + init.rounds.len())
    };
    match tracer {
        Some(t) => {
            t.span("core.autotune", parent, req, |id| tune(&TracedEvaluator::new(ev, t, id, req)))
        }
        None => tune(ev),
    }
}

/// Solves `module` cold, then once more warm on the same evaluator and
/// session, reusing the cold solve's heuristic configuration.
fn solve(
    kind: Kind,
    module: &Module,
    opts: &Options,
    tracer: Option<&Tracer>,
    req: u64,
) -> Outcome {
    let space_cap = search_space(opts.scale).1;
    // The warm re-solve finds every answer in the memo and session, so it
    // runs on the calling thread alone: fanned out over the pool, its
    // 0.1-1 ms were largely worker wake-ups, whose cost follows the host's
    // load (it halved when another process kept the second CPU busy).
    let inline = WorkerPool::new(0);
    // Only the cold solve is traced: it is the work the throughput counts.
    let once = |ev: &dyn ModuleEvaluator,
                session: &SearchSession,
                tracer: Option<&Tracer>,
                known: Option<InliningConfiguration>| {
        let warm = known.is_some();
        maybe_span(tracer, "module", 0, req, |root| {
            let heuristic = known.unwrap_or_else(|| {
                maybe_span(tracer, "heuristics.baseline", root, req, |_| heuristic_config(module))
            });
            let h = query(ev, &heuristic, tracer, root, req);
            let (config, size, rounds) = match kind {
                Kind::Search => {
                    let tree = maybe_span(tracer, "callgraph.tree_build", root, req, |_| {
                        let graph = InlineGraph::from_module(module);
                        try_build_inlining_tree(&graph, PartitionStrategy::Paper, space_cap)
                            .expect("search-suite modules are selected under the space cap")
                    });
                    let pool = if warm { &inline } else { WorkerPool::global() };
                    let (config, size) = search(ev, &tree, session, pool, tracer, root, req);
                    (config, size, 0)
                }
                Kind::Autotune => autotune(ev, &heuristic, !warm, tracer, root, req),
            };
            (config, size, h, rounds, heuristic)
        })
    };
    let t = Instant::now();
    let ev = evaluator(module.clone(), opts.inject_size_bias);
    let session = SearchSession::new();
    let (config, size, heuristic, rounds, heuristic_config) = once(&*ev, &session, tracer, None);
    let cold = t.elapsed();
    let stats = ev.stats();
    let exec = session.stats();
    let t = Instant::now();
    once(&*ev, &session, None, Some(heuristic_config));
    let warm = t.elapsed();
    Outcome { config, size, heuristic, stats, exec, rounds, cold, warm }
}

/// Checks a search optimum against references that share nothing with
/// the search path: a whole-module uncached compile of the reported
/// configuration and, for files with at most [`NAIVE_MAX_SITES`] sites,
/// when `naive` is set, the naive enumeration of every configuration on the whole-module
/// evaluator — not the incremental one the search runs on, so a bug that
/// mis-sizes configurations the search did not pick is caught too.
pub fn check_search(
    module: &Module,
    config: &InliningConfiguration,
    size: u64,
    naive: bool,
) -> Result<(), String> {
    let reference = CompilerEvaluator::new(module.clone(), Box::new(X86Like));
    let full = reference.full_size_of(config);
    if full != size {
        return Err(format!(
            "reported optimum {size} B, but its configuration compiles to {full} B"
        ));
    }
    if naive && reference.sites().len() <= NAIVE_MAX_SITES {
        let naive = exhaustive_search(&reference, &reference.sites().clone());
        if naive.size != size {
            return Err(format!(
                "reported optimum {size} B, naive enumeration finds {} B",
                naive.size
            ));
        }
    }
    Ok(())
}

fn naive_eligible(module: &Module) -> bool {
    module.inlinable_sites().len() <= NAIVE_MAX_SITES
}

/// Which jobs the naive enumeration checks: the eligible ones, in the
/// run's seeded order, while their `2^sites` compiles fit the budget.
fn naive_sample(jobs: &[Job], scale: Scale) -> Vec<bool> {
    let mut left = naive_budget(scale);
    jobs.iter()
        .map(|job| {
            let cost = 1u64 << job.module.inlinable_sites().len().min(63);
            let pick = naive_eligible(&job.module) && cost <= left;
            if pick {
                left -= cost;
            }
            pick
        })
        .collect()
}

/// `check(0..n)` on [`GATE_THREADS`] threads, results in index order.
fn in_parallel(
    n: usize,
    check: impl Fn(usize) -> Result<(), String> + Sync,
) -> Vec<Result<(), String>> {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![Ok(()); n]);
    std::thread::scope(|scope| {
        for _ in 0..GATE_THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let verdict = check(i);
                results.lock().expect("a gate thread panicked")[i] = verdict;
            });
        }
    });
    results.into_inner().expect("a gate thread panicked")
}

/// Checks an autotuned result against a whole-module uncached recompile.
pub fn check_autotune(
    module: &Module,
    config: &InliningConfiguration,
    size: u64,
) -> Result<(), String> {
    let full = CompilerEvaluator::new(module.clone(), Box::new(X86Like)).full_size_of(config);
    if full == size {
        Ok(())
    } else {
        Err(format!("tuned size {size} B, but its configuration compiles to {full} B"))
    }
}

/// Runs a batch workload and reports its metrics.
pub fn run(kind: Kind, opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let set_up = || {
        let t = Instant::now();
        (select(kind, opts.scale, opts.seed), t.elapsed().as_secs_f64())
    };
    let (jobs, first) = set_up();
    let mut setups = vec![first];
    if jobs.is_empty() {
        return Err("the workload selected no modules".into());
    }
    let tracer = opts.trace.then(Tracer::default);
    let tracer = tracer.as_ref();

    // Measured phase: whole passes until the time is up.
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut passes: Vec<Vec<Outcome>> = Vec::new();
    loop {
        let pass: Vec<Outcome> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let req = (passes.len() * jobs.len() + i) as u64 + 1;
                solve(kind, &job.module, opts, tracer, req)
            })
            .collect();
        passes.push(pass);
        if setups.len() == 1 && start.elapsed() - paused >= opts.seconds / 2 {
            let t = Instant::now();
            setups.extend((0..SETUP_REPS / 2).map(|_| set_up().1));
            paused += t.elapsed();
        }
        if start.elapsed() - paused >= opts.seconds {
            break;
        }
    }
    let wall = start.elapsed() - paused;
    while setups.len() < SETUP_REPS {
        setups.push(set_up().1);
    }

    // Correctness: each module's first answer against independent
    // references, and every later pass against the first.
    let naive = naive_sample(&jobs, opts.scale);
    let verdicts = in_parallel(jobs.len(), |i| {
        let (job, first) = (&jobs[i], &passes[0][i]);
        match kind {
            Kind::Search => check_search(&job.module, &first.config, first.size, naive[i]),
            Kind::Autotune => check_autotune(&job.module, &first.config, first.size),
        }
    });
    if kind == Kind::Search {
        let eligible = jobs.iter().filter(|j| naive_eligible(&j.module)).count();
        let checked = naive.iter().filter(|&&n| n).count();
        report.note(format!(
            "naive enumeration checked {checked} of the {eligible} files with at most \
             {NAIVE_MAX_SITES} sites"
        ));
    }
    for ((i, job), verdict) in jobs.iter().enumerate().zip(verdicts) {
        let first = &passes[0][i];
        report.check(verdict.is_ok(), || format!("{}: {}", job.name, verdict.unwrap_err()));
        for (p, pass) in passes.iter().enumerate().skip(1) {
            let again = pass[i].size;
            report.check(again == first.size, || {
                format!("{}: pass {p} answered {again} B, pass 0 {} B", job.name, first.size)
            });
        }
    }

    let all: Vec<&Outcome> = passes.iter().flatten().collect();
    let cold: Vec<f64> = all.iter().map(|o| ms(o.cold)).collect();
    let warm: Vec<f64> = all.iter().map(|o| ms(o.warm)).collect();
    let tail_ms = quantile(&cold, TAIL_LEVEL);
    let ratios: Vec<f64> =
        passes[0].iter().map(|o| o.size as f64 / o.heuristic.max(1) as f64).collect();
    let mut slowest: Vec<(f64, &str)> =
        jobs.iter().zip(&passes[0]).map(|(j, o)| (ms(o.cold), j.name.as_str())).collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    let slowest: Vec<String> =
        slowest.iter().take(5).map(|(t, n)| format!("{n} {t:.0} ms")).collect();
    report.note(format!("slowest modules: {}", slowest.join(", ")));
    report.note(format!(
        "{} modules x {} passes = {} samples in {:.2} s; tail is p{:.0}, {} samples beyond it",
        jobs.len(),
        passes.len(),
        cold.len(),
        wall.as_secs_f64(),
        TAIL_LEVEL * 100.0,
        cold.len() - (TAIL_LEVEL * cold.len() as f64).ceil() as usize
    ));

    // The end-to-end figures are printed on traced runs too, so the two
    // runs can be compared for tracing overhead.
    report.note(format!("set-ups (s): {setups:.3?}"));
    report.set("setup_s", median(&setups));
    // Median over passes: a burst of interference moves one pass only.
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|p| p.len() as f64 / p.iter().map(|o| o.cold.as_secs_f64()).sum::<f64>())
        .collect();
    report.set("ops_per_s", median(&per_pass));
    report.set("op_p50_ms", median(&cold));
    report.set("op_tail_ms", tail_ms);
    report.set("warm_p50_ms", median(&warm));
    report.set("size_ratio_geo", geo_mean(&ratios));
    report.set("peak_rss_mb", peak_rss_mb());
    if let Some(t) = tracer {
        zero_all(&mut report);
        layer_metrics(&mut report, &passes, t);
        let modules: Vec<Module> = jobs.iter().map(|j| j.module.clone()).collect();
        layers::replay(&modules, opts.seed, &mut report);
        tracing_overhead(t, wall, &mut report);
        let path =
            opts.work_dir.with_file_name(format!("trace-{}-{}.jsonl", opts.workload, opts.seed));
        t.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
    }
    Ok(report)
}

/// Per-layer figures, per pass: counters summed over every cold solve,
/// span self times from the trace.
fn layer_metrics(report: &mut Report, passes: &[Vec<Outcome>], tracer: &Tracer) {
    let n = passes.len() as f64;
    let mut st = EvaluatorStats::default();
    let mut exec = ExecutorStats::default();
    let mut rounds = 0usize;
    for o in passes.iter().flatten() {
        st.queries += o.stats.queries;
        st.compiles += o.stats.compiles;
        st.cache_hits += o.stats.cache_hits;
        st.cache_misses += o.stats.cache_misses;
        st.full_module_equivalents += o.stats.full_module_equivalents;
        st.fixpoint_cap_hits += o.stats.fixpoint_cap_hits;
        st.pipeline.absorb(&o.stats.pipeline);
        exec.tasks += o.exec.tasks;
        exec.steals += o.exec.steals;
        exec.dedup_hits += o.exec.dedup_hits;
        rounds += o.rounds;
    }
    let compiles = st.compiles.max(1) as f64;
    let invocations: u64 = st.pipeline.per_pass.iter().map(|p| p.invocations).sum();
    report.set("core.eval.queries", st.queries as f64 / n);
    report.set("core.eval.compiles", st.compiles as f64 / n);
    report.set(
        "core.eval.memo_hit_ratio",
        st.cache_hits as f64 / (st.cache_hits + st.cache_misses).max(1) as f64,
    );
    report.set("core.eval.fme_per_compile", st.full_module_equivalents / compiles);
    report.set("opt.pass_invocations_per_compile", invocations as f64 / compiles);
    report.set("opt.cap_hits", st.fixpoint_cap_hits as f64 / n);
    report.set("core.dag.tasks", exec.tasks as f64 / n);
    report.set("core.dag.steals", exec.steals as f64 / n);
    report.set("core.dag.dedup_hits", exec.dedup_hits as f64 / n);

    let spans = tracer.spans();
    let busy_ns: u64 =
        spans.iter().filter(|s| s.name == "core.eval.query").map(|s| s.len_ns()).sum();
    report.set("core.eval.busy_s", busy_ns as f64 / 1e9 / n);
    report.set("core.search.self_s", self_seconds(&spans, "core.search") / n);
    report.set("core.autotune.self_s", self_seconds(&spans, "core.autotune") / n);
    let autotune_ids: std::collections::HashSet<u64> =
        spans.iter().filter(|s| s.name == "core.autotune").map(|s| s.id).collect();
    let probes = spans.iter().filter(|s| autotune_ids.contains(&s.parent)).count();
    if rounds > 0 {
        report.set("core.autotune.probes_per_round", probes as f64 / rounds as f64);
    }
}
