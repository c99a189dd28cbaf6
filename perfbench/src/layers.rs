//! Per-layer metrics shared by the workloads: the replay phase that times
//! single layer calls on a seeded sample, and span-derived self times.

use crate::stats::{median, ms, union_len};
use crate::trace::{Span, Tracer};
use crate::Report;
use optinline_callgraph::{Decision, InlineGraph, PartitionStrategy};
use optinline_codegen::{text_size, X86Like};
use optinline_core::{
    module_cycles, try_build_inlining_tree, CompilerEvaluator, InliningConfiguration,
};
use optinline_heuristics::CostModelInliner;
use optinline_ir::interp::CostModel;
use optinline_ir::Module;
use optinline_workloads::rng::StdRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Modules the replay phase samples.
const REPLAY_MODULES: usize = 12;

/// Tree builds give up beyond this many points, as a bounded search would.
const REPLAY_TREE_CAP: u128 = 1 << 12;

/// Every per-layer metric starts at 0 — the value a workload that
/// bypasses the layer reports.
pub fn zero_all(report: &mut Report) {
    for &(name, _) in crate::PER_LAYER {
        report.set(name, 0.0);
    }
}

/// A seeded configuration: each site inlined with probability 1/2.
pub fn random_config(module: &Module, rng: &mut StdRng) -> InliningConfiguration {
    InliningConfiguration::from_decisions(
        module
            .inlinable_sites()
            .into_iter()
            .map(|s| (s, if rng.gen_bool(0.5) { Decision::Inline } else { Decision::NoInline }))
            .collect(),
    )
}

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed())
}

/// The replay phase: on a seeded sample of `modules`, each under a seeded
/// configuration, times parsing, call-graph and tree construction, the
/// baseline heuristic, one uncached compile, `.text` sizing and cycle
/// interpretation, and reports each layer's median.
pub fn replay(modules: &[Module], seed: u64, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e91_a7ed);
    let picks: Vec<&Module> = if modules.len() <= REPLAY_MODULES {
        modules.iter().collect()
    } else {
        (0..REPLAY_MODULES).map(|_| &modules[rng.gen_range(0..modules.len())]).collect()
    };
    let (mut parse, mut tree, mut heur, mut compile, mut size, mut interp) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let cost = CostModel::default();
    for m in picks {
        let text = m.to_string();
        let (parsed, d) = time(|| optinline_ir::parse::parse_module(&text));
        parse.push(ms(d));
        let module = parsed.unwrap_or_else(|_| m.clone());
        let (_, d) = time(|| {
            let graph = InlineGraph::from_module(&module);
            try_build_inlining_tree(&graph, PartitionStrategy::Paper, REPLAY_TREE_CAP).is_some()
        });
        tree.push(ms(d));
        let (_, d) = time(|| CostModelInliner::default().decide(&module, &X86Like));
        heur.push(ms(d));
        let config = random_config(&module, &mut rng);
        let ev = CompilerEvaluator::new(module, Box::new(X86Like));
        let (compiled, d) = time(|| ev.compile(&config));
        compile.push(ms(d) * 1e3);
        let (_, d) = time(|| text_size(&compiled, &X86Like));
        size.push(ms(d) * 1e3);
        let (_, d) = time(|| module_cycles(&compiled, &cost));
        interp.push(ms(d) * 1e3);
    }
    report.set("ir.parse_ms", median(&parse));
    report.set("callgraph.tree_build_ms", median(&tree));
    report.set("heuristics.baseline_ms", median(&heur));
    report.set("opt.compile_us", median(&compile));
    report.set("codegen.size_us", median(&size));
    report.set("ir.interp_us", median(&interp));
}

/// Summed self time, in seconds, of every span named `name`: its length
/// minus the part of it its child spans cover.
pub fn self_seconds(spans: &[Span], name: &str) -> f64 {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut total = 0u64;
    for s in spans.iter().filter(|s| s.name == name) {
        let mut kids: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|v| {
                v.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        total += s.len_ns().saturating_sub(union_len(&mut kids));
    }
    total as f64 / 1e9
}

/// Reports the span count and the direct tracing overhead: spans times
/// the measured cost of one span, as a share of the run's wall time.
pub fn tracing_overhead(tracer: &Tracer, wall: Duration, report: &mut Report) {
    let spans = tracer.spans().len() as f64;
    report.set("trace.spans", spans);
    let cost_ns = Tracer::span_cost_ns();
    report.set("trace.overhead_pct", 100.0 * spans * cost_ns / wall.as_nanos().max(1) as f64);
}
