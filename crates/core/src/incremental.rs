//! Component-scoped incremental evaluation.
//!
//! [`CompilerEvaluator`] recompiles the *whole* module for every cache
//! miss, even though an inlining decision can only affect the connected
//! component of the call graph it lives in. [`IncrementalEvaluator`]
//! exploits that: it splits the module once into the connected components
//! of the full call graph ([`coarse_components`]), extracts each as a
//! standalone slice ([`extract_slice`]), and evaluates a configuration as
//!
//! ```text
//! size(config) = constant_part + Σ_c size_c(config ∩ sites(c))
//! ```
//!
//! where `size_c` is memoized per component on the *relevant subset* of
//! decisions. Two configurations that differ only inside component A reuse
//! every other component's result verbatim; the tree search's `Components`
//! recursion and the autotuner's one-flip probes hit exactly that pattern,
//! so most "compilations" shrink from whole-module to one-component work.
//!
//! # Why this is exact
//!
//! Components are *coarse*: every call edge counts, inlinable or not, plus
//! `inline_path` provenance references. Every pass in the `-Os` pipeline
//! is then componentwise — the inliner only rewrites along call edges,
//! the cleanup passes are per-function, dead-function elimination's
//! reachability and the effect summary's fixpoint both propagate only
//! along call edges, and function merging is not part of the pipeline. A
//! slice therefore optimizes to byte-for-byte the same functions as the
//! same component inside a whole-module compile, and since
//! [`function_size`](optinline_codegen::function_size) aligns functions
//! independently, the per-component sizes sum to exactly
//! [`text_size`](optinline_codegen::text_size). The cross-validation suite
//! asserts this identity on randomized modules and configurations.

use crate::cache::ShardedCache;
use crate::config::InliningConfiguration;
use crate::evaluator::{CompilerEvaluator, Evaluator, EvaluatorStats, ModuleEvaluator};
use crate::measure::{module_cycles, Objective};
use optinline_callgraph::{coarse_components, Decision};
use optinline_codegen::{text_size, Target};
use optinline_ir::analysis::EffectSummary;
use optinline_ir::interp::CostModel;
use optinline_ir::{extract_slice, CallSiteId, Measurement, Module};
use optinline_opt::{
    optimize_os_report, optimize_os_report_with_summary, ForcedDecisions, PipelineOptions,
    PipelineStats,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One coarse call-graph component, ready to compile in isolation.
struct Component {
    /// Pristine slice of the component's functions.
    slice: Module,
    /// Effect summary of the pristine slice (equals the restriction of the
    /// whole-module summary, since no call edge leaves a coarse component);
    /// computed once here instead of per compile.
    summary: EffectSummary,
    /// Inlinable call sites inside this component.
    sites: BTreeSet<CallSiteId>,
    /// Pristine instruction count — the component's share of compile work.
    insts: u64,
}

/// Component-scoped, memoizing drop-in replacement for
/// [`CompilerEvaluator`]; see the module docs for the decomposition and
/// the exactness argument.
pub struct IncrementalEvaluator {
    module: Module,
    target: Box<dyn Target>,
    options: PipelineOptions,
    sites: BTreeSet<CallSiteId>,
    /// Components that contain at least one inlinable site.
    active: Vec<Component>,
    /// Pristine slices of zero-site components: their size is the same
    /// under every configuration, so they compile once, lazily.
    constant_slices: Vec<Module>,
    constant_part: OnceLock<u64>,
    cache: ShardedCache<(usize, BTreeSet<CallSiteId>), u64>,
    /// Cycles memo over *whole-module* canonical keys: the size
    /// decomposition is exact because every `-Os` pass is componentwise,
    /// but the cost model's i-cache is global, so cycles are measured on
    /// whole-module compiles and memoized separately.
    cycles_cache: ShardedCache<BTreeSet<CallSiteId>, Option<u64>>,
    cost: CostModel,
    queries: AtomicU64,
    compiles: AtomicU64,
    cycle_measures: AtomicU64,
    cycle_compiles: AtomicU64,
    per_component_compiles: Vec<AtomicU64>,
    /// Σ pristine instruction counts over all compiles, for the
    /// full-module-equivalents metric.
    compiled_insts: AtomicU64,
    compile_nanos: AtomicU64,
    module_insts: u64,
    pipeline_stats: Mutex<PipelineStats>,
    scope: OnceLock<u128>,
}

impl std::fmt::Debug for IncrementalEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalEvaluator")
            .field("module", &self.module.name)
            .field("target", &self.target.name())
            .field("sites", &self.sites.len())
            .field("active_components", &self.active.len())
            .field("constant_components", &self.constant_slices.len())
            .finish()
    }
}

impl IncrementalEvaluator {
    /// Creates an evaluator for `module` under `target`, slicing it into
    /// coarse call-graph components up front.
    pub fn new(module: Module, target: Box<dyn Target>) -> Self {
        Self::with_options(module, target, PipelineOptions::default())
    }

    /// [`IncrementalEvaluator::new`] with explicit pipeline options.
    pub fn with_options(module: Module, target: Box<dyn Target>, options: PipelineOptions) -> Self {
        let sites = module.inlinable_sites();
        let mut active = Vec::new();
        let mut constant_slices = Vec::new();
        for comp in coarse_components(&module) {
            let slice = extract_slice(&module, &comp);
            let comp_sites = slice.inlinable_sites();
            if comp_sites.is_empty() {
                constant_slices.push(slice);
            } else {
                let summary = EffectSummary::compute(&slice);
                let insts = slice.inst_count() as u64;
                active.push(Component { slice, summary, sites: comp_sites, insts });
            }
        }
        let module_insts = (module.inst_count() as u64).max(1);
        let per_component_compiles = (0..active.len()).map(|_| AtomicU64::new(0)).collect();
        IncrementalEvaluator {
            module,
            target,
            options,
            sites,
            active,
            constant_slices,
            constant_part: OnceLock::new(),
            cache: ShardedCache::new(),
            cycles_cache: ShardedCache::new(),
            cost: CostModel::default(),
            queries: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            cycle_measures: AtomicU64::new(0),
            cycle_compiles: AtomicU64::new(0),
            per_component_compiles,
            compiled_insts: AtomicU64::new(0),
            compile_nanos: AtomicU64::new(0),
            module_insts,
            pipeline_stats: Mutex::new(PipelineStats::default()),
            scope: OnceLock::new(),
        }
    }

    /// The module's inlinable call sites — the configuration domain.
    pub fn sites(&self) -> &BTreeSet<CallSiteId> {
        &self.sites
    }

    /// The pristine input module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The size-model target in use.
    pub fn target(&self) -> &dyn Target {
        self.target.as_ref()
    }

    /// Number of coarse components (with and without inlinable sites).
    pub fn component_count(&self) -> usize {
        self.active.len() + self.constant_slices.len()
    }

    /// The cost model cycle measurements run under (part of the
    /// cycles-scope identity).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The simulated cycles of the module under `config`, memoized on the
    /// whole-module canonical inlined-site set. `None` means nothing
    /// executable.
    fn cycles_of(&self, config: &InliningConfiguration) -> Option<u64> {
        let key: BTreeSet<CallSiteId> =
            config.inlined_sites().intersection(&self.sites).copied().collect();
        self.cycles_cache.get_or_compute(key, |_| {
            let optimized = self.compile(config);
            self.cycle_compiles.fetch_add(1, Ordering::Relaxed);
            module_cycles(&optimized, &self.cost)
        })
    }

    /// Compiles the *whole* module under `config` and returns it
    /// (uncached; for case-study inspection, not for search loops).
    pub fn compile(&self, config: &InliningConfiguration) -> Module {
        let mut m = self.module.clone();
        let oracle = ForcedDecisions::new(config.decisions().clone());
        let report = optimize_os_report(&mut m, &oracle, self.options);
        self.pipeline_stats.lock().unwrap().absorb(&report.stats);
        m
    }

    /// Snapshot of the observability counters.
    pub fn stats(&self) -> EvaluatorStats {
        let cache = self.cache.stats();
        let pipeline = self.pipeline_stats.lock().unwrap().clone();
        EvaluatorStats {
            queries: self.queries.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            shard_loads: cache.shard_loads,
            per_component_compiles: self
                .per_component_compiles
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            compile_time: Duration::from_nanos(self.compile_nanos.load(Ordering::Relaxed)),
            full_module_equivalents: self.compiled_insts.load(Ordering::Relaxed) as f64
                / self.module_insts as f64,
            fixpoint_cap_hits: pipeline.cap_hits,
            pipeline,
            cycle_measures: self.cycle_measures.load(Ordering::Relaxed),
            cycle_compiles: self.cycle_compiles.load(Ordering::Relaxed),
            ..EvaluatorStats::default()
        }
    }

    /// Compiles one pristine slice under `inlined` (a canonical subset of
    /// the slice's own sites) and measures it.
    fn compile_slice(
        &self,
        slice: &Module,
        summary: &EffectSummary,
        inlined: &BTreeSet<CallSiteId>,
    ) -> u64 {
        let mut m = slice.clone();
        let oracle = ForcedDecisions::new(inlined.iter().map(|&s| (s, Decision::Inline)).collect());
        let report =
            optimize_os_report_with_summary(&mut m, &oracle, self.options, summary.clone());
        self.pipeline_stats.lock().unwrap().absorb(&report.stats);
        text_size(&m, self.target.as_ref())
    }

    /// The size contribution of component `idx` under the decision subset
    /// relevant to it, memoized.
    fn component_size(&self, idx: usize, inlined: BTreeSet<CallSiteId>) -> u64 {
        self.cache.get_or_compute((idx, inlined), |(idx, inlined)| {
            let comp = &self.active[*idx];
            let start = Instant::now();
            let size = self.compile_slice(&comp.slice, &comp.summary, inlined);
            self.record_compile(start, comp.insts);
            self.per_component_compiles[*idx].fetch_add(1, Ordering::Relaxed);
            size
        })
    }

    /// The configuration-independent contribution of zero-site components,
    /// compiled once on first use.
    fn constant_part(&self) -> u64 {
        *self.constant_part.get_or_init(|| {
            self.constant_slices
                .iter()
                .map(|slice| {
                    let summary = EffectSummary::compute(slice);
                    let start = Instant::now();
                    let size = self.compile_slice(slice, &summary, &BTreeSet::new());
                    self.record_compile(start, slice.inst_count() as u64);
                    size
                })
                .sum()
        })
    }

    fn record_compile(&self, start: Instant, insts: u64) {
        self.compile_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.compiled_insts.fetch_add(insts, Ordering::Relaxed);
    }
}

impl Evaluator for IncrementalEvaluator {
    fn measure(&self, config: &InliningConfiguration, objective: Objective) -> Measurement {
        if !objective.wants_cycles() {
            return Measurement::size_only(self.size_of(config));
        }
        self.cycle_measures.fetch_add(1, Ordering::Relaxed);
        let size = self.size_of(config);
        match self.cycles_of(config) {
            Some(cycles) => Measurement::with_cycles(size, cycles),
            None => Measurement::size_only(size),
        }
    }

    fn size_of(&self, config: &InliningConfiguration) -> u64 {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let inlined = config.inlined_sites();
        let mut total = self.constant_part();
        for (idx, comp) in self.active.iter().enumerate() {
            let subset: BTreeSet<CallSiteId> = inlined.intersection(&comp.sites).copied().collect();
            total += self.component_size(idx, subset);
        }
        total
    }

    fn compilations(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    fn memo_scope(&self) -> Option<u128> {
        // Same fingerprint as the full evaluator over the same inputs: the
        // decomposition is proven size-identical to whole-module compiles,
        // so the two evaluation modes share one domain.
        Some(*self.scope.get_or_init(|| {
            crate::evaluator::domain_fingerprint(&self.module, self.target.as_ref(), self.options)
        }))
    }
}

impl ModuleEvaluator for IncrementalEvaluator {
    fn module(&self) -> &Module {
        &self.module
    }

    fn sites(&self) -> &BTreeSet<CallSiteId> {
        &self.sites
    }

    fn stats(&self) -> EvaluatorStats {
        IncrementalEvaluator::stats(self)
    }

    fn full_size_of(&self, config: &InliningConfiguration) -> u64 {
        // Deliberately ignores the component decomposition, the memo cache,
        // and the constant part: one whole-module compile, measured fresh —
        // the reference the size oracle cross-checks `size_of` against.
        text_size(&self.compile(config), self.target.as_ref())
    }
}

/// Either compile-strategy behind one concrete type.
#[derive(Debug)]
enum SizeEvaluatorKind {
    /// Whole-module compiles ([`CompilerEvaluator`]).
    Full(CompilerEvaluator),
    /// Component-scoped compiles ([`IncrementalEvaluator`]).
    Incremental(IncrementalEvaluator),
}

/// Either evaluator behind one concrete type, so call sites (CLI flags,
/// experiment drivers) can switch at runtime without generics — optionally
/// with a persistent store scope attached, so owners that can't juggle the
/// borrowed [`PersistentEvaluator`](crate::PersistentEvaluator) wrapper
/// (e.g. the experiments harness, which owns its evaluators) still get
/// cross-run caching.
#[derive(Debug)]
pub struct SizeEvaluator {
    kind: SizeEvaluatorKind,
    persist: Option<std::sync::Arc<crate::PersistentCache>>,
}

impl SizeEvaluator {
    /// Creates the evaluator selected by `incremental`.
    pub fn new(module: Module, target: Box<dyn Target>, incremental: bool) -> Self {
        let kind = if incremental {
            SizeEvaluatorKind::Incremental(IncrementalEvaluator::new(module, target))
        } else {
            SizeEvaluatorKind::Full(CompilerEvaluator::new(module, target))
        };
        SizeEvaluator { kind, persist: None }
    }

    /// Attaches a persistent store scope: `size_of` answers from it before
    /// compiling and records every fresh result. `full_size_of` (the
    /// oracle reference path) deliberately bypasses it.
    pub fn with_persist(mut self, cache: std::sync::Arc<crate::PersistentCache>) -> Self {
        self.persist = Some(cache);
        self
    }

    /// The attached persistent cache, if any.
    pub fn persist(&self) -> Option<&std::sync::Arc<crate::PersistentCache>> {
        self.persist.as_ref()
    }

    /// The module's inlinable call sites — the configuration domain.
    pub fn sites(&self) -> &BTreeSet<CallSiteId> {
        match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.sites(),
            SizeEvaluatorKind::Incremental(ev) => ev.sites(),
        }
    }

    /// The pristine input module.
    pub fn module(&self) -> &Module {
        match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.module(),
            SizeEvaluatorKind::Incremental(ev) => ev.module(),
        }
    }

    /// The size-model target in use.
    pub fn target(&self) -> &dyn Target {
        match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.target(),
            SizeEvaluatorKind::Incremental(ev) => ev.target(),
        }
    }

    /// Snapshot of the observability counters (folding in the attached
    /// persistent scope's counters, when one is attached).
    pub fn stats(&self) -> EvaluatorStats {
        let mut stats = match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.stats(),
            SizeEvaluatorKind::Incremental(ev) => ev.stats(),
        };
        if let Some(cache) = &self.persist {
            stats.absorb_persist(cache.stats());
        }
        stats
    }

    /// Compiles the whole module under `config` (uncached).
    pub fn compile(&self, config: &InliningConfiguration) -> Module {
        match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.compile(config),
            SizeEvaluatorKind::Incremental(ev) => ev.compile(config),
        }
    }

    /// The cost model cycle measurements run under (part of the
    /// cycles-scope identity).
    pub fn cost_model(&self) -> &CostModel {
        match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.cost_model(),
            SizeEvaluatorKind::Incremental(ev) => ev.cost_model(),
        }
    }

    fn inner_size_of(&self, config: &InliningConfiguration) -> u64 {
        match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.size_of(config),
            SizeEvaluatorKind::Incremental(ev) => ev.size_of(config),
        }
    }

    fn inner_measure(&self, config: &InliningConfiguration, objective: Objective) -> Measurement {
        match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.measure(config, objective),
            SizeEvaluatorKind::Incremental(ev) => ev.measure(config, objective),
        }
    }
}

impl Evaluator for SizeEvaluator {
    fn size_of(&self, config: &InliningConfiguration) -> u64 {
        let Some(cache) = &self.persist else {
            return self.inner_size_of(config);
        };
        // Same canonical key as the evaluators' own memo tables: the
        // configuration's inlined sites restricted to this module's.
        let key: Vec<CallSiteId> =
            config.inlined_sites().intersection(self.sites()).copied().collect();
        if let Some(found) = cache.get(&key) {
            return found.size;
        }
        let size = self.inner_size_of(config);
        cache.put(key, Measurement::size_only(size));
        size
    }

    fn measure(&self, config: &InliningConfiguration, objective: Objective) -> Measurement {
        if !objective.wants_cycles() {
            return Measurement::size_only(self.size_of(config));
        }
        let Some(cache) = &self.persist else {
            return self.inner_measure(config, objective);
        };
        let key: Vec<CallSiteId> =
            config.inlined_sites().intersection(self.sites()).copied().collect();
        // Only a cycles-carrying entry answers a cycles query; a size-only
        // one falls through so the fresh measurement can upgrade it.
        if let Some(found) = cache.get(&key) {
            if found.cycles.is_some() {
                return found;
            }
        }
        let measured = self.inner_measure(config, objective);
        cache.put(key, measured);
        measured
    }

    fn compilations(&self) -> u64 {
        match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.compilations(),
            SizeEvaluatorKind::Incremental(ev) => ev.compilations(),
        }
    }

    fn queries(&self) -> u64 {
        match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.queries(),
            SizeEvaluatorKind::Incremental(ev) => ev.queries(),
        }
    }

    fn memo_scope(&self) -> Option<u128> {
        match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.memo_scope(),
            SizeEvaluatorKind::Incremental(ev) => ev.memo_scope(),
        }
    }
}

impl ModuleEvaluator for SizeEvaluator {
    fn module(&self) -> &Module {
        SizeEvaluator::module(self)
    }

    fn sites(&self) -> &BTreeSet<CallSiteId> {
        SizeEvaluator::sites(self)
    }

    fn stats(&self) -> EvaluatorStats {
        SizeEvaluator::stats(self)
    }

    fn full_size_of(&self, config: &InliningConfiguration) -> u64 {
        // The reference path must stay independent of every cache,
        // including the persistent store.
        match &self.kind {
            SizeEvaluatorKind::Full(ev) => ev.full_size_of(config),
            SizeEvaluatorKind::Incremental(ev) => ev.full_size_of(config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_codegen::X86Like;
    use optinline_ir::{BinOp, FuncBuilder, Linkage};

    /// Two independent caller→callee pairs plus an isolated leaf: three
    /// coarse components, two of them carrying one site each.
    fn two_component_module() -> (Module, Vec<CallSiteId>) {
        let mut m = Module::new("m");
        let mut sites = Vec::new();
        for i in 0..2 {
            let callee = m.declare_function(format!("callee{i}"), 1, Linkage::Internal);
            let caller = m.declare_function(format!("main{i}"), 0, Linkage::Public);
            {
                let mut b = FuncBuilder::new(&mut m, callee);
                let p = b.param(0);
                let one = b.iconst(1);
                let r = b.bin(BinOp::Add, p, one);
                b.ret(Some(r));
            }
            let mut b = FuncBuilder::new(&mut m, caller);
            let x = b.iconst(41 + i);
            let (v, site) = b.call_with_site(callee, &[x]);
            b.ret(Some(v));
            sites.push(site);
        }
        let lone = m.declare_function("lone", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, lone);
            let x = b.iconst(5);
            b.ret(Some(x));
        }
        (m, sites)
    }

    #[test]
    fn matches_full_evaluator_on_every_configuration() {
        let (m, sites) = two_component_module();
        let full = CompilerEvaluator::new(m.clone(), Box::new(X86Like));
        let incr = IncrementalEvaluator::new(m, Box::new(X86Like));
        assert_eq!(incr.component_count(), 3);
        for mask in 0..4u32 {
            let cfg: InliningConfiguration = sites
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let d =
                        if mask & (1 << i) != 0 { Decision::Inline } else { Decision::NoInline };
                    (s, d)
                })
                .collect();
            assert_eq!(full.size_of(&cfg), incr.size_of(&cfg), "mask {mask}");
        }
    }

    #[test]
    fn flipping_one_component_reuses_the_other() {
        let (m, sites) = two_component_module();
        let incr = IncrementalEvaluator::new(m, Box::new(X86Like));
        let base = InliningConfiguration::clean_slate();
        incr.size_of(&base);
        // First query: one compile per active component + constant part.
        let after_base = incr.compilations();
        assert_eq!(after_base, 3);
        // Flip only component 0's site: exactly one new slice compile.
        incr.size_of(&base.with(sites[0], Decision::Inline));
        assert_eq!(incr.compilations(), after_base + 1);
        let s = incr.stats();
        assert_eq!(s.per_component_compiles, vec![2, 1]);
        // Both queries did full-coverage lookups; only 4 of 5 missed... the
        // headline: compile work stayed well under 2 full-module compiles.
        assert!(s.full_module_equivalents < 2.0, "{}", s.full_module_equivalents);
    }

    /// Two components whose wrappers become dead (and DFE-removed) once
    /// their call site is inlined, so dead-function elimination fires in
    /// one component while the other's memoized size must stay valid.
    fn dfe_prone_two_component_module() -> (Module, Vec<CallSiteId>) {
        let mut m = Module::new("dfe");
        let mut sites = Vec::new();
        for i in 0..2 {
            let leaf = m.declare_function(format!("leaf{i}"), 1, Linkage::Internal);
            let wrapper = m.declare_function(format!("wrap{i}"), 1, Linkage::Internal);
            let root = m.declare_function(format!("root{i}"), 0, Linkage::Public);
            {
                let mut b = FuncBuilder::new(&mut m, leaf);
                let p = b.param(0);
                let c = b.iconst(3 + i as i64);
                let r = b.bin(BinOp::Mul, p, c);
                b.ret(Some(r));
            }
            {
                let mut b = FuncBuilder::new(&mut m, wrapper);
                let p = b.param(0);
                let v = b.call(leaf, &[p]).unwrap();
                b.ret(Some(v));
            }
            let mut b = FuncBuilder::new(&mut m, root);
            let x = b.iconst(10 + i as i64);
            let (v, site) = b.call_with_site(wrapper, &[x]);
            b.ret(Some(v));
            sites.push(site);
        }
        (m, sites)
    }

    #[test]
    fn dead_function_elimination_in_one_component_does_not_stale_the_other() {
        let (m, sites) = dfe_prone_two_component_module();
        let incr = IncrementalEvaluator::new(m.clone(), Box::new(X86Like));
        assert_eq!(incr.component_count(), 2);
        // Inlining wrap0's site makes wrap0 dead: the whole-module pipeline
        // runs DeadFunctionElim while component 1 is untouched. Query in an
        // order that forces component 1's memoized entry to be *reused*
        // across component 0's DFE-triggering recompiles, and cross-check
        // every answer against the uncached whole-module reference path.
        let base = InliningConfiguration::clean_slate();
        let order = [
            base.clone(),
            base.clone().with(sites[0], Decision::Inline),
            base.clone(), // reuse both components' memoized sizes
            base.clone().with(sites[0], Decision::Inline).with(sites[1], Decision::Inline),
            base.clone().with(sites[1], Decision::Inline),
        ];
        for (step, cfg) in order.iter().enumerate() {
            assert_eq!(
                incr.size_of(cfg),
                incr.full_size_of(cfg),
                "step {step}: incremental diverged from the whole-module reference"
            );
        }
        // The wrapper really was deleted in the inlined compile — the
        // scenario exercises DFE, not just inlining.
        let inlined = incr.compile(&base.clone().with(sites[0], Decision::Inline));
        let wrap0 = inlined.func_by_name("wrap0").unwrap();
        assert!(inlined.is_stub(wrap0), "wrap0 should be DFE'd once its only call is inlined");
    }

    #[test]
    fn full_size_of_matches_cached_fast_path() {
        let (m, sites) = two_component_module();
        let full = CompilerEvaluator::new(m.clone(), Box::new(X86Like));
        let incr = IncrementalEvaluator::new(m, Box::new(X86Like));
        let cfg = InliningConfiguration::clean_slate().with(sites[0], Decision::Inline);
        for _ in 0..2 {
            // Second round hits the memo caches; reference stays uncached.
            assert_eq!(full.size_of(&cfg), full.full_size_of(&cfg));
            assert_eq!(incr.size_of(&cfg), incr.full_size_of(&cfg));
        }
    }

    #[test]
    fn size_evaluator_variants_agree() {
        let (m, sites) = two_component_module();
        let full = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
        let incr = SizeEvaluator::new(m, Box::new(X86Like), true);
        let cfg = InliningConfiguration::clean_slate().with(sites[1], Decision::Inline);
        assert_eq!(full.size_of(&cfg), incr.size_of(&cfg));
        assert_eq!(full.sites(), incr.sites());
        assert!(incr.stats().compiles > 0);
    }

    #[test]
    fn size_and_speed_scopes_never_alias_and_survive_compact_and_gc() {
        use crate::measure::objective_scope;
        use crate::persist::{cache_meta, PersistentCache};
        use optinline_callgraph::Decision;
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("optinline-objscope-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (m, sites) = two_component_module();
        let meta = cache_meta(&m, "x86-like");
        let cfg = InliningConfiguration::clean_slate().with(sites[0], Decision::Inline);
        let domain = SizeEvaluator::new(m.clone(), Box::new(X86Like), false)
            .memo_scope()
            .expect("module-backed evaluators name their domain");
        let cost = CostModel::default();
        let speed_fp = objective_scope(domain, Objective::Speed, &cost);
        assert_ne!(speed_fp, domain);

        // Cold runs: one per objective, each against its own scope.
        let (size_cold, speed_cold);
        {
            let cache = Arc::new(PersistentCache::open(&dir, domain, &meta).unwrap());
            let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), false).with_persist(cache);
            size_cold = ev.measure(&cfg, Objective::Size);
            assert!(size_cold.cycles.is_none());
        }
        {
            let cache = Arc::new(PersistentCache::open(&dir, speed_fp, &meta).unwrap());
            let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), false).with_persist(cache);
            speed_cold = ev.measure(&cfg, Objective::Speed);
            assert_eq!(speed_cold.size, size_cold.size, "same domain, same sizes");
            assert!(speed_cold.cycles.is_some(), "public mains are executable");
        }

        // Compact and GC (budget generous enough to keep both logs): the
        // two scopes must both survive, still separated.
        {
            let store = optinline_store::LocalStore::shared(&dir).unwrap();
            store.compact_all().unwrap();
            let gc = store.gc(1 << 30).unwrap();
            assert_eq!(gc.evicted_scopes, 0, "both scopes fit the budget");
        }

        // Warm runs: every answer comes from the right scope, with zero
        // compiles and no cycles leaking into the size scope.
        let key: Vec<CallSiteId> =
            cfg.inlined_sites().intersection(&sites.iter().copied().collect()).copied().collect();
        {
            let cache = Arc::new(PersistentCache::open(&dir, domain, &meta).unwrap());
            let ev =
                SizeEvaluator::new(m.clone(), Box::new(X86Like), false).with_persist(cache.clone());
            assert_eq!(ev.measure(&cfg, Objective::Size), size_cold);
            assert_eq!(ev.compilations(), 0, "warm size measure must not compile");
            let raw = cache.get(&key).expect("the size scope holds the entry");
            assert!(raw.cycles.is_none(), "cycles must never alias into the size scope");
        }
        {
            let cache = Arc::new(PersistentCache::open(&dir, speed_fp, &meta).unwrap());
            let ev = SizeEvaluator::new(m, Box::new(X86Like), false).with_persist(cache);
            assert_eq!(ev.measure(&cfg, Objective::Speed), speed_cold);
            assert_eq!(ev.compilations(), 0, "warm speed measure must not compile either");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_evaluator_with_persist_warm_starts_without_compiling() {
        use crate::persist::{cache_meta, module_fingerprint, PersistentCache};
        let dir =
            std::env::temp_dir().join(format!("optinline-sizeev-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (m, sites) = two_component_module();
        let fp = module_fingerprint(&m, "x86-like");
        let meta = cache_meta(&m, "x86-like");
        let cfg = InliningConfiguration::clean_slate().with(sites[0], Decision::Inline);
        let cold_size;
        {
            let cache = std::sync::Arc::new(PersistentCache::open(&dir, fp, &meta).unwrap());
            let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), false).with_persist(cache);
            cold_size = ev.size_of(&cfg);
            assert!(ev.compilations() > 0);
            // The reference path must not be served by the store.
            assert_eq!(ev.full_size_of(&cfg), cold_size);
        }
        // Fresh evaluator, same store: the answer comes from disk.
        let cache = std::sync::Arc::new(PersistentCache::open(&dir, fp, &meta).unwrap());
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false).with_persist(cache);
        assert_eq!(ev.size_of(&cfg), cold_size);
        assert_eq!(ev.compilations(), 0, "warm start must not compile");
        let s = ev.stats();
        assert_eq!(s.persist_hits, 1);
        assert!(s.persist_loaded >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
