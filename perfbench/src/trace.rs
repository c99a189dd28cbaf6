//! Benchmark-side tracing: spans recorded around calls into the program's
//! layers, kept in memory and written out when the run ends.
//!
//! Nothing here changes the program: [`TracedEvaluator`] and
//! [`TracedHandler`] are wrappers the benchmark puts around the program's
//! own `Evaluator` and `Handler` implementations.

use optinline_cli::serve::CliHandler;
use optinline_core::{Evaluator, InliningConfiguration, Objective};
use optinline_ir::Measurement;
use optinline_serve::{Handler, Reply, RequestKind};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch;
/// `parent` is 0 for a root span; spans of one module or request share
/// `req`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// This span's id (ids start at 1).
    pub id: u64,
    /// The span that caused this one, 0 for none.
    pub parent: u64,
    /// The module or request this span belongs to.
    pub req: u64,
    /// Layer boundary name, e.g. `core.eval.query`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder, shareable across threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// Nanoseconds since this tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant taken elsewhere to this tracer's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, for spans whose children start before it ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("a span recorder panicked").push(span);
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id so it
    /// can parent its own children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.reserve();
        let start_ns = self.now();
        let out = f(id);
        self.record(Span { id, parent, req, name, start_ns, end_ns: self.now() });
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Measured cost of recording one span, in nanoseconds: the direct
    /// tracing overhead per span, from a private recorder.
    pub fn span_cost_ns() -> f64 {
        const N: u64 = 20_000;
        let scratch = Tracer::default();
        let t = Instant::now();
        for i in 0..N {
            scratch.span("overhead.probe", 0, i, |_| std::hint::black_box(i));
        }
        t.elapsed().as_nanos() as f64 / N as f64
    }
}

/// Runs `f` in a span when tracing, or bare when not; `f` gets the span
/// id (0 untraced).
pub fn maybe_span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, req, f),
        None => f(0),
    }
}

/// An [`Evaluator`] that records one `core.eval.query` span per query and
/// forwards every trait method — `measure` and `memo_scope` included, so
/// search-session memoization and cycle measurement behave exactly as
/// they do on the bare evaluator.
#[derive(Debug)]
pub struct TracedEvaluator<'a, E: Evaluator + ?Sized> {
    inner: &'a E,
    tracer: &'a Tracer,
    parent: u64,
    req: u64,
}

impl<'a, E: Evaluator + ?Sized> TracedEvaluator<'a, E> {
    /// Wraps `inner`; its query spans are children of `parent`.
    pub fn new(inner: &'a E, tracer: &'a Tracer, parent: u64, req: u64) -> Self {
        TracedEvaluator { inner, tracer, parent, req }
    }
}

impl<E: Evaluator + ?Sized> Evaluator for TracedEvaluator<'_, E> {
    fn size_of(&self, config: &InliningConfiguration) -> u64 {
        self.tracer.span("core.eval.query", self.parent, self.req, |_| self.inner.size_of(config))
    }

    fn measure(&self, config: &InliningConfiguration, objective: Objective) -> Measurement {
        self.tracer.span("core.eval.query", self.parent, self.req, |_| {
            self.inner.measure(config, objective)
        })
    }

    fn compilations(&self) -> u64 {
        self.inner.compilations()
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn memo_scope(&self) -> Option<u128> {
        self.inner.memo_scope()
    }
}

/// A [`Handler`] around the daemon's [`CliHandler`] recording one
/// `cli.handle` span per evaluation, keyed by the request's identity (the
/// handler never sees the wire id; the client maps identities back).
#[derive(Debug)]
pub struct TracedHandler {
    inner: CliHandler,
    tracer: Arc<Tracer>,
}

impl TracedHandler {
    /// Wraps the daemon's handler.
    pub fn new(inner: CliHandler, tracer: Arc<Tracer>) -> Self {
        TracedHandler { inner, tracer }
    }
}

/// The 64-bit span key of a request identity.
pub fn identity_key(identity: u128) -> u64 {
    identity as u64
}

impl Handler for TracedHandler {
    fn handle(&self, kind: &RequestKind, progress: &dyn Fn(&str)) -> Result<Reply, String> {
        let req = kind.identity().map_or(0, identity_key);
        self.tracer.span("cli.handle", 0, req, |_| self.inner.handle(kind, progress))
    }

    fn drained(&self) {
        self.inner.drained();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let t = Tracer::default();
        t.span("outer", 0, 7, |outer| t.span("inner", outer, 7, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
