//! The traced run's instruments: timers wrapped around the public seams
//! (`ModelProvider::lease`, every `ObjectiveModel` method of the leased and
//! analytic models, `ingest`/`train_*`), and an in-memory span log written
//! out at the end of the run.
//!
//! Untraced runs never construct any of this, so they measure the program
//! as shipped.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use udao::ModelProvider;
use udao_core::ObjectiveModel;
use udao_model::{ModelKey, ModelLease, ModelServer};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Model families the inference timers tell apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Gp = 0,
    Dnn = 1,
    Analytic = 2,
}

const FAMILIES: usize = 3;

/// No request is current (set-up, or several solves in flight).
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span: a layer boundary of one request, in microseconds
/// since the tracer started. `busy_us` is the summed time of the calls an
/// aggregated span stands for (equal to `end − start` for a single call).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start_us: f64,
    pub end_us: f64,
    pub busy_us: f64,
    pub calls: u64,
}

/// Running totals of one inference family.
#[derive(Default)]
struct InferTotals {
    nanos: AtomicU64,
    calls: AtomicU64,
    points: AtomicU64,
    /// First call start / last call end of the current request, in ns
    /// since the tracer started (0 = no call yet).
    first: AtomicU64,
    last: AtomicU64,
}

/// Snapshot of the inference totals, for per-request differences.
#[derive(Debug, Clone, Copy, Default)]
pub struct InferSnapshot {
    pub nanos: [u64; FAMILIES],
    pub calls: [u64; FAMILIES],
    pub points: [u64; FAMILIES],
}

impl InferSnapshot {
    /// What accrued between `before` and `self`.
    pub fn since(&self, before: &InferSnapshot) -> InferSnapshot {
        let sub = |a: [u64; FAMILIES], b: [u64; FAMILIES]| std::array::from_fn(|i| a[i] - b[i]);
        InferSnapshot {
            nanos: sub(self.nanos, before.nanos),
            calls: sub(self.calls, before.calls),
            points: sub(self.points, before.points),
        }
    }
}

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    current: AtomicU64,
    current_span: AtomicU64,
    infer: [InferTotals; FAMILIES],
    lease_nanos: AtomicU64,
    leases: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(NO_REQUEST),
            current_span: AtomicU64::new(0),
            infer: Default::default(),
            lease_nanos: AtomicU64::new(0),
            leases: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn span_us(&self, t: Instant) -> f64 {
        t.duration_since(self.t0).as_secs_f64() * 1e6
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Reserve a span id (so children can name their parent before the
    /// parent span closes).
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Relaxed)
    }

    /// Record a finished single-call span.
    pub fn span(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let (s, e) = (self.span_us(start), self.span_us(end));
        lock(&self.spans).push(Span {
            id,
            parent,
            name,
            req,
            start_us: s,
            end_us: e,
            busy_us: e - s,
            calls: 1,
        });
    }

    /// Record a span from raw microsecond values.
    pub fn push(&self, span: Span) {
        lock(&self.spans).push(span);
    }

    /// Mark `req` (whose client span is `span`) as the one request in
    /// flight: in-solve spans attach to it, and the per-request inference
    /// window restarts. `NO_REQUEST` detaches.
    pub fn set_current(&self, req: u64, span: u64) {
        self.current.store(req, Relaxed);
        self.current_span.store(span, Relaxed);
        for f in &self.infer {
            f.first.store(0, Relaxed);
            f.last.store(0, Relaxed);
        }
    }

    pub fn current(&self) -> (u64, u64) {
        (self.current.load(Relaxed), self.current_span.load(Relaxed))
    }

    fn record_infer(&self, family: Family, start: Instant, end: Instant, points: usize) {
        let f = &self.infer[family as usize];
        f.nanos
            .fetch_add(end.duration_since(start).as_nanos() as u64, Relaxed);
        f.calls.fetch_add(1, Relaxed);
        f.points.fetch_add(points as u64, Relaxed);
        let (s, e) = (self.ns(start).max(1), self.ns(end).max(1));
        let _ = f.first.compare_exchange(0, s, Relaxed, Relaxed);
        f.last.fetch_max(e, Relaxed);
    }

    pub fn infer_snapshot(&self) -> InferSnapshot {
        let mut s = InferSnapshot::default();
        for (i, f) in self.infer.iter().enumerate() {
            s.nanos[i] = f.nanos.load(Relaxed);
            s.calls[i] = f.calls.load(Relaxed);
            s.points[i] = f.points.load(Relaxed);
        }
        s
    }

    /// Close the current request's aggregated inference spans: one span
    /// per family that ran, from its first call to its last, carrying the
    /// summed call time since `before`.
    pub fn close_infer(&self, req: u64, parent: u64, before: &InferSnapshot) {
        let now = self.infer_snapshot();
        const NAMES: [&str; FAMILIES] = ["infer.gp", "infer.dnn", "infer.analytic"];
        for (i, f) in self.infer.iter().enumerate() {
            let calls = now.calls[i] - before.calls[i];
            if calls == 0 {
                continue;
            }
            let id = self.reserve();
            self.push(Span {
                id,
                parent,
                name: NAMES[i],
                req,
                start_us: f.first.load(Relaxed) as f64 / 1e3,
                end_us: f.last.load(Relaxed) as f64 / 1e3,
                busy_us: (now.nanos[i] - before.nanos[i]) as f64 / 1e3,
                calls,
            });
        }
    }

    pub fn lease_totals(&self) -> (u64, u64) {
        (self.leases.load(Relaxed), self.lease_nanos.load(Relaxed))
    }

    /// Every span recorded, as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in lock(&self.spans).iter() {
            let req = if s.req == NO_REQUEST {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"busy_us\":{:.3},\"calls\":{}}}",
                s.id, s.parent, s.name, req, s.start_us, s.end_us, s.busy_us, s.calls
            );
        }
        out
    }
}

/// Times every call into a model and forwards it unchanged, batched calls
/// included, so the same kernels run as without the wrapper.
pub struct TimedModel {
    inner: Arc<dyn ObjectiveModel>,
    family: Family,
    tracer: Arc<Tracer>,
}

impl TimedModel {
    pub fn wrap(
        inner: Arc<dyn ObjectiveModel>,
        family: Family,
        tracer: &Arc<Tracer>,
    ) -> Arc<dyn ObjectiveModel> {
        Arc::new(TimedModel {
            inner,
            family,
            tracer: Arc::clone(tracer),
        })
    }

    #[inline]
    fn timed<R>(&self, points: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.tracer
            .record_infer(self.family, start, Instant::now(), points);
        r
    }
}

impl ObjectiveModel for TimedModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn predict(&self, x: &[f64]) -> f64 {
        self.timed(1, || self.inner.predict(x))
    }
    fn predict_std(&self, x: &[f64]) -> f64 {
        self.timed(1, || self.inner.predict_std(x))
    }
    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        self.timed(1, || self.inner.gradient(x, out))
    }
    fn std_gradient(&self, x: &[f64], out: &mut [f64]) {
        self.timed(1, || self.inner.std_gradient(x, out))
    }
    fn predict_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        self.timed(xs.len(), || self.inner.predict_batch(xs, out))
    }
    fn predict_std_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        self.timed(xs.len(), || self.inner.predict_std_batch(xs, out))
    }
}

/// A served version and its timing wrapper.
type Versioned = (u64, Arc<dyn ObjectiveModel>);

/// A `ModelProvider` over the model server that times each lease and hands
/// out timed models. The lease itself is forwarded, so the version a solve
/// pins is exactly the server's; the wrapper is built once per
/// `(key, version)`, so coalescer lanes and memo fingerprints see one
/// stable address per served model, as they do untraced.
pub struct TimedProvider {
    server: Arc<ModelServer>,
    tracer: Arc<Tracer>,
    families: HashMap<ModelKey, Family>,
    wrapped: Mutex<HashMap<ModelKey, Versioned>>,
}

impl TimedProvider {
    pub fn new(
        server: Arc<ModelServer>,
        tracer: Arc<Tracer>,
        families: HashMap<ModelKey, Family>,
    ) -> Self {
        TimedProvider {
            server,
            tracer,
            families,
            wrapped: Mutex::new(HashMap::new()),
        }
    }
}

impl ModelProvider for TimedProvider {
    fn fetch(&self, key: &ModelKey) -> udao_core::Result<Option<Arc<dyn ObjectiveModel>>> {
        Ok(self.lease(key)?.map(|l| l.model))
    }

    fn lease(&self, key: &ModelKey) -> udao_core::Result<Option<ModelLease>> {
        let start = Instant::now();
        let lease = self.server.lease(key);
        let end = Instant::now();
        self.tracer.leases.fetch_add(1, Relaxed);
        self.tracer
            .lease_nanos
            .fetch_add(end.duration_since(start).as_nanos() as u64, Relaxed);
        let (req, parent) = self.tracer.current();
        let id = self.tracer.reserve();
        self.tracer.span(id, parent, "model.lease", req, start, end);
        Ok(lease.map(|l| {
            let family = self.families.get(key).copied().unwrap_or(Family::Analytic);
            let mut wrapped = lock(&self.wrapped);
            let model = match wrapped.get(key) {
                Some((v, m)) if *v == l.version => Arc::clone(m),
                _ => {
                    let m = TimedModel::wrap(l.model, family, &self.tracer);
                    wrapped.insert(key.clone(), (l.version, Arc::clone(&m)));
                    m
                }
            };
            ModelLease {
                model,
                version: l.version,
            }
        }))
    }
}
