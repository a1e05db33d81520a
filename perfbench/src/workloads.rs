//! The four workloads: seeded fixed-length request sequences, and the
//! clients that replay them against the serving engines.
//!
//! Sequence length is a pure function of `--seconds` (a nominal request
//! rate per workload, rounded up to whole rounds), never of elapsed time:
//! every run of one seed replays exactly the same requests.

use crate::calc::Rng;
use crate::setup::{workload, System};
use crate::trace::{Family, Span, TimedModel, Tracer, NO_REQUEST};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use udao::{
    BatchRequest, Fold, Priority, Recommendation, StageMode, StageObjectiveSpec, StageRequest,
    StreamRequest,
};
use udao_core::ObjectiveModel;
use udao_model::{Dataset, ModelKey};
use udao_sparksim::objectives::{BatchObjective, StreamObjective};
use udao_sparksim::trace::{
    batch_training_data, collect_batch_traces, collect_stream_traces, stream_training_data,
    SamplingStrategy,
};
use udao_sparksim::{ClusterSpec, StageFixture};

/// One request, in the shape its engine takes.
#[derive(Clone)]
pub enum Work {
    Batch(BatchRequest),
    Stream(StreamRequest),
    Stage(StageRequest),
}

impl Work {
    pub fn workload_id(&self) -> &str {
        match self {
            Work::Batch(r) => &r.workload_id,
            Work::Stream(r) => &r.workload_id,
            Work::Stage(r) => &r.workload_id,
        }
    }

    pub fn constraints(&self) -> &[Option<(f64, f64)>] {
        match self {
            Work::Batch(r) => &r.constraints,
            Work::Stream(r) => &r.constraints,
            Work::Stage(r) => &r.constraints,
        }
    }

    pub fn weights(&self) -> Option<&Vec<f64>> {
        match self {
            Work::Batch(r) => r.weights.as_ref(),
            Work::Stream(r) => r.weights.as_ref(),
            Work::Stage(r) => r.weights.as_ref(),
        }
    }

    pub fn priority(&self) -> Priority {
        match self {
            Work::Batch(r) => r.priority,
            Work::Stream(r) => r.priority,
            Work::Stage(r) => r.priority,
        }
    }
}

/// What a repeat_swap request is meant to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Intent {
    /// Same bounds and point count as the template's last request, new
    /// weights.
    Repeat,
    /// The template's last request with more Pareto points.
    Near,
    /// A constraint region the template has not used yet.
    First,
}

pub struct Item {
    pub work: Work,
    /// Identity of the cache entry the request maps to, apart from the
    /// pinned model versions (repeat_swap: template·1000 + region variant).
    pub entry: u64,
    /// Stage fixture index (stage_dag).
    pub fixture: usize,
    /// A model write the client performs right before this request.
    pub write: Option<usize>,
}

/// A model write of repeat_swap: new traces for one model.
pub struct Write {
    pub key: ModelKey,
    pub data: Dataset,
}

/// A finished request as the client saw it.
pub struct Done {
    pub latency_s: f64,
    pub submit_s: f64,
    pub result: Result<Recommendation, String>,
    /// After a write: the version the server published, which this request
    /// must pin.
    pub expect_version: Option<(String, u64)>,
}

impl Done {
    /// A request that never got an answer.
    fn failed(why: String) -> Self {
        Done {
            latency_s: 0.0,
            submit_s: 0.0,
            result: Err(why),
            expect_version: None,
        }
    }
}

pub struct Sequence {
    pub items: Vec<Item>,
    pub writes: Vec<Write>,
    pub fixtures: Vec<Fixture>,
}

/// A stage fixture with the models its requests carry (built once, so the
/// traced run's wrappers have stable addresses).
pub struct Fixture {
    pub name: String,
    pub fx: StageFixture,
    pub latency: Vec<Arc<dyn ObjectiveModel>>,
    pub cost: Vec<Arc<dyn ObjectiveModel>>,
}

fn rounds(seconds: u64, per_second: f64, per_round: usize) -> usize {
    ((seconds as f64 * per_second) / per_round as f64)
        .ceil()
        .max(1.0) as usize
}

/// Entry `round + offset` of `list`, cyclically: over whole rounds every
/// entry appears equally often, so the seed moves where, not how often.
fn cycle<T: Copy>(list: &[T], round: usize, offset: usize) -> T {
    list[(round + offset) % list.len()]
}

fn batch_obj(name: &str) -> BatchObjective {
    match name {
        "latency" => BatchObjective::Latency,
        "network_load" => BatchObjective::NetworkLoad,
        _ => BatchObjective::CostCores,
    }
}

fn stream_obj(name: &str) -> StreamObjective {
    match name {
        "latency" => StreamObjective::Latency,
        "throughput" => StreamObjective::Throughput,
        _ => StreamObjective::CostCores,
    }
}

/// A plain request: `objs` in order, with an upper bound on `cost_cores`
/// when `cores_bound` is set.
fn plain(
    wl: &str,
    streaming: bool,
    objs: &[&str],
    cores_bound: Option<f64>,
    points: usize,
    weights: Vec<f64>,
    priority: Priority,
) -> Work {
    if streaming {
        let mut r = StreamRequest::new(wl);
        for o in objs {
            r = match (cores_bound, *o) {
                (Some(b), "cost_cores") => r.objective_bounded(stream_obj(o), 0.0, b),
                _ => r.objective(stream_obj(o)),
            };
        }
        Work::Stream(r.points(points).weights(weights).priority(priority))
    } else {
        let mut r = BatchRequest::new(wl);
        for o in objs {
            r = match (cores_bound, *o) {
                (Some(b), "cost_cores") => r.objective_bounded(batch_obj(o), 0.0, b),
                _ => r.objective(batch_obj(o)),
            };
        }
        Work::Batch(r.points(points).weights(weights).priority(priority))
    }
}

/// A request template: workload, objectives, whether `cost_cores` is
/// bounded, and the point counts it draws from.
struct Shape {
    wl: &'static str,
    streaming: bool,
    objs: &'static [&'static str],
    bounded: bool,
    points: &'static [usize],
}

const fn shape(
    wl: &'static str,
    streaming: bool,
    objs: &'static [&'static str],
    bounded: bool,
    points: &'static [usize],
) -> Shape {
    Shape {
        wl,
        streaming,
        objs,
        bounded,
        points,
    }
}

const LC: &[&str] = &["latency", "cost_cores"];
const LN: &[&str] = &["latency", "network_load"];
const LCN: &[&str] = &["latency", "cost_cores", "network_load"];
const LT: &[&str] = &["latency", "throughput"];
const LTC: &[&str] = &["latency", "throughput", "cost_cores"];

/// cold_solve's round: every shape once per round, in seeded order.
const COLD_SHAPES: [Shape; 12] = [
    shape("q1-v0", false, LC, false, &[4, 6, 8]),
    shape("q1-v0", false, LC, true, &[4, 6, 8]),
    shape("q1-v0", false, LCN, true, &[4, 6]),
    shape("q3-v0", false, LCN, false, &[4, 6]),
    shape("q3-v0", false, LN, false, &[4, 6, 8]),
    shape("q2-v0", false, LC, false, &[3, 4, 5]),
    shape("q2-v0", false, LC, true, &[3, 4, 5]),
    shape("q2-v0", false, LCN, false, &[4, 5]),
    shape("s1-v0", true, LT, false, &[4, 6, 8]),
    shape("s1-v0", true, LTC, true, &[4, 6]),
    shape("s2-v0", true, LT, false, &[3, 4, 5]),
    shape("s2-v0", true, LC, true, &[3, 4, 5]),
];

/// Range of the `cost_cores` upper bound on bounded cold requests. Tighter
/// bounds are left out: on s1-v0 they send PF-AP to its 256-probe cap (see
/// the README), a seed-dependent cliff no two runs would share.
const COLD_BOUND: (f64, f64) = (40.0, 80.0);

pub fn cold_solve(seed: u64, seconds: u64) -> Sequence {
    let mut rng = Rng::new(seed);
    let mut items = Vec::new();
    let offsets: Vec<usize> = COLD_SHAPES
        .iter()
        .map(|s| rng.below(s.points.len()))
        .collect();
    for round in 0..rounds(seconds, 7.0, COLD_SHAPES.len()) {
        let mut order: Vec<usize> = (0..COLD_SHAPES.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let s = &COLD_SHAPES[i];
            let points = cycle(s.points, round, offsets[i]);
            let weights = rng.weights(s.objs.len());
            let bound = s.bounded.then(|| rng.range(COLD_BOUND.0, COLD_BOUND.1));
            let work = plain(
                s.wl,
                s.streaming,
                s.objs,
                bound,
                points,
                weights,
                Priority::Standard,
            );
            items.push(Item {
                work,
                entry: 0,
                fixture: 0,
                write: None,
            });
        }
    }
    Sequence {
        items,
        writes: Vec::new(),
        fixtures: Vec::new(),
    }
}

/// repeat_swap's templates; every one bounds `cost_cores`, so a new
/// region variant is a new cache key. s1-v0 is left out: bounded requests
/// on it can send PF-AP to its 256-probe cap (see the README), which would
/// make a run's cost hinge on its seed.
const SWAP_SHAPES: [Shape; 7] = [
    shape("q1-v0", false, LC, true, &[4, 6, 8, 10]),
    shape("q3-v0", false, LCN, true, &[4, 5, 6, 8]),
    shape("q2-v0", false, LC, true, &[3, 4, 5, 6]),
    shape("q2-v0", false, LCN, true, &[4, 5, 6, 7]),
    shape("s2-v0", true, LC, true, &[3, 4, 5, 6]),
    shape("q1-v0", false, LCN, true, &[4, 5, 6, 8]),
    shape("q3-v0", false, LC, true, &[4, 6, 8, 10]),
];

/// Frontier-cache capacity on repeat_swap: two entries per cache shard,
/// well below the key set a run builds up (every first-time request and
/// every write adds keys), but above the seven live templates, so
/// evictions fall mostly on retired regions and versions.
pub const SWAP_CACHE: usize = 32;
/// A model write before every `SWAP_WRITE_EVERY`-th request.
pub const SWAP_WRITE_EVERY: usize = 30;
/// Write targets, in turn: `(workload, objective, streaming)`.
const SWAP_WRITES: [(&str, &str, bool); 4] = [
    ("q1-v0", "latency", false),
    ("s2-v0", "latency", true),
    ("q2-v0", "latency", false),
    ("q3-v0", "network_load", false),
];
/// Traces per write.
const WRITE_TRACES: usize = 6;
/// Intents per block of twenty requests: 16 repeats, 2 near, 2 first.
const SWAP_BLOCK: [(Intent, usize); 3] =
    [(Intent::Repeat, 16), (Intent::Near, 2), (Intent::First, 2)];

/// The `cost_cores` bound of a template's region variant: each variant is
/// a new cache key (the cells differ by far more than the cache's 1.6 %
/// quantization). Bounds start at 42 cores for the reason `COLD_BOUND`
/// gives.
fn swap_bound(variant: usize) -> f64 {
    42.0 + 9.0 * (variant % 8) as f64
}

/// Zipf(1) over the templates.
fn zipf(rng: &mut Rng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut u = rng.unit() * total;
    for r in 1..=n {
        u -= 1.0 / r as f64;
        if u <= 0.0 {
            return r - 1;
        }
    }
    n - 1
}

/// Every template once per pass, in seeded order: the requests that solve
/// (near and first-time) spread evenly over the templates, so a run's
/// solver work does not hinge on which templates the draw favours.
struct Deck(Vec<usize>);

impl Deck {
    fn deal(&mut self, rng: &mut Rng, n: usize) -> usize {
        if self.0.is_empty() {
            self.0 = (0..n).collect();
            rng.shuffle(&mut self.0);
        }
        self.0.pop().unwrap_or(0)
    }
}

pub fn repeat_swap(seed: u64, seconds: u64) -> Sequence {
    let mut rng = Rng::new(seed);
    let block_len: usize = SWAP_BLOCK.iter().map(|(_, n)| n).sum();
    let n = rounds(seconds, 35.0, block_len) * block_len;
    let mut intents = Vec::with_capacity(n);
    while intents.len() < n {
        let mut block: Vec<Intent> = SWAP_BLOCK
            .iter()
            .flat_map(|(i, c)| std::iter::repeat_n(*i, *c))
            .collect();
        rng.shuffle(&mut block);
        intents.extend(block);
    }
    let (mut near_deck, mut first_deck) = (Deck(Vec::new()), Deck(Vec::new()));
    let mut variant = [0usize; SWAP_SHAPES.len()];
    let mut level = [0usize; SWAP_SHAPES.len()];
    let mut items = Vec::with_capacity(n);
    let mut writes = Vec::new();
    let cluster = ClusterSpec::paper_cluster();
    for (i, mut intent) in intents.into_iter().enumerate() {
        let mut write = None;
        let t = if i > 0 && i % SWAP_WRITE_EVERY == 0 {
            // The write, then a repeat on a template that pins the model.
            let (wl, obj, streaming) = SWAP_WRITES[writes.len() % SWAP_WRITES.len()];
            let w = workload(wl);
            let trace_seed = seed
                .wrapping_mul(1000)
                .wrapping_add(writes.len() as u64 + 1);
            let data = if streaming {
                let traces = collect_stream_traces(&w, &cluster, WRITE_TRACES, trace_seed);
                let (x, y) = stream_training_data(&traces, stream_obj(obj));
                Dataset::new(x, y)
            } else {
                let traces = collect_batch_traces(
                    &w,
                    &cluster,
                    WRITE_TRACES,
                    SamplingStrategy::Mixed,
                    trace_seed,
                );
                let (x, y) = batch_training_data(&traces, batch_obj(obj));
                Dataset::new(x, y)
            };
            write = Some(writes.len());
            writes.push(Write {
                key: ModelKey::new(wl, obj),
                data,
            });
            intent = Intent::Repeat;
            SWAP_SHAPES
                .iter()
                .position(|s| s.wl == wl && s.objs.contains(&obj))
                .unwrap_or(0)
        } else {
            match intent {
                Intent::First => first_deck.deal(&mut rng, SWAP_SHAPES.len()),
                Intent::Near => near_deck.deal(&mut rng, SWAP_SHAPES.len()),
                _ => zipf(&mut rng, SWAP_SHAPES.len()),
            }
        };
        let s = &SWAP_SHAPES[t];
        match intent {
            Intent::Near if level[t] + 1 < s.points.len() => level[t] += 1,
            // A near repeat past the top point count opens a new region.
            Intent::Near | Intent::First => {
                variant[t] += 1;
                level[t] = 0;
            }
            _ => {}
        }
        let weights = rng.weights(s.objs.len());
        let work = plain(
            s.wl,
            s.streaming,
            s.objs,
            Some(swap_bound(variant[t])),
            s.points[level[t]],
            weights,
            Priority::Standard,
        );
        let entry = (t * 1000 + variant[t]) as u64;
        items.push(Item {
            work,
            entry,
            fixture: 0,
            write,
        });
    }
    Sequence {
        items,
        writes,
        fixtures: Vec::new(),
    }
}

pub fn stage_fixtures(tracer: Option<&Arc<Tracer>>) -> Vec<Fixture> {
    let mut named = vec![
        ("chain2".to_string(), StageFixture::chain2()),
        ("diamond".to_string(), StageFixture::diamond()),
        ("fanin_join".to_string(), StageFixture::fanin_join()),
    ];
    for id in ["q2-v0", "q5-v0", "q9-v0"] {
        if let Some(program) = workload(id).batch_program() {
            named.push((format!("tpcxbb-{id}"), StageFixture::from_program(program)));
        }
    }
    let wrap = |models: Vec<Arc<dyn ObjectiveModel>>| -> Vec<Arc<dyn ObjectiveModel>> {
        match tracer {
            Some(t) => models
                .into_iter()
                .map(|m| TimedModel::wrap(m, Family::Analytic, t))
                .collect(),
            None => models,
        }
    };
    named
        .into_iter()
        .map(|(name, fx)| {
            let latency = wrap(fx.latency_models());
            let cost = wrap(fx.cost_models());
            Fixture {
                name,
                fx,
                latency,
                cost,
            }
        })
        .collect()
}

pub fn stage_dag(seed: u64, seconds: u64, fixtures: Vec<Fixture>) -> Sequence {
    let mut rng = Rng::new(seed);
    // Two descent solves per joint one: the median lies well inside the
    // (fast) descent mode and p90 well inside the joint mode.
    const ROUND: [StageMode; 3] = [StageMode::Descent, StageMode::Descent, StageMode::Joint];
    let per_round = fixtures.len() * ROUND.len();
    let mut items = Vec::new();
    const POINTS: [usize; 5] = [5, 6, 7, 8, 9];
    let offsets: Vec<usize> = (0..per_round).map(|_| rng.below(POINTS.len())).collect();
    for round in 0..rounds(seconds, 95.0, per_round) {
        let mut order: Vec<usize> = (0..per_round).collect();
        rng.shuffle(&mut order);
        for slot in order {
            let (f, mode) = (slot / ROUND.len(), ROUND[slot % ROUND.len()]);
            let fx = &fixtures[f];
            let points = cycle(&POINTS, round, offsets[slot]);
            let work = Work::Stage(
                StageRequest::new(
                    format!("stage-{}", fx.name),
                    fx.fx.dag.clone(),
                    fx.fx.space(),
                )
                .objective(StageObjectiveSpec::analytic(
                    "latency",
                    Fold::CriticalPath,
                    fx.latency.clone(),
                ))
                .objective(StageObjectiveSpec::analytic(
                    "cost",
                    Fold::Sum,
                    fx.cost.clone(),
                ))
                .points(points)
                .weights(rng.weights(2))
                .mode(mode),
            );
            items.push(Item {
                work,
                entry: 0,
                fixture: f,
                write: None,
            });
        }
    }
    Sequence {
        items,
        writes: Vec::new(),
        fixtures,
    }
}

/// serve_mix's block: eight small `Interactive` requests (two workloads ×
/// two point counts, twice) and four large `Batch`-class ones, in seeded
/// order; every block holds the same twelve shapes.
const MIX_BLOCK: [(&str, usize, Priority); 12] = [
    ("q1-v0", 3, Priority::Interactive),
    ("q1-v0", 4, Priority::Interactive),
    ("q3-v0", 3, Priority::Interactive),
    ("q3-v0", 4, Priority::Interactive),
    ("q1-v0", 3, Priority::Interactive),
    ("q1-v0", 4, Priority::Interactive),
    ("q3-v0", 3, Priority::Interactive),
    ("q3-v0", 4, Priority::Interactive),
    ("q2-v0", 4, Priority::Batch),
    ("q2-v0", 5, Priority::Batch),
    ("q3-v0", 6, Priority::Batch),
    ("q3-v0", 8, Priority::Batch),
];

pub fn serve_mix(seed: u64, seconds: u64) -> Sequence {
    let mut rng = Rng::new(seed);
    let mut items = Vec::new();
    for _ in 0..rounds(seconds, 10.0, MIX_BLOCK.len()) {
        let mut block = MIX_BLOCK;
        rng.shuffle(&mut block);
        for (wl, points, priority) in block {
            let objs = if priority == Priority::Interactive {
                LC
            } else {
                LCN
            };
            let work = plain(
                wl,
                false,
                objs,
                None,
                points,
                rng.weights(objs.len()),
                priority,
            );
            items.push(Item {
                work,
                entry: 0,
                fixture: 0,
                write: None,
            });
        }
    }
    Sequence {
        items,
        writes: Vec::new(),
        fixtures: Vec::new(),
    }
}

/// Client-side timings the per-layer metrics need besides the reports.
#[derive(Default)]
pub struct ClientStats {
    /// Milliseconds per model write.
    pub ingest_ms: Vec<f64>,
    /// Answers that arrived for a request already answered.
    pub duplicate_answers: usize,
    pub timed_wall_s: f64,
    pub cpu_s: f64,
}

/// Spans for one answered request, reconstructed from its report: the
/// queue wait follows submission, then models, MOO and snap follow each
/// other inside the solve.
fn report_spans(t: &Tracer, req: u64, wait_span: u64, wait_start_us: f64, rec: &Recommendation) {
    let r = &rec.report;
    let stage = |path: &str| {
        r.stages
            .iter()
            .find(|s| s.path == path)
            .map_or(0.0, |s| s.seconds)
    };
    let mut at = wait_start_us;
    let mut push = |name: &'static str, seconds: f64| {
        let id = t.reserve();
        let end = at + seconds * 1e6;
        t.push(Span {
            id,
            parent: wait_span,
            name,
            req,
            start_us: at,
            end_us: end,
            busy_us: end - at,
            calls: 1,
        });
        at = end;
    };
    push("serve.queue", r.queue_wait_seconds);
    push("optimizer.models", stage("recommend/models"));
    push("optimizer.moo", stage("recommend/moo"));
    push("optimizer.snap", stage("recommend/snap"));
}

/// How long the closed-loop client polls for its answer before it blocks.
const SPIN: std::time::Duration = std::time::Duration::from_micros(200);

/// Poll the handle for up to [`SPIN`], then block: an answer that comes
/// back within microseconds (a frontier-cache hit) is seen at once instead
/// of after a thread wake-up, whose cost on a virtual machine varies more
/// from run to run than the answer itself.
fn spin_then_wait(handle: udao::ResponseHandle) -> udao_core::Result<Recommendation> {
    let started = Instant::now();
    while started.elapsed() < SPIN {
        if let Some(answer) = handle.try_wait() {
            return answer;
        }
        std::hint::spin_loop();
    }
    handle.wait()
}

/// One client, one request at a time: submit, wait, next. Model writes
/// run on the client thread right before the request they precede.
pub fn closed_loop(sys: &mut System, seq: &Sequence, stats: &mut ClientStats) -> Vec<Done> {
    let tracer = sys.tracer.clone();
    let mut done = Vec::with_capacity(seq.items.len());
    let cpu0 = crate::sys::cpu_seconds();
    let wall0 = Instant::now();
    for (i, item) in seq.items.iter().enumerate() {
        let mut expect_version = None;
        if let Some(w) = item.write {
            let write = &seq.writes[w];
            let started = Instant::now();
            sys.server().ingest(&write.key, &write.data);
            let ended = Instant::now();
            stats
                .ingest_ms
                .push(ended.duration_since(started).as_secs_f64() * 1e3);
            if let Some(t) = &tracer {
                let id = t.reserve();
                t.span(id, 0, "model.ingest", i as u64, started, ended);
            }
            let current = sys.server().current_version(&write.key);
            let pinned = sys.remember(&write.key).and_then(|v| {
                if v == current {
                    Ok(v)
                } else {
                    Err(format!(
                        "leased version {v} after a write, server reports {current}"
                    ))
                }
            });
            match pinned {
                Ok(v) => expect_version = Some((write.key.objective.clone(), v)),
                Err(e) => {
                    done.push(Done::failed(e));
                    continue;
                }
            }
        }
        let req = i as u64;
        let ids = tracer.as_ref().map(|t| {
            let ids = (t.reserve(), t.reserve(), t.reserve());
            t.set_current(req, ids.0);
            (ids, t.infer_snapshot())
        });
        let t0 = Instant::now();
        let handle = sys.submit(&item.work);
        let t1 = Instant::now();
        let result = match handle {
            Ok(h) => spin_then_wait(h).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let t2 = Instant::now();
        if let (Some(t), Some(((rid, sid, wid), before))) = (&tracer, ids) {
            t.span(rid, 0, "client.request", req, t0, t2);
            t.span(sid, rid, "serve.submit", req, t0, t1);
            t.span(wid, rid, "serve.wait", req, t1, t2);
            t.close_infer(req, wid, &before);
            if let Ok(rec) = &result {
                report_spans(t, req, wid, t.span_us(t1), rec);
            }
            t.set_current(NO_REQUEST, 0);
        }
        done.push(Done {
            latency_s: t2.duration_since(t0).as_secs_f64(),
            submit_s: t1.duration_since(t0).as_secs_f64(),
            result,
            expect_version,
        });
    }
    stats.timed_wall_s = wall0.elapsed().as_secs_f64();
    stats.cpu_s = crate::sys::cpu_seconds() - cpu0;
    done
}

/// serve_mix's client: keeps `window` requests in flight, submitting the
/// next one as soon as any answer arrives. A short-lived waiter thread per
/// request blocks on its handle and reports back over a channel, so the
/// client never polls.
pub fn windowed(sys: &System, seq: &Sequence, window: usize, stats: &mut ClientStats) -> Vec<Done> {
    let tracer = sys.tracer.clone();
    let n = seq.items.len();
    let mut slots: Vec<Option<Done>> = (0..n).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Result<Recommendation, String>)>();
    let cpu0 = crate::sys::cpu_seconds();
    let wall0 = Instant::now();
    std::thread::scope(|scope| {
        let mut next = 0usize;
        let mut in_flight = 0usize;
        let mut answered = 0usize;
        while answered < n {
            while in_flight < window && next < n {
                let i = next;
                next += 1;
                let t0 = Instant::now();
                let handle = sys.submit(&seq.items[i].work);
                let t1 = Instant::now();
                let tx = tx.clone();
                in_flight += 1;
                scope.spawn(move || {
                    let result = match handle {
                        Ok(h) => h.wait().map_err(|e| e.to_string()),
                        Err(e) => Err(e.to_string()),
                    };
                    let _ = tx.send((i, t0, t1, result));
                });
            }
            let Ok((i, t0, t1, result)) = rx.recv() else {
                break;
            };
            let t2 = Instant::now();
            in_flight -= 1;
            answered += 1;
            if slots[i].is_some() {
                stats.duplicate_answers += 1;
            }
            if let Some(t) = &tracer {
                let (rid, sid, wid) = (t.reserve(), t.reserve(), t.reserve());
                t.span(rid, 0, "client.request", i as u64, t0, t2);
                t.span(sid, rid, "serve.submit", i as u64, t0, t1);
                t.span(wid, rid, "serve.wait", i as u64, t1, t2);
                if let Ok(rec) = &result {
                    report_spans(t, i as u64, wid, t.span_us(t1), rec);
                }
            }
            slots[i] = Some(Done {
                latency_s: t2.duration_since(t0).as_secs_f64(),
                submit_s: t1.duration_since(t0).as_secs_f64(),
                result,
                expect_version: None,
            });
        }
    });
    stats.timed_wall_s = wall0.elapsed().as_secs_f64();
    stats.cpu_s = crate::sys::cpu_seconds() - cpu0;
    slots
        .into_iter()
        .map(|d| d.unwrap_or_else(|| Done::failed("never answered".into())))
        .collect()
}
