//! Set-up shared by the workloads: the optimizer, its trained models, the
//! serving engines, and the benchmark's own copy of every served model
//! version (what the output checks recompute against).

use crate::trace::{Family, TimedProvider, Tracer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use udao::{ModelFamily, ModelProvider, ResponseHandle, ServingEngine, ServingOptions, Udao};
use udao_core::pf::{PfOptions, PfVariant};
use udao_core::ObjectiveModel;
use udao_model::{ModelKey, ModelServer};
use udao_sparksim::objectives::{BatchObjective, StreamObjective};
use udao_sparksim::{batch_workloads, streaming_workloads, ClusterSpec, Workload};

/// Traces collected per trained workload.
pub const TRAIN_TRACES: usize = 40;

/// The trained workloads: `(id, family, streaming)`.
pub const TRAINED: [(&str, ModelFamily, bool); 5] = [
    ("q1-v0", ModelFamily::Gp, false),
    ("q3-v0", ModelFamily::Gp, false),
    ("q2-v0", ModelFamily::Dnn, false),
    ("s1-v0", ModelFamily::Gp, true),
    ("s2-v0", ModelFamily::Dnn, true),
];

pub const BATCH_LEARNED: [BatchObjective; 2] =
    [BatchObjective::Latency, BatchObjective::NetworkLoad];
pub const STREAM_LEARNED: [StreamObjective; 2] =
    [StreamObjective::Latency, StreamObjective::Throughput];

/// How the optimizer under test is configured.
pub struct Options {
    /// Frontier-cache capacity (`None` = cache off).
    pub cache: Option<usize>,
    /// Serving workers per engine.
    pub workers: usize,
    /// PF-AP threads per solve (`None` = the optimizer's default).
    pub pf_threads: Option<usize>,
    /// Whether to train models (stage workloads carry analytic models).
    pub train: bool,
    /// Whether to start a streaming engine next to the batch one.
    pub stream_engine: bool,
}

pub struct System {
    pub udao: Arc<Udao>,
    pub batch: ServingEngine<BatchObjective>,
    pub stream: Option<ServingEngine<StreamObjective>>,
    pub tracer: Option<Arc<Tracer>>,
    /// Wall-clock milliseconds spent in `train_batch`/`train_streaming`,
    /// trace collection included.
    pub train_ms: f64,
    /// Every served model version the benchmark has seen, by
    /// `(workload, objective, version)`.
    pub models: HashMap<(String, String, u64), Arc<dyn ObjectiveModel>>,
}

pub fn workload(id: &str) -> Workload {
    batch_workloads()
        .into_iter()
        .chain(streaming_workloads())
        .find(|w| w.id == id)
        .unwrap_or_else(|| panic!("unknown workload {id}"))
}

fn model_keys() -> Vec<(ModelKey, Family)> {
    let mut keys = Vec::new();
    for (id, family, streaming) in TRAINED {
        let fam = match family {
            ModelFamily::Gp => Family::Gp,
            ModelFamily::Dnn => Family::Dnn,
        };
        let names: Vec<&str> = if streaming {
            STREAM_LEARNED.iter().map(|o| o.name()).collect()
        } else {
            BATCH_LEARNED.iter().map(|o| o.name()).collect()
        };
        for name in names {
            keys.push((ModelKey::new(id, name), fam));
        }
    }
    keys
}

impl System {
    pub fn start(opts: &Options, traced: bool) -> Result<System, String> {
        let mut builder = Udao::builder(ClusterSpec::paper_cluster())
            .serving(ServingOptions::default().with_workers(opts.workers));
        if let Some(capacity) = opts.cache {
            builder = builder.frontier_cache(capacity);
        }
        if let Some(threads) = opts.pf_threads {
            let mut pf = PfOptions {
                threads,
                ..PfOptions::default()
            };
            pf.mogd.alpha = 1.0;
            builder = builder.pf(PfVariant::ApproxParallel, pf);
        }
        let tracer = traced.then(Tracer::new);
        if let Some(tracer) = &tracer {
            let families = model_keys().into_iter().collect();
            let provider =
                TimedProvider::new(builder.shared_model_server(), Arc::clone(tracer), families);
            builder = builder.model_provider(Arc::new(provider) as Arc<dyn ModelProvider>);
        }
        let udao = Arc::new(builder.build().map_err(|e| format!("build: {e}"))?);
        let mut train_ms = 0.0;
        if opts.train {
            for (id, family, streaming) in TRAINED {
                let w = workload(id);
                let started = Instant::now();
                if streaming {
                    udao.train_streaming(&w, TRAIN_TRACES, family, &STREAM_LEARNED);
                } else {
                    udao.train_batch(&w, TRAIN_TRACES, family, &BATCH_LEARNED);
                }
                let ended = Instant::now();
                train_ms += ended.duration_since(started).as_secs_f64() * 1e3;
                if let Some(t) = &tracer {
                    let id = t.reserve();
                    t.span(
                        id,
                        0,
                        "model.train",
                        crate::trace::NO_REQUEST,
                        started,
                        ended,
                    );
                }
            }
        }
        let batch = ServingEngine::start(Arc::clone(&udao));
        let stream = opts
            .stream_engine
            .then(|| ServingEngine::start(Arc::clone(&udao)));
        let mut sys = System {
            udao,
            batch,
            stream,
            tracer,
            train_ms,
            models: HashMap::new(),
        };
        if opts.train {
            for (key, _) in model_keys() {
                sys.remember(&key)?;
            }
        }
        Ok(sys)
    }

    pub fn server(&self) -> Arc<ModelServer> {
        self.udao.shared_model_server()
    }

    /// Keep the current version of `key` for the output checks; returns it.
    pub fn remember(&mut self, key: &ModelKey) -> Result<u64, String> {
        let lease = self
            .server()
            .lease(key)
            .ok_or_else(|| format!("no model for {}/{}", key.workload, key.objective))?;
        self.models.insert(
            (key.workload.clone(), key.objective.clone(), lease.version),
            lease.model,
        );
        Ok(lease.version)
    }

    pub fn submit(&self, work: &crate::workloads::Work) -> udao_core::Result<ResponseHandle> {
        use crate::workloads::Work;
        match work {
            Work::Batch(r) => self.batch.submit(r.clone()),
            Work::Stream(r) => match &self.stream {
                Some(engine) => engine.submit(r.clone()),
                None => Err(udao_core::Error::InvalidConfig(
                    "no streaming engine".into(),
                )),
            },
            Work::Stage(r) => self.batch.submit_stages(r.clone()),
        }
    }

    /// Drain and join every serving worker.
    pub fn shutdown(&mut self) {
        self.batch.shutdown();
        if let Some(s) = &mut self.stream {
            s.shutdown();
        }
    }
}
