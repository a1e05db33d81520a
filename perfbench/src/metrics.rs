//! End-to-end metrics (untraced runs) and per-layer metrics (traced runs)
//! from the client's timings and the `SolveReport` of every answer.

use crate::calc::{mean, percentile, sorted};
use crate::setup::System;
use crate::trace::{Family, InferSnapshot};
use crate::workloads::{ClientStats, Done, Item};
use udao::{Priority, SolveReport};
use udao_telemetry::{names, MetricsSnapshot};

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a finished run hands to the metric calculators.
pub struct Run<'a> {
    pub items: &'a [Item],
    pub done: &'a [Done],
    pub stats: &'a ClientStats,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub hv: &'a [f64],
    /// Process-wide telemetry over the timed phase.
    pub global: MetricsSnapshot,
    /// Inference timers over the timed phase (traced runs).
    pub infer: InferSnapshot,
    /// `(leases, nanoseconds)` over the timed phase (traced runs).
    pub leases: (u64, u64),
}

impl Run<'_> {
    fn answered(&self) -> impl Iterator<Item = (&Item, &Done, &SolveReport)> {
        self.items
            .iter()
            .zip(self.done)
            .filter_map(|(i, d)| d.result.as_ref().ok().map(|r| (i, d, &r.report)))
    }

    fn count(&self) -> f64 {
        self.answered().count().max(1) as f64
    }

    /// Mean over answered requests of `f`.
    fn per_req(&self, f: impl Fn(&SolveReport) -> f64) -> f64 {
        self.answered().map(|(_, _, r)| f(r)).sum::<f64>() / self.count()
    }

    /// Latencies (ms) of the answered requests `keep` selects, ascending.
    fn latencies_ms(&self, keep: impl Fn(&Item, &SolveReport) -> bool) -> Vec<f64> {
        sorted(
            &self
                .answered()
                .filter(|(i, _, r)| keep(i, r))
                .map(|(_, d, _)| d.latency_s * 1e3)
                .collect::<Vec<_>>(),
        )
    }
}

fn stage_s(r: &SolveReport, path: &str) -> f64 {
    r.stages
        .iter()
        .find(|s| s.path == path)
        .map_or(0.0, |s| s.seconds)
}

fn hist_sum(r: &SolveReport, name: &str) -> f64 {
    r.metrics.histogram(name).map_or(0.0, |h| h.sum)
}

fn or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let n = run.count();
    let lat = run.latencies_ms(|_, _| true);
    vec![
        ("setup_s", run.setup_s, "s"),
        ("throughput_rps", n / run.stats.timed_wall_s, "req/s"),
        ("latency_p50_ms", percentile(&lat, 0.5), "ms"),
        ("latency_p90_ms", percentile(&lat, 0.9), "ms"),
        ("cpu_ms_per_request", run.stats.cpu_s * 1e3 / n, "ms"),
        ("peak_rss_mb", run.peak_rss_mb, "MB"),
        ("frontier_hv_ratio", mean(run.hv), "ratio"),
    ]
}

pub fn per_layer(run: &Run, sys: &System) -> Vec<Metric> {
    let n = run.count();
    let queue: Vec<f64> = sorted(
        &run.answered()
            .map(|(_, _, r)| r.queue_wait_seconds * 1e3)
            .collect::<Vec<_>>(),
    );
    let handoff: Vec<f64> = sorted(
        &run.answered()
            .map(|(_, d, r)| (d.latency_s - r.queue_wait_seconds - r.total_seconds) * 1e6)
            .collect::<Vec<_>>(),
    );
    let coalesced = run.global.histogram(names::SERVE_COALESCED_BATCH_SIZE);
    let hits: Vec<&SolveReport> = run
        .answered()
        .filter(|(_, _, r)| r.cache_served == 1)
        .map(|(_, _, r)| r)
        .collect();
    let warm: Vec<&SolveReport> = run
        .answered()
        .filter(|(_, _, r)| r.cache_warm_starts == 1)
        .map(|(_, _, r)| r)
        .collect();
    let moo_s: f64 = run
        .answered()
        .map(|(_, _, r)| stage_s(r, "recommend/moo"))
        .sum();
    let cell_s: f64 = run
        .answered()
        .map(|(_, _, r)| hist_sum(r, names::PF_CELL_SOLVE_SECONDS))
        .sum();
    let memo_hits: f64 = run
        .answered()
        .map(|(_, _, r)| r.model_cache_hits as f64)
        .sum();
    let memo_misses: f64 = run
        .answered()
        .map(|(_, _, r)| r.model_cache_misses as f64)
        .sum();
    let inf = &run.infer;
    let infer_ms = |f: Family| inf.nanos[f as usize] as f64 / 1e6 / n;
    let infer_calls: u64 = inf.calls.iter().sum();
    let infer_points: u64 = inf.points.iter().sum();
    let infer_ns: u64 = inf.nanos.iter().sum();
    let (leases, lease_ns) = run.leases;
    let ingest = &run.stats.ingest_ms;
    vec![
        ("serve.queue_wait_p50_ms", percentile(&queue, 0.5), "ms"),
        ("serve.queue_wait_p90_ms", percentile(&queue, 0.9), "ms"),
        (
            "serve.reorders",
            run.per_req(|r| r.reorders as f64),
            "count/req",
        ),
        (
            "serve.submit_us",
            mean(
                &run.done
                    .iter()
                    .map(|d| d.submit_s * 1e6)
                    .collect::<Vec<_>>(),
            ),
            "us",
        ),
        ("serve.handoff_us", percentile(&handoff, 0.5), "us"),
        (
            "serve.coalesced_batch_mean",
            coalesced.map_or(0.0, |h| h.sum / h.count.max(1) as f64),
            "points",
        ),
        (
            "optimizer.models_ms",
            run.per_req(|r| stage_s(r, "recommend/models") * 1e3),
            "ms",
        ),
        (
            "optimizer.moo_ms",
            run.per_req(|r| stage_s(r, "recommend/moo") * 1e3),
            "ms",
        ),
        (
            "optimizer.snap_ms",
            run.per_req(|r| stage_s(r, "recommend/snap") * 1e3),
            "ms",
        ),
        (
            "optimizer.unattributed_ms",
            run.per_req(|r| {
                (r.total_seconds
                    - stage_s(r, "recommend/models")
                    - stage_s(r, "recommend/moo")
                    - stage_s(r, "recommend/snap"))
                    * 1e3
            }),
            "ms",
        ),
        (
            "optimizer.fallback_transitions",
            run.per_req(|r| r.fallback_transitions as f64),
            "count/req",
        ),
        (
            "model.lease_us",
            lease_ns as f64 / 1e3 / leases.max(1) as f64,
            "us",
        ),
        ("model.leases", leases as f64 / n, "count/req"),
        (
            "model.ingest_ms",
            if ingest.is_empty() { 0.0 } else { mean(ingest) },
            "ms",
        ),
        ("model.writes", ingest.len() as f64, "count"),
        ("model.train_ms", sys.train_ms, "ms"),
        (
            "cache.served",
            run.per_req(|r| r.cache_served as f64),
            "count/req",
        ),
        (
            "cache.warm_starts",
            run.per_req(|r| r.cache_warm_starts as f64),
            "count/req",
        ),
        (
            "cache.misses",
            run.per_req(|r| r.cache_misses as f64),
            "count/req",
        ),
        (
            "cache.inserts",
            run.global.counter(names::CACHE_INSERTS) as f64 / n,
            "count/req",
        ),
        (
            "cache.evictions",
            run.global.counter(names::CACHE_EVICTIONS) as f64 / n,
            "count/req",
        ),
        (
            "cache.hit_moo_us",
            or_zero(mean(
                &hits
                    .iter()
                    .map(|r| stage_s(r, "recommend/moo") * 1e6)
                    .collect::<Vec<_>>(),
            )),
            "us",
        ),
        (
            "cache.resume_probes",
            or_zero(mean(
                &warm.iter().map(|r| r.pf_probes as f64).collect::<Vec<_>>(),
            )),
            "count",
        ),
        (
            "pf.probes",
            run.per_req(|r| r.pf_probes as f64),
            "count/req",
        ),
        (
            "pf.skipped_probes",
            run.per_req(|r| r.metrics.counter(names::PF_SKIPPED_PROBES) as f64),
            "count/req",
        ),
        (
            "pf.cell_solve_ms",
            run.per_req(|r| hist_sum(r, names::PF_CELL_SOLVE_SECONDS) * 1e3),
            "ms",
        ),
        ("pf.busy_ratio", or_zero(cell_s / moo_s), "ratio"),
        (
            "mogd.iterations",
            run.per_req(|r| r.mogd_iterations as f64),
            "count/req",
        ),
        (
            "mogd.solves",
            run.per_req(|r| r.metrics.counter(names::MOGD_SOLVES) as f64),
            "count/req",
        ),
        (
            "mogd.restarts",
            run.per_req(|r| r.mogd_restarts as f64),
            "count/req",
        ),
        (
            "mogd.solve_ms",
            run.per_req(|r| hist_sum(r, names::MOGD_SOLVE_SECONDS) * 1e3),
            "ms",
        ),
        (
            "mogd.memo_hit_ratio",
            or_zero(memo_hits / (memo_hits + memo_misses)),
            "ratio",
        ),
        ("infer.gp_ms", infer_ms(Family::Gp), "ms"),
        ("infer.dnn_ms", infer_ms(Family::Dnn), "ms"),
        ("infer.analytic_ms", infer_ms(Family::Analytic), "ms"),
        ("infer.calls", infer_calls as f64 / n, "count/req"),
        (
            "infer.points_per_call",
            or_zero(infer_points as f64 / infer_calls as f64),
            "points",
        ),
        (
            "infer.share",
            or_zero(infer_ns as f64 / 1e9 / moo_s),
            "ratio",
        ),
        (
            "stage.descent_rounds",
            run.per_req(|r| r.stage_descent_rounds as f64),
            "count/req",
        ),
        (
            "stage.block_solves",
            run.per_req(|r| r.stage_attribution.iter().map(|a| a.solves as f64).sum()),
            "count/req",
        ),
        (
            "stage.solve_ms",
            run.per_req(|r| hist_sum(r, names::STAGE_SOLVE_SECONDS) * 1e3),
            "ms",
        ),
        (
            "class.hit_p50_ms",
            or_zero(percentile(
                &run.latencies_ms(|_, r| r.cache_served == 1),
                0.5,
            )),
            "ms",
        ),
        (
            "class.warm_p50_ms",
            or_zero(percentile(
                &run.latencies_ms(|_, r| r.cache_warm_starts == 1),
                0.5,
            )),
            "ms",
        ),
        (
            "class.interactive_p90_ms",
            or_zero(percentile(
                &run.latencies_ms(|i, _| i.work.priority() == Priority::Interactive),
                0.9,
            )),
            "ms",
        ),
    ]
}
