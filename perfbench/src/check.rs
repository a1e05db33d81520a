//! Output checks. Every answer is recomputed through the models'
//! own scalar `predict`/`predict_std` and judged with the calculators of
//! [`crate::calc`]; nothing here calls the solver.

use crate::calc::{
    closed_front, composed, dominates, front_residual, hv_ratio, pareto_front,
    weighted_utopia_nearest, ClosedStage, Rng,
};
use crate::setup::System;
use crate::workloads::{Done, Item, Sequence, Work};
use std::collections::HashMap;
use std::sync::Arc;
use udao::{FallbackStage, Objective, Recommendation};
use udao_core::space::ParamSpace;
use udao_core::ObjectiveModel;
use udao_sparksim::{BatchConf, StreamConf};

/// Uncertainty factor the optimizer runs with (`E + α·std`).
const ALPHA: f64 = 1.0;
/// Configurations sampled per workload for the reference fronts.
const REFERENCE_SAMPLES: usize = 1500;
/// Floor of a request's hypervolume ratio against its reference front
/// (sampled, or the true front on stage requests).
const HV_FLOOR: f64 = 0.7;
/// Front-residual slack for per-stage answers (rounding only).
const RESIDUAL_SLACK: f64 = 1e-9;

pub struct Checker {
    pub failures: Vec<String>,
    /// Hypervolume ratio per answered request.
    pub hv: Vec<f64>,
    rng: Rng,
    samples: HashMap<String, Vec<Vec<f64>>>,
    values: HashMap<(String, String, u64), Vec<f64>>,
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_frontier(a: &Recommendation, b: &Recommendation) -> bool {
    a.frontier.len() == b.frontier.len()
        && a.frontier
            .iter()
            .zip(&b.frontier)
            .all(|(p, q)| same_bits(&p.x, &q.x) && same_bits(&p.f, &q.f))
}

/// An objective's name, pinned version (0 = analytic) and model.
type Pinned = (String, u64, Arc<dyn ObjectiveModel>);

/// The models a plain request's answer was computed with: analytic ones
/// as the request defines them, learned ones at the version it pinned.
fn models_of<O: Objective>(
    wl: &str,
    objectives: &[O],
    pinned: &[(String, u64)],
    sys: &System,
) -> Result<Vec<Pinned>, String> {
    objectives
        .iter()
        .map(|o| {
            if let Some(m) = o.analytic_model() {
                return Ok((o.name().to_string(), 0, m));
            }
            let version = pinned
                .iter()
                .find(|(n, _)| n == o.name())
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("{wl}: no pinned version for {}", o.name()))?;
            sys.models
                .get(&(wl.to_string(), o.name().to_string(), version))
                .map(|m| (o.name().to_string(), version, Arc::clone(m)))
                .ok_or_else(|| {
                    format!(
                        "{wl}: version {version} of {} was never published",
                        o.name()
                    )
                })
        })
        .collect()
}

impl Checker {
    pub fn new(seed: u64) -> Self {
        Checker {
            failures: Vec::new(),
            hv: Vec::new(),
            rng: Rng::new(seed ^ 0xC4EC_C4EC),
            samples: HashMap::new(),
            values: HashMap::new(),
        }
    }

    fn fail(&mut self, i: usize, what: String) {
        self.failures.push(format!("request {i}: {what}"));
    }

    /// Every check that applies to request `i`.
    pub fn check(&mut self, i: usize, item: &Item, done: &Done, seq: &Sequence, sys: &System) {
        let rec = match &done.result {
            Ok(rec) => rec,
            Err(_) => return, // counted as failed, not as wrong
        };
        if rec.degraded || rec.stage != FallbackStage::Primary {
            self.fail(i, format!("degraded answer (stage {})", rec.stage));
        }
        if rec.frontier.is_empty() {
            return self.fail(i, "empty frontier".into());
        }
        for (a, p) in rec.frontier.iter().enumerate() {
            for q in &rec.frontier[a + 1..] {
                if dominates(&p.f, &q.f) || dominates(&q.f, &p.f) {
                    return self.fail(i, "frontier point dominates another".into());
                }
            }
        }
        match &item.work {
            Work::Batch(r) => match models_of(
                &r.workload_id,
                &r.objectives,
                &rec.report.model_versions,
                sys,
            ) {
                Ok(models) => self.check_plain(i, item, rec, &models, &BatchConf::space()),
                Err(e) => self.fail(i, e),
            },
            Work::Stream(r) => match models_of(
                &r.workload_id,
                &r.objectives,
                &rec.report.model_versions,
                sys,
            ) {
                Ok(models) => self.check_plain(i, item, rec, &models, &StreamConf::space()),
                Err(e) => self.fail(i, e),
            },
            Work::Stage(r) => self.check_stage(i, item, rec, seq, r.space.flat()),
        }
        if let Some((objective, version)) = &done.expect_version {
            if !rec
                .report
                .model_versions
                .iter()
                .any(|(n, v)| n == objective && v == version)
            {
                self.fail(
                    i,
                    format!("did not pin {objective} v{version} after the write"),
                );
            }
            if rec.report.cache_served != 0 {
                self.fail(i, "served from the cache right after a model write".into());
            }
        }
    }

    /// Snap fixed point, predictions, bounds and (unconstrained) selection.
    fn check_answer(
        &mut self,
        i: usize,
        item: &Item,
        rec: &Recommendation,
        means: &[f64],
        space: &ParamSpace,
    ) {
        match space.snap(&rec.x) {
            Ok(s) if same_bits(&s, &rec.x) => {}
            _ => self.fail(i, "recommended x is not a fixed point of snap".into()),
        }
        if !same_bits(means, &rec.predicted) {
            self.fail(
                i,
                format!("predicted {:?} != model means {:?}", rec.predicted, means),
            );
        }
        let constraints = item.work.constraints();
        for (j, c) in constraints.iter().enumerate() {
            if let Some((lo, hi)) = c {
                let v = rec.predicted[j];
                if !(v >= *lo && v <= *hi) {
                    self.fail(
                        i,
                        format!("objective {j} = {v} outside its bound [{lo}, {hi}]"),
                    );
                }
            }
        }
        if constraints.iter().all(Option::is_none) {
            let k = rec.utopia.len();
            let w = item.work.weights().cloned().unwrap_or_else(|| vec![1.0; k]);
            let fs: Vec<Vec<f64>> = rec.frontier.iter().map(|p| p.f.clone()).collect();
            let picks = weighted_utopia_nearest(&fs, &rec.utopia, &rec.nadir, &w);
            let agrees = picks.iter().any(|&p| {
                space
                    .snap(&rec.frontier[p].x)
                    .map(|s| same_bits(&s, &rec.x))
                    .unwrap_or(false)
            });
            if !agrees {
                self.fail(
                    i,
                    "recommendation is not the weighted utopia-nearest frontier point".into(),
                );
            }
        }
    }

    fn check_plain(
        &mut self,
        i: usize,
        item: &Item,
        rec: &Recommendation,
        models: &[Pinned],
        space: &ParamSpace,
    ) {
        for p in &rec.frontier {
            let f: Vec<f64> = models
                .iter()
                .map(|(_, _, m)| m.predict(&p.x) + ALPHA * m.predict_std(&p.x))
                .collect();
            if !same_bits(&f, &p.f) {
                return self.fail(i, format!("frontier value {:?} != recomputed {:?}", p.f, f));
            }
        }
        let means: Vec<f64> = models.iter().map(|(_, _, m)| m.predict(&rec.x)).collect();
        self.check_answer(i, item, rec, &means, space);

        // Reference front: the workload's sampled configurations, kept
        // where they meet the request's bounds.
        let wl = item.work.workload_id().to_string();
        let dim = space.encoded_dim();
        let rng = &mut self.rng;
        let xs = self.samples.entry(wl.clone()).or_insert_with(|| {
            (0..REFERENCE_SAMPLES)
                .map(|_| (0..dim).map(|_| rng.unit()).collect())
                .collect()
        });
        let mut columns = Vec::with_capacity(models.len());
        for (name, version, m) in models {
            let col = self
                .values
                .entry((wl.clone(), name.clone(), *version))
                .or_insert_with(|| {
                    xs.iter()
                        .map(|x| m.predict(x) + ALPHA * m.predict_std(x))
                        .collect()
                });
            columns.push(col.clone());
        }
        let constraints = item.work.constraints();
        let sampled: Vec<Vec<f64>> = (0..REFERENCE_SAMPLES)
            .map(|s| columns.iter().map(|c| c[s]).collect::<Vec<f64>>())
            .filter(|f| {
                f.iter()
                    .zip(constraints)
                    .all(|(v, c)| c.is_none_or(|(lo, hi)| *v >= lo && *v <= hi))
            })
            .collect();
        if sampled.is_empty() {
            return self.fail(i, "no sampled configuration meets the bounds".into());
        }
        let fs: Vec<Vec<f64>> = rec.frontier.iter().map(|p| p.f.clone()).collect();
        let ratio = hv_ratio(&fs, &pareto_front(&sampled), &rec.nadir);
        self.hv.push(ratio);
        if ratio.is_nan() || ratio < HV_FLOOR {
            self.fail(i, format!("hypervolume ratio {ratio:.3} below {HV_FLOOR}"));
        }
    }

    fn check_stage(
        &mut self,
        i: usize,
        item: &Item,
        rec: &Recommendation,
        seq: &Sequence,
        space: &ParamSpace,
    ) {
        let fixture = &seq.fixtures[item.fixture];
        let fx = &fixture.fx;
        let stages: Vec<ClosedStage> = fx
            .surfaces
            .iter()
            .enumerate()
            .map(|(s, surf)| ClosedStage {
                work: surf.work,
                knob_opt: surf.knob_opt,
                deps: fx.dag.deps(s).to_vec(),
            })
            .collect();
        let (lat, cost) = fx.composed();
        let eval = |x: &[f64]| {
            vec![
                lat.predict(x) + ALPHA * lat.predict_std(x),
                cost.predict(x) + ALPHA * cost.predict_std(x),
            ]
        };
        for p in &rec.frontier {
            let f = eval(&p.x);
            if !same_bits(&f, &p.f) {
                return self.fail(
                    i,
                    format!("stage frontier value {:?} != recomputed {:?}", p.f, f),
                );
            }
            let (l, c) = composed(&stages, &p.x);
            if (l - f[0]).abs() > 1e-9 * l || (c - f[1]).abs() > 1e-9 * c {
                return self.fail(i, format!("stage value {f:?} != closed form ({l}, {c})"));
            }
            let r = front_residual(&stages, f[0], f[1]);
            if r < 1.0 - RESIDUAL_SLACK {
                return self.fail(
                    i,
                    format!("stage point {f:?} lies below the true front (residual {r})"),
                );
            }
        }
        let means = vec![lat.predict(&rec.x), cost.predict(&rec.x)];
        self.check_answer(i, item, rec, &means, space);
        let fs: Vec<Vec<f64>> = rec.frontier.iter().map(|p| p.f.clone()).collect();
        let ratio = hv_ratio(&fs, &closed_front(&stages, 257), &rec.nadir);
        self.hv.push(ratio);
        if ratio.is_nan() || ratio < HV_FLOOR {
            self.fail(
                i,
                format!("stage hypervolume ratio {ratio:.3} below {HV_FLOOR}"),
            );
        }
    }

    /// repeat_swap: every exact hit returns, bitwise, the frontier of the
    /// solve that last filled its entry.
    pub fn check_hits(&mut self, seq: &Sequence, done: &[Done]) {
        let mut filled: HashMap<(u64, Vec<(String, u64)>), usize> = HashMap::new();
        for (i, (item, d)) in seq.items.iter().zip(done).enumerate() {
            let Ok(rec) = &d.result else { continue };
            let key = (item.entry, rec.report.model_versions.clone());
            if rec.report.cache_served == 1 {
                let filler = filled.get(&key).and_then(|&f| done[f].result.as_ref().ok());
                match filler {
                    Some(src) if same_frontier(src, rec) => {}
                    Some(_) => self.fail(
                        i,
                        "cache hit differs from the frontier that filled its entry".into(),
                    ),
                    None => self.fail(i, "cache hit with no earlier solve of its entry".into()),
                }
            } else if rec.stage == FallbackStage::Primary && !rec.degraded {
                filled.insert(key, i);
            }
        }
    }

    /// serve_mix: a seeded subset, solved again serially outside the
    /// engine, matches bitwise.
    pub fn check_serial(&mut self, seq: &Sequence, done: &[Done], sys: &System, subset: usize) {
        for _ in 0..subset {
            let i = self.rng.below(seq.items.len());
            let (Work::Batch(r), Ok(rec)) = (&seq.items[i].work, &done[i].result) else {
                continue;
            };
            match sys.udao.recommend(r) {
                Ok(again) if same_frontier(&again, rec) && same_bits(&again.x, &rec.x) => {}
                Ok(_) => self.fail(i, "serial re-solve differs from the engine's answer".into()),
                Err(e) => self.fail(i, format!("serial re-solve failed: {e}")),
            }
        }
    }
}
