//! The benchmark's own calculators: hypervolume, the percentile
//! convention, weighted-utopia-nearest selection, Pareto dominance and the
//! closed-form per-stage front. None of them calls into the solver crates,
//! so a solver fault cannot hide behind a shared helper.

/// Seeded SplitMix64 stream: every input of a run is drawn from it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }

    /// A normalized weight vector of length `k`, every weight at least 0.1.
    pub fn weights(&mut self, k: usize) -> Vec<f64> {
        let raw: Vec<f64> = (0..k).map(|_| self.range(0.1, 1.0)).collect();
        let sum: f64 = raw.iter().sum();
        raw.iter().map(|w| w / sum).collect()
    }
}

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(q·n)` (1-based). `q = 0.9` over 100 values is the 90th value, with
/// ten values beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Ascending copy of `v` (non-finite values sort last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Arithmetic mean (NaN for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// `a` dominates `b` under minimization: no worse anywhere, better somewhere.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// The non-dominated subset of `points` (duplicates kept once).
pub fn pareto_front(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut front: Vec<Vec<f64>> = Vec::new();
    for p in points {
        if front.iter().any(|q| dominates(q, p) || q == p) {
            continue;
        }
        front.retain(|q| !dominates(p, q));
        front.push(p.clone());
    }
    front
}

/// Exact hypervolume dominated by `points` (minimization) inside the box
/// bounded above by `reference`. Points not strictly better than the
/// reference in every coordinate contribute nothing. Exact in any
/// dimension by slicing along the last objective; meant for the few
/// hundred points a reference front holds.
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    let inside: Vec<Vec<f64>> = points
        .iter()
        .filter(|p| p.iter().zip(reference).all(|(v, r)| v < r))
        .cloned()
        .collect();
    hv_rec(&pareto_front(&inside), reference)
}

fn hv_rec(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let k = reference.len();
    if k == 1 {
        return reference[0] - points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
    }
    if k == 2 {
        // Staircase sweep: ascending in f0, each point adds the strip
        // between its f1 and the best f1 seen so far.
        let mut ps: Vec<&Vec<f64>> = points.iter().collect();
        ps.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
        let mut area = 0.0;
        let mut best_f1 = reference[1];
        for p in ps {
            if p[1] < best_f1 {
                area += (reference[0] - p[0]) * (best_f1 - p[1]);
                best_f1 = p[1];
            }
        }
        return area;
    }
    // Slice along the last objective: between consecutive levels z_i and
    // z_{i+1}, the dominated cross-section is the (k-1)-D hypervolume of
    // the points whose last coordinate is at most z_i.
    let mut levels: Vec<f64> = points.iter().map(|p| p[k - 1]).collect();
    levels.sort_by(|a, b| a.total_cmp(b));
    levels.dedup();
    let mut volume = 0.0;
    for (i, z) in levels.iter().enumerate() {
        let next = levels.get(i + 1).copied().unwrap_or(reference[k - 1]);
        let slab: Vec<Vec<f64>> = points
            .iter()
            .filter(|p| p[k - 1] <= *z)
            .map(|p| p[..k - 1].to_vec())
            .collect();
        volume += (next - z) * hv_rec(&pareto_front(&slab), &reference[..k - 1]);
    }
    volume
}

/// The upper corner of the box two fronts are compared in: per objective,
/// the larger of the answer's nadir and its worst frontier value, pushed
/// out by 10 % of the span down to the best value either front reaches.
/// The box follows the front the answer claims to span (its nadir comes
/// from the anchor solves), so far-off reference samples cannot stretch
/// it.
pub fn box_corner(front: &[Vec<f64>], reference_front: &[Vec<f64>], nadir: &[f64]) -> Vec<f64> {
    (0..nadir.len())
        .map(|j| {
            let lo = front
                .iter()
                .chain(reference_front)
                .map(|p| p[j])
                .fold(f64::INFINITY, f64::min);
            let hi = front.iter().map(|p| p[j]).fold(nadir[j], f64::max);
            hi + 0.1 * (hi - lo).max(1e-9 * hi.abs().max(1.0))
        })
        .collect()
}

/// Hypervolume of `front` over that of `reference_front`, both measured in
/// the box whose upper corner [`box_corner`] derives from `nadir`.
pub fn hv_ratio(front: &[Vec<f64>], reference_front: &[Vec<f64>], nadir: &[f64]) -> f64 {
    let r = box_corner(front, reference_front, nadir);
    hypervolume(front, &r) / hypervolume(reference_front, &r)
}

/// Weighted utopia-nearest selection: the indices of the frontier points
/// minimizing `Σ (w_j · clamp((f_j − u_j)/(n_j − u_j), 0, 1))²`, with ties
/// (within 1e-12 relative) all returned.
pub fn weighted_utopia_nearest(
    frontier: &[Vec<f64>],
    utopia: &[f64],
    nadir: &[f64],
    weights: &[f64],
) -> Vec<usize> {
    let score = |f: &[f64]| -> f64 {
        f.iter()
            .enumerate()
            .map(|(j, v)| {
                let width = (nadir[j] - utopia[j]).max(1e-12);
                let n = ((v - utopia[j]) / width).clamp(0.0, 1.0);
                (weights[j] * n) * (weights[j] * n)
            })
            .sum()
    };
    let scores: Vec<f64> = frontier.iter().map(|f| score(f)).collect();
    let best = scores.iter().copied().fold(f64::INFINITY, f64::min);
    let tol = 1e-12 * best.abs().max(1e-300);
    (0..scores.len())
        .filter(|&i| scores[i] - best <= tol)
        .collect()
}

/// One stage of a closed-form fixture: its work, its knob optimum, and
/// the stages it depends on.
#[derive(Debug, Clone)]
pub struct ClosedStage {
    pub work: f64,
    pub knob_opt: f64,
    pub deps: Vec<usize>,
}

/// Stage latency surface `w·(1+(1−u)²)·(1+(v−a)²)`.
pub fn stage_latency(s: &ClosedStage, u: f64, v: f64) -> f64 {
    s.work * (1.0 + (1.0 - u) * (1.0 - u)) * (1.0 + (v - s.knob_opt) * (v - s.knob_opt))
}

/// Stage cost surface `w·(1+u²)·(1+(v−a)²)`.
pub fn stage_cost(s: &ClosedStage, u: f64, v: f64) -> f64 {
    s.work * (1.0 + u * u) * (1.0 + (v - s.knob_opt) * (v - s.knob_opt))
}

/// Longest dependency path of per-stage values (stages listed
/// topologically: every dependency precedes its dependant).
pub fn critical_path(stages: &[ClosedStage], vals: &[f64]) -> f64 {
    let mut finish = vec![0.0f64; stages.len()];
    for (i, s) in stages.iter().enumerate() {
        let start = s.deps.iter().map(|&d| finish[d]).fold(0.0, f64::max);
        finish[i] = start + vals[i];
    }
    finish.iter().copied().fold(0.0, f64::max)
}

/// Composed `(latency, cost)` of the flat configuration `x = [u, v_0, ..]`:
/// latency folds along the critical path, cost sums over stages.
pub fn composed(stages: &[ClosedStage], x: &[f64]) -> (f64, f64) {
    let u = x[0];
    let lat: Vec<f64> = stages
        .iter()
        .enumerate()
        .map(|(i, s)| stage_latency(s, u, x[1 + i]))
        .collect();
    let cost = stages
        .iter()
        .enumerate()
        .map(|(i, s)| stage_cost(s, u, x[1 + i]))
        .sum();
    (critical_path(stages, &lat), cost)
}

/// The true front, sampled at `n` evenly spaced global-knob values with
/// every stage knob at its optimum (where the penalty factor is exactly 1
/// for both objectives, so no other configuration can do better).
pub fn closed_front(stages: &[ClosedStage], n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let u = i as f64 / (n - 1) as f64;
            let mut x = vec![u];
            x.extend(stages.iter().map(|s| s.knob_opt));
            let (l, c) = composed(stages, &x);
            vec![l, c]
        })
        .collect()
}

/// How far a `(latency, cost)` point lies from the true front:
/// `sqrt(max(L/CP−1,0)) + sqrt(max(C/S−1,0))` is at least 1 for every
/// achievable point and exactly 1 on the front, where `CP` and `S` are the
/// critical-path and total work.
pub fn front_residual(stages: &[ClosedStage], latency: f64, cost: f64) -> f64 {
    let works: Vec<f64> = stages.iter().map(|s| s.work).collect();
    let cp = critical_path(stages, &works);
    let total: f64 = works.iter().sum();
    (latency / cp - 1.0).max(0.0).sqrt() + (cost / total - 1.0).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use udao_core::ObjectiveModel;
    use udao_sparksim::StageFixture;

    #[test]
    fn hypervolume_2d_staircases() {
        // One point: a single rectangle (4-1)·(4-2) = 6.
        assert_eq!(hypervolume(&[vec![1.0, 2.0]], &[4.0, 4.0]), 6.0);
        // Staircase (1,3), (2,2), (3,1) under (4,4), by columns:
        // x∈[1,2) height 1, x∈[2,3) height 2, x∈[3,4) height 3 → 6.
        let stairs = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
        assert_eq!(hypervolume(&stairs, &[4.0, 4.0]), 6.0);
        // Order does not matter, dominated and duplicate points add nothing.
        let mut noisy = stairs.clone();
        noisy.reverse();
        noisy.push(vec![2.5, 2.5]);
        noisy.push(vec![2.0, 2.0]);
        assert_eq!(hypervolume(&noisy, &[4.0, 4.0]), 6.0);
        // A point on or beyond the reference adds nothing.
        assert_eq!(hypervolume(&[vec![4.0, 0.0]], &[4.0, 4.0]), 0.0);
        assert_eq!(hypervolume(&[], &[4.0, 4.0]), 0.0);
        // A point that shrinks a step changes the area by exactly its
        // rectangle: (1.5, 2.5) adds 0.5·0.5.
        let mut more = stairs.clone();
        more.push(vec![1.5, 2.5]);
        assert_eq!(hypervolume(&more, &[4.0, 4.0]), 6.25);
    }

    #[test]
    fn hypervolume_3d_matches_inclusion_exclusion() {
        // Two boxes [1,3]^3 (vol 8) and corner (2,0,2) to (3,3,3): volume
        // 1·3·1 = 3, overlap [2,3]×[1,3]×[2,3] = 2 → union 9.
        let pts = vec![vec![1.0, 1.0, 1.0], vec![2.0, 0.0, 2.0]];
        assert!((hypervolume(&pts, &[3.0, 3.0, 3.0]) - 9.0).abs() < 1e-12);
        // 1-objective degenerate case is a segment.
        assert_eq!(hypervolume(&[vec![1.0], vec![2.0]], &[3.0]), 2.0);
    }

    #[test]
    fn a_worse_front_has_a_lower_ratio() {
        let good = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
        let bad = vec![vec![1.5, 3.0], vec![3.0, 1.5]];
        let nadir = [3.0, 3.0];
        assert!((hv_ratio(&good, &good, &nadir) - 1.0).abs() < 1e-12);
        assert!(hv_ratio(&bad, &good, &nadir) < 0.9);
        assert!(hv_ratio(&good, &bad, &nadir) > 1.0);
        // Corner: nadir (3,3), low corner (1,1), 10 % of the span beyond.
        assert_eq!(box_corner(&good, &bad, &nadir), vec![3.2, 3.2]);
        // A reference point far beyond the answer's span does not move
        // the box, and adds nothing inside it.
        let mut far = good.clone();
        far.push(vec![0.9, 50.0]);
        let corner = box_corner(&good, &far, &nadir);
        assert!(
            (corner[0] - 3.21).abs() < 1e-12 && (corner[1] - 3.2).abs() < 1e-12,
            "{corner:?}"
        );
        assert_eq!(hv_ratio(&good, &far, &nadir), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        // Ten values lie beyond p90 of a hundred.
        assert_eq!(v.iter().filter(|x| **x > percentile(&v, 0.9)).count(), 10);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&sorted(&[3.0, 1.0, 2.0]), 1.0), 3.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn weighted_utopia_nearest_follows_the_weights() {
        let f = vec![vec![0.0, 10.0], vec![5.0, 5.0], vec![10.0, 0.0]];
        let (u, n) = ([0.0, 0.0], [10.0, 10.0]);
        // Heavy weight on objective 0 picks the point best in objective 0.
        assert_eq!(weighted_utopia_nearest(&f, &u, &n, &[0.9, 0.1]), vec![0]);
        assert_eq!(weighted_utopia_nearest(&f, &u, &n, &[0.1, 0.9]), vec![2]);
        // Equal weights: the knee (0.25+0.25 = 0.5 < 1) wins.
        assert_eq!(weighted_utopia_nearest(&f, &u, &n, &[0.5, 0.5]), vec![1]);
        // Values outside [utopia, nadir] are clamped before weighting.
        let g = vec![vec![-5.0, 20.0], vec![4.0, 4.0]];
        assert_eq!(weighted_utopia_nearest(&g, &u, &n, &[0.5, 0.5]), vec![1]);
        // Ties are all reported.
        let t = vec![vec![0.0, 10.0], vec![10.0, 0.0]];
        assert_eq!(weighted_utopia_nearest(&t, &u, &n, &[0.5, 0.5]), vec![0, 1]);
    }

    fn closed(fx: &StageFixture) -> Vec<ClosedStage> {
        fx.surfaces
            .iter()
            .enumerate()
            .map(|(i, s)| ClosedStage {
                work: s.work,
                knob_opt: s.knob_opt,
                deps: fx.dag.deps(i).to_vec(),
            })
            .collect()
    }

    #[test]
    fn closed_form_front_matches_the_fixture_surfaces() {
        let diamond = StageFixture::diamond();
        let stages = closed(&diamond);
        // Hand values: critical path 0→1→3 = 1+3+0.5, total work 6.
        let works: Vec<f64> = stages.iter().map(|s| s.work).collect();
        assert_eq!(critical_path(&stages, &works), 4.5);
        let front = closed_front(&stages, 5);
        assert_eq!(front[0], vec![4.5 * 2.0, 6.0]); // u = 0
        assert_eq!(front[4], vec![4.5, 6.0 * 2.0]); // u = 1
        for fx in [
            StageFixture::chain2(),
            StageFixture::diamond(),
            StageFixture::fanin_join(),
        ] {
            let stages = closed(&fx);
            let (lat, cost) = fx.composed();
            for i in 0..=8 {
                let u = i as f64 / 8.0;
                let x = fx.front_config(u);
                let (l, c) = composed(&stages, &x);
                assert!((l - lat.predict(&x)).abs() <= 1e-12 * l, "latency at u={u}");
                assert!((c - cost.predict(&x)).abs() <= 1e-12 * c, "cost at u={u}");
                assert!((front_residual(&stages, l, c) - 1.0).abs() < 1e-9);
                // Moving a stage knob off its optimum leaves the front.
                let mut off = x.clone();
                off[1] = (off[1] + 0.25).min(1.0) - if off[1] > 0.7 { 0.5 } else { 0.0 };
                let (lo, co) = composed(&stages, &off);
                assert!(front_residual(&stages, lo, co) > 1.0 + 1e-6);
            }
        }
    }

    #[test]
    fn pareto_front_keeps_only_non_dominated_points() {
        let pts = vec![
            vec![1.0, 3.0],
            vec![2.0, 2.0],
            vec![2.0, 3.0],
            vec![3.0, 1.0],
            vec![2.0, 2.0],
        ];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 3);
        assert!(!front.contains(&vec![2.0, 3.0]));
        assert!(dominates(&[1.0, 1.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
    }

    #[test]
    fn rng_is_reproducible() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let w = Rng::new(3).weights(3);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
