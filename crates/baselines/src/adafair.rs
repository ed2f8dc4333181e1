//! AdaFair — cumulative fairness adaptive boosting (Iosifidis & Ntoutsi,
//! CIKM 2019), "\[39\]" in the paper's related-work table: AdaBoost whose
//! weight update incorporates a *fairness cost* computed from the
//! **cumulative** ensemble built so far, targeting equalized odds.
//!
//! Per round: the partial ensemble's per-group TPR/FPR gaps are measured;
//! samples belonging to the disadvantaged side of a significant gap (e.g.
//! protected-group positives when the protected TPR trails) receive a
//! fairness cost `u_i`, and the AdaBoost multiplicative update is scaled
//! by `(1 + u_i)` — steering later weak learners toward the failure mode
//! of the current ensemble.

use falcc::FairClassifier;
use falcc_dataset::Dataset;
use falcc_models::tree::{DecisionTree, Presorted, TreeParams};
use falcc_models::Classifier;
use falcc_metrics::ConfusionCounts;

/// AdaFair hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AdaFairParams {
    /// Boosting rounds.
    pub n_estimators: usize,
    /// Base-tree parameters.
    pub tree: TreeParams,
    /// Gap (in TPR/FPR) below which no fairness cost is applied — the
    /// paper's ε.
    pub epsilon: f64,
}

impl Default for AdaFairParams {
    fn default() -> Self {
        Self {
            n_estimators: 20,
            tree: TreeParams { max_depth: 1, ..Default::default() },
            epsilon: 0.02,
        }
    }
}

/// A fitted AdaFair ensemble.
pub struct AdaFair {
    stages: Vec<(DecisionTree, f64)>,
    name: String,
}

impl AdaFair {
    /// Fits the ensemble on `train`.
    ///
    /// # Panics
    /// Panics if `train` is empty (propagated from the tree trainer).
    pub fn fit(train: &Dataset, params: &AdaFairParams, seed: u64) -> Self {
        let n = train.len();
        let attrs: Vec<usize> = (0..train.n_attrs()).collect();
        let indices: Vec<usize> = (0..n).collect();
        // Weights do not enter the presort, so one index serves every round.
        let pre = Presorted::new(train, &attrs, &indices);
        let n_groups = train.group_index().len();

        let mut w = vec![1.0 / n as f64; n];
        let mut stages: Vec<(DecisionTree, f64)> = Vec::new();
        // Cumulative margin of the partial ensemble per sample.
        let mut margins = vec![0.0f64; n];

        for round in 0..params.n_estimators {
            let tree =
                DecisionTree::fit_presorted(&pre, Some(&w), &params.tree, seed ^ round as u64);
            let preds: Vec<u8> = (0..n).map(|i| tree.predict_row(train.row(i))).collect();
            let err: f64 =
                (0..n).filter(|&i| preds[i] != train.label(i)).map(|i| w[i]).sum();
            if err <= 1e-12 {
                stages.push((tree, 10.0));
                break;
            }
            if err >= 0.5 {
                if stages.is_empty() {
                    stages.push((tree, 1e-10));
                }
                break;
            }
            let alpha = 0.5 * ((1.0 - err) / err).ln();
            for i in 0..n {
                margins[i] += alpha * if preds[i] == 1 { 1.0 } else { -1.0 };
            }

            // Cumulative-ensemble predictions and the fairness costs they
            // imply.
            let cumulative: Vec<u8> = margins.iter().map(|&m| u8::from(m >= 0.0)).collect();
            let per_group = ConfusionCounts::per_group(
                train.labels(),
                &cumulative,
                train.groups(),
                n_groups,
            );
            let overall = ConfusionCounts::from_slices(train.labels(), &cumulative);
            let u = fairness_costs(train, &per_group, &overall, &cumulative, params.epsilon);

            let mut total = 0.0;
            for i in 0..n {
                let base = if preds[i] != train.label(i) {
                    alpha.exp()
                } else {
                    (-alpha).exp()
                };
                w[i] *= base * (1.0 + u[i]);
                total += w[i];
            }
            for wi in w.iter_mut() {
                *wi /= total;
            }
            stages.push((tree, alpha));
        }

        Self { stages, name: "AdaFair".to_string() }
    }

    /// Number of fitted stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }
}

/// AdaFair's per-sample fairness cost: positive for samples whose group
/// sits on the disadvantaged side of a TPR or FPR gap larger than ε and
/// whom the cumulative ensemble currently misclassifies.
fn fairness_costs(
    train: &Dataset,
    per_group: &[ConfusionCounts],
    overall: &ConfusionCounts,
    cumulative: &[u8],
    epsilon: f64,
) -> Vec<f64> {
    let n = train.len();
    let tpr_overall = overall.tpr().unwrap_or(0.5);
    let fpr_overall = overall.fpr().unwrap_or(0.5);
    let mut u = vec![0.0f64; n];
    for i in 0..n {
        let g = train.group(i).index();
        let y = train.label(i);
        let z = cumulative[i];
        if y == 1 && z == 0 {
            // A missed positive: costly when this group's TPR trails.
            let gap = tpr_overall - per_group[g].tpr().unwrap_or(tpr_overall);
            if gap > epsilon {
                u[i] = gap;
            }
        } else if y == 0 && z == 1 {
            // A false positive: costly when this group's FPR leads.
            let gap = per_group[g].fpr().unwrap_or(fpr_overall) - fpr_overall;
            if gap > epsilon {
                u[i] = gap;
            }
        }
    }
    u
}

impl FairClassifier for AdaFair {
    fn predict_row(&self, row: &[f64]) -> u8 {
        let margin: f64 = self
            .stages
            .iter()
            .map(|(tree, alpha)| {
                alpha * if tree.predict_row(row) == 1 { 1.0 } else { -1.0 }
            })
            .sum();
        u8::from(margin >= 0.0)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcc_dataset::synthetic::{generate, SyntheticConfig};
    use falcc_dataset::{SplitRatios, ThreeWaySplit};
    use falcc_metrics::{accuracy, FairnessMetric};

    fn split(n: usize, seed: u64) -> ThreeWaySplit {
        let mut cfg = SyntheticConfig::social(0.4);
        cfg.n = n;
        let ds = generate(&cfg, seed).unwrap();
        ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).unwrap()
    }

    #[test]
    fn learns_above_chance() {
        let s = split(2000, 1);
        let model = AdaFair::fit(&s.train, &AdaFairParams::default(), 0);
        let preds = model.predict_dataset(&s.test);
        assert!(accuracy(s.test.labels(), &preds) > 0.6);
        assert!(model.n_stages() > 1);
    }

    #[test]
    fn fairness_costs_reduce_equalized_odds_gap() {
        let s = split(3000, 2);
        let fair = AdaFair::fit(&s.train, &AdaFairParams::default(), 0);
        // ε = 1 disables every fairness cost → plain AdaBoost weights.
        let plain = AdaFair::fit(
            &s.train,
            &AdaFairParams { epsilon: 1.0, ..Default::default() },
            0,
        );
        let eq_od = |m: &AdaFair| {
            let preds = m.predict_dataset(&s.test);
            FairnessMetric::EqualizedOdds.bias(
                s.test.labels(),
                &preds,
                s.test.groups(),
                2,
            )
        };
        let b_fair = eq_od(&fair);
        let b_plain = eq_od(&plain);
        assert!(
            b_fair <= b_plain + 0.02,
            "fairness costs should not worsen eq. odds: {b_fair} vs {b_plain}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let s = split(800, 3);
        let a = AdaFair::fit(&s.train, &AdaFairParams::default(), 4);
        let b = AdaFair::fit(&s.train, &AdaFairParams::default(), 4);
        assert_eq!(a.predict_dataset(&s.test), b.predict_dataset(&s.test));
    }
}
