//! FairBoost — "Improving prediction fairness via model ensemble"
//! (Bhaskaruni, Hu & Lan, ICTAI 2019).
//!
//! An AdaBoost variant that targets **individual** fairness: during
//! boosting, samples that the current ensemble treats *inconsistently with
//! their neighbourhood* (a kNN situation test over all groups, the paper
//! uses k = 30) are up-weighted alongside misclassified ones, steering
//! subsequent weak learners toward individually fair behaviour.
//!
//! Faithfulness note: the original work scores a sample as unfairly treated
//! when its prediction deviates from similarly situated individuals of
//! other groups. We implement exactly that signal — prediction vs. the
//! majority prediction of the sample's kNN in the non-sensitive feature
//! space — and fold it into the multiplicative weight update with strength
//! `mu`.

use falcc::FairClassifier;
use falcc_clustering::KdTree;
use falcc_dataset::dataset::ProjectedMatrix;
use falcc_dataset::Dataset;
use falcc_models::tree::{DecisionTree, Presorted, TreeParams};
use falcc_models::Classifier;

/// FairBoost hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct FairBoostParams {
    /// Boosting rounds.
    pub n_estimators: usize,
    /// Base-tree parameters.
    pub tree: TreeParams,
    /// Neighbourhood size of the situation test (paper setup: 30, so that
    /// `|G| · k_FALCES` neighbours are considered overall).
    pub k: usize,
    /// Strength of the unfairness term in the weight update.
    pub mu: f64,
}

impl Default for FairBoostParams {
    fn default() -> Self {
        Self {
            n_estimators: 20,
            tree: TreeParams { max_depth: 1, ..Default::default() },
            k: 30,
            mu: 0.5,
        }
    }
}

/// A fitted FairBoost ensemble.
pub struct FairBoost {
    stages: Vec<(DecisionTree, f64)>,
    name: String,
}

impl FairBoost {
    /// Fits the ensemble on `train`.
    ///
    /// # Panics
    /// Panics if `train` is empty or `n_estimators == 0` (propagated from
    /// the tree trainer).
    pub fn fit(train: &Dataset, params: &FairBoostParams, seed: u64) -> Self {
        let n = train.len();
        let attrs: Vec<usize> = (0..train.n_attrs()).collect();
        let indices: Vec<usize> = (0..n).collect();
        // Weights do not enter the presort, so one index serves every round.
        let pre = Presorted::new(train, &attrs, &indices);

        // Situation-test neighbourhoods over the non-sensitive projection,
        // computed once.
        let ns_attrs = train.schema().non_sensitive_attrs();
        let projected = train.project(&ns_attrs, None);
        let tree_index = KdTree::build(ProjectedMatrix {
            data: projected.data.clone(),
            n_cols: projected.n_cols,
            n_rows: projected.n_rows,
        });
        let k = params.k.min(n.saturating_sub(1)).max(1);
        let neighbors: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                tree_index
                    .nearest(projected.row(i), k + 1)
                    .into_iter()
                    .filter(|&(j, _)| j != i)
                    .take(k)
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();

        let mut w = vec![1.0 / n as f64; n];
        let mut stages: Vec<(DecisionTree, f64)> =
            Vec::with_capacity(params.n_estimators);

        for round in 0..params.n_estimators {
            let tree =
                DecisionTree::fit_presorted(&pre, Some(&w), &params.tree, seed ^ round as u64);
            let preds: Vec<u8> =
                (0..n).map(|i| tree.predict_row(train.row(i))).collect();
            let err: f64 = (0..n)
                .filter(|&i| preds[i] != train.label(i))
                .map(|i| w[i])
                .sum();
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

            // Situation test: a sample is unfairly treated if its
            // prediction disagrees with the majority prediction of its
            // neighbourhood.
            let unfair: Vec<bool> = (0..n)
                .map(|i| {
                    let nbrs = &neighbors[i];
                    if nbrs.is_empty() {
                        return false;
                    }
                    let pos =
                        nbrs.iter().filter(|&&j| preds[j] == 1).count() as f64;
                    let majority = u8::from(pos / nbrs.len() as f64 >= 0.5);
                    preds[i] != majority
                })
                .collect();

            let mut total = 0.0;
            for i in 0..n {
                let mut factor = if preds[i] != train.label(i) {
                    alpha.exp()
                } else {
                    (-alpha).exp()
                };
                if unfair[i] {
                    factor *= (params.mu * alpha).exp();
                }
                w[i] *= factor;
                total += w[i];
            }
            for wi in w.iter_mut() {
                *wi /= total;
            }
            stages.push((tree, alpha));
        }

        Self { stages, name: "FairBoost".to_string() }
    }

    /// Number of fitted stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }
}

impl FairClassifier for FairBoost {
    fn predict_row(&self, row: &[f64]) -> u8 {
        let mut margin = 0.0;
        for (tree, alpha) in &self.stages {
            let vote = if tree.predict_row(row) == 1 { 1.0 } else { -1.0 };
            margin += alpha * vote;
        }
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
    use falcc_metrics::individual::consistency;
    use falcc_metrics::accuracy;

    fn split(n: usize, seed: u64) -> ThreeWaySplit {
        let mut cfg = SyntheticConfig::social(0.3);
        cfg.n = n;
        let ds = generate(&cfg, seed).unwrap();
        ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).unwrap()
    }

    #[test]
    fn learns_above_chance() {
        let s = split(900, 1);
        let model = FairBoost::fit(&s.train, &FairBoostParams::default(), 0);
        let preds = model.predict_dataset(&s.test);
        let acc = accuracy(s.test.labels(), &preds);
        assert!(acc > 0.6, "accuracy {acc}");
        assert!(model.n_stages() > 1);
    }

    #[test]
    fn predictions_are_individually_consistent() {
        let s = split(900, 2);
        let model = FairBoost::fit(&s.train, &FairBoostParams::default(), 0);
        let preds = model.predict_dataset(&s.test);
        let ns = s.test.schema().non_sensitive_attrs();
        let proj = s.test.project(&ns, None);
        let c = consistency(&proj, &preds, 5);
        assert!(c > 0.6, "consistency {c}");
    }

    #[test]
    fn deterministic_per_seed() {
        let s = split(500, 3);
        let a = FairBoost::fit(&s.train, &FairBoostParams::default(), 7);
        let b = FairBoost::fit(&s.train, &FairBoostParams::default(), 7);
        assert_eq!(a.predict_dataset(&s.test), b.predict_dataset(&s.test));
    }

    #[test]
    fn mu_zero_reduces_to_plain_boosting_weights() {
        // With mu = 0 the unfairness factor is e^0 = 1; training still
        // works and gives a sane model.
        let s = split(500, 4);
        let params = FairBoostParams { mu: 0.0, ..Default::default() };
        let model = FairBoost::fit(&s.train, &params, 0);
        let preds = model.predict_dataset(&s.test);
        assert!(accuracy(s.test.labels(), &preds) > 0.55);
    }
}
