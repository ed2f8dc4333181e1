//! AdaBoost over weighted CART trees.
//!
//! The paper's diverse-model-training component (§3.3) uses AdaBoost with
//! decision-tree base estimators as the default strategy, hyper-tuned over
//! `n_estimators ∈ {5, 20}`, `max_depth ∈ {1, 7}` and the split criterion.
//! This is the classic discrete AdaBoost (SAMME with two classes): each
//! round trains a tree on the current sample weights, computes the weighted
//! error `ε`, the stage weight `α = ½·ln((1−ε)/ε)`, and re-weights samples
//! multiplicatively.

use crate::traits::Classifier;
use crate::tree::{DecisionTree, Presorted, TreeParams};
use falcc_dataset::{AttrId, Dataset};

fn boost_name(n_estimators: usize, tree: &TreeParams) -> String {
    format!("adaboost[T={n_estimators},d={},{}]", tree.max_depth, tree.criterion.short_name())
}

/// AdaBoost hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AdaBoostParams {
    /// Number of boosting rounds (trees).
    pub n_estimators: usize,
    /// Base-estimator tree parameters.
    pub tree: TreeParams,
}

impl Default for AdaBoostParams {
    fn default() -> Self {
        Self { n_estimators: 20, tree: TreeParams { max_depth: 1, ..Default::default() } }
    }
}

/// A trained AdaBoost ensemble.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AdaBoost {
    stages: Vec<(DecisionTree, f64)>,
    name: String,
}

impl AdaBoost {
    /// Fits the ensemble on the rows of `ds` selected by `indices` using
    /// the attributes in `attrs`. `initial_weights`, when given (parallel
    /// to `indices`), seeds the boosting distribution — the hook FairBoost
    /// uses to pre-emphasise unfairly treated samples.
    ///
    /// # Panics
    /// Panics on empty `indices`/`attrs` or mismatched weight length.
    pub fn fit(
        ds: &Dataset,
        attrs: &[AttrId],
        indices: &[usize],
        initial_weights: Option<&[f64]>,
        params: &AdaBoostParams,
        seed: u64,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot boost on zero samples");
        let pre = Presorted::new(ds, attrs, indices);
        Self::fit_presorted(ds, indices, &pre, initial_weights, params, seed)
    }

    /// [`Self::fit`] on a [`Presorted`] index built from the same `ds`,
    /// `indices` and attributes. Boosting changes sample weights, never
    /// the sample order, so every round — and every ensemble trained on
    /// the same rows — shares the one index.
    ///
    /// # Panics
    /// Panics on empty `indices`, zero rounds, or mismatched weight length.
    pub(crate) fn fit_presorted(
        ds: &Dataset,
        indices: &[usize],
        pre: &Presorted,
        initial_weights: Option<&[f64]>,
        params: &AdaBoostParams,
        seed: u64,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot boost on zero samples");
        assert!(params.n_estimators > 0, "need at least one boosting round");
        let n = indices.len();
        let mut w: Vec<f64> = match initial_weights {
            Some(init) => {
                assert_eq!(init.len(), n, "one initial weight per sample");
                let total: f64 = init.iter().sum();
                assert!(total > 0.0, "initial weights must have positive mass");
                init.iter().map(|v| v / total).collect()
            }
            None => vec![1.0 / n as f64; n],
        };

        let mut stages = Vec::with_capacity(params.n_estimators);
        for round in 0..params.n_estimators {
            let tree =
                DecisionTree::fit_presorted(pre, Some(&w), &params.tree, seed ^ round as u64);
            let preds: Vec<u8> =
                indices.iter().map(|&i| tree.predict_row(ds.row(i))).collect();
            let err: f64 = indices
                .iter()
                .zip(&preds)
                .zip(&w)
                .filter(|((&i, &p), _)| p != ds.label(i))
                .map(|(_, &wi)| wi)
                .sum();

            if err <= 1e-12 {
                // Perfect weak learner: give it a large but finite weight
                // and stop — further rounds cannot change anything.
                stages.push((tree, 10.0));
                break;
            }
            if err >= 0.5 {
                // Weak learner no better than chance on this distribution;
                // scikit-learn stops here unless it is the first round.
                if stages.is_empty() {
                    stages.push((tree, 1e-10));
                }
                break;
            }
            let alpha = 0.5 * ((1.0 - err) / err).ln();
            // Re-weight: misclassified up by e^α, correct down by e^−α.
            let mut total = 0.0;
            for (k, &i) in indices.iter().enumerate() {
                let factor =
                    if preds[k] != ds.label(i) { alpha.exp() } else { (-alpha).exp() };
                w[k] *= factor;
                total += w[k];
            }
            for wk in w.iter_mut() {
                *wk /= total;
            }
            stages.push((tree, alpha));
        }

        Self { stages, name: boost_name(params.n_estimators, &params.tree) }
    }

    /// The ensemble `params.n_estimators` rounds would have produced,
    /// cut from this one: its first `min(n_estimators, n_stages)` stages,
    /// named for `n_estimators`.
    ///
    /// Exact when this ensemble was fitted with at least `n_estimators`
    /// rounds of the same `params.tree` on the same rows and initial
    /// weights, and `params.tree.max_features` is `None`:
    ///
    /// * round `r`'s weights depend only on rounds `0..r`, and both early
    ///   stops (perfect learner, `err ≥ 0.5`) end the ensemble at the same
    ///   round whatever the round budget, so the shorter fit is a prefix;
    /// * the per-round seed only feeds the feature-subsample RNG, which a
    ///   tree without `max_features` never draws from.
    ///
    /// # Panics
    /// Panics if `params.tree.max_features` is set.
    pub(crate) fn truncated(&self, params: &AdaBoostParams) -> Self {
        assert!(
            params.tree.max_features.is_none(),
            "feature-subsampled rounds depend on the seed; refit instead"
        );
        let keep = params.n_estimators.min(self.stages.len());
        Self {
            stages: self.stages[..keep].to_vec(),
            name: boost_name(params.n_estimators, &params.tree),
        }
    }

    /// Number of fitted stages (≤ `n_estimators` due to early stopping).
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// The `(tree, alpha)` stages in boosting order, for compilation into
    /// flat form (see [`crate::flat`]).
    pub(crate) fn stages(&self) -> &[(DecisionTree, f64)] {
        &self.stages
    }
}

impl Classifier for AdaBoost {
    fn to_spec(&self) -> Option<crate::persist::ModelSpec> {
        Some(crate::persist::ModelSpec::Boost(self.clone()))
    }

    fn predict_proba_row(&self, row: &[f64]) -> f64 {
        // Weighted vote in {−1, +1} margin space, squashed to [0, 1].
        let mut margin = 0.0;
        let mut total_alpha = 0.0;
        for (tree, alpha) in &self.stages {
            let vote = if tree.predict_row(row) == 1 { 1.0 } else { -1.0 };
            margin += alpha * vote;
            total_alpha += alpha;
        }
        if total_alpha <= 0.0 {
            return 0.5;
        }
        // Normalised margin in [−1, 1] → probability in [0, 1].
        0.5 * (margin / total_alpha + 1.0)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SplitCriterion;
    use falcc_dataset::Schema;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// A dataset a single stump cannot solve but boosting stumps can:
    /// label = 1 iff x ∈ [−1, 1] (needs two thresholds).
    fn interval_dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::new(vec!["x".into()], vec![], "y").unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.gen_range(-3.0..3.0)]).collect();
        let labels: Vec<u8> =
            rows.iter().map(|r| u8::from(r[0].abs() <= 1.0)).collect();
        Dataset::from_rows(schema, rows, labels).unwrap()
    }

    fn accuracy_on(model: &dyn Classifier, ds: &Dataset) -> f64 {
        let correct = (0..ds.len())
            .filter(|&i| model.predict_row(ds.row(i)) == ds.label(i))
            .count();
        correct as f64 / ds.len() as f64
    }

    #[test]
    fn boosting_stumps_beats_a_single_stump() {
        let ds = interval_dataset(600, 1);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let stump_params = TreeParams { max_depth: 1, ..Default::default() };
        let stump = DecisionTree::fit(&ds, &[0], &idx, None, &stump_params, 0);
        let boost_params = AdaBoostParams {
            n_estimators: 25,
            tree: TreeParams { max_depth: 1, ..Default::default() },
        };
        let boosted = AdaBoost::fit(&ds, &[0], &idx, None, &boost_params, 0);
        let acc_stump = accuracy_on(&stump, &ds);
        let acc_boost = accuracy_on(&boosted, &ds);
        assert!(
            acc_boost > acc_stump + 0.1,
            "boosted {acc_boost} vs stump {acc_stump}"
        );
        assert!(acc_boost > 0.9, "boosted accuracy {acc_boost}");
    }

    #[test]
    fn early_stops_on_perfect_learner() {
        // Trivially separable data: the first tree is perfect.
        let schema = Schema::new(vec!["x".into()], vec![], "y").unwrap();
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let labels: Vec<u8> = (0..20).map(|i| u8::from(i >= 10)).collect();
        let ds = Dataset::from_rows(schema, rows, labels).unwrap();
        let params = AdaBoostParams {
            n_estimators: 50,
            tree: TreeParams { max_depth: 3, ..Default::default() },
        };
        let model = AdaBoost::fit(&ds, &[0], &(0..20).collect::<Vec<_>>(), None, &params, 0);
        assert_eq!(model.n_stages(), 1);
        assert!((accuracy_on(&model, &ds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn initial_weights_bias_the_ensemble() {
        // Two clusters with contradictory labels; upweighting one cluster
        // should make its label win everywhere a stump can't separate.
        let schema = Schema::new(vec!["x".into()], vec![], "y").unwrap();
        let rows: Vec<Vec<f64>> = (0..10).map(|_| vec![0.0]).collect();
        let labels: Vec<u8> = (0..10).map(|i| u8::from(i < 5)).collect();
        let ds = Dataset::from_rows(schema, rows, labels).unwrap();
        let idx: Vec<usize> = (0..10).collect();
        let params = AdaBoostParams::default();
        // Heavy weight on the positive half.
        let mut w = vec![1.0; 10];
        for wi in w.iter_mut().take(5) {
            *wi = 50.0;
        }
        let model = AdaBoost::fit(&ds, &[0], &idx, Some(&w), &params, 0);
        assert_eq!(model.predict_row(&[0.0]), 1);
        // And the mirror image.
        let mut w2 = vec![1.0; 10];
        for wi in w2.iter_mut().skip(5) {
            *wi = 50.0;
        }
        let model2 = AdaBoost::fit(&ds, &[0], &idx, Some(&w2), &params, 0);
        assert_eq!(model2.predict_row(&[0.0]), 0);
    }

    #[test]
    fn proba_is_bounded_and_monotone_with_margin() {
        let ds = interval_dataset(300, 2);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = AdaBoostParams {
            n_estimators: 15,
            tree: TreeParams { max_depth: 1, criterion: SplitCriterion::Entropy, ..Default::default() },
        };
        let model = AdaBoost::fit(&ds, &[0], &idx, None, &params, 3);
        for i in 0..ds.len() {
            let p = model.predict_proba_row(ds.row(i));
            assert!((0.0..=1.0).contains(&p), "proba {p}");
        }
        // The centre of the interval should look more positive than the
        // far tails.
        assert!(model.predict_proba_row(&[0.0]) > model.predict_proba_row(&[2.9]));
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = interval_dataset(200, 4);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = AdaBoostParams::default();
        let a = AdaBoost::fit(&ds, &[0], &idx, None, &params, 11);
        let b = AdaBoost::fit(&ds, &[0], &idx, None, &params, 11);
        for i in 0..ds.len() {
            assert_eq!(a.predict_row(ds.row(i)), b.predict_row(ds.row(i)));
        }
    }

    #[test]
    fn truncation_equals_the_shorter_fit() {
        let ds = interval_dataset(300, 6);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let long = AdaBoostParams { n_estimators: 12, ..Default::default() };
        let short = AdaBoostParams { n_estimators: 4, ..Default::default() };
        // Different seeds on purpose: without feature subsampling the seed
        // feeds nothing.
        let cut = AdaBoost::fit(&ds, &[0], &idx, None, &long, 1).truncated(&short);
        let fitted = AdaBoost::fit(&ds, &[0], &idx, None, &short, 2);
        assert_eq!(cut.name(), "adaboost[T=4,d=1,gini]");
        assert_eq!(cut.name(), fitted.name());
        assert_eq!(cut.stages, fitted.stages);
    }

    #[test]
    #[should_panic(expected = "refit instead")]
    fn truncating_a_subsampled_ensemble_panics() {
        let ds = interval_dataset(50, 7);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut params = AdaBoostParams::default();
        params.tree.max_features = Some(1);
        AdaBoost::fit(&ds, &[0], &idx, None, &params, 0).truncated(&params);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_input_panics() {
        let ds = interval_dataset(10, 5);
        AdaBoost::fit(&ds, &[0], &[], None, &AdaBoostParams::default(), 0);
    }
}
