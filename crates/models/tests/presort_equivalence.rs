//! Proof-of-equivalence suite for the presorted CART builder: over
//! arbitrary data — including heavy value ties, per-sample weights, and
//! random feature subsampling — `DecisionTree::fit` must produce a tree
//! that is *structurally identical* (same nodes, same float thresholds
//! bit-for-bit via `PartialEq`) to the per-node re-sorting reference
//! `fit_naive`.
//!
//! Ties are the hard part: the presorted builder visits equal feature
//! values in the stable order of the initial sort, the naive builder in
//! the stable order of its per-node sort, and only because both sorts are
//! stable and the partition preserves relative order do the candidate
//! scans see the same sequence — and hence accumulate the same floats.
//!
//! Pool training goes two steps further, and both are pinned here too:
//! one `Presorted` index serves every tree trained on the same rows
//! (boosting rounds and grid points, across worker threads), and each
//! AdaBoost T=5 grid member is cut from its T=20 sibling instead of
//! being fitted.

use falcc_dataset::{Dataset, Schema};
use falcc_models::grid::paper_grid;
use falcc_models::{
    parallel_map, AdaBoost, AdaBoostParams, Classifier, DecisionTree, ModelPool, PoolConfig, Presorted,
    SplitCriterion, TrainerKind, TreeParams,
};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// A dataset whose feature values are drawn from a small discrete grid so
/// duplicate values (split-scan ties) are common, with 3 features.
fn tied_dataset() -> impl Strategy<Value = Dataset> {
    (10usize..70)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(-4i8..=4, n * 3),
                prop::collection::vec(0u8..=1, n),
            )
        })
        .prop_map(|(grid, labels)| {
            let flat: Vec<f64> = grid.into_iter().map(|v| f64::from(v) * 0.5).collect();
            let schema = Schema::new(
                vec!["a".into(), "b".into(), "c".into()],
                vec![],
                "y",
            )
            .expect("schema");
            Dataset::from_flat(schema, flat, labels).expect("dataset")
        })
}

fn weights_for(n: usize) -> impl Strategy<Value = Option<Vec<f64>>> {
    (0u8..=1, prop::collection::vec(0.1f64..3.0, n))
        .prop_map(|(some, w)| (some == 1).then_some(w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn presorted_tree_equals_naive_tree(
        ds in tied_dataset(),
        depth in 1usize..8,
        min_leaf in 1usize..4,
        seed in 0u64..1_000,
        entropy in 0u8..=1,
    ) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = TreeParams {
            max_depth: depth,
            min_samples_leaf: min_leaf,
            criterion: if entropy == 1 { SplitCriterion::Entropy } else { SplitCriterion::Gini },
            max_features: None,
        };
        let fast = DecisionTree::fit(&ds, &[0, 1, 2], &idx, None, &params, seed);
        let naive = DecisionTree::fit_naive(&ds, &[0, 1, 2], &idx, None, &params, seed);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn presorted_tree_equals_naive_tree_weighted(
        (ds, weights) in tied_dataset().prop_flat_map(|ds| {
            let n = ds.len();
            (Just(ds), weights_for(n))
        }),
        seed in 0u64..1_000,
    ) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = TreeParams { max_depth: 6, ..TreeParams::default() };
        let fast =
            DecisionTree::fit(&ds, &[0, 1, 2], &idx, weights.as_deref(), &params, seed);
        let naive =
            DecisionTree::fit_naive(&ds, &[0, 1, 2], &idx, weights.as_deref(), &params, seed);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn presorted_tree_equals_naive_tree_with_feature_subsampling(
        ds in tied_dataset(),
        max_features in 1usize..4,
        seed in 0u64..1_000,
    ) {
        // Both builders must consume their per-node RNG identically, or
        // the candidate sets diverge on the first split.
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = TreeParams {
            max_depth: 7,
            max_features: Some(max_features),
            ..TreeParams::default()
        };
        let fast = DecisionTree::fit(&ds, &[0, 1, 2], &idx, None, &params, seed);
        let naive = DecisionTree::fit_naive(&ds, &[0, 1, 2], &idx, None, &params, seed);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn presorted_tree_equals_naive_tree_on_subset(
        ds in tied_dataset(),
        seed in 0u64..1_000,
    ) {
        // Training on a strided subset exercises non-contiguous index
        // slots in the presorted order.
        let idx: Vec<usize> = (0..ds.len()).step_by(2).collect();
        let params = TreeParams { max_depth: 5, ..TreeParams::default() };
        let fast = DecisionTree::fit(&ds, &[0, 2], &idx, None, &params, seed);
        let naive = DecisionTree::fit_naive(&ds, &[0, 2], &idx, None, &params, seed);
        prop_assert_eq!(fast, naive);
    }
}

/// Training sets for the grid property, by `kind`:
///
/// * 0 — tie-heavy features, random labels: boosting runs long, or stops
///   at an `err ≥ 0.5` round after the first;
/// * 1 — labels are a threshold on feature `a`: round 0 is a perfect
///   learner, so every ensemble stops after one stage;
/// * 2 — constant features, alternating labels: round 0's tree is a
///   single leaf with error exactly 0.5, so every ensemble stops there.
fn grid_dataset(kind: u8, grid: Vec<i8>, labels: Vec<u8>) -> Dataset {
    let flat: Vec<f64> = match kind {
        2 => vec![0.0; grid.len()],
        _ => grid.into_iter().map(|v| f64::from(v) * 0.5).collect(),
    };
    let labels: Vec<u8> = match kind {
        1 => flat.chunks(3).map(|row| u8::from(row[0] > 0.0)).collect(),
        2 => (0..labels.len()).map(|i| (i % 2) as u8).collect(),
        _ => labels,
    };
    let schema = Schema::new(vec!["a".into(), "b".into(), "c".into()], vec![], "y")
        .expect("schema");
    Dataset::from_flat(schema, flat, labels).expect("dataset")
}

fn spec_json(model: &dyn Classifier) -> String {
    serde_json::to_string(&model.to_spec().expect("built-in model")).expect("serialize")
}

/// Asserts that pool training with the whole grid kept (`pool_size: 0`)
/// returns, at every thread count, exactly the models that fitting each
/// grid point on its own with its slot-derived seed returns.
fn assert_grid_matches_per_point(ds: &Dataset, trainer: TrainerKind, seed: u64) {
    let attrs = [0, 1, 2];
    let idx: Vec<usize> = (0..ds.len()).collect();
    let reference: Vec<(String, String)> = paper_grid(trainer)
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let model = point.fit(ds, &attrs, &idx, seed ^ (i as u64) << 8);
            (model.name().to_string(), spec_json(model.as_ref()))
        })
        .collect();
    for threads in THREADS {
        let cfg = PoolConfig { trainer, pool_size: 0, seed, threads, ..PoolConfig::default() };
        let pool = ModelPool::train_diverse(ds, ds, &cfg);
        let got: Vec<(String, String)> = pool
            .models
            .iter()
            .map(|m| (m.model.name().to_string(), spec_json(m.model.as_ref())))
            .collect();
        assert_eq!(got, reference, "{trainer:?} grid differs at {threads} threads");
    }
}

#[test]
fn grid_fit_covers_both_early_stops() {
    // Kind 1 stops on a perfect round-0 learner, kind 2 on err = 0.5 in
    // round 0; both must still cut T=5 from T=20 exactly.
    let grid: Vec<i8> = (0..40 * 3).map(|v| (v % 9) as i8 - 4).collect();
    for kind in [1, 2] {
        let ds = grid_dataset(kind, grid.clone(), vec![0; 40]);
        let idx: Vec<usize> = (0..ds.len()).collect();
        for point in paper_grid(TrainerKind::AdaBoost) {
            let tree = TreeParams {
                max_depth: point.max_depth,
                criterion: point.criterion,
                ..TreeParams::default()
            };
            let params = AdaBoostParams { n_estimators: point.n_estimators, tree };
            let model = AdaBoost::fit(&ds, &[0, 1, 2], &idx, None, &params, 0);
            assert_eq!(model.n_stages(), 1, "kind {kind} must stop in round 0");
        }
        assert_grid_matches_per_point(&ds, TrainerKind::AdaBoost, 3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_presort_serves_every_weight_vector(
        (ds, weights) in tied_dataset().prop_flat_map(|ds| {
            let n = ds.len();
            (Just(ds), prop::collection::vec(weights_for(n), 1..5))
        }),
        depth in 1usize..8,
        min_leaf in 1usize..4,
        entropy in 0u8..=1,
        seed in 0u64..1_000,
    ) {
        // As in boosting: one index, a sequence of weight vectors, and
        // here also the index shared across worker threads.
        let idx: Vec<usize> = (0..ds.len()).collect();
        let params = TreeParams {
            max_depth: depth,
            min_samples_leaf: min_leaf,
            criterion: if entropy == 1 { SplitCriterion::Entropy } else { SplitCriterion::Gini },
            max_features: None,
        };
        let pre = Presorted::new(&ds, &[0, 1, 2], &idx);
        let naive: Vec<DecisionTree> = weights
            .iter()
            .map(|w| DecisionTree::fit_naive(&ds, &[0, 1, 2], &idx, w.as_deref(), &params, seed))
            .collect();
        for threads in THREADS {
            let shared = parallel_map(&weights, threads, |_, w| {
                DecisionTree::fit_presorted(&pre, w.as_deref(), &params, seed)
            });
            prop_assert_eq!(&shared, &naive);
        }
    }

    #[test]
    fn shared_index_grid_equals_per_point_fits(
        (kind, grid, labels) in (10usize..60).prop_flat_map(|n| {
            (
                0u8..3,
                prop::collection::vec(-4i8..=4, n * 3),
                prop::collection::vec(0u8..=1, n),
            )
        }),
        forest in 0u8..4,
        seed in 0u64..1_000,
    ) {
        let ds = grid_dataset(kind, grid, labels);
        let trainer = if forest == 0 { TrainerKind::RandomForest } else { TrainerKind::AdaBoost };
        assert_grid_matches_per_point(&ds, trainer, seed);
    }
}
