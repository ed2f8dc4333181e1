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
//! The entropy scan skips the `ln` calls of a cut whose Topsøe bound
//! cannot beat the node's best gain. That is exact only if ties still go
//! to the first cut in scan order and gains a hair apart still pick the
//! same cut; both are pinned here on weighted data built for them.
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

/// A palindromic training set: rows `i` and `n−1−i` share a label and a
/// weight. Feature `a` is the row number, `b` copies `a`, and `c` is `a`
/// mirrored, so `c` scans the rows from the other end.
fn mirrored_dataset(half_labels: &[u8], half_weights: &[f64]) -> (Dataset, Vec<f64>) {
    let n = 2 * half_labels.len();
    let half = |i: usize| i.min(n - 1 - i);
    let flat: Vec<f64> = (0..n)
        .flat_map(|i| [i as f64, i as f64, (n - 1 - i) as f64])
        .collect();
    let labels: Vec<u8> = (0..n).map(|i| half_labels[half(i)]).collect();
    let weights: Vec<f64> = (0..n).map(|i| half_weights[half(i)]).collect();
    let schema = Schema::new(vec!["a".into(), "b".into(), "c".into()], vec![], "y")
        .expect("schema");
    (Dataset::from_flat(schema, flat, labels).expect("dataset"), weights)
}

/// The root split of `tree` as (attribute, threshold), or `None` for a
/// single leaf. The root is the last node of the slab.
fn root_split(tree: &DecisionTree) -> Option<(u64, f64)> {
    use serde_json::Value;
    let json = serde_json::to_string(tree).expect("serialize");
    let json = serde_json::parse_value(&json).expect("parse");
    let Some(Value::Array(nodes)) = json.get("nodes") else { panic!("no node slab") };
    let split = nodes.last().expect("root").get("Split")?;
    match (split.get("attr"), split.get("threshold")) {
        (Some(&Value::I64(attr)), Some(&Value::F64(threshold))) => Some((attr as u64, threshold)),
        (Some(&Value::U64(attr)), Some(&Value::F64(threshold))) => Some((attr, threshold)),
        other => panic!("unexpected split fields {other:?}"),
    }
}

/// Entropy gain of every cut of a sorted label/weight sequence, summed
/// in scan order as the builders sum it.
fn entropy_gains(labels: &[u8], weights: &[f64]) -> Vec<f64> {
    let h = |p: f64| {
        if p <= 0.0 || p >= 1.0 {
            0.0
        } else {
            -(p * p.ln() + (1.0 - p) * (1.0 - p).ln())
        }
    };
    let total_w: f64 = weights.iter().sum();
    let pos_w: f64 = labels.iter().zip(weights).filter(|(&y, _)| y == 1).map(|(_, w)| w).sum();
    let parent = h(pos_w / total_w);
    let (mut left_w, mut left_pos) = (0.0, 0.0);
    (1..labels.len())
        .map(|cut| {
            left_w += weights[cut - 1];
            left_pos += if labels[cut - 1] == 1 { weights[cut - 1] } else { 0.0 };
            let right_w = total_w - left_w;
            let right_pos = pos_w - left_pos;
            parent - (left_w * h(left_pos / left_w) + right_w * h(right_pos / right_w)) / total_w
        })
        .collect()
}

/// Fits `params` on `ds` with `weights` through one shared index at every
/// thread count and asserts each tree equals `fit_naive`'s.
fn assert_shared_fits_equal_naive(ds: &Dataset, weights: &[f64], params: &TreeParams) {
    let idx: Vec<usize> = (0..ds.len()).collect();
    let naive = DecisionTree::fit_naive(ds, &[0, 1, 2], &idx, Some(weights), params, 0);
    let pre = Presorted::new(ds, &[0, 1, 2], &idx);
    for threads in THREADS {
        let fits = parallel_map(&[0u64, 1, 2, 3], threads, |_, &seed| {
            DecisionTree::fit_presorted(&pre, Some(weights), params, seed)
        });
        for fast in fits {
            assert_eq!(fast, naive, "threads = {threads}");
        }
    }
}

fn entropy_params(depth: usize, min_leaf: usize) -> TreeParams {
    TreeParams {
        max_depth: depth,
        min_samples_leaf: min_leaf,
        criterion: SplitCriterion::Entropy,
        max_features: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exactly_tied_entropy_gains_go_to_the_first_cut(
        (half_labels, weight_exps) in (3usize..20).prop_flat_map(|h| {
            (prop::collection::vec(0u8..=1, h), prop::collection::vec(-2i32..=2, h))
        }),
        depth in 1usize..8,
        min_leaf in 1usize..3,
    ) {
        // Dyadic weights sum without rounding, so each cut of `a` ties
        // its mirror image, and `b` and `c` tie `a` cut for cut — exactly.
        // The strict `>` keeps the first: attribute `a`, left half.
        let half_weights: Vec<f64> = weight_exps.iter().map(|&e| 2f64.powi(e)).collect();
        let (ds, weights) = mirrored_dataset(&half_labels, &half_weights);
        let params = entropy_params(depth, min_leaf);
        assert_shared_fits_equal_naive(&ds, &weights, &params);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let tree = DecisionTree::fit(&ds, &[0, 1, 2], &idx, Some(&weights), &params, 0);
        if let Some((attr, threshold)) = root_split(&tree) {
            prop_assert_eq!(attr, 0);
            prop_assert!(threshold < half_labels.len() as f64);
        }
    }
}

#[test]
fn entropy_gains_a_hair_apart_pick_the_same_cut() {
    // Labels 0^z 1^2k 0^z: the best cuts isolate one zero block or the
    // other, and nudging the last row's weight by a few ulps sets their
    // gains less than 1e-13 apart. `c` sees the same cuts summed from
    // the other end.
    let mut distinct = 0;
    for z in 2..7 {
        for k in [1, 3, 4] {
            for nudge in [1u64, 3, 16, 64] {
                let mut half_labels = vec![0u8; z];
                half_labels.extend(vec![1u8; k]);
                let ones = vec![1.0; half_labels.len()];
                let (ds, mut weights) = mirrored_dataset(&half_labels, &ones);
                let n = ds.len();
                weights[n - 1] = f64::from_bits(weights[n - 1].to_bits() + nudge);
                let labels: Vec<u8> = (0..n).map(|i| ds.label(i)).collect();
                let mut gains = entropy_gains(&labels, &weights);
                gains.sort_by(|a, b| b.total_cmp(a));
                let gap = gains[0] - gains[1];
                assert!(gap < 1e-13, "z={z} k={k}: best gains {gap:e} apart");
                distinct += usize::from(gap > 0.0);
                for depth in [1, 2, 7] {
                    assert_shared_fits_equal_naive(&ds, &weights, &entropy_params(depth, 1));
                }
            }
        }
    }
    assert!(distinct > 0, "no case set the best gains apart");
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
