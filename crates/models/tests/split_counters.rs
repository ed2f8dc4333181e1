//! The split counters under the entropy prune. The presorted builder
//! counts every boundary candidate in `offline.splits_evaluated`, pruned
//! or not, so it reports the same count as `fit_naive`; the candidates
//! whose `ln` calls it skipped go to `offline.splits_pruned`.
//!
//! Counters are process-global, so this is its own test binary with a
//! single test: no other fit can run while it reads them.

use falcc_dataset::{Dataset, Schema};
use falcc_models::{DecisionTree, SplitCriterion, TreeParams};

/// 600 rows, 4 features on a coarse grid (ties), labels a noisy
/// threshold rule, and non-uniform weights as in a late boosting round.
fn weighted_dataset() -> (Dataset, Vec<f64>) {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let n = 600;
    let mut flat = Vec::with_capacity(n * 4);
    let mut labels = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..4).map(|_| (next() * 40.0).floor()).collect();
        let score = row[0] + 0.5 * row[1] - 0.3 * row[2] + 12.0 * next();
        labels.push(u8::from(score > 30.0));
        flat.extend(row);
        weights.push(0.2 + next() * next() * 3.0);
    }
    let schema = Schema::new(vec!["a".into(), "b".into(), "c".into(), "d".into()], vec![], "y")
        .expect("schema");
    (Dataset::from_flat(schema, flat, labels).expect("dataset"), weights)
}

/// Fits with `fit`, the tree and the two split counters it recorded.
fn counted(fit: impl FnOnce() -> DecisionTree) -> (DecisionTree, u64, u64) {
    falcc_telemetry::reset();
    let tree = fit();
    let snap = falcc_telemetry::snapshot();
    (tree, snap.counter("offline.splits_evaluated"), snap.counter("offline.splits_pruned"))
}

#[test]
fn both_builders_count_the_same_candidates() {
    let (ds, weights) = weighted_dataset();
    let idx: Vec<usize> = (0..ds.len()).collect();
    let attrs = [0, 1, 2, 3];
    falcc_telemetry::enable();
    for criterion in [SplitCriterion::Gini, SplitCriterion::Entropy] {
        let params = TreeParams { max_depth: 7, criterion, ..TreeParams::default() };
        let (naive, naive_evaluated, naive_pruned) = counted(|| {
            DecisionTree::fit_naive(&ds, &attrs, &idx, Some(&weights), &params, 0)
        });
        let (fast, evaluated, pruned) =
            counted(|| DecisionTree::fit(&ds, &attrs, &idx, Some(&weights), &params, 0));
        assert_eq!(fast, naive, "{criterion:?}");
        assert!(naive_evaluated > 0);
        assert_eq!(evaluated, naive_evaluated, "{criterion:?}");
        assert_eq!(naive_pruned, 0, "the reference builder prunes nothing");
        match criterion {
            SplitCriterion::Gini => assert_eq!(pruned, 0, "gini is never pruned"),
            SplitCriterion::Entropy => {
                assert!(pruned > 0 && pruned < evaluated, "{pruned} of {evaluated} pruned");
            }
        }
    }
    falcc_telemetry::disable();
    falcc_telemetry::reset();
}
