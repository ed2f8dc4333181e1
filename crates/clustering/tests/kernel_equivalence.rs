//! Proof-of-equivalence suite for the clustering fast paths: the bounded
//! Lloyd kernel, the flat centroid matrix's nearest-centroid scan, and the
//! kd-tree's branch-and-bound search must all return the same results as
//! their naive references on arbitrary data.
//!
//! These complement the unit tests inside the crate: proptest drives the
//! geometry into the regimes where a sloppy bound would flip a result —
//! duplicated points (distance ties) and degenerate k.

use falcc_clustering::{log_means, CentroidMatrix, KEstimateConfig, KMeans, KdTree};
use falcc_dataset::dataset::ProjectedMatrix;
use proptest::prelude::*;

/// Every point's `(index, squared distance)` to `query`, sorted by
/// distance with the index as the tie-break — the naive kNN reference.
fn exhaustive(x: &ProjectedMatrix, query: &[f64]) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = (0..x.n_rows)
        .map(|j| (j, query.iter().zip(x.row(j)).map(|(a, b)| (a - b) * (a - b)).sum()))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all
}

/// Matrix with values drawn from a coarse grid so exact duplicate points
/// and exact distance ties occur regularly.
fn tied_matrix() -> impl Strategy<Value = ProjectedMatrix> {
    (6usize..60, 1usize..5).prop_flat_map(|(n, d)| {
        prop::collection::vec(-8i8..=8, n * d).prop_map(move |grid| ProjectedMatrix {
            data: grid.into_iter().map(|v| f64::from(v) * 0.25).collect(),
            n_cols: d,
            n_rows: n,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bounded_lloyd_is_bit_identical(x in tied_matrix(), k in 1usize..9,
                                      seed in 0u64..500) {
        let mut trainer = KMeans::new(k, seed);
        trainer.bounds = false;
        let naive = trainer.fit(&x);
        trainer.bounds = true;
        let fast = trainer.fit(&x);
        prop_assert_eq!(&fast.assignments, &naive.assignments);
        prop_assert_eq!(&fast.centroids, &naive.centroids);
        prop_assert_eq!(fast.sse.to_bits(), naive.sse.to_bits());
    }

    #[test]
    fn flat_nearest_is_bit_identical_to_predict(x in tied_matrix(), k in 1usize..9,
                                                seed in 0u64..500) {
        let model = KMeans::new(k, seed).fit(&x);
        let matrix = CentroidMatrix::from_model(&model);
        for i in 0..x.n_rows {
            prop_assert_eq!(matrix.nearest(x.row(i)), model.predict(x.row(i)));
        }
    }

    #[test]
    fn kdtree_pruned_equals_reference(x in tied_matrix(), k in 1usize..12) {
        // The split-plane prune against an exhaustive scan: the distance
        // profile must match exactly (on ties the neighbour identities
        // may differ, see the filtered case below).
        let tree = KdTree::build(x.clone());
        for i in 0..x.n_rows {
            let got: Vec<u64> =
                tree.nearest(x.row(i), k).iter().map(|&(_, d)| d.to_bits()).collect();
            let expected: Vec<u64> =
                exhaustive(&x, x.row(i)).iter().take(k).map(|&(_, d)| d.to_bits()).collect();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn kdtree_filtered_matches_brute_force_filter(x in tied_matrix(),
                                                  k in 1usize..8,
                                                  modulo in 2usize..4) {
        // On exact distance ties the kd-tree keeps whichever point its
        // traversal reached first, so neighbour *identities* can differ
        // from a global index-ordered ranking — but the distance profile
        // cannot, the filter must hold, and each reported distance must be
        // the true distance to that point.
        let tree = KdTree::build(x.clone());
        for i in 0..x.n_rows.min(20) {
            let filtered = tree.nearest_filtered(x.row(i), k, |j| j % modulo == 0);
            let mut reference = exhaustive(&x, x.row(i));
            reference.retain(|&(j, _)| j % modulo == 0);
            reference.truncate(k);
            let dist_profile: Vec<f64> = filtered.iter().map(|&(_, d)| d).collect();
            let expected: Vec<f64> = reference.iter().map(|&(_, d)| d).collect();
            prop_assert_eq!(dist_profile, expected);
            for &(j, d) in &filtered {
                prop_assert!(j % modulo == 0, "filter violated for {j}");
                let truth: f64 = x.row(i).iter().zip(x.row(j))
                    .map(|(a, b)| (a - b) * (a - b)).sum();
                prop_assert_eq!(d.to_bits(), truth.to_bits());
            }
        }
    }

    #[test]
    fn log_means_is_deterministic_and_in_range(
        x in tied_matrix(), seed in 0u64..200,
    ) {
        let cfg = KEstimateConfig::for_rows(x.n_rows, seed);
        let k = log_means(&x, &cfg);
        prop_assert_eq!(log_means(&x, &cfg), k);
        prop_assert!(k >= 1 && k <= x.n_rows);
    }
}
