//! Naive-vs-fast timing harness for the hot numeric kernels.
//!
//! Every fast kernel in this codebase ships next to its naive reference
//! implementation (presorted vs re-sorting CART, for gini and for the
//! pruned entropy scan; bounded vs plain Lloyd).
//! This module times both sides on the same data the runtime experiment
//! uses and verifies on the spot that the fast kernel's output is
//! bit-identical.
//! `exp_kernels` serialises the result to `BENCH_kernels.json` so the
//! perf trajectory is tracked across PRs.

use falcc_clustering::KMeans;
use falcc_dataset::dataset::ProjectedMatrix;
use falcc_dataset::{Dataset, SplitRatios, ThreeWaySplit};
use falcc_models::{Classifier, DecisionTree, SplitCriterion, TreeParams};
use std::time::Instant;

use crate::data::BenchDataset;

/// One kernel's naive-vs-fast measurement.
#[derive(Debug, Clone, serde::Serialize)]
pub struct KernelTiming {
    /// Kernel name (stable across PRs; used as the JSON key).
    pub kernel: String,
    /// Median wall-clock of the naive reference, milliseconds.
    pub naive_ms: f64,
    /// Median wall-clock of the fast kernel, milliseconds.
    pub fast_ms: f64,
    /// `naive_ms / fast_ms`.
    pub speedup: f64,
    /// Whether the two sides produced identical outputs on this run; every
    /// kernel promises bit-identical output, so this must be `true`.
    pub equivalent: bool,
    /// What was compared.
    pub note: String,
}

/// The full benchmark envelope written to `BENCH_kernels.json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct KernelReport {
    /// Dataset row-count scale the kernels ran at.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Timing repetitions per side (median taken).
    pub reps: usize,
    /// Number of rows in the training/validation splits used.
    pub train_rows: usize,
    /// Per-kernel measurements.
    pub kernels: Vec<KernelTiming>,
}

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1_000.0
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn timing(
    kernel: &str,
    naive_ms: f64,
    fast_ms: f64,
    equivalent: bool,
    note: &str,
) -> KernelTiming {
    KernelTiming {
        kernel: kernel.to_string(),
        naive_ms,
        fast_ms,
        speedup: naive_ms / fast_ms.max(1e-9),
        equivalent,
        note: note.to_string(),
    }
}

/// Runs every kernel comparison at `scale` (the `exp_runtime` dataset
/// scale) and returns the report. Uses Adult (sex) — the largest Tab. 4
/// dataset — so the numbers reflect the regime the paper's Fig. 6 cares
/// about.
pub fn bench_kernels(scale: f64, seed: u64, reps: usize) -> KernelReport {
    let ds = BenchDataset::AdultSex.generate(seed, scale);
    let split = ThreeWaySplit::split(&ds, SplitRatios::PAPER, seed).expect("split");
    let attrs = split.train.schema().non_sensitive_attrs();

    let projected = split.validation.project(&attrs, None);
    let gini = TreeParams { max_depth: 12, ..TreeParams::default() };
    let entropy = TreeParams { criterion: SplitCriterion::Entropy, ..gini };
    let boosted = second_round_weights(&split.train, &attrs, seed);
    let kernels = vec![
        bench_tree("tree_training", &split.train, &attrs, None, &gini, seed, reps),
        bench_tree(
            "tree_training_entropy",
            &split.train,
            &attrs,
            Some(&boosted),
            &entropy,
            seed,
            reps,
        ),
        bench_lloyd(&projected, seed, reps),
    ];

    KernelReport { scale, seed, reps, train_rows: split.train.len(), kernels }
}

/// The sample weights of AdaBoost's second round: one gini stump on
/// uniform weights, then misclassified rows up and the rest down by
/// `e^±α`. They are non-uniform the way boosted trees see them.
fn second_round_weights(train: &Dataset, attrs: &[usize], seed: u64) -> Vec<f64> {
    let indices: Vec<usize> = (0..train.len()).collect();
    let params = TreeParams { max_depth: 1, ..TreeParams::default() };
    let stump = DecisionTree::fit(train, attrs, &indices, None, &params, seed);
    let wrong: Vec<bool> =
        indices.iter().map(|&i| stump.predict_row(train.row(i)) != train.label(i)).collect();
    let err = (wrong.iter().filter(|&&w| w).count() as f64 / train.len() as f64).clamp(1e-6, 0.5);
    let alpha = 0.5 * ((1.0 - err) / err).ln();
    wrong.iter().map(|&w| if w { alpha.exp() } else { (-alpha).exp() }).collect()
}

/// CART: presorted builder vs per-node re-sorting reference.
fn bench_tree(
    kernel: &str,
    train: &Dataset,
    attrs: &[usize],
    weights: Option<&[f64]>,
    params: &TreeParams,
    seed: u64,
    reps: usize,
) -> KernelTiming {
    let indices: Vec<usize> = (0..train.len()).collect();
    let naive_ms = median_ms(reps, || {
        std::hint::black_box(DecisionTree::fit_naive(
            train, attrs, &indices, weights, params, seed,
        ));
    });
    let fast_ms = median_ms(reps, || {
        std::hint::black_box(DecisionTree::fit(train, attrs, &indices, weights, params, seed));
    });
    let fast = DecisionTree::fit(train, attrs, &indices, weights, params, seed);
    let naive = DecisionTree::fit_naive(train, attrs, &indices, weights, params, seed);
    let note = match params.criterion {
        SplitCriterion::Gini => "full tree structures compared node-for-node",
        SplitCriterion::Entropy => {
            "entropy, boosted weights; full tree structures compared node-for-node"
        }
    };
    timing(kernel, naive_ms, fast_ms, fast == naive, note)
}

/// Lloyd iterations: Hamerly-bounded vs fused naive, same k.
fn bench_lloyd(x: &ProjectedMatrix, seed: u64, reps: usize) -> KernelTiming {
    let mut trainer = KMeans::new(16, seed);
    trainer.bounds = false;
    let naive_ms = median_ms(reps, || {
        std::hint::black_box(trainer.fit(x));
    });
    let naive = trainer.fit(x);
    trainer.bounds = true;
    let fast_ms = median_ms(reps, || {
        std::hint::black_box(trainer.fit(x));
    });
    let fast = trainer.fit(x);
    let equivalent = fast.assignments == naive.assignments
        && fast.centroids == naive.centroids
        && fast.sse.to_bits() == naive.sse.to_bits();
    timing(
        "kmeans_lloyd",
        naive_ms,
        fast_ms,
        equivalent,
        "assignments, centroids and SSE compared bit-for-bit (k=16)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_equivalent_and_serialisable() {
        let report = bench_kernels(0.01, 3, 1);
        assert_eq!(report.kernels.len(), 3);
        for k in &report.kernels {
            assert!(k.naive_ms >= 0.0 && k.fast_ms >= 0.0, "{}", k.kernel);
            assert!(k.speedup > 0.0, "{}", k.kernel);
            assert!(k.equivalent, "{} diverged from its reference", k.kernel);
        }
        let json = serde_json::to_string(&report).expect("serialise");
        assert!(json.contains("tree_training_entropy"));
    }
}
