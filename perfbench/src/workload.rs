//! The two workloads. Each one runs the whole deployment path — make
//! data, fit, deploy (JSON snapshot + `.falccb` artifact), cold-start,
//! serve in batches and row by row, predict through the `falcc` binary —
//! so that every end-to-end metric exists on every workload. What tells
//! the workloads apart is their inputs and how the measured window
//! (`--seconds`) is shared between the timed stages:
//!
//! * `fit_adult` fits Adult (sex) with the default configuration on a 10%
//!   sample, and gives most of the window to fitting.
//! * `serve_adult` fits the ensemble-heavy serving configuration on a 10%
//!   sample and gives most of the window to serving traffic — rows the
//!   fit never saw — in 65,536-row batches, one row at a time, and through
//!   `falcc predict` processes on the traffic CSV.
//!
//! The program is driven only through public functions and the `falcc`
//! binary; every call into a layer is timed from outside.

use crate::stats::{median, LatencyHist, Tally};
use crate::trace::Recorder;
use falcc::{
    sibling_artifact_path, ClusterSpec, CompiledModel, CompiledModelBuf, FairClassifier,
    FalccConfig, FalccModel, SavedFalccModel,
};
use falcc_bench::BenchDataset;
use falcc_clustering::{log_means, KEstimateConfig, KMeans};
use falcc_dataset::{csv, Dataset, SplitRatios, ThreeWaySplit};
use falcc_metrics::FairnessMetric;
use falcc_models::{ModelPool, PoolConfig, TrainerKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Rows per served batch.
const BATCH_ROWS: usize = 65_536;
/// Single rows served per step of the row stage.
const ROW_CHUNK: usize = 4_096;
/// Interleaved untraced/traced pairs behind `telemetry.overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;
/// Worker threads of every timed stage: fits, batches and `falcc
/// predict`. On a 2-vCPU shared VM a parallel stage waits for its slower
/// vCPU, so a neighbour's load on either one slows it: over ten runs the
/// median 2-thread batch spread 0.34 of itself while single rows, timed
/// in the same runs on one thread, spread 0.12.
pub const THREADS: usize = 1;
/// Traffic rows the interpreted oracle re-checks.
const ORACLE_SAMPLE: usize = 4_096;
/// Seed of everything the fit sees: the Adult (sex) generation, the fit
/// sample, its split, and the model's own randomness. The fitted model is
/// the same in every run, because its shape moves every metric: over five
/// seeds of split and model, test accuracy ranged 0.751-0.798 and batch
/// throughput 1.9-3.9M rows/s, far beyond any bound a code change could be
/// judged by. The workload seed draws the traffic the model serves and is
/// scored on.
const DATA_SEED: u64 = 42;
/// Share of the 46K generated Adult rows the model is fitted on; the rest
/// is held out for traffic. A fit then takes about a second, so a run
/// times ten or more: at the full 46K rows one fit took 9.5-15.9 s on a
/// 2-vCPU shared VM, and the median of the one or two fits a run could
/// hold spread 0.3 across runs.
const FIT_SHARE: f64 = 0.10;
/// Held-out rows quality is scored on (the size of Adult's test split).
const QUALITY_ROWS: usize = 6_900;
/// Traffic rows every workload serves, so every `falcc predict` run parses
/// the same 18 MB. On a 6.9K-row CSV a run took either about 20 or about
/// 29 ms, the mix of the two changed from run to run, and the median
/// jumped between them (spread 0.26).
const TRAFFIC_ROWS: usize = 41_400;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline phase: the default configuration, fitted over and over.
    FitAdult,
    /// Serving unseen traffic: in process and through `falcc predict`.
    ServeAdult,
}

impl Workload {
    /// All workloads, in the order `all` runs them.
    pub const ALL: [Self; 2] = [Self::FitAdult, Self::ServeAdult];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Self::FitAdult => "fit_adult",
            Self::ServeAdult => "serve_adult",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shares of the measured window, per stage in [`Stage::ALL`] order.
    fn window_shares(self) -> [f64; 5] {
        match self {
            Self::FitAdult => [0.05, 0.70, 0.05, 0.05, 0.15],
            Self::ServeAdult => [0.05, 0.30, 0.20, 0.20, 0.25],
        }
    }
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Settings of one run.
pub struct Settings {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured window of the workload's own stage.
    pub window: Duration,
    /// Per-layer run: program telemetry on, extra layer calls.
    pub trace: bool,
    /// The `falcc` binary.
    pub falcc: PathBuf,
    /// Scratch directory for model, artifact and CSV files.
    pub work: PathBuf,
}

/// Everything a run measured.
pub struct Outcome {
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Benchmark spans plus the program's telemetry, as JSON lines.
    pub trace_jsonl: String,
    /// Human-readable notes (sample counts, model shape).
    pub notes: Vec<String>,
}

/// A timed stage. The stages take turns through the whole window, so
/// every stage's samples spread over the whole run. On a shared VM the
/// speed drifts over seconds, and a stage timed in one stretch of a run
/// reads only that stretch: `falcc predict` timed for 2 s at one point of
/// each run spread 0.27 (IQR ÷ median over ten runs), timed across a 25 s
/// window 0.04.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// The workload's set-up step, behind `setup_s`.
    Setup,
    Fit,
    Batch,
    Rows,
    Cli,
}

impl Stage {
    const ALL: [Self; 5] = [Self::Setup, Self::Fit, Self::Batch, Self::Rows, Self::Cli];

    fn name(self) -> &'static str {
        match self {
            Self::Setup => "setup",
            Self::Fit => "fit",
            Self::Batch => "batch",
            Self::Rows => "rows",
            Self::Cli => "cli",
        }
    }

    /// Steps a run takes at least, however short the window: enough for a
    /// median, and one pass over the traffic for the row percentiles.
    fn min_steps(self) -> usize {
        match self {
            Self::Setup | Self::Batch | Self::Cli => 5,
            Self::Fit => 3,
            Self::Rows => TRAFFIC_ROWS.div_ceil(ROW_CHUNK),
        }
    }
}

/// Picks the stage to step next: the one furthest behind its share of
/// the time spent so far, among those still due — every stage while the
/// window lasts, then those short of their minimum steps.
fn next_stage(
    shares: &[f64; 5],
    spent: &[f64; 5],
    steps: &[usize; 5],
    in_window: bool,
) -> Option<Stage> {
    (0..Stage::ALL.len())
        .filter(|&i| in_window || steps[i] < Stage::ALL[i].min_steps())
        .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
        .map(|i| Stage::ALL[i])
}

/// What the timed serving stages share.
struct Served<'m> {
    model: &'m FalccModel,
    compiled: CompiledModel,
    /// The traffic, row by row, and its compiled predictions.
    rows: Vec<Vec<f64>>,
    expected: Vec<u8>,
    /// One 65,536-row batch cycled from the traffic, and its predictions.
    batch: Vec<Vec<f64>>,
    batch_want: Vec<u8>,
    json: PathBuf,
    csv: PathBuf,
    out: PathBuf,
    /// The bytes `falcc predict --out` must write.
    cli_want: String,
}

/// Samples the timed stages collect over the window.
#[derive(Default)]
struct Timed {
    setup_times: Vec<f64>,
    fit_times: Vec<f64>,
    batch_times: Vec<f64>,
    row_hist: LatencyHist,
    rows_done: usize,
    row_bad: u64,
    cli_times: Vec<f64>,
}

struct Run<'a> {
    s: &'a Settings,
    rec: Recorder,
    tally: Tally,
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    notes: Vec<String>,
    telemetry: String,
}

/// Runs one workload. `Err` means the run could not go on (a fit or a
/// file operation failed); the failure is already counted in the tally
/// carried by the error.
pub fn run(s: &Settings) -> Result<Outcome, (String, Tally)> {
    let mut r = Run {
        s,
        rec: Recorder::default(),
        tally: Tally::default(),
        e2e: Vec::new(),
        layer: Vec::new(),
        notes: Vec::new(),
        telemetry: String::new(),
    };
    falcc_telemetry::set_quiet(true);
    falcc_telemetry::disable();
    match r.pipeline() {
        Ok(()) => {
            let mut trace_jsonl = r.rec.to_jsonl();
            trace_jsonl.push_str(&r.telemetry);
            Ok(Outcome {
                end_to_end: r.e2e,
                per_layer: r.layer,
                tally: r.tally,
                trace_jsonl,
                notes: r.notes,
            })
        }
        Err(e) => {
            r.tally.check(false, || e.clone());
            Err((e, r.tally))
        }
    }
}

/// The ensemble-heavy serving configuration of the repository's serving
/// benchmark: the whole AdaBoost grid (`pool_size = 0`) and a fixed k.
fn serving_config(seed: u64) -> FalccConfig {
    FalccConfig {
        clustering: ClusterSpec::FixedK(8),
        pool: PoolConfig {
            trainer: TrainerKind::AdaBoost,
            pool_size: 0,
            seed,
            ..Default::default()
        },
        seed,
        threads: THREADS,
        ..FalccConfig::default()
    }
}

fn rows_of(ds: &Dataset) -> Vec<Vec<f64>> {
    (0..ds.len()).map(|i| ds.row(i).to_vec()).collect()
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Relative slowdown of `traced` over `untraced`, percent.
fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let base = median(untraced);
    (median(traced) - base) / base * 100.0
}

impl Run<'_> {
    /// The workload's own operation, the one `telemetry.overhead_pct`
    /// compares traced and untraced.
    fn focus(&self) -> Stage {
        match self.s.workload {
            Workload::FitAdult => Stage::Fit,
            Workload::ServeAdult => Stage::Batch,
        }
    }

    fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.e2e.push(Metric { name, unit, value });
    }

    fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.layer.push(Metric { name, unit, value });
    }

    /// Tracing overhead of `stage`'s operation; the workload's own stage
    /// is its `telemetry.overhead_pct`, the others are notes.
    fn overhead(&mut self, stage: Stage, pct: f64) {
        if self.focus() == stage {
            self.layer("telemetry.overhead_pct", "%", pct);
        } else {
            self.notes.push(format!(
                "tracing overhead of the {} stage: {pct:.2}%",
                stage.name()
            ));
        }
    }

    fn layer_median_ms(&mut self, metric: &'static str, span: &str) {
        let v = median(&self.rec.durations_ms(span));
        self.layer(metric, "ms", v);
    }

    /// Drains the program's telemetry into the trace under `section` and
    /// returns it.
    fn drain_telemetry(&mut self, section: &str) -> falcc_telemetry::Snapshot {
        let snap = falcc_telemetry::snapshot();
        self.telemetry.push_str(&format!(
            "{{\"type\":\"telemetry_section\",\"name\":\"{section}\"}}\n"
        ));
        self.telemetry.push_str(&snap.to_jsonl());
        falcc_telemetry::reset();
        snap
    }

    fn pipeline(&mut self) -> Result<(), String> {
        let (mut split, held_out, _) = self.generate_and_split()?;
        // The traffic: TRAFFIC_ROWS rows drawn with replacement from the
        // held-out rows by the workload seed. Quality is scored on its
        // first QUALITY_ROWS rows.
        let traffic = self.rec.time("dataset.resample", || {
            let mut rng = StdRng::seed_from_u64(self.s.seed);
            let idx: Vec<usize> = (0..TRAFFIC_ROWS)
                .map(|_| rng.gen_range(0..held_out.len()))
                .collect();
            held_out.subset(&idx)
        });
        let traffic = traffic.0.map_err(err("resampling the traffic"))?;
        let quality_idx: Vec<usize> = (0..QUALITY_ROWS.min(traffic.len())).collect();
        split.test = traffic
            .subset(&quality_idx)
            .map_err(err("taking the quality rows"))?;
        let config = match self.s.workload {
            Workload::FitAdult => FalccConfig {
                seed: DATA_SEED,
                threads: THREADS,
                ..FalccConfig::default()
            },
            _ => serving_config(DATA_SEED),
        };
        // The first fit, deploy and cold start make the model and its
        // files; like the untimed pass over the traffic in
        // `prepare_serving`, they are warm-up and stay out of the medians.
        let (model, first_fit_s) = self.fit_once(&split, &config)?;
        let fit_preds = model.predict_dataset(&split.test);
        if self.s.trace {
            self.trace_fit(&split, &config, &model)?;
        }
        self.quality(&model, &split, first_fit_s);

        let json = self.s.work.join("model.json");
        let artifact = sibling_artifact_path(&json);
        self.deploy(&model, &json, &artifact)?;
        let (mut compiled, _) = self.cold_start(&model, &artifact, traffic.row(0))?;
        compiled.set_threads(THREADS);
        let sv = self.prepare_serving(&model, compiled, &traffic, json)?;

        // The stages take turns, each stepping while it is furthest
        // behind its share of the time spent. The traced run measures
        // with telemetry off too and traces its own calls afterwards.
        if self.s.trace {
            self.drain_telemetry("prepare");
            falcc_telemetry::disable();
        }
        let shares = self.s.workload.window_shares();
        let mut t = Timed::default();
        let (mut spent, mut steps) = ([0.0; 5], [0; 5]);
        let window = Instant::now();
        while let Some(stage) =
            next_stage(&shares, &spent, &steps, window.elapsed() < self.s.window)
        {
            let step = Instant::now();
            match stage {
                Stage::Setup => {
                    let secs = match self.s.workload {
                        Workload::FitAdult => self.generate_and_split()?.2,
                        Workload::ServeAdult => {
                            let id = self.rec.open("setup.serve");
                            self.deploy(&model, &sv.json, &artifact)?;
                            self.cold_start(&model, &artifact, traffic.row(0))?;
                            self.rec.close(id)
                        }
                    };
                    t.setup_times.push(secs);
                }
                Stage::Fit => {
                    let (again, secs) = self.fit_once(&split, &config)?;
                    t.fit_times.push(secs);
                    self.tally
                        .check(again.predict_dataset(&split.test) == fit_preds, || {
                            "repeated fit predicted differently".into()
                        });
                }
                Stage::Batch => self.batch_step(&sv, &mut t),
                Stage::Rows => self.rows_step(&sv, &mut t),
                Stage::Cli => {
                    let secs = self.predict(&sv, false);
                    t.cli_times.push(secs);
                }
            }
            let i = Stage::ALL.iter().position(|&s| s == stage).unwrap_or(0);
            spent[i] += step.elapsed().as_secs_f64();
            steps[i] += 1;
        }
        if self.s.trace {
            falcc_telemetry::enable();
        }
        self.report_timed(&mut t, &spent);
        if self.s.trace {
            self.trace_setup(&artifact)?;
            self.trace_serving(&sv);
            self.trace_cli(&sv, median(&t.cli_times))?;
        }

        let rss = peak_rss_mb().ok_or("reading VmHWM from /proc/self/status")?;
        self.e2e("peak_rss_mb", "MB", rss);
        self.notes.push(format!(
            "model: {} pool members, {} regions, {} compiled members, {} flat nodes; traffic {} rows",
            model.pool().len(),
            model.n_regions(),
            sv.compiled.n_models(),
            sv.compiled.n_nodes(),
            traffic.len()
        ));
        Ok(())
    }

    /// Generates Adult (sex) and splits it into the fit sample, split
    /// three ways, and the held-out rows; returns them with the seconds
    /// it took, which are `fit_adult`'s set-up time.
    fn generate_and_split(&mut self) -> Result<(ThreeWaySplit, Dataset, f64), String> {
        let id = self.rec.open("setup.data");
        let (ds, _) = self.rec.time("dataset.generate", || {
            BenchDataset::AdultSex.generate(DATA_SEED, 1.0)
        });
        let (parts, _) = self.rec.time("dataset.split", || {
            let mut idx: Vec<usize> = (0..ds.len()).collect();
            idx.shuffle(&mut StdRng::seed_from_u64(DATA_SEED));
            let cut = (ds.len() as f64 * FIT_SHARE).round() as usize;
            let fit = ds.subset(&idx[..cut])?;
            let held_out = ds.subset(&idx[cut..])?;
            Ok::<_, falcc_dataset::DatasetError>((
                ThreeWaySplit::split(&fit, SplitRatios::PAPER, DATA_SEED)?,
                held_out,
            ))
        });
        let secs = self.rec.close(id);
        let (split, held_out) = parts.map_err(err("splitting"))?;
        Ok((split, held_out, secs))
    }

    /// One timed fit; returns the model and its seconds.
    fn fit_once(
        &mut self,
        split: &ThreeWaySplit,
        config: &FalccConfig,
    ) -> Result<(FalccModel, f64), String> {
        let (res, secs) = self.rec.time("core.fit", || {
            FalccModel::fit(&split.train, &split.validation, config)
        });
        let model = res.map_err(err("fit"))?;
        self.tally.check(true, String::new);
        Ok((model, secs))
    }

    /// Per-layer view of the offline phase: the same fit traced, then the
    /// two halves of `fit` called separately, then the clustering calls
    /// on the validation projection.
    fn trace_fit(
        &mut self,
        split: &ThreeWaySplit,
        config: &FalccConfig,
        model: &FalccModel,
    ) -> Result<(), String> {
        let (train, val) = (&split.train, &split.validation);
        let untraced = self.rec.durations_ms("core.fit");
        falcc_telemetry::reset();
        falcc_telemetry::enable();

        let (traced, fit_ms) = self
            .rec
            .time("core.fit_traced", || FalccModel::fit(train, val, config));
        let traced = traced.map_err(err("traced fit"))?;
        let fit_ms = fit_ms * 1e3;
        self.drain_telemetry("core.fit_traced");

        // `fit` seeds and threads the pool like this before training it.
        let mut pool_cfg = config.pool;
        pool_cfg.seed ^= config.seed;
        pool_cfg.threads = config.threads;
        let (pool, pool_ms) = self.rec.time("models.pool_train", || {
            ModelPool::train_diverse(train, val, &pool_cfg)
        });
        let pool_ms = pool_ms * 1e3;
        let members = pool.len();
        let snap = self.drain_telemetry("models.pool_train");
        let grid_points: Vec<f64> = snap
            .spans
            .iter()
            .filter(|s| s.name == "pool.grid_point")
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        let grid_wall_ms = snap.total_ns("pool.grid_fit") as f64 / 1e6;
        let busy: f64 = grid_points.iter().sum();
        let threads = falcc_models::resolve_threads(config.threads).min(grid_points.len().max(1));
        self.layer("models.pool_train_ms", "ms", pool_ms);
        self.layer(
            "models.grid_point_max_ms",
            "ms",
            grid_points.iter().copied().fold(0.0, f64::max),
        );
        self.layer("models.grid_busy_ms", "ms", busy);
        self.layer(
            "models.grid_idle_ms",
            "ms",
            threads as f64 * grid_wall_ms - busy,
        );
        self.layer(
            "models.splits_evaluated",
            "count",
            snap.counter("offline.splits_evaluated") as f64,
        );
        self.layer("models.pool_members", "count", members as f64);

        let (split_model, after_ms) = self.rec.time("core.fit_after_pool", || {
            FalccModel::fit_with_pool(val, pool, config)
        });
        let split_model = split_model.map_err(err("fit_with_pool"))?;
        let after_ms = after_ms * 1e3;
        let snap = self.drain_telemetry("core.fit_after_pool");
        self.layer("core.fit_after_pool_ms", "ms", after_ms);
        self.layer(
            "core.gap_fill_ms",
            "ms",
            snap.total_ns("offline.gap_fill") as f64 / 1e6,
        );
        self.layer(
            "core.pool_predictions_ms",
            "ms",
            snap.total_ns("offline.pool_predictions") as f64 / 1e6,
        );
        self.layer(
            "core.assessment_ms",
            "ms",
            snap.total_ns("offline.assessment") as f64 / 1e6,
        );
        self.layer(
            "core.combinations",
            "count",
            snap.gauge("offline.combinations").unwrap_or(0) as f64,
        );
        self.layer("core.regions", "count", split_model.n_regions() as f64);
        self.layer("core.fit_traced_ms", "ms", fit_ms);
        self.layer(
            "core.fit_accounted_share",
            "share",
            (pool_ms + after_ms) / fit_ms,
        );

        let want = model.predict_dataset(&split.test);
        self.tally
            .check(split_model.predict_dataset(&split.test) == want, || {
                "fit_with_pool(train_diverse(..)) predicts differently from fit(..)".into()
            });
        self.tally
            .check(traced.predict_dataset(&split.test) == want, || {
                "traced fit predicts differently".into()
            });

        // The clustering calls `fit` makes, on the same projection.
        let proxy = config.proxy.apply(val);
        let projected = val.project(&proxy.attrs, proxy.weights.as_deref());
        let est = KEstimateConfig::for_rows(projected.n_rows, config.seed);
        let (k_est, k_ms) = self
            .rec
            .time("clustering.k_estimation", || log_means(&projected, &est));
        let snap = self.drain_telemetry("clustering.k_estimation");
        self.layer("clustering.k_estimation_ms", "ms", k_ms * 1e3);
        self.layer(
            "clustering.logmeans_probes",
            "count",
            snap.counter("clustering.logmeans_probes") as f64,
        );
        self.layer(
            "clustering.warm_starts",
            "count",
            snap.counter("clustering.warm_starts") as f64,
        );
        let k = match config.clustering {
            ClusterSpec::FixedK(k) => k,
            _ => k_est,
        };
        let (km, km_ms) = self.rec.time("clustering.kmeans", || {
            KMeans::new(k, config.seed).fit(&projected)
        });
        let snap = self.drain_telemetry("clustering.kmeans");
        let iterations = snap.counter("offline.lloyd_iterations");
        self.layer("clustering.kmeans_ms", "ms", km_ms * 1e3);
        self.layer("clustering.lloyd_iterations", "count", iterations as f64);
        self.layer(
            "clustering.bound_skip_share",
            "share",
            snap.counter("clustering.bound_skips") as f64
                / (iterations as f64 * projected.n_rows as f64),
        );
        self.tally.check(km.k() == model.n_regions(), || {
            format!(
                "k-means on the validation projection gave {} regions, fit gave {}",
                km.k(),
                model.n_regions()
            )
        });
        self.overhead(Stage::Fit, overhead_pct(&untraced, &[fit_ms]));
        Ok(())
    }

    /// Test-split quality, scored as the repository's evaluation protocol
    /// scores it.
    fn quality(&mut self, model: &FalccModel, split: &ThreeWaySplit, fit_s: f64) {
        let (row, _) = self.rec.time("quality.evaluate", || {
            let regions = falcc_bench::reference_regions(split, DATA_SEED);
            falcc_bench::evaluate(
                model,
                &split.test,
                FairnessMetric::DemographicParity,
                &regions,
                fit_s,
            )
        });
        let finite = [row.accuracy, row.local_bias, row.global_bias]
            .iter()
            .all(|v| v.is_finite());
        self.tally
            .check(finite, || "non-finite quality metric".into());
        self.e2e("test_accuracy", "ratio", row.accuracy);
        self.e2e("test_local_bias", "ratio", row.local_bias);
        self.layer("quality.global_bias", "ratio", row.global_bias);
        self.notes.push(format!(
            "test_global_bias {} ratio (demographic parity)",
            row.global_bias
        ));
        if self.s.trace {
            self.drain_telemetry("quality.evaluate");
        }
    }

    /// The deploy step of `falcc fit --emit-artifact`: JSON snapshot,
    /// read back, restore, compile, artifact. Returns its seconds.
    fn deploy(&mut self, model: &FalccModel, json: &Path, artifact: &Path) -> Result<f64, String> {
        let id = self.rec.open("deploy");
        let (saved, _) = self.rec.time("persist.json_save", || {
            SavedFalccModel::capture(model).and_then(|saved| saved.save_file(json))
        });
        saved.map_err(err("saving the JSON snapshot"))?;
        let (restored, _) = self.rec.time("persist.json_load", || {
            let bytes = std::fs::read(json).map_err(|e| e.to_string())?;
            let fingerprint = falcc::io::fnv1a64(&bytes);
            SavedFalccModel::load_file(json)
                .map(|s| (s.restore(), fingerprint))
                .map_err(|e| e.to_string())
        });
        let (restored, fingerprint) = restored.map_err(err("restoring the JSON snapshot"))?;
        let (compiled, _) = self.rec.time("core.compile", || restored.compile());
        let (saved, _) = self.rec.time("artifact.save", || {
            compiled.save_artifact(artifact, fingerprint)
        });
        saved.map_err(err("saving the artifact"))?;
        Ok(self.rec.close(id))
    }

    /// Cold start from the artifact until the first row is classified,
    /// which must agree with the fitted model. Returns the compiled model
    /// and the seconds it took.
    fn cold_start(
        &mut self,
        model: &FalccModel,
        artifact: &Path,
        first_row: &[f64],
    ) -> Result<(CompiledModel, f64), String> {
        let id = self.rec.open("cold_start");
        let (bytes, _) = self.rec.time("artifact.read", || std::fs::read(artifact));
        let bytes = bytes.map_err(err("reading the artifact"))?;
        let (buf, _) = self
            .rec
            .time("artifact.validate", || CompiledModelBuf::from_bytes(bytes));
        let buf = buf.map_err(err("validating the artifact"))?;
        let (compiled, _) = self.rec.time("artifact.load", || buf.load());
        let compiled = compiled.map_err(err("loading the artifact"))?;
        let (pred, _) = self
            .rec
            .time("serve.first_row", || compiled.try_classify(first_row));
        let secs = self.rec.close(id);
        self.tally.check(pred == model.try_classify(first_row), || {
            "cold-started model disagrees on row 0".into()
        });
        Ok((compiled, secs))
    }

    /// Per-layer view of the set-up steps, over all their repetitions.
    fn trace_setup(&mut self, artifact: &Path) -> Result<(), String> {
        for (metric, span) in [
            ("dataset.generate_ms", "dataset.generate"),
            ("dataset.split_ms", "dataset.split"),
            ("persist.json_save_ms", "persist.json_save"),
            ("persist.json_load_ms", "persist.json_load"),
            ("core.compile_ms", "core.compile"),
            ("artifact.save_ms", "artifact.save"),
            ("artifact.read_ms", "artifact.read"),
            ("artifact.validate_ms", "artifact.validate"),
            ("artifact.load_ms", "artifact.load"),
        ] {
            self.layer_median_ms(metric, span);
        }
        let bytes = std::fs::metadata(artifact).map_err(err("reading the artifact's size"))?;
        self.layer("artifact.bytes", "bytes", bytes.len() as f64);
        Ok(())
    }

    /// Compiled predictions for all traffic, checked against the
    /// interpreted plane — batch and row by row — on a seeded sample.
    fn oracle_gate(
        &mut self,
        model: &FalccModel,
        compiled: &CompiledModel,
        rows: &[Vec<f64>],
    ) -> Vec<u8> {
        let out = compiled.classify_batch(rows);
        let errors = out.iter().filter(|r| r.is_err()).count() as u64;
        self.tally.count(rows.len() as u64, errors, || {
            format!("{errors} clean traffic rows returned Err")
        });
        let expected: Vec<u8> = out
            .iter()
            .map(|r| *r.as_ref().unwrap_or(&u8::MAX))
            .collect();

        let mut idx: Vec<usize> = (0..rows.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(self.s.seed ^ 0x04ac_1e5e));
        idx.truncate(ORACLE_SAMPLE);
        let sample: Vec<Vec<f64>> = idx.iter().map(|&i| rows[i].clone()).collect();
        let oracle = model.classify_batch(&sample);
        let compiled_sample = compiled.classify_batch(&sample);
        let mut mismatches = 0u64;
        for (j, &i) in idx.iter().enumerate() {
            let want = &oracle[j];
            let ok = compiled_sample[j] == *want
                && compiled.try_classify(&rows[i]) == *want
                && model.try_classify(&rows[i]) == *want
                && want.as_ref().ok() == Some(&expected[i]);
            mismatches += u64::from(!ok);
        }
        self.tally.count(idx.len() as u64, mismatches, || {
            format!(
                "{mismatches} sampled rows: compiled plane disagrees with the interpreted oracle"
            )
        });
        expected
    }

    /// Builds the batch, writes the traffic CSV and warms the caches the
    /// timed calls share with one untimed pass over the traffic.
    fn prepare_serving<'m>(
        &mut self,
        model: &'m FalccModel,
        compiled: CompiledModel,
        traffic: &Dataset,
        json: PathBuf,
    ) -> Result<Served<'m>, String> {
        let rows = rows_of(traffic);
        let expected = self.oracle_gate(model, &compiled, &rows);
        let n = rows.len();
        let batch: Vec<Vec<f64>> = (0..BATCH_ROWS).map(|i| rows[i % n].clone()).collect();
        let batch_want: Vec<u8> = (0..BATCH_ROWS).map(|i| expected[i % n]).collect();

        let csv = self.s.work.join("traffic.csv");
        let (written, _) = self.rec.time("cli.write_csv", || -> Result<(), String> {
            let file = std::fs::File::create(&csv).map_err(|e| e.to_string())?;
            let mut w = std::io::BufWriter::new(file);
            csv::write_csv(traffic, &mut w).map_err(|e| e.to_string())?;
            std::io::Write::flush(&mut w).map_err(|e| e.to_string())
        });
        written.map_err(err("writing the traffic CSV"))?;
        let mut cli_want = String::from("prediction\n");
        for &p in &expected {
            cli_want.push_str(if p == 1 { "1\n" } else { "0\n" });
        }

        let (warm, _) = self.rec.time("serve.rows_warmup", || {
            rows.iter()
                .zip(&expected)
                .filter(|(row, &want)| compiled.try_classify(row) != Ok(want))
                .count()
        });
        self.tally.count(n as u64, warm as u64, || {
            format!("{warm} warm-up rows failed or mispredicted")
        });
        Ok(Served {
            model,
            compiled,
            rows,
            expected,
            batch,
            batch_want,
            json,
            csv,
            out: self.s.work.join("predictions.csv"),
            cli_want,
        })
    }

    /// Counts a served batch's rows, failing those that returned `Err` or
    /// another prediction than expected.
    fn check_batch(&mut self, sv: &Served, out: &[Result<u8, falcc::RowFault>]) {
        let bad = out
            .iter()
            .zip(&sv.batch_want)
            .filter(|(got, w)| got.as_ref().ok() != Some(w))
            .count() as u64;
        self.tally.count(BATCH_ROWS as u64, bad, || {
            format!("{bad} batch rows failed or mispredicted")
        });
    }

    /// One 65,536-row `classify_batch` call.
    fn batch_step(&mut self, sv: &Served, t: &mut Timed) {
        let (out, secs) = self.rec.time("serve.batch", || {
            sv.compiled.classify_batch(black_box(&sv.batch))
        });
        self.check_batch(sv, &out);
        t.batch_times.push(secs);
    }

    /// [`ROW_CHUNK`] rows from one caller classifying one row at a time in
    /// a closed loop: the next call starts when the previous one returns.
    fn rows_step(&mut self, sv: &Served, t: &mut Timed) {
        let n = sv.rows.len();
        let id = self.rec.open("serve.rows");
        for _ in 0..ROW_CHUNK {
            let i = t.rows_done % n;
            let t0 = Instant::now();
            let got = sv.compiled.try_classify(black_box(&sv.rows[i]));
            t.row_hist.record(t0.elapsed().as_nanos() as u64);
            t.row_bad += u64::from(got.ok() != Some(sv.expected[i]));
            t.rows_done += 1;
        }
        self.rec.close(id);
    }

    /// One `falcc predict` process, its output compared byte for byte
    /// with the in-process compiled predictions. Returns its seconds,
    /// `NaN` when it failed.
    fn predict(&mut self, sv: &Served, traced: bool) -> f64 {
        let _ = std::fs::remove_file(&sv.out);
        let mut cmd = Command::new(&self.s.falcc);
        cmd.arg("predict")
            .arg("--model")
            .arg(&sv.json)
            .arg("--data")
            .arg(&sv.csv)
            .arg("--out")
            .arg(&sv.out)
            .arg("--threads")
            .arg(THREADS.to_string());
        cmd.env_remove("FALCC_TELEMETRY");
        if traced {
            cmd.env("FALCC_TELEMETRY", "1");
        }
        let span = if traced {
            "cli.predict_traced"
        } else {
            "cli.predict"
        };
        let (out, secs) = self.rec.time(span, || cmd.output());
        let ok = match out {
            Ok(o) if o.status.success() => self.tally.check(
                std::fs::read(&sv.out).ok().as_deref() == Some(sv.cli_want.as_bytes()),
                || "falcc predict output differs from the in-process predictions".into(),
            ),
            Ok(o) => self.tally.check(false, || {
                format!(
                    "falcc predict exited {}: {}",
                    o.status,
                    String::from_utf8_lossy(&o.stderr).trim()
                )
            }),
            Err(e) => self.tally.check(false, || format!("spawning falcc: {e}")),
        };
        if ok {
            secs
        } else {
            f64::NAN
        }
    }

    /// End-to-end metrics of the timed stages.
    fn report_timed(&mut self, t: &mut Timed, spent: &[f64; 5]) {
        self.e2e("setup_s", "s", median(&t.setup_times));
        self.e2e("fit_s", "s", median(&t.fit_times));
        self.e2e(
            "batch_rows_per_s",
            "rows/s",
            BATCH_ROWS as f64 / median(&t.batch_times),
        );
        let samples = t.row_hist.len();
        let bad = t.row_bad;
        self.tally.count(samples as u64, bad, || {
            format!("{bad} single rows failed or mispredicted")
        });
        let p50 = t.row_hist.percentile(0.50);
        let p99 = t.row_hist.percentile(0.99);
        self.tally.check(p99.is_some(), || {
            format!("{samples} row samples cannot support p99")
        });
        self.e2e("row_p50_ns", "ns", p50.unwrap_or(f64::NAN));
        self.e2e("row_p99_ns", "ns", p99.unwrap_or(f64::NAN));
        self.e2e("cli_predict_s", "s", median(&t.cli_times));
        self.notes.push(format!(
            "samples: {} set-up steps, {} fits, {} batches of {BATCH_ROWS} rows, {samples} single \
             rows (closed loop, 1 caller), {} falcc predict runs",
            t.setup_times.len(),
            t.fit_times.len(),
            t.batch_times.len(),
            t.cli_times.len(),
        ));
        let split: Vec<String> = Stage::ALL
            .iter()
            .zip(spent)
            .map(|(stage, secs)| format!("{} {secs:.2}", stage.name()))
            .collect();
        self.notes
            .push(format!("seconds per stage: {}", split.join(", ")));
        if let Some(p) = crate::stats::highest_reportable(samples) {
            let v = t.row_hist.percentile(p).unwrap_or(f64::NAN);
            self.notes
                .push(format!("row tail: p{} = {v} ns", p * 100.0));
        }
        if self.s.trace {
            self.layer("serve.row_samples", "count", samples as f64);
        }
    }

    /// Per-layer view of serving: traced batches interleaved with
    /// untraced ones, a traced pass of single rows, the model's shape,
    /// and the interpreted plane on the same batch.
    fn trace_serving(&mut self, sv: &Served) {
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let (mut bucketed, mut accepted) = (0u64, 0u64);
        falcc_telemetry::reset();
        for _ in 0..OVERHEAD_PAIRS {
            falcc_telemetry::disable();
            let (out, secs) = self.rec.time("serve.batch_untraced", || {
                sv.compiled.classify_batch(black_box(&sv.batch))
            });
            self.check_batch(sv, &out);
            untraced.push(secs);
            falcc_telemetry::enable();
            let (out, secs) = self.rec.time("serve.batch_traced", || {
                sv.compiled.classify_batch(black_box(&sv.batch))
            });
            accepted += out.iter().filter(|r| r.is_ok()).count() as u64;
            self.check_batch(sv, &out);
            traced.push(secs);
            bucketed += self
                .drain_telemetry("serve.batch_traced")
                .counter("serve.bucket_rows");
        }
        self.layer("serve.batch_ms", "ms", median(&traced) * 1e3);
        self.layer(
            "serve.bucket_row_share",
            "share",
            bucketed as f64 / accepted as f64,
        );
        self.overhead(Stage::Batch, overhead_pct(&untraced, &traced));

        let (bad, _) = self.rec.time("serve.rows_traced", || {
            sv.rows
                .iter()
                .zip(&sv.expected)
                .filter(|(row, &want)| sv.compiled.try_classify(row) != Ok(want))
                .count()
        });
        self.tally.count(sv.rows.len() as u64, bad as u64, || {
            format!("{bad} traced rows failed or mispredicted")
        });
        let snap = self.drain_telemetry("serve.rows_traced");
        let mean = snap
            .histogram("online.match_ns")
            .map_or(f64::NAN, |h| h.mean() as f64);
        self.layer("serve.match_ns_mean", "ns", mean);

        self.layer(
            "serve.compiled_members",
            "count",
            sv.compiled.n_models() as f64,
        );
        self.layer("serve.flat_nodes", "count", sv.compiled.n_nodes() as f64);
        self.layer("serve.regions", "count", sv.compiled.n_regions() as f64);
        let oracle: Vec<f64> = (0..2)
            .map(|_| {
                self.rec
                    .time("serve.oracle_batch", || {
                        sv.model.classify_batch(black_box(&sv.batch))
                    })
                    .1
            })
            .collect();
        self.drain_telemetry("serve.oracle_batch");
        self.layer(
            "serve.oracle_rows_per_s",
            "rows/s",
            BATCH_ROWS as f64 / median(&oracle),
        );
    }

    /// Per-layer view of `falcc predict`: traced runs interleaved with
    /// untraced ones, and the in-process calls the process makes, whose
    /// sum subtracted from `cli_s` leaves the CLI's own share.
    fn trace_cli(&mut self, sv: &Served, cli_s: f64) -> Result<(), String> {
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..OVERHEAD_PAIRS {
            untraced.push(self.predict(sv, false));
            traced.push(self.predict(sv, true));
        }
        self.overhead(Stage::Cli, overhead_pct(&untraced, &traced));
        let schema = sv.compiled.schema();
        let sensitive: Vec<(String, Vec<f64>)> = schema
            .sensitive()
            .iter()
            .map(|s| (schema.attr_name(s.attr).to_string(), s.domain.clone()))
            .collect();
        let decl: Vec<(&str, Vec<f64>)> = sensitive
            .iter()
            .map(|(n, d)| (n.as_str(), d.clone()))
            .collect();
        let mut read = Vec::new();
        let mut served = Vec::new();
        for _ in 0..3 {
            let (ds, secs) = self
                .rec
                .time("dataset.read_csv", || csv::read_csv_file(&sv.csv, &decl));
            let ds = ds.map_err(err("reading the traffic CSV"))?;
            read.push(secs);
            let (preds, secs) = self
                .rec
                .time("serve.predict_dataset", || sv.compiled.predict_dataset(&ds));
            self.tally.check(preds == sv.expected, || {
                "predict_dataset on the CSV differs".into()
            });
            served.push(secs);
        }
        self.drain_telemetry("cli.in_process");
        let artifact_s = ["artifact.read", "artifact.validate", "artifact.load"]
            .iter()
            .map(|span| median(&self.rec.durations_ms(span)) / 1e3)
            .sum::<f64>();
        let read_s = median(&read);
        self.layer("dataset.read_csv_ms", "ms", read_s * 1e3);
        self.layer(
            "cli.residual_ms",
            "ms",
            (cli_s - read_s - artifact_s - median(&served)) * 1e3,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_take_turns_by_their_share_of_the_window() {
        let shares = [0.1, 0.4, 0.1, 0.1, 0.3];
        let mut spent = [0.0; 5];
        let mut steps = [0; 5];
        // Each step of a stage costs the same; over many steps the time
        // spent follows the shares, and no stage goes without turns.
        for _ in 0..1_000 {
            let stage = next_stage(&shares, &spent, &steps, true).expect("in window");
            let i = Stage::ALL.iter().position(|&s| s == stage).unwrap();
            spent[i] += 0.01;
            steps[i] += 1;
        }
        let total: f64 = spent.iter().sum();
        for (i, share) in shares.iter().enumerate() {
            assert!((spent[i] / total - share).abs() < 0.01, "stage {i}");
        }
    }

    #[test]
    fn after_the_window_only_stages_short_of_their_minimum_step() {
        let shares = Workload::FitAdult.window_shares();
        let mut steps: [usize; 5] = Stage::ALL.map(Stage::min_steps);
        assert_eq!(next_stage(&shares, &[1.0; 5], &steps, false), None);
        steps[4] -= 1;
        assert_eq!(
            next_stage(&shares, &[1.0; 5], &steps, false),
            Some(Stage::Cli)
        );
        assert!(next_stage(&shares, &[1.0; 5], &steps, true).is_some());
    }

    #[test]
    fn window_shares_add_up_to_the_window() {
        for w in Workload::ALL {
            let total: f64 = w.window_shares().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{}", w.name());
            assert!(w.window_shares().iter().all(|&s| s > 0.0));
        }
    }
}
