//! Kernel benchmark: times the naive reference implementations against
//! the fast kernels (presorted CART, bounded Lloyd) on the
//! `exp_runtime`-scale synthetic Adult dataset, checks equivalence, and
//! writes `BENCH_kernels.json` at the repo root.
//!
//! `--smoke` shrinks the data and repetition count for CI.

use falcc_bench::{bench_kernels, Opts};

fn main() {
    let opts = Opts::from_args();
    let (scale, reps) = if opts.smoke { (0.02, 1) } else { (opts.scale, 3) };

    falcc_telemetry::progress(format!(
        "benchmarking kernels at scale {scale} (reps {reps}, seed {})",
        opts.seed
    ));
    let report = bench_kernels(scale, opts.seed, reps);

    println!("kernel                  naive_ms    fast_ms  speedup  equivalent");
    for k in &report.kernels {
        println!(
            "{:<22} {:>9.2} {:>10.2} {:>7.2}x  {}",
            k.kernel, k.naive_ms, k.fast_ms, k.speedup, k.equivalent
        );
    }

    let json = serde_json::to_string(&report).expect("serialise report");
    let out = "BENCH_kernels.json";
    std::fs::write(out, json).expect("write BENCH_kernels.json");
    falcc_telemetry::progress(format!(
        "wrote {out} ({} rows of training data)",
        report.train_rows
    ));

    // Bit-equivalence is a hard promise; fail loudly if a kernel diverged.
    let broken: Vec<&str> = report
        .kernels
        .iter()
        .filter(|k| !k.equivalent)
        .map(|k| k.kernel.as_str())
        .collect();
    if !broken.is_empty() {
        eprintln!("kernels diverged from their references: {broken:?}");
        std::process::exit(1);
    }
}
