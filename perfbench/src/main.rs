//! The FALCC benchmark: one seeded workload per run, end-to-end metrics
//! with program telemetry off (`--trace 0`) or per-layer metrics with it
//! on (`--trace 1`). `perfbench/run.py` builds this binary and the
//! `falcc` binary and passes their paths; see `perfbench/README.md`.
//!
//! Usage: `falcc-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> --falcc <path> --work <dir> --trace-out <file>`
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Metric, Settings, Workload};

fn parse_args(argv: &[String]) -> Result<(Settings, PathBuf), String> {
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |flag: &str| {
        flags
            .get(flag)
            .copied()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = Workload::parse(get("--workload")?).ok_or("unknown --workload")?;
    let seed: u64 = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let settings = Settings {
        workload,
        seed,
        window: Duration::from_secs(seconds),
        trace,
        falcc: get("--falcc")?.into(),
        work: get("--work")?.into(),
    };
    Ok((settings, get("--trace-out")?.into()))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_string()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            r#"{sep}"{}": {{"value": {value}, "unit": "{}"}}"#,
            m.name, m.unit
        );
    }
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{body}}}}}"#
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (settings, trace_out) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&settings.work) {
        eprintln!("error: creating {}: {e}", settings.work.display());
        return ExitCode::FAILURE;
    }
    let outcome = workload::run(&settings);
    let _ = std::fs::remove_dir_all(&settings.work);
    let outcome = match outcome {
        Ok(o) => o,
        Err((e, tally)) => {
            eprintln!("error: {e}");
            println!(
                "{}",
                result_line(false, tally.attempted(), tally.failed(), &[])
            );
            return ExitCode::FAILURE;
        }
    };
    let metrics = if settings.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let tally = &outcome.tally;
    let correct = tally.failed() == 0
        && metrics
            .iter()
            .all(|m| m.value.is_finite() && stats::valid_name(m.name));

    if let Err(e) = std::fs::write(&trace_out, &outcome.trace_jsonl) {
        eprintln!("error: writing {}: {e}", trace_out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "workload {} seed {} threads {}",
        settings.workload.name(),
        settings.seed,
        workload::THREADS
    );
    for note in &outcome.notes {
        println!("note {note}");
    }
    for m in metrics {
        println!("metric {:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric {:<28} {:>16} share ({} of {} operations failed)",
        "failed_share",
        tally.failed_share(),
        tally.failed(),
        tally.attempted()
    );
    for f in tally.failures() {
        println!("failure {f}");
    }
    println!("trace {}", trace_out.display());
    println!(
        "{}",
        result_line(correct, tally.attempted(), tally.failed(), metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_result_keys() {
        let m = [
            Metric {
                name: "fit_s",
                unit: "s",
                value: 12.5,
            },
            Metric {
                name: "row_p99_ns",
                unit: "ns",
                value: f64::NAN,
            },
        ];
        assert_eq!(
            result_line(true, 3, 0, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"fit_s": {"value": 12.5, "unit": "s"}, "row_p99_ns": {"value": null, "unit": "ns"}}}"#
        );
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok =
            "--workload fit_adult --seed 7 --seconds 3 --trace 1 --falcc f --work w --trace-out t";
        let (s, out) = parse_args(&argv(ok)).expect("valid");
        assert_eq!((s.workload, s.seed, s.trace), (Workload::FitAdult, 7, true));
        assert_eq!(out, PathBuf::from("t"));
        assert!(parse_args(&argv(&ok.replace("fit_adult", "nope"))).is_err());
        assert!(parse_args(&argv(&ok.replace("--trace 1", "--trace 2"))).is_err());
        assert!(parse_args(&argv(&ok.replace("--seconds 3", "--seconds 0"))).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }
}
