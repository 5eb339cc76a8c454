//! The repository benchmark: one workload per invocation.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mis-er --seed 42 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a traced run. The last stdout line is the result
//! object; the full record (environment, counts, failures and, when traced,
//! every span) goes to `perfbench/out/<workload>-seed<seed>-trace<t>.json`
//! or to the directory given with `--out`. See `perfbench/README.md`.

mod env;
mod trace;
mod workloads;

use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Counts, Ctx, Outcome, Sizes};

/// The seed the reference counts were taken with.
const REFERENCE_SEED: u64 = 42;

/// End-to-end metrics, reported with tracing off: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("msgs_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_p95_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics of the traced run: (name, unit).
/// Times are median self times of the spans around the benchmark's calls
/// into the layer; a layer a workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generators.build_s", "s"),
    ("graph.csr.freeze_s", "s"),
    ("runtime.engine.network_new_s", "s"),
    ("runtime.engine.init_s", "s"),
    ("runtime.engine.round_count", "count"),
    ("runtime.engine.round_median_s", "s"),
    ("runtime.engine.round_max_s", "s"),
    ("runtime.engine.round_sum_s", "s"),
    ("runtime.engine.messages", "count"),
    ("runtime.metrics.payload_bytes", "bytes"),
    ("core.sampler.run_s", "s"),
    ("core.sampler.spanner_edges", "count"),
    ("core.sampler.messages", "count"),
    ("core.tlocal.broadcast_s", "s"),
    ("core.tlocal.messages", "count"),
    ("core.tlocal.coverage_check_s", "s"),
    ("baselines.flooding.run_s", "s"),
    ("baselines.flooding.messages", "count"),
    ("core.simulate.call_s", "s"),
    ("algorithms.mis.validate_s", "s"),
    ("runtime.transport.tcp.connect_s", "s"),
    ("runtime.transport.tcp.round_s", "s"),
    ("runtime.transport.tcp.peer_round_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: REFERENCE_SEED,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    Ok(parsed)
}

/// The checked verdict of one run.
#[derive(Debug)]
struct Verdict {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Counts an operation as failed when it reported an error, when its exact
/// counts differ from `expected`, or when a measured operation's counts
/// differ from the first measured operation's (the work is deterministic).
fn evaluate(outcome: &Outcome, expected: Option<&Counts>) -> Verdict {
    let mut failures = Vec::new();
    let first = outcome
        .ops
        .iter()
        .find(|op| op.run_s.is_some() && op.error.is_none());
    for (index, op) in outcome.ops.iter().enumerate() {
        let mut reasons = Vec::new();
        if let Some(error) = &op.error {
            reasons.push(error.clone());
        }
        for (key, value) in expected.into_iter().flatten() {
            if let Some((_, actual)) = op.counts.iter().find(|(k, _)| k == key) {
                if actual != value {
                    reasons.push(format!("{key} = {actual}, expected {value}"));
                }
            }
        }
        if let Some(first) = first.filter(|_| op.run_s.is_some() && op.error.is_none()) {
            if op.counts != first.counts {
                reasons.push(format!(
                    "counts {:?} differ from the first operation's {:?}",
                    op.counts, first.counts
                ));
            }
        }
        if !reasons.is_empty() {
            failures.push(format!("operation {index}: {}", reasons.join("; ")));
        }
    }
    // Every expected count must have been observed by some operation.
    for (key, value) in expected.into_iter().flatten() {
        if !outcome
            .ops
            .iter()
            .any(|op| op.counts.iter().any(|(k, _)| k == key))
        {
            failures.push(format!("{key} (expected {value}) was never measured"));
        }
    }
    Verdict {
        attempted: outcome.ops.len().max(1) as u64,
        failed: (failures.len() as u64).min(outcome.ops.len().max(1) as u64),
        failures,
    }
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile; 0 for no samples.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let (low, high) = (position.floor() as usize, position.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

fn end_to_end(outcome: &Outcome, verdict: &Verdict, peak_rss_mib: f64) -> Vec<(&'static str, f64)> {
    let untraced: Vec<_> = outcome
        .ops
        .iter()
        .filter(|op| !op.traced && op.error.is_none())
        .filter_map(|op| op.run_s.map(|run_s| (run_s, op.messages)))
        .collect();
    let run_s: Vec<f64> = untraced.iter().map(|(run_s, _)| *run_s).collect();
    let rates: Vec<f64> = untraced
        .iter()
        .map(|(run_s, messages)| *messages as f64 / run_s)
        .collect();
    // Where a run has too few rounds for a tail, one operation is one sample.
    let latency_ms: Vec<f64> = if outcome.round_ms.is_empty() {
        run_s.iter().map(|s| s * 1e3).collect()
    } else {
        outcome.round_ms.clone()
    };
    vec![
        ("setup_s", median(&outcome.setup_s)),
        ("run_s", median(&run_s)),
        ("msgs_per_s", median(&rates)),
        ("round_p50_ms", quantile(&latency_ms, 0.50)),
        ("round_p95_ms", quantile(&latency_ms, 0.95)),
        ("peak_rss_mib", peak_rss_mib),
        (
            "ok_ratio",
            (verdict.attempted - verdict.failed) as f64 / verdict.attempted as f64,
        ),
    ]
}

fn per_layer(outcome: &Outcome, tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let span_median = |name: &str| median(&tracer.self_times_of(name));
    let rounds = tracer.self_times_of("runtime.engine.round");
    // Per operation (trace id): how many engine rounds, and their total.
    let mut per_trace: Vec<(u32, f64, f64)> = Vec::new();
    for span in tracer
        .spans()
        .iter()
        .filter(|s| s.name == "runtime.engine.round")
    {
        match per_trace.iter_mut().find(|(id, _, _)| *id == span.trace_id) {
            Some(entry) => {
                entry.1 += 1.0;
                entry.2 += span.duration_s();
            }
            None => per_trace.push((span.trace_id, 1.0, span.duration_s())),
        }
    }
    let column =
        |pick: fn(&(u32, f64, f64)) -> f64| -> Vec<f64> { per_trace.iter().map(pick).collect() };
    let layer_count = |name: &str| {
        outcome
            .layer_counts
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let traced_s: Vec<f64> = run_times(outcome, true);
    let untraced_s: Vec<f64> = run_times(outcome, false);
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = match name {
                "runtime.engine.round_count" => median(&column(|e| e.1)),
                "runtime.engine.round_median_s" => median(&rounds),
                "runtime.engine.round_max_s" => rounds.iter().copied().fold(0.0, f64::max),
                "runtime.engine.round_sum_s" => median(&column(|e| e.2)),
                "trace.overhead_s" => median(&traced_s) - median(&untraced_s),
                "trace.spans" => tracer.spans().len() as f64,
                _ => match name.strip_suffix("_s") {
                    Some(span) => span_median(span),
                    None => layer_count(name),
                },
            };
            (name, value)
        })
        .collect()
}

fn run_times(outcome: &Outcome, traced: bool) -> Vec<f64> {
    outcome
        .ops
        .iter()
        .filter(|op| op.traced == traced && op.error.is_none())
        .filter_map(|op| op.run_s)
        .collect()
}

fn metric_object(metrics: &[(&'static str, f64)], units: &[(&str, &str)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(name, value)| {
                let unit = units
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("", |(_, u)| *u);
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), value.into()),
                        ("unit".into(), unit.into()),
                    ]),
                )
            })
            .collect(),
    )
}

/// One finished run of a workload.
struct Run {
    outcome: Outcome,
    verdict: Verdict,
    metrics: Vec<(&'static str, f64)>,
    tracer: Tracer,
}

fn execute(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    expected: Option<&Counts>,
) -> Result<Run, String> {
    let mut tracer = Tracer::new(trace, Instant::now());
    let mut ctx = Ctx {
        seed,
        sizes,
        seconds,
        trace,
        tracer: &mut tracer,
        first_op_peak_rss_mib: None,
    };
    let outcome = workloads::run(workload, &mut ctx)?;
    let peak_rss_mib = ctx.first_op_peak_rss_mib.unwrap_or_else(env::peak_rss_mib);
    let verdict = evaluate(&outcome, expected);
    let metrics = if trace {
        per_layer(&outcome, &tracer)
    } else {
        end_to_end(&outcome, &verdict, peak_rss_mib)
    };
    Ok(Run {
        outcome,
        verdict,
        metrics,
        tracer,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let reference = workloads::reference(&args.workload);
    let expected = (args.seed == REFERENCE_SEED).then_some(&reference);
    let Run {
        outcome,
        verdict,
        metrics,
        tracer,
    } = match execute(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Sizes::FULL,
        expected,
    ) {
        Ok(result) => result,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    for failure in &verdict.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let units = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = metric_object(&metrics, units);
    let correct = verdict.failed == 0;

    let counts = outcome
        .ops
        .iter()
        .find(|op| op.run_s.is_some())
        .map(|op| &op.counts);
    let record = Value::Object(vec![
        ("workload".into(), args.workload.as_str().into()),
        ("seed".into(), args.seed.into()),
        ("trace".into(), args.trace.into()),
        ("env".into(), env::block(outcome.shards, args.seed)),
        ("correct".into(), correct.into()),
        ("attempted".into(), verdict.attempted.into()),
        ("failed".into(), verdict.failed.into()),
        (
            "failures".into(),
            Value::Array(verdict.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        (
            "samples".into(),
            Value::Object(vec![
                ("setups".into(), outcome.setup_s.len().into()),
                (
                    "operations".into(),
                    outcome
                        .ops
                        .iter()
                        .filter(|op| op.run_s.is_some())
                        .count()
                        .into(),
                ),
                ("rounds".into(), outcome.round_ms.len().into()),
                (
                    "setup_s".into(),
                    Value::Array(outcome.setup_s.iter().map(|&s| s.into()).collect()),
                ),
                (
                    "run_s".into(),
                    Value::Array(
                        outcome
                            .ops
                            .iter()
                            .filter_map(|op| op.run_s)
                            .map(Value::from)
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "counts".into(),
            Value::Object(
                counts
                    .into_iter()
                    .flatten()
                    .map(|(k, v)| (k.to_string(), (*v).into()))
                    .collect(),
            ),
        ),
        ("metrics".into(), metrics.clone()),
        ("spans".into(), tracer.to_json()),
    ]);
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        std::fs::write(
            &path,
            format!(
                "{}\n",
                serde_json::to_string_pretty(&record).expect("a value tree always renders")
            ),
        )
    });
    if let Err(error) = written {
        eprintln!("perfbench: cannot write {}: {error}", path.display());
    }

    let result = Value::Object(vec![
        ("correct".into(), correct.into()),
        ("attempted".into(), verdict.attempted.into()),
        ("failed".into(), verdict.failed.into()),
        ("metrics".into(), metrics),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    //! Self-test at tiny sizes: the checks bite, and the traced run reports
    //! every per-layer metric including its own overhead.

    use super::*;

    const SEED: u64 = 3;

    fn metric(metrics: &[(&'static str, f64)], name: &str) -> f64 {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    }

    #[test]
    fn a_corrupted_expected_count_fails_the_run() {
        for workload in workloads::NAMES {
            let Run {
                outcome,
                verdict,
                metrics,
                ..
            } = execute(workload, SEED, 0.0, false, Sizes::TINY, None).unwrap();
            assert_eq!(verdict.failed, 0, "{workload}: {:?}", verdict.failures);
            assert_eq!(metric(&metrics, "ok_ratio"), 1.0, "{workload}");
            let measured = outcome.ops.iter().find(|op| op.run_s.is_some()).unwrap();
            let clean = execute(
                workload,
                SEED,
                0.0,
                false,
                Sizes::TINY,
                Some(&measured.counts),
            )
            .unwrap();
            assert_eq!(clean.verdict.failed, 0, "{workload}");

            let mut corrupted = measured.counts.clone();
            corrupted[0].1 += 1;
            let corrupt =
                execute(workload, SEED, 0.0, false, Sizes::TINY, Some(&corrupted)).unwrap();
            assert!(
                corrupt.verdict.failed > 0,
                "{workload}: corrupted count passed"
            );
            assert!(metric(&corrupt.metrics, "ok_ratio") < 1.0, "{workload}");
        }
    }

    #[test]
    fn an_expected_count_that_is_never_measured_fails_the_run() {
        let run = execute("simulate-dense", SEED, 0.0, false, Sizes::TINY, None).unwrap();
        let expected = vec![("no_such_count", 1)];
        assert_eq!(evaluate(&run.outcome, Some(&expected)).failed, 1);
    }

    #[test]
    fn the_traced_run_reports_every_layer_metric_and_its_overhead() {
        for workload in workloads::NAMES {
            let Run {
                outcome,
                verdict,
                metrics,
                tracer,
            } = execute(workload, SEED, 0.0, true, Sizes::TINY, None).unwrap();
            assert_eq!(verdict.failed, 0, "{workload}: {:?}", verdict.failures);
            let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
            let listed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, listed, "{workload}");
            assert!(
                !run_times(&outcome, true).is_empty(),
                "{workload}: no traced op"
            );
            assert!(
                !run_times(&outcome, false).is_empty(),
                "{workload}: no untraced op"
            );
            let overhead = metric(&metrics, "trace.overhead_s");
            assert!(
                overhead.is_finite() && overhead != 0.0,
                "{workload}: {overhead}"
            );
            assert!(!tracer.spans().is_empty(), "{workload}");
            assert!(
                metric(&metrics, "graph.generators.build_s") > 0.0,
                "{workload}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let names = json.matches("\"name\"").count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        assert_eq!(
            names,
            workloads::NAMES.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
    }
}
