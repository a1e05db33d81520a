//! perfbench: one seeded, fixed-length run of a named workload through the
//! public UDAO API, with every answer checked.
//!
//! ```text
//! perfbench --workload <cold_solve|repeat_swap|stage_dag|serve_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}` —
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`
//! (which also writes the span log under `perfbench/out/`).

mod calc;
mod check;
mod metrics;
mod setup;
mod sys;
mod trace;
mod workloads;

use check::Checker;
use metrics::{Metric, Run};
use setup::{Options, System};
use std::process::ExitCode;
use std::time::Instant;
use trace::InferSnapshot;
use workloads::{ClientStats, Sequence};

/// Serving workers on serve_mix: the host's core count.
const SERVE_WORKERS: usize = 2;
/// Requests serve_mix keeps in flight: twice the workers.
const SERVE_WINDOW: usize = 2 * SERVE_WORKERS;
/// serve_mix requests re-solved serially for the determinism check.
const SERIAL_SUBSET: usize = 6;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn options(workload: &str) -> Result<Options, String> {
    let plain = Options {
        cache: None,
        workers: 1,
        pf_threads: None,
        train: true,
        stream_engine: true,
    };
    Ok(match workload {
        "cold_solve" => plain,
        "repeat_swap" => Options {
            cache: Some(workloads::SWAP_CACHE),
            ..plain
        },
        "stage_dag" => Options {
            train: false,
            stream_engine: false,
            ..plain
        },
        "serve_mix" => Options {
            workers: SERVE_WORKERS,
            pf_threads: Some(1),
            stream_engine: false,
            ..plain
        },
        other => return Err(format!("unknown workload {other}")),
    })
}

fn json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn run(args: &Args, process_start: Instant) -> Result<String, String> {
    let opts = options(&args.workload)?;
    let mut sys = System::start(&opts, args.trace)?;
    let seq: Sequence = match args.workload.as_str() {
        "cold_solve" => workloads::cold_solve(args.seed, args.seconds),
        "repeat_swap" => workloads::repeat_swap(args.seed, args.seconds),
        "stage_dag" => workloads::stage_dag(
            args.seed,
            args.seconds,
            workloads::stage_fixtures(sys.tracer.as_ref()),
        ),
        _ => workloads::serve_mix(args.seed, args.seconds),
    };
    let setup_s = process_start.elapsed().as_secs_f64();

    let global_before = udao_telemetry::global().snapshot();
    let infer_before = sys
        .tracer
        .as_ref()
        .map(|t| t.infer_snapshot())
        .unwrap_or_default();
    let leases_before = sys.tracer.as_ref().map_or((0, 0), |t| t.lease_totals());
    let mut stats = ClientStats::default();
    let done = if args.workload == "serve_mix" {
        workloads::windowed(&sys, &seq, SERVE_WINDOW, &mut stats)
    } else {
        workloads::closed_loop(&mut sys, &seq, &mut stats)
    };
    let global = udao_telemetry::global()
        .snapshot()
        .delta_since(&global_before);
    let infer = sys.tracer.as_ref().map_or(InferSnapshot::default(), |t| {
        t.infer_snapshot().since(&infer_before)
    });
    let leases = sys.tracer.as_ref().map_or((0, 0), |t| {
        let (l, ns) = t.lease_totals();
        (l - leases_before.0, ns - leases_before.1)
    });
    let peak_rss_mb = sys::peak_rss_mb();
    sys.shutdown();

    let mut checker = Checker::new(args.seed);
    for (i, (item, d)) in seq.items.iter().zip(&done).enumerate() {
        checker.check(i, item, d, &seq, &sys);
    }
    if stats.duplicate_answers > 0 {
        checker.failures.push(format!(
            "{} requests answered twice",
            stats.duplicate_answers
        ));
    }
    match args.workload.as_str() {
        "repeat_swap" => checker.check_hits(&seq, &done),
        "serve_mix" => checker.check_serial(&seq, &done, &sys, SERIAL_SUBSET),
        _ => {}
    }
    let failed = done.iter().filter(|d| d.result.is_err()).count();
    for d in done.iter().filter_map(|d| d.result.as_ref().err()).take(5) {
        eprintln!("perfbench: failed request: {d}");
    }
    for f in checker.failures.iter().take(10) {
        eprintln!("perfbench: check failed: {f}");
    }
    if !checker.failures.is_empty() {
        eprintln!("perfbench: {} check failures", checker.failures.len());
    }

    let run = Run {
        items: &seq.items,
        done: &done,
        stats: &stats,
        setup_s,
        peak_rss_mb,
        hv: &checker.hv,
        global,
        infer,
        leases,
    };
    let metrics = if args.trace {
        metrics::per_layer(&run, &sys)
    } else {
        metrics::end_to_end(&run)
    };
    if let Some(tracer) = &sys.tracer {
        // The span log, and both metric sets of the traced run (its
        // end-to-end numbers against an untraced run's give the tracing
        // overhead).
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let stem = dir.join(format!("{}-seed{}", args.workload, args.seed));
        let summary = json(
            true,
            seq.items.len(),
            failed,
            &[metrics::end_to_end(&run), metrics.clone()].concat(),
        )?;
        std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(stem.with_extension("jsonl"), tracer.to_jsonl()))
            .and_then(|_| std::fs::write(stem.with_extension("summary.json"), summary))
            .map_err(|e| format!("writing {}: {e}", stem.display()))?;
    }
    json(
        checker.failures.is_empty(),
        seq.items.len(),
        failed,
        &metrics,
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
