//! Command line of the RIPQ benchmark.
//!
//! ```text
//! ripq-perfbench --workload <paper-batch|query-fanout|stream-ingest>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                [--scratch <dir>]
//! ```
//!
//! Prints one `metric` line per metric (name, value, unit), one `detail`
//! JSON line (input digest, sample counts, tail percentiles, spans) and,
//! last, the result object. Exits non-zero when an output check or an
//! operation failed.

use ripq_perfbench::inputs::Workload;
use ripq_perfbench::{run, Options, Report};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!("error: {why}");
    eprintln!(
        "usage: ripq-perfbench --workload <paper-batch|query-fanout|stream-ingest> \
         --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scratch = PathBuf::from(".bench_build/perfbench-scratch");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds must be a non-negative number")?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--scratch" => scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke: false,
        scratch: scratch.join(format!("{}-{}", workload.name(), std::process::id())),
    })
}

fn render(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.checks.correct(),
        report.checks.attempted.max(1),
        report.checks.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(why) => return usage(&why),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        eprintln!("error: cannot create {}: {e}", opts.scratch.display());
        return ExitCode::FAILURE;
    }
    let mut report = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.scratch);
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            let why = format!("metric {} is not finite", m.name);
            report.checks.wrong(why);
            m.value = 0.0;
        }
    }
    for why in &report.checks.problems {
        eprintln!("check: {why}");
    }
    for m in &report.metrics {
        println!("metric {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut detail = vec![
        (
            "workload".to_string(),
            format!("\"{}\"", opts.workload.name()),
        ),
        ("seed".to_string(), opts.seed.to_string()),
        ("trace".to_string(), u8::from(opts.trace).to_string()),
        ("wrong".to_string(), report.checks.wrong.to_string()),
    ];
    detail.append(&mut report.detail);
    let fields: Vec<String> = detail.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{\"detail\":{{{}}}}}", fields.join(","));
    println!("{}", render(&report));
    if report.checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
