//! `perfbench` — the wall-clock benchmark of RATest-rs.
//!
//! ```text
//! perfbench --workload <course_explain|semester_serve|tpch_aggregate|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process for `--seconds` seconds on inputs
//! generated from `--seed`, checks the program's outputs, and prints report
//! lines followed by one JSON result line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run also
//! writes its spans under `.perfbench_out/`. The workloads, metrics and
//! their layers are described in `perfbench/README.md`.

mod explain;
mod report;
mod semester;
mod trace;

use ratest_grader::json::Json;
use report::{median, Report, END_TO_END, GATED, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: &[&str] = &["course_explain", "semester_serve", "tpch_aggregate"];
/// Where traced runs write spans and every run records its end-to-end
/// figures, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the child processes of the explain workloads: run only this
    /// pass and print its records.
    pass: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pass = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                })
            }
            "--pass" => pass = Some(number()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing `--workload`")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {}, or all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing `--seed`")?,
        seconds: seconds.ok_or("missing `--seconds`")?,
        trace: trace.ok_or("missing `--trace`")?,
        pass,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
    }
    let tracer = Tracer::new(args.trace);
    let mut report = match (args.workload.as_str(), args.pass) {
        ("semester_serve", _) => semester::semester_serve(args.seed, args.seconds, &tracer),
        (workload, Some(pass)) => {
            explain::pass(workload, args.seed, pass, &tracer);
            return ExitCode::SUCCESS;
        }
        (workload, None) => explain::run(workload, args.seed, args.seconds, &tracer),
    };
    let failed_share = 1.0 - value(&report.e2e, "answered_share");
    report.e2e.insert("failed_share", failed_share);
    let own_rss = report::peak_rss_mb();
    let rss = report.e2e.entry("peak_rss_mb").or_default();
    *rss = rss.max(own_rss);
    *report.layers.entry("trace.spans").or_default() += tracer.span_count() as f64;

    for line in &report.lines {
        println!("{line}");
    }
    for (name, unit) in END_TO_END {
        println!("e2e {name} = {:.6} {unit}", value(&report.e2e, name));
    }
    let stem = format!("{}-seed{}", args.workload, args.seed);
    record_e2e(
        &out_dir,
        &format!("{stem}-{}s", args.seconds),
        args.trace,
        &report,
    );
    if args.trace {
        print_layers(&tracer, &report);
        print_overhead(&out_dir, &args.workload, args.seconds, &report);
        let path = out_dir.join(format!("{stem}.trace.jsonl"));
        match tracer.write(&path) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for v in &report.violations {
        println!("VIOLATION {v}");
    }

    let (set, values): (Vec<(&str, &str)>, _) = if args.trace {
        (PER_LAYER.to_vec(), &report.layers)
    } else {
        let gated = END_TO_END.iter().filter(|(name, _)| GATED.contains(name));
        (gated.copied().collect(), &report.e2e)
    };
    let metrics = set
        .iter()
        .map(|(name, unit)| {
            (
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Float(value(values, name))),
                    ("unit", Json::str(*unit)),
                ]),
            )
        })
        .collect();
    let correct = report.violations.is_empty();
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload, each in a process of its own, one
/// after another; fails when any of them does.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let mut ok = true;
    for workload in WORKLOADS {
        println!("== {workload}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                println!("== {workload} failed: {s}");
                ok = false;
            }
            Err(e) => {
                println!("== {workload} did not start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A metric every workload must report; a missing one is a benchmark bug.
fn value(values: &std::collections::BTreeMap<&'static str, f64>, name: &str) -> f64 {
    *values
        .get(name)
        .unwrap_or_else(|| panic!("workload did not report `{name}`"))
}

fn print_layers(tracer: &Tracer, report: &Report) {
    for (name, unit) in PER_LAYER {
        println!("layer {name} = {:.6} {unit}", value(&report.layers, name));
    }
    for (name, t) in tracer.layer_totals() {
        println!(
            "span {name}: {} calls, total {:.3} ms, self {:.3} ms",
            t.count,
            report::ms(t.total),
            report::ms(t.self_time)
        );
    }
}

/// Keep this run's end-to-end figures so that a traced run can state its
/// overhead against the untraced runs made in the same directory.
fn record_e2e(dir: &Path, stem: &str, traced: bool, report: &Report) {
    let pairs = END_TO_END
        .iter()
        .map(|(name, _)| (name.to_string(), Json::Float(value(&report.e2e, name))))
        .collect();
    let path = dir.join(format!("{stem}-trace{}.e2e.json", traced as u8));
    if let Err(e) = std::fs::write(&path, Json::Obj(pairs).render()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Tracing overhead: this traced run's end-to-end figures against the
/// median of the untraced runs of the same workload recorded so far.
fn print_overhead(dir: &Path, workload: &str, seconds: u64, report: &Report) {
    let prefix = format!("{workload}-seed");
    let suffix = format!("-{seconds}s-trace0.e2e.json");
    let untraced: Vec<Json> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with(&prefix) && name.ends_with(&suffix)
        })
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .filter_map(|text| Json::parse(&text).ok())
        .collect();
    if untraced.is_empty() {
        println!("trace overhead: no untraced {workload} run recorded in {OUT_DIR} yet");
        return;
    }
    for name in ["latency_p50_ms", "throughput_rps", "setup_s"] {
        let base: Vec<f64> = untraced
            .iter()
            .filter_map(|d| match d.get(name) {
                Some(Json::Float(v)) => Some(*v),
                Some(Json::Int(v)) => Some(*v as f64),
                _ => None,
            })
            .collect();
        let base = median(&base);
        let traced = value(&report.e2e, name);
        println!(
            "trace overhead: {name} traced {traced:.4} vs untraced median {base:.4} over {} runs ({:+.2}% of the untraced median)",
            untraced.len(),
            if base == 0.0 { 0.0 } else { 100.0 * (traced - base) / base }
        );
    }
}
