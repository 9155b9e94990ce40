//! The two closed-loop explain workloads, `course_explain` and
//! `tpch_aggregate`.
//!
//! One client sends one `ExplainRequest` at a time through a cold `Grader`
//! (`workers: 1`, a per-job deadline) and waits for the verdict before it
//! sends the next. Each reference is prepared once with
//! `Grader::prepare_context`; every submission is distinct, so the verdict
//! cache is never hit.
//!
//! The run is a sequence of passes, one after another, as many as fill
//! `--seconds` on a 2-CPU host (a count fixed by the arguments). A pass
//! grades every pair of one freshly generated instance in its own process
//! — a cold grading job, the way a `grade` invocation is one — so the
//! threads that timed-out jobs leave running compete for the cores with
//! the rest of their pass, and end with it. Each pass draws a new instance
//! from the seed, so a run averages over several.
//!
//! After its last request a pass checks every verdict from outside: a
//! `Wrong` verdict must re-verify (`Q1(D') != Q2(D')` under
//! `ra::eval::evaluate_with_params` on the counterexample's sub-instance),
//! and no request may be answered `Correct`, because set-up kept only pairs
//! the instance distinguishes. Timeouts and errors are failures: they are
//! counted and logged by pair, never dropped.

use crate::report::{mean, median, ms, tail, Counters, Report, COUNTERS};
use crate::trace::Tracer;
use ratest_core::session::EventHandle;
use ratest_grader::json::Json;
use ratest_grader::{ExplainRequest, Grader, GraderConfig, Verdict};
use ratest_ra::ast::Query;
use ratest_ra::canonical::fingerprint;
use ratest_ra::eval::{evaluate, evaluate_with_params};
use ratest_storage::Database;
use std::collections::{BTreeMap, HashSet};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Total tuples of each `course_explain` university instance.
pub const COURSE_TUPLES: usize = 200;
/// Mutations sampled per course question and pass (question 6 has six,
/// so every pass grades all of them).
pub const COURSE_MUTATIONS: usize = 6;
/// Scale factor of each `tpch_aggregate` instance (about 8k tuples).
pub const TPCH_SCALE: f64 = 0.001;
/// Per-job deadline of a workload's grader. Each is set in a wide gap
/// between how long jobs take: every job ends well within it or runs many
/// times longer (see the README's *Known deadline overruns*), so which
/// requests time out follows from the inputs, not from the host's speed.
/// On `course_explain` answered jobs take at most about 0.5 s and the
/// question-6 overruns about 50 s; on `tpch_aggregate` Q18 v1 takes from
/// 0.9 to 1.9 s, Q21-S ends in an error after 6 to 28 s, and Q18 v0 runs
/// 50 s and more.
pub fn job_deadline(workload: &str) -> Duration {
    match workload {
        "course_explain" => Duration::from_millis(1_000),
        _ => Duration::from_millis(3_500),
    }
}

/// A pass's length on a 2-CPU host, in seconds. A run makes
/// `--seconds` / this many passes, at least one: the count follows from
/// the arguments, never from the clock, so that a seed and a run length
/// always grade the same requests, and `attempted` and `failed` are the
/// same on every host.
fn pass_seconds(workload: &str) -> f64 {
    match workload {
        "course_explain" => 6.5,
        _ => 9.0,
    }
}

/// One reference with the submissions graded against it.
struct Group {
    label: String,
    reference: Query,
    pairs: Vec<(String, Query)>,
}

/// Builds of each pass's inputs; the pass reports their median time.
pub const SETUP_REPEATS: usize = 10;

/// A pass's generated inputs: the instance and, per reference, the
/// candidate submissions before the distinguishing filter.
struct Inputs {
    db: Database,
    candidates: Vec<Group>,
    datagen: Duration,
}

/// Figures of the distinguishing filter, which evaluates every pair on the
/// full instance.
#[derive(Default)]
struct Filter {
    /// Reference plus submission evaluation on the full instance, per pair.
    eval_ms: Vec<f64>,
    fingerprint_us: Vec<f64>,
}

/// The instance seed of pass `pass`: every pass draws its own instance.
fn instance_seed(seed: u64, pass: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(pass)
}

/// Keep the pairs the instance distinguishes, one per canonical
/// fingerprint (and none equal to the reference), so that every request is
/// a distinct, wrong submission.
fn distinguished(db: &Database, candidates: Group, tracer: &Tracer, filter: &mut Filter) -> Group {
    let Group {
        label,
        reference,
        pairs: candidates,
    } = candidates;
    let (ref_result, ref_time) =
        tracer.time("ra::eval.evaluate", None, 0, || evaluate(&reference, db));
    let ref_fp = fingerprint(&reference);
    let mut seen = HashSet::from([ref_fp]);
    let mut pairs = Vec::new();
    for (name, query) in candidates {
        let (result, eval_time) =
            tracer.time("ra::eval.evaluate", None, 0, || evaluate(&query, db));
        filter.eval_ms.push(ms(ref_time + eval_time));
        let (fp, fp_time) =
            tracer.time("ra::canonical.fingerprint", None, 0, || fingerprint(&query));
        filter.fingerprint_us.push(fp_time.as_secs_f64() * 1e6);
        let differs = matches!((&ref_result, &result), (Ok(a), Ok(b)) if !a.set_eq(b));
        if differs && seen.insert(fp) {
            pairs.push((name, query));
        }
    }
    Group {
        label,
        reference,
        pairs,
    }
}

/// A university instance with [`COURSE_MUTATIONS`] sampled single-site
/// mutations of each of the eight course questions (`course_workload`).
fn course_inputs(seed: u64, tracer: &Tracer) -> Inputs {
    let (db, datagen) = tracer.time("datagen.university_database", None, 0, || {
        ratest_datagen::university_database(&ratest_datagen::UniversityConfig {
            total_tuples: COURSE_TUPLES,
            seed,
            ..Default::default()
        })
    });
    let (workload, _) = tracer.time("bench::workload.course_workload", None, 0, || {
        ratest_bench::workload::course_workload(COURSE_MUTATIONS, seed)
    });
    let candidates = ratest_queries::course::course_questions()
        .into_iter()
        .map(|q| {
            let wrong = workload
                .iter()
                .filter(|p| p.question == q.number)
                .map(|p| (p.error.clone(), p.wrong.clone()))
                .collect();
            Group {
                label: format!("q{}", q.number),
                reference: q.reference,
                pairs: wrong,
            }
        })
        .collect();
    Inputs {
        db,
        candidates,
        datagen,
    }
}

/// A TPC-H instance with Figure 6's reference/wrong pairs.
fn tpch_inputs(seed: u64, tracer: &Tracer) -> Inputs {
    let (db, datagen) = tracer.time("datagen.tpch_database", None, 0, || {
        ratest_datagen::tpch_database(&ratest_datagen::TpchConfig {
            scale_factor: TPCH_SCALE,
            seed,
        })
    });
    let candidates = ratest_queries::tpch_queries::tpch_experiments()
        .into_iter()
        .map(|exp| {
            let wrong = exp
                .wrong
                .into_iter()
                .enumerate()
                .map(|(v, q)| (format!("v{v}"), q))
                .collect();
            Group {
                label: exp.name.to_owned(),
                reference: exp.reference,
                pairs: wrong,
            }
        })
        .collect();
    Inputs {
        db,
        candidates,
        datagen,
    }
}

fn emit(kind: &str, mut fields: Vec<(&str, Json)>) {
    fields.insert(0, ("kind", Json::str(kind)));
    println!("{}", Json::obj(fields).render());
}

/// A `failure` or `violation` record.
fn note(kind: &str, text: String) {
    emit(kind, vec![("text", Json::Str(text))]);
}

/// One pass, run in a process of its own: build the instance, grade every
/// pair once through a cold grader, check the verdicts, and print one JSON
/// record per line for the parent run to aggregate.
pub fn pass(workload: &str, seed: u64, pass: u64, tracer: &Tracer) {
    let instance_seed = instance_seed(seed, pass);
    // Set-up is generating the instance and the workload. It is built
    // [`SETUP_REPEATS`] times, identically, so that a slow moment of the
    // host does not set `setup_s`; the first build is graded.
    let mut setup_s = Vec::new();
    let mut datagen_ms = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let built = match workload {
            "course_explain" => course_inputs(instance_seed, tracer),
            _ => tpch_inputs(instance_seed, tracer),
        };
        setup_s.push(start.elapsed().as_secs_f64());
        datagen_ms.push(ms(built.datagen));
        inputs.get_or_insert(built);
    }
    let Inputs { db, candidates, .. } = inputs.expect("at least one set-up build");
    let mut filter = Filter::default();
    let groups: Vec<Group> = candidates
        .into_iter()
        .map(|group| distinguished(&db, group, tracer, &mut filter))
        .collect();
    emit(
        "setup",
        vec![
            ("setup_s", Json::Float(median(&setup_s))),
            ("datagen_ms", Json::Float(median(&datagen_ms))),
            ("eval_ms", Json::Float(mean(&filter.eval_ms))),
            ("fingerprint_us", Json::Float(mean(&filter.fingerprint_us))),
            ("tuples", Json::Int(db.total_tuples() as i64)),
            (
                "pairs",
                Json::Int(groups.iter().map(|g| g.pairs.len()).sum::<usize>() as i64),
            ),
        ],
    );

    let grader = Grader::new(GraderConfig {
        workers: 1,
        per_job_timeout: job_deadline(workload),
        ..Default::default()
    });
    let window = tracer.open();
    let window_id = window.map(|(id, _)| id);
    let start = Instant::now();
    let mut graded = Vec::new();
    let mut request_id = 0u64;
    for group in groups.iter().filter(|g| !g.pairs.is_empty()) {
        let (context, prepare) =
            tracer.time("grader::engine.prepare_context", window_id, 0, || {
                grader.prepare_context(&group.reference, &db)
            });
        emit("prepare", vec![("ms", Json::Float(ms(prepare)))]);
        let context =
            context.unwrap_or_else(|e| panic!("reference {} does not prepare: {e}", group.label));
        for (label, query) in &group.pairs {
            request_id += 1;
            let request = ExplainRequest::new(format!("r{request_id}"), "student", query.clone());
            let (response, latency) = tracer.time(
                "grader::engine.respond_prepared",
                window_id,
                request_id,
                || grader.respond_prepared(context, &request, EventHandle::none()),
            );
            let response = response.expect("a prepared context answers");
            assert_eq!(response.id, request.id, "a response answers its request");
            graded.push((group, label, query, latency, response.verdict));
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    tracer.close(window, "workload.pass", None);

    for (group, label, query, latency, verdict) in &graded {
        let who = format!("{} [{label}] on instance seed {instance_seed}", group.label);
        let mut fields = vec![
            ("latency_ms", Json::Float(ms(*latency))),
            ("verdict", Json::str(verdict.tag())),
        ];
        match verdict {
            Verdict::Wrong {
                counterexample,
                algorithm,
                timings,
                ..
            } => {
                let d = counterexample.database();
                let params = &counterexample.parameters;
                let (results, _) = tracer.time("ra::eval.evaluate_with_params", None, 0, || {
                    (
                        evaluate_with_params(&group.reference, d, params),
                        evaluate_with_params(query, d, params),
                    )
                });
                match results {
                    (Ok(a), Ok(b)) if !a.set_eq(&b) => {}
                    (Ok(_), Ok(_)) => note(
                        "violation",
                        format!(
                            "{who}: the counterexample of {} tuples does not distinguish the queries",
                            counterexample.size()
                        ),
                    ),
                    (a, b) => note(
                        "violation",
                        format!(
                            "{who}: the counterexample does not evaluate: {:?} / {:?}",
                            a.err(),
                            b.err()
                        ),
                    ),
                }
                fields.push(("cex", Json::Int(counterexample.size() as i64)));
                fields.push(("algorithm", Json::str(format!("{algorithm:?}"))));
                fields.push(("raw_eval_ms", Json::Float(ms(timings.raw_eval))));
                fields.push(("provenance_ms", Json::Float(ms(timings.provenance))));
                fields.push(("solver_ms", Json::Float(ms(timings.solver))));
            }
            Verdict::Correct => note(
                "violation",
                format!("{who}: answered correct, but the instance distinguishes the pair"),
            ),
            Verdict::Rejected { message, .. } => note(
                "violation",
                format!("{who}: rejected without a frontend: {message}"),
            ),
            Verdict::Timeout { budget } => note(
                "failure",
                format!("timeout after {} ms: {who}", budget.as_millis()),
            ),
            Verdict::Error { message } => note("failure", format!("error: {who}: {message}")),
        }
        emit("request", fields);
    }

    let snapshot = grader.metrics_snapshot();
    emit(
        "counters",
        COUNTERS
            .iter()
            .map(|name| (*name, Json::Int(snapshot.counter(name) as i64)))
            .collect(),
    );
    let mut end = vec![
        ("loop_s", Json::Float(loop_s)),
        ("peak_rss_mb", Json::Float(crate::report::peak_rss_mb())),
    ];
    if tracer.enabled() {
        let layers: Vec<(String, Json)> = tracer
            .layer_totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_owned(),
                    Json::Arr(vec![
                        Json::Int(t.count as i64),
                        Json::Float(ms(t.total)),
                        Json::Float(ms(t.self_time)),
                    ]),
                )
            })
            .collect();
        end.push(("layers", Json::Obj(layers)));
        let path = std::path::Path::new(crate::OUT_DIR)
            .join(format!("{workload}-seed{seed}-pass{pass}.trace.jsonl"));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    emit("pass", end);
}

fn as_f64(v: &Json) -> f64 {
    match v {
        Json::Float(v) => *v,
        Json::Int(v) => *v as f64,
        _ => 0.0,
    }
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).map_or(0.0, as_f64)
}

fn text(doc: &Json, key: &str) -> String {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_owned()
}

/// The run: the passes for `seconds`, each in a child process; then the
/// summary of every pass's records.
pub fn run(workload: &str, seed: u64, seconds: u64, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let mut setup_s = Vec::new();
    let mut datagen_ms = Vec::new();
    let mut eval_ms = Vec::new();
    let mut fingerprint_us = Vec::new();
    let mut prepare_ms = Vec::new();
    let mut latencies = Vec::new();
    let mut cex_sizes = Vec::new();
    let mut search: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut algorithms: BTreeMap<String, u64> = BTreeMap::new();
    let mut counters = Counters::default();
    let mut span_layers: BTreeMap<String, [f64; 3]> = BTreeMap::new();
    let mut loop_s = 0.0;
    let mut peak_rss_mb = Vec::new();
    let mut answered = 0u64;
    let mut passes = 0u64;
    let mut tuples = 0i64;
    let mut pairs = 0i64;

    let start = Instant::now();
    let pass_count = ((seconds as f64 / pass_seconds(workload)).round() as u64).max(1);
    while passes < pass_count {
        let (output, _) = tracer.time("perfbench.pass_process", None, 0, || {
            Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if tracer.enabled() { "1" } else { "0" }])
                .args(["--pass", &passes.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
        });
        let output = output.expect("a pass process starts");
        passes += 1;
        if !output.status.success() {
            report.violation(format!("pass {} exited with {}", passes - 1, output.status));
        }
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let Ok(doc) = Json::parse(line) else {
                report.violation(format!(
                    "pass {} printed a line that is not JSON: {line}",
                    passes - 1
                ));
                continue;
            };
            match doc.get("kind").and_then(Json::as_str).unwrap_or_default() {
                "setup" => {
                    setup_s.push(num(&doc, "setup_s"));
                    datagen_ms.push(num(&doc, "datagen_ms"));
                    eval_ms.push(num(&doc, "eval_ms"));
                    fingerprint_us.push(num(&doc, "fingerprint_us"));
                    tuples += num(&doc, "tuples") as i64;
                    pairs += num(&doc, "pairs") as i64;
                }
                "prepare" => prepare_ms.push(num(&doc, "ms")),
                "request" => {
                    report.attempted += 1;
                    latencies.push(num(&doc, "latency_ms"));
                    if text(&doc, "verdict") == "wrong" {
                        answered += 1;
                        cex_sizes.push(num(&doc, "cex"));
                        for key in ["raw_eval_ms", "provenance_ms", "solver_ms"] {
                            search.entry(key).or_default().push(num(&doc, key));
                        }
                        *algorithms.entry(text(&doc, "algorithm")).or_default() += 1;
                    }
                }
                "failure" => report.line(format!("failure {}", text(&doc, "text"))),
                "violation" => report.violation(text(&doc, "text")),
                "counters" => {
                    for name in COUNTERS {
                        counters.add(name, num(&doc, name) as u64);
                    }
                }
                "pass" => {
                    loop_s += num(&doc, "loop_s");
                    peak_rss_mb.push(num(&doc, "peak_rss_mb"));
                    if let Some(Json::Obj(layers)) = doc.get("layers") {
                        for (name, v) in layers {
                            let slot = span_layers.entry(name.clone()).or_default();
                            for (i, x) in v.as_array().unwrap_or_default().iter().enumerate() {
                                slot[i] += as_f64(x);
                            }
                        }
                    }
                }
                other => report.violation(format!("pass record of unknown kind `{other}`")),
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    report.failed = report.attempted - answered;

    // The host's speed changes from one pass to the next, and a pass's
    // builds all fall in one short stretch of it: the mean over the passes
    // follows the host's average speed over the run, as the throughput
    // does, where a median would jump between its fast and slow spells.
    report.e2e.insert("setup_s", mean(&setup_s));
    report.e2e.insert("prepare_ms", median(&prepare_ms));
    report.e2e.insert("latency_p50_ms", median(&latencies));
    let t = tail(&latencies);
    report.e2e.insert("latency_tail_ms", t.value);
    // Every request completes, answered or timed out at the deadline; a
    // job near the deadline then weighs the same either way, and the share
    // that timed out is `answered_share`'s to show.
    report.e2e.insert(
        "throughput_rps",
        report.attempted as f64 / loop_s.max(f64::MIN_POSITIVE),
    );
    report.e2e.insert(
        "answered_share",
        answered as f64 / report.attempted.max(1) as f64,
    );
    report.e2e.insert("cex_size_mean", mean(&cex_sizes));
    report.e2e.insert("peak_rss_mb", median(&peak_rss_mb));

    report.line(format!(
        "workload {workload}: closed loop, 1 client; {passes} passes in {wall_s:.3} s, each a process grading one new \
         instance ({tuples} tuples and {pairs} distinguished pairs in all, seed {seed}); per-job deadline {} ms",
        job_deadline(workload).as_millis()
    ));
    report.line(format!(
        "graded {} requests in {loop_s:.3} s of grading loops: {answered} answered, {} failed; {} prepares",
        report.attempted,
        report.failed,
        prepare_ms.len()
    ));
    report.line(format!("latency tail: {t}"));

    report.layers.insert("datagen_ms", mean(&datagen_ms));
    report.layers.insert("ra.eval_ms", mean(&eval_ms));
    report
        .layers
        .insert("ra.fingerprint_us", mean(&fingerprint_us));
    report.layers.insert("serve.backlog_max", 1.0);
    report.counter_layers(&counters);
    let datagen_name = if workload == "course_explain" {
        "datagen.university_ms"
    } else {
        "datagen.tpch_ms"
    };
    report.line(format!(
        "layer {datagen_name} = {:.3} (mean over {} passes of each pass's median build); ra.eval_ms = {:.3} (reference + submission on the full \
         instance); ra.fingerprint_us = {:.3}",
        mean(&datagen_ms),
        datagen_ms.len(),
        mean(&eval_ms),
        mean(&fingerprint_us),
    ));
    report.line(format!(
        "layer search (Verdict::Wrong.timings, mean of {} verdicts): raw_eval_ms = {:.3}, provenance_ms = {:.3}, solver_ms = {:.3}",
        cex_sizes.len(),
        mean(search.get("raw_eval_ms").map_or(&[][..], Vec::as_slice)),
        mean(search.get("provenance_ms").map_or(&[][..], Vec::as_slice)),
        mean(search.get("solver_ms").map_or(&[][..], Vec::as_slice)),
    ));
    report.line(format!(
        "layer grader.respond_miss_ms = {:.3} (the respond_prepared call; every request misses the cache, so this is \
         latency_p50_ms)",
        median(&latencies)
    ));
    let mix: Vec<String> = algorithms.iter().map(|(a, n)| format!("{a} {n}")).collect();
    report.line(format!("layer search algorithm mix: {}", mix.join(", ")));
    report.line(
        "layer not measured here: frontend.compile_us (no source text on this path); grader.respond_hit_us (every \
         submission is distinct); provenance.annotate_ms and delta.compile_ms (they run inside prepare_context and the \
         search, with no public boundary of their own: see search.provenance_ms and prepare_ms)",
    );
    for (name, [count, total, self_ms]) in &span_layers {
        report.line(format!(
            "span {name} (pass processes): {count} calls, total {total:.3} ms, self {self_ms:.3} ms"
        ));
    }
    report.layers.insert(
        "trace.spans",
        span_layers.values().map(|v| v[0]).sum::<f64>(),
    );
    report
}
