//! `semester_serve`: a synthetic semester driven through `grade serve`
//! in-process (`serve_with`).
//!
//! The semester follows the class model of the paper's user study
//! (`crates/userstudy`): its 170 students, of whom the ones that adopt the
//! tool submit; the model's mean number of attempts per student and
//! question; and the days before each deadline a student starts. Each of
//! the eight course questions has a week: a `prepare`, then every
//! student's attempts between their start and the deadline (the last one
//! is the `generate_cohort` answer, the earlier ones wrong drafts from the
//! same mutation pool), then a `stats` probe. A few shares that the model
//! does not give are assumptions, named by their constants: SQL text for
//! some correct answers, misspelt SQL drafts, a flood of one wrong answer
//! at question 3, and the grades that ask for `"repair":true`.
//!
//! A run serves the semester on fresh daemons (`threads` = the machine's
//! parallelism, `warm_cap` below 8, a `--cache` store each):
//!
//! - capacity rounds, spread over the run: the semester and five others of
//!   their own, each with every request at once and without the repair
//!   requests; `throughput_rps` is the median over the question blocks of
//!   their grades answered per second;
//! - the repair replay: every request at once, with the repair requests;
//!   then the restart, a fresh daemon on the same store, which must answer
//!   alike with zero searches;
//! - the open loop at each offered rate of [`RATES`], without repair
//!   requests, timed from when each request was due; the first rate is
//!   nominal, and `max_rate_rps` is the highest rate sustained.

use crate::report::{mean, median, ms, quantile, tail, Counters, Report, COUNTERS};
use crate::trace::{SpanId, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ratest_grader::json::Json;
use ratest_grader::serve::{serve_with, ServeConfig};
use ratest_grader::{compile_submission, generate_cohort, CohortConfig, IngestEntry, SourceLang};
use ratest_ra::ast::Query;
use ratest_ra::eval::evaluate;
use ratest_storage::Database;
use ratest_userstudy::{sample_class, simulate, StudyConfig};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuples of each question's hidden instance (the daemon's default).
const TUPLES: usize = 60;
/// Warm references the daemon keeps; below the 8 questions, so the
/// semester evicts and re-reads the store.
const WARM_CAP: usize = 4;
/// How long a grade of an open-loop trial waits for an admission slot
/// before it is refused.
const ADMIT_TIMEOUT_MS: u64 = 2_000;
/// Offered grade rates of the open-loop trials, requests per second; the
/// first is nominal.
const RATES: &[f64] = &[500.0, 1000.0, 2000.0];
/// A rate is sustained when every grade is answered, the latency tail
/// stays within this limit, and the backlog does not grow (see
/// [`BACKLOG_SHARE`]). One second, `course_explain`'s job deadline: at
/// 60 tuples a costly question-6 search alone takes about half of it.
const LATENCY_LIMIT_MS: f64 = 1_000.0;
/// The backlog grew when what is left at the last due request takes more
/// than this share of the trial's length to drain: requests then arrived
/// faster than they were answered.
const BACKLOG_SHARE: f64 = 0.25;
/// Semesters the capacity replays serve (the run's own and others), each
/// at once on a fresh daemon and store, in at least three rounds;
/// `throughput_rps` is the median over every semester's questions of their
/// grades/s, each the median over the rounds.
const CAPACITY_SEMESTERS: u64 = 6;
/// Seconds one capacity round adds to a run on a 2-CPU host.
const ROUND_SECONDS: u64 = 10;

/// Capacity rounds of a run of `seconds`: as many as fill it on a 2-CPU
/// host, at least three. The count follows from the arguments, never from
/// the clock, so that a seed and a run length always send the same grades.
fn capacity_rounds(seconds: u64) -> usize {
    (seconds / ROUND_SECONDS).max(3) as usize
}

/// Every n-th grade asks for repair suggestions (an assumption).
const REPAIR_EVERY: usize = 4;
/// Every n-th student sends a misspelt SQL draft first (an assumption).
const MISSPELT_EVERY: usize = 8;
/// Every n-th student with a correct final answer sends it as SQL text
/// (an assumption).
const SQL_EVERY: usize = 3;
/// Copies of one wrong answer in the question-3 flood (an assumption).
const FLOOD: usize = 6;
/// Fresh daemons the `prepare` probe runs; `prepare_ms` is the median
/// over their 8 prepares each.
const PREPARE_PROBES: usize = 10;
/// Semester builds before each phase.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Prepare,
    Grade,
    Stats,
    Shutdown,
}

/// One request line of the semester.
#[derive(Clone)]
struct Request {
    cmd: Cmd,
    /// Unique within a trial; responses are matched to requests by it.
    key: String,
    line: String,
    /// Due offset at one request per second; a trial at rate `r` sends
    /// the request at `offset / r`.
    offset: f64,
    question: usize,
    /// The line with `"repair":true`, for the grades that ask for repair
    /// suggestions in the trials that send them.
    repair_line: Option<String>,
    /// Index into [`Semester::sources`] for grades.
    source: Option<usize>,
}

/// A distinct submission source of one question, for the oracle.
struct Source {
    question: usize,
    lang: SourceLang,
    text: String,
}

struct Question {
    reference: Query,
    db: Database,
}

struct Semester {
    requests: Vec<Request>,
    sources: Vec<Source>,
    questions: BTreeMap<usize, Question>,
    grades: usize,
    /// The class model's mean attempts per student and question.
    attempts_mean: f64,
}

fn json_line(pairs: Vec<(&str, Json)>) -> String {
    Json::obj(pairs).render()
}

/// The grade request of one attempt, before its due time is known.
struct Attempt {
    /// In days since the semester began.
    day: f64,
    id: String,
    lang: SourceLang,
    text: String,
}

/// Days before the deadline a student of the class model starts: the
/// model codes 1, 2, 3 (= 3-4) and 5 (= 5-7); a start is drawn uniformly
/// within its range.
fn start_window(start_days_early: u32) -> (f64, f64) {
    match start_days_early {
        1 => (1.0, 1.0),
        2 => (2.0, 2.0),
        3 => (3.0, 4.0),
        _ => (5.0, 7.0),
    }
}

/// Mean tool submissions per user and problem in the class model's
/// simulation of the study.
fn mean_attempts(study: &StudyConfig) -> f64 {
    let outcome = simulate(study);
    let users: usize = outcome.problems.iter().map(|p| p.users).sum();
    outcome.total_submissions as f64 / users.max(1) as f64
}

/// Build the semester for `seed` from the study's class model.
fn build_semester(seed: u64, tracer: &Tracer) -> (Semester, Duration) {
    let study = StudyConfig {
        seed,
        ..StudyConfig::default()
    };
    let attempts_mean = mean_attempts(&study);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E3E_57E2);
    let sql_texts = ratest_queries::course_sql::course_sql_texts();

    let mut requests = Vec::new();
    let mut sources: Vec<Source> = Vec::new();
    let mut source_index: HashMap<(usize, String), usize> = HashMap::new();
    let mut questions = BTreeMap::new();
    let mut datagen = Duration::ZERO;
    let mut grades = 0usize;

    for q in 1..=8usize {
        let qseed = seed * 8 + q as u64;
        let (db, took) = tracer.time("datagen.university_database", None, 0, || {
            ratest_datagen::university_database(&ratest_datagen::UniversityConfig {
                total_tuples: TUPLES,
                seed: qseed,
                ..Default::default()
            })
        });
        datagen += took;
        let (cohort, _) = tracer.time("grader::cohort.generate_cohort", None, 0, || {
            generate_cohort(&CohortConfig {
                question: q,
                class_size: study.num_students,
                db_tuples: TUPLES,
                adoption_rate: study.adoption_rate,
                seed: qseed,
            })
        });
        // The same profiles `generate_cohort` drew its answers from.
        let profiles = sample_class(study.num_students, study.adoption_rate, qseed);
        let pool = ratest_queries::mutations::mutate(&cohort.reference);
        let sql = sql_texts
            .iter()
            .find(|(n, _)| *n == q)
            .map(|(_, text)| *text)
            .expect("every course question has SQL text");
        // Question q is open during week q; its deadline ends the week.
        let deadline = 7.0 * q as f64;
        let reference_ref = format!("q{q}");
        let ra = |query: &Query| ratest_ra::display::to_surface_string(query);

        let mut attempts = Vec::new();
        for (i, (s, profile)) in cohort.submissions.iter().zip(&profiles).enumerate() {
            if !profile.uses_ratest {
                continue;
            }
            // Attempts: geometric with the model's mean, the last one the
            // cohort's final answer and the earlier ones wrong drafts
            // drawn from the same mutation pool.
            let mut n = 1;
            while rng.gen_bool(1.0 - 1.0 / attempts_mean) {
                n += 1;
            }
            let (lo, hi) = start_window(profile.start_days_early);
            let start = deadline - lo - (hi - lo) * rng.gen::<f64>();
            let mut days: Vec<f64> = (0..n).map(|_| rng.gen_range(start..deadline)).collect();
            days.sort_by(f64::total_cmp);
            if i % MISSPELT_EVERY == MISSPELT_EVERY - 1 {
                // A draft with a misspelt column: a frontend rejection with
                // a "did you mean" diagnostic.
                attempts.push(Attempt {
                    day: start,
                    id: format!("q{q}-{}-misspelt", s.id),
                    lang: SourceLang::Sql,
                    text: sql.replacen("name", "nmae", 1),
                });
            }
            for (k, day) in days.iter().enumerate() {
                let id = format!("q{q}-{}-{k}", s.id);
                let (lang, text) = if k + 1 < n && !pool.is_empty() {
                    (
                        SourceLang::Ra,
                        ra(&pool[rng.gen_range(0..pool.len())].query),
                    )
                } else if s.query == cohort.reference && i % SQL_EVERY == 0 {
                    (SourceLang::Sql, sql.to_owned())
                } else {
                    (SourceLang::Ra, ra(&s.query))
                };
                attempts.push(Attempt {
                    day: *day,
                    id,
                    lang,
                    text,
                });
            }
        }
        if q == 3 {
            if let Some(wrong) = cohort
                .submissions
                .iter()
                .find(|s| s.query != cohort.reference)
            {
                let day = deadline - rng.gen_range(0.0..1.0);
                for i in 0..FLOOD {
                    attempts.push(Attempt {
                        day,
                        id: format!("q3-flood-{i:02}"),
                        lang: SourceLang::Ra,
                        text: ra(&wrong.query),
                    });
                }
            }
        }
        attempts.sort_by(|a, b| a.day.total_cmp(&b.day));

        requests.push(Request {
            cmd: Cmd::Prepare,
            key: format!("prepare:{reference_ref}"),
            line: json_line(vec![
                ("cmd", Json::str("prepare")),
                ("ref", Json::str(&reference_ref)),
                ("question", Json::Int(q as i64)),
                ("db_tuples", Json::Int(TUPLES as i64)),
                ("seed", Json::Int(qseed as i64)),
            ]),
            offset: deadline - 7.0,
            question: q,
            repair_line: None,
            source: None,
        });
        for a in attempts {
            let source = *source_index.entry((q, a.text.clone())).or_insert_with(|| {
                sources.push(Source {
                    question: q,
                    lang: a.lang,
                    text: a.text.clone(),
                });
                sources.len() - 1
            });
            grades += 1;
            let mut pairs = vec![
                ("cmd", Json::str("grade")),
                ("ref", Json::str(&reference_ref)),
                ("id", Json::str(&a.id)),
                (
                    "lang",
                    Json::str(match a.lang {
                        SourceLang::Sql => "sql",
                        SourceLang::Ra => "ra",
                    }),
                ),
                ("source", Json::str(&a.text)),
            ];
            let line = json_line(pairs.clone());
            let repair_line = grades.is_multiple_of(REPAIR_EVERY).then(|| {
                pairs.push(("repair", Json::Bool(true)));
                json_line(pairs)
            });
            requests.push(Request {
                cmd: Cmd::Grade,
                key: format!("grade:{}", a.id),
                line,
                offset: a.day,
                question: q,
                repair_line,
                source: Some(source),
            });
        }
        requests.push(Request {
            cmd: Cmd::Stats,
            key: format!("stats:{reference_ref}"),
            line: json_line(vec![
                ("cmd", Json::str("stats")),
                ("ref", Json::str(&reference_ref)),
            ]),
            offset: deadline,
            question: q,
            repair_line: None,
            source: None,
        });
        questions.insert(
            q,
            Question {
                reference: cohort.reference,
                db,
            },
        );
    }
    let end = 7.0 * 8.0;
    for (key, line) in [
        ("stats:daemon", json_line(vec![("cmd", Json::str("stats"))])),
        ("shutdown", json_line(vec![("cmd", Json::str("shutdown"))])),
    ] {
        requests.push(Request {
            cmd: if key == "shutdown" {
                Cmd::Shutdown
            } else {
                Cmd::Stats
            },
            key: key.into(),
            line,
            offset: end,
            question: 0,
            repair_line: None,
            source: None,
        });
    }
    // Scale the semester's days so that the schedule lasts one second per
    // request at one request per second: a trial at rate `r` then offers
    // `r` requests per second on average, denser before each deadline.
    let scale = requests.len() as f64 / end;
    for r in &mut requests {
        r.offset *= scale;
    }
    (
        Semester {
            requests,
            sources,
            questions,
            grades,
            attempts_mean,
        },
        datagen / 8,
    )
}

/// The daemon's request stream: lines arrive over a channel and the reader
/// blocks until the next one is sent; a closed channel is end of input.
struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    pending: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.pending.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.pending = line;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = buf.len().min(self.pending.len() - self.pos);
        buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The daemon's output: every complete line with the instant it was
/// written. Parsing waits until the trial ends, so the daemon's threads
/// only pay for a copy.
#[derive(Clone, Default)]
struct ResponseLog(Arc<Mutex<LogState>>);

/// The unfinished line, and the finished lines with their instants.
type LogState = (Vec<u8>, Vec<(Instant, String)>);

impl Write for ResponseLog {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let mut guard = self.0.lock().expect("response log lock");
        let (partial, lines) = &mut *guard;
        partial.extend_from_slice(buf);
        while let Some(nl) = partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = partial.drain(..=nl).collect();
            lines.push((now, String::from_utf8_lossy(&line[..nl]).into_owned()));
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One request's fate in a trial.
struct Outcome {
    due: Instant,
    sent: Instant,
    answered: Option<(Instant, Json)>,
}

/// How a trial sends the semester.
#[derive(Debug, Clone, Copy)]
struct Load {
    /// Offered rate of an open loop; `None` sends every request at once.
    rate: Option<f64>,
    /// Whether the grades drawn to ask for repair suggestions ask for them.
    repair: bool,
}

struct Trial {
    load: Load,
    start: Instant,
    end: Instant,
    outcomes: Vec<Outcome>,
}

impl Trial {
    fn grade_outcomes<'a>(
        &'a self,
        semester: &'a Semester,
    ) -> impl Iterator<Item = (&'a Request, &'a Outcome)> + 'a {
        semester
            .requests
            .iter()
            .zip(&self.outcomes)
            .filter(|(r, _)| r.cmd == Cmd::Grade)
    }

    /// Latency of each grade from when it was due; unanswered ones count
    /// as lasting until the trial ended.
    fn grade_latencies_ms(&self, semester: &Semester) -> Vec<f64> {
        self.grade_outcomes(semester)
            .map(|(_, o)| ms(o.answered.as_ref().map_or(self.end, |(t, _)| *t) - o.due))
            .collect()
    }

    /// Most requests sent and not yet answered at any one time.
    fn backlog_max(&self) -> usize {
        let mut events: Vec<(Instant, i64)> = Vec::new();
        for o in &self.outcomes {
            events.push((o.sent, 1));
            events.push((o.answered.as_ref().map_or(self.end, |(t, _)| *t), -1));
        }
        events.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut depth = 0i64;
        let mut max = 0i64;
        for (_, d) in events {
            depth += d;
            max = max.max(depth);
        }
        max as usize
    }
}

/// Serve the semester once on a fresh daemon. An open loop refuses a grade
/// that waits [`ADMIT_TIMEOUT_MS`] for an admission slot; a replay at once
/// keeps the daemon's default, so that it measures capacity, not refusals.
fn trial(
    semester: &Semester,
    load: Load,
    store: &Path,
    threads: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
    report: &mut Report,
) -> Trial {
    let (tx, rx) = channel::<Vec<u8>>();
    let log = ResponseLog::default();
    let config = ServeConfig {
        threads,
        warm_cap: Some(WARM_CAP),
        cache: Some(store.to_path_buf()),
        admit_timeout_ms: match load.rate {
            Some(_) => ADMIT_TIMEOUT_MS,
            None => ServeConfig::default().admit_timeout_ms,
        },
    };
    let start = Instant::now();
    let daemon = {
        let log = log.clone();
        std::thread::spawn(move || {
            let input = BufReader::new(ChannelReader {
                rx,
                pending: Vec::new(),
                pos: 0,
            });
            serve_with(input, log, config)
        })
    };
    let mut sends = Vec::with_capacity(semester.requests.len());
    for r in &semester.requests {
        let due = start
            + load.rate.map_or(Duration::ZERO, |rate| {
                Duration::from_secs_f64(r.offset / rate)
            });
        wait_until(due);
        let line = match &r.repair_line {
            Some(repair_line) if load.repair => repair_line,
            _ => &r.line,
        };
        let mut bytes = line.clone().into_bytes();
        bytes.push(b'\n');
        let sent = Instant::now();
        // A failed send means the daemon is gone; its requests then go
        // unanswered and the checks below report them.
        let _ = tx.send(bytes);
        sends.push((due, sent));
    }
    drop(tx);
    match daemon.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => report.violation(format!("daemon ended with an I/O error: {e}")),
        Err(_) => report.violation("daemon thread panicked"),
    }
    let end = Instant::now();

    let lines = std::mem::take(&mut log.0.lock().expect("response log lock").1);
    let mut by_key: HashMap<String, (Instant, Json)> = HashMap::new();
    let mut seen_banner = false;
    for (at, line) in lines {
        let Ok(doc) = Json::parse(&line) else {
            report.violation(format!("daemon wrote a line that is not JSON: {line}"));
            continue;
        };
        if doc.get("event").is_some() {
            seen_banner |= doc.get("event").and_then(Json::as_str) == Some("protocol");
            continue;
        }
        let Some(key) = response_key(&doc) else {
            report.violation(format!("response matches no request: {line}"));
            continue;
        };
        if by_key.insert(key.clone(), (at, doc)).is_some() {
            report.violation(format!("request {key} answered more than once"));
        }
    }
    if !seen_banner {
        report.violation("daemon did not announce its protocol");
    }
    let outcomes: Vec<Outcome> = semester
        .requests
        .iter()
        .zip(sends)
        .map(|(r, (due, sent))| Outcome {
            due,
            sent,
            answered: by_key.remove(&r.key),
        })
        .collect();
    for (r, o) in semester.requests.iter().zip(&outcomes) {
        if o.answered.is_none() {
            report.violation(format!("request {} got no answer", r.key));
        }
    }
    for key in by_key.keys() {
        report.violation(format!("answer {key} matches no request sent"));
    }
    if tracer.enabled() {
        for (i, (r, o)) in semester.requests.iter().zip(&outcomes).enumerate() {
            let name = match r.cmd {
                Cmd::Prepare => "serve.prepare",
                Cmd::Grade if load.repair && r.repair_line.is_some() => "serve.grade_repair",
                Cmd::Grade => "serve.grade",
                Cmd::Stats => "serve.stats",
                Cmd::Shutdown => "serve.shutdown",
            };
            let answered = o.answered.as_ref().map_or(end, |(t, _)| *t);
            tracer.record(name, parent, i as u64 + 1, o.sent, answered);
        }
    }
    Trial {
        load,
        start,
        end,
        outcomes,
    }
}

/// Sleep until shortly before `due`, then spin: a plain sleep on a busy
/// host wakes up milliseconds late, which would count against the daemon.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(2);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The request a response line answers.
fn response_key(doc: &Json) -> Option<String> {
    let cmd = doc.get("cmd").and_then(Json::as_str)?;
    match cmd {
        "grade" => Some(format!("grade:{}", doc.get("id").and_then(Json::as_str)?)),
        "prepare" => Some(format!(
            "prepare:{}",
            doc.get("ref").and_then(Json::as_str)?
        )),
        "stats" => match doc.get("ref").and_then(Json::as_str) {
            Some(r) => Some(format!("stats:{r}")),
            None => Some("stats:daemon".into()),
        },
        "shutdown" => Some("shutdown".into()),
        _ => None,
    }
}

fn verdict(doc: &Json) -> Option<&str> {
    doc.get("verdict").and_then(Json::as_str)
}

/// Whether a grade response is an answer: a verdict that is not a
/// timeout (overload refusals are timeouts) and not an error.
fn is_answer(doc: &Json) -> bool {
    doc.get("ok").and_then(Json::as_bool) == Some(true)
        && matches!(verdict(doc), Some("correct" | "wrong" | "rejected"))
}

fn from_cache(doc: &Json) -> bool {
    doc.get("from_cache").and_then(Json::as_bool) == Some(true)
}

/// Whether a trial sustained its rate (see [`LATENCY_LIMIT_MS`]), with its
/// tail and its drain after the last due request, in ms.
fn sustained(trial: &Trial, semester: &Semester) -> (bool, f64, f64) {
    let tail = tail(&trial.grade_latencies_ms(semester)).value;
    let last_due = trial
        .outcomes
        .iter()
        .map(|o| o.due)
        .max()
        .unwrap_or(trial.start);
    let drain = ms(trial.end.saturating_duration_since(last_due));
    let all_answered = trial
        .grade_outcomes(semester)
        .all(|(_, o)| o.answered.as_ref().is_some_and(|(_, d)| is_answer(d)));
    (
        all_answered
            && tail <= LATENCY_LIMIT_MS
            && drain <= BACKLOG_SHARE * ms(last_due - trial.start),
        tail,
        drain,
    )
}

pub fn semester_serve(seed: u64, seconds: u64, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());

    // The semester is built [`SETUP_REPEATS`] times before every phase; the
    // builds are identical and the first one is used. The host's speed
    // changes between phases, and a phase's builds fall in one short
    // stretch of it: `setup_s` is the mean over the phases of their median
    // build, which follows the host's average speed over the run, where a
    // median over all builds would jump between its fast and slow spells.
    let mut setups = Vec::new();
    let mut build = || {
        let mut built = Vec::new();
        let mut times = Vec::new();
        for _ in 0..SETUP_REPEATS {
            let start = Instant::now();
            built.push(build_semester(seed, tracer));
            times.push(start.elapsed().as_secs_f64());
        }
        setups.push(median(&times));
        built.swap_remove(0)
    };
    let (semester, datagen) = build();
    // Capacity averages over the semester and others of their own, so that
    // one instance's costly question does not set it.
    let others: Vec<Semester> = (1..CAPACITY_SEMESTERS)
        .map(|i| build_semester(seed * CAPACITY_SEMESTERS + i, tracer).0)
        .collect();
    let capacity_semesters: Vec<&Semester> = std::iter::once(&semester).chain(&others).collect();

    let dir = PathBuf::from(crate::OUT_DIR).join(format!("semester-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a directory for the verdict stores");
    let window = tracer.open();
    let window_id = window.map(|(id, _)| id);
    let mut run = |semester: &Semester, load: Load, store: &str| {
        trial(
            semester,
            load,
            &dir.join(store),
            threads,
            tracer,
            window_id,
            &mut report,
        )
    };

    // Capacity: each capacity semester at once, without repair requests,
    // on fresh daemons and stores. The rounds are spread over the run,
    // between the other phases, so that a slow spell of the host falls in
    // one of them rather than in all; the rest of
    // [`capacity_rounds`] follow at the end.
    let mut capacity: Vec<(usize, Trial)> = Vec::new();
    let mut rounds = 0;
    let mut capacity_round =
        |run: &mut dyn FnMut(&Semester, Load, &str) -> Trial,
         build: &mut dyn FnMut() -> (Semester, Duration)| {
            for (i, s) in capacity_semesters.iter().enumerate() {
                build();
                let load = Load {
                    rate: None,
                    repair: false,
                };
                capacity.push((i, run(s, load, &format!("capacity{rounds}-{i}.rvc"))));
            }
            rounds += 1;
        };

    capacity_round(&mut run, &mut build);
    // Repair: the semester at once, with its repair requests, on a fresh
    // daemon; then the restart, a fresh daemon on the same store.
    let with_repair = run(
        &semester,
        Load {
            rate: None,
            repair: true,
        },
        "repair.rvc",
    );
    build();
    let restart = run(
        &semester,
        Load {
            rate: None,
            repair: true,
        },
        "repair.rvc",
    );
    capacity_round(&mut run, &mut build);
    // Open loop at the offered rates, without repair requests.
    let trials: Vec<Trial> = RATES
        .iter()
        .enumerate()
        .map(|(i, rate)| {
            build();
            run(
                &semester,
                Load {
                    rate: Some(*rate),
                    repair: false,
                },
                &format!("rate{i}.rvc"),
            )
        })
        .collect();
    for _ in 2..capacity_rounds(seconds) {
        capacity_round(&mut run, &mut build);
    }
    let prepare_ms = prepare_probe(&semester, &dir, threads, tracer, window_id, &mut report);
    tracer.close(window, "workload.window", None);

    let nominal = &trials[0];
    // The trials whose grades count as attempted. The faster rates probe
    // overload, where refusals are expected; they are reported per rate.
    let mut times = OracleTimes::default();
    let counted: Vec<(String, &Trial)> = vec![
        ("repair".into(), &with_repair),
        ("restart".into(), &restart),
        ("nominal".into(), nominal),
    ];
    oracle(&semester, &counted, tracer, &mut times, &mut report);
    for (i, s) in capacity_semesters.iter().enumerate() {
        let replays: Vec<(String, &Trial)> = capacity
            .iter()
            .filter(|(of, _)| *of == i)
            .map(|(_, t)| (format!("capacity semester {i}"), t))
            .collect();
        oracle(s, &replays, tracer, &mut times, &mut report);
    }
    oracle_layers(&times, &mut report);
    check_restart(&semester, &with_repair, &restart, &mut report);
    store_probe(&dir.join("repair.rvc"), &dir, tracer, &mut report);
    let _ = std::fs::remove_dir_all(&dir);

    // --- end-to-end
    let answered_in = |t: &Trial, semester: &Semester| {
        t.grade_outcomes(semester)
            .filter(|(_, o)| o.answered.as_ref().is_some_and(|(_, d)| is_answer(d)))
            .count()
    };
    report.attempted = (counted.len() * semester.grades
        + capacity
            .iter()
            .map(|(i, _)| capacity_semesters[*i].grades)
            .sum::<usize>()) as u64;
    let answered = counted
        .iter()
        .map(|(_, t)| answered_in(t, &semester))
        .chain(
            capacity
                .iter()
                .map(|(i, t)| answered_in(t, capacity_semesters[*i])),
        )
        .sum::<usize>() as u64;
    report.failed = report.attempted - answered;
    let seconds_of = |t: &Trial| (t.end - t.start).as_secs_f64();
    // Per capacity semester, the grades/s of each question's block, over
    // its replays.
    let mut question_rps: Vec<[Vec<f64>; 8]> = vec![Default::default(); capacity_semesters.len()];
    for (i, t) in &capacity {
        for (q, rate) in question_rates(t, capacity_semesters[*i])
            .into_iter()
            .enumerate()
        {
            question_rps[*i][q].push(rate);
        }
    }
    let pooled: Vec<f64> = question_rps.iter().flatten().map(|r| median(r)).collect();
    // One size per distinct wrong submission: a flood of one answer would
    // otherwise weigh as much as a whole question.
    let mut seen_sources = std::collections::HashSet::new();
    let cex_sizes: Vec<f64> = nominal
        .grade_outcomes(&semester)
        .filter(|(r, o)| o.answered.is_some() && r.source.is_some_and(|s| seen_sources.insert(s)))
        .filter_map(|(_, o)| o.answered.as_ref()?.1.get("counterexample_size")?.as_i64())
        .map(|n| n as f64)
        .collect();
    let latencies = nominal.grade_latencies_ms(&semester);
    let t = tail(&latencies);
    report.e2e.insert("setup_s", mean(&setups));
    report.e2e.insert("prepare_ms", median(&prepare_ms));
    report.e2e.insert("latency_p50_ms", median(&latencies));
    report.e2e.insert("latency_tail_ms", t.value);
    report.e2e.insert("throughput_rps", median(&pooled));
    report
        .e2e
        .insert("answered_share", answered as f64 / report.attempted as f64);
    report.e2e.insert("cex_size_mean", mean(&cex_sizes));

    let study = StudyConfig::default();
    report.line(format!(
        "workload semester_serve: the study's class model ({} students, adoption {}, {:.3} attempts per student and \
         question), {} grades over 8 questions ({TUPLES}-tuple instances, seed {seed}); threads {threads}, \
         warm_cap {WARM_CAP}, --cache store, repair asked on every {REPAIR_EVERY}th grade of the repair replay, flood of {FLOOD}",
        study.num_students, study.adoption_rate, semester.attempts_mean, semester.grades,
    ));
    let total_grades: usize = capacity
        .iter()
        .map(|(i, _)| capacity_semesters[*i].grades)
        .sum();
    let total_s: f64 = capacity.iter().map(|(_, t)| seconds_of(t)).sum();
    report.line(format!(
        "capacity over all replays: {total_grades} grades in {total_s:.3} s = {:.3} grades/s",
        total_grades as f64 / total_s
    ));
    report.line(format!(
        "capacity: {} semesters, each replayed {rounds} times at once on fresh daemons and stores, without repair; \
         throughput_rps = {:.3}, the median over {} question blocks of each one's grades/s (median over the replays)",
        capacity_semesters.len(),
        median(&pooled),
        pooled.len()
    ));
    for (i, (s, rates)) in capacity_semesters.iter().zip(&question_rps).enumerate() {
        let replays: Vec<String> = capacity
            .iter()
            .filter(|(of, _)| *of == i)
            .map(|(_, t)| format!("{:.3} s", seconds_of(t)))
            .collect();
        let per_question: Vec<String> = rates
            .iter()
            .enumerate()
            .map(|(q, r)| format!("q{} {:.1}", q + 1, median(r)))
            .collect();
        report.line(format!(
            "capacity semester {i}: {} grades in {}; grades/s per question (median of replays): {}",
            s.grades,
            replays.join(", "),
            per_question.join(", ")
        ));
    }
    let mut max_rate = 0.0;
    for trial in &trials {
        let rate = trial.load.rate.expect("rate trials have a rate");
        let (ok, tail_ms, drain_ms) = sustained(trial, &semester);
        let lat = trial.grade_latencies_ms(&semester);
        let refused = semester.grades - answered_in(trial, &semester);
        report.line(format!(
            "rate {rate} req/s: p50 {:.3} ms, tail {tail_ms:.3} ms, drain {drain_ms:.1} ms after the last due request, \
             {refused} of {} grades unanswered, backlog max {} -> {}",
            median(&lat),
            semester.grades,
            trial.backlog_max(),
            if ok { "sustained" } else { "not sustained" }
        ));
        if ok && rate > max_rate {
            max_rate = rate;
        }
    }
    report.line(format!(
        "latency at the nominal {} req/s, from when each grade was due: tail {t}",
        RATES[0]
    ));
    report.line(format!(
        "serve max_rate_rps = {max_rate} 1/s (highest sustained offered rate)"
    ));
    report.line(format!(
        "serve restart_s = {:.6} s (fresh daemon on the repair replay's store: 8 prepares and the whole semester at once)",
        seconds_of(&restart)
    ));

    // --- per layer, from the repair replay's `stats`: every layer works
    // there, searches, repairs and cache hits alike.
    let mut counters = Counters::default();
    for (r, o) in semester.requests.iter().zip(&with_repair.outcomes) {
        if r.cmd != Cmd::Stats || r.question == 0 {
            continue;
        }
        if let Some(Json::Obj(c)) = o
            .answered
            .as_ref()
            .and_then(|(_, d)| d.get("metrics"))
            .and_then(|m| m.get("counters"))
        {
            for (name, value) in c {
                if let (Some(name), Some(v)) =
                    (COUNTERS.iter().find(|n| **n == name), value.as_i64())
                {
                    counters.add(name, v as u64);
                }
            }
        }
    }
    report.counter_layers(&counters);
    let without_repair: Vec<f64> = capacity
        .iter()
        .filter(|(i, _)| *i == 0)
        .map(|(_, t)| seconds_of(t))
        .collect();
    let repair_extra_s = seconds_of(&with_repair) - median(&without_repair);
    report.line(format!(
        "layer repair.suggest_ms = {:.3} (the repair replay minus the semester's capacity replays, per repair request: \
         {:.3} s / {})",
        1e3 * repair_extra_s / counters.get("repair.requests").max(1) as f64,
        repair_extra_s,
        counters.get("repair.requests")
    ));
    let roundtrip = |pick: &dyn Fn(&Request, &Json) -> bool| -> Vec<f64> {
        semester
            .requests
            .iter()
            .zip(&nominal.outcomes)
            .filter_map(|(r, o)| {
                let (at, doc) = o.answered.as_ref()?;
                pick(r, doc).then(|| ms(*at - o.sent))
            })
            .collect()
    };
    let prepare_rt = roundtrip(&|r, _| r.cmd == Cmd::Prepare);
    let hit_rt = roundtrip(&|r, d| r.cmd == Cmd::Grade && from_cache(d));
    let miss_rt = roundtrip(&|r, d| r.cmd == Cmd::Grade && !from_cache(d));
    report.line(format!(
        "layer serve.roundtrip_ms (median from send, at the nominal rate): prepare {:.3} ({}), grade hit {:.3} ({}), \
         grade miss {:.3} ({})",
        median(&prepare_rt),
        prepare_rt.len(),
        median(&hit_rt),
        hit_rt.len(),
        median(&miss_rt),
        miss_rt.len(),
    ));
    report.line(format!(
        "layer grader.respond_miss_ms = {:.3} (the serve round trip of a grade the cache misses, at the nominal rate)",
        median(&miss_rt)
    ));
    let mut slowest: Vec<(f64, &str)> = semester
        .requests
        .iter()
        .zip(&nominal.outcomes)
        .filter(|(r, _)| r.cmd == Cmd::Grade)
        .map(|(r, o)| {
            (
                ms(o.answered.as_ref().map_or(nominal.end, |(t, _)| *t) - o.due),
                r.key.as_str(),
            )
        })
        .collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    let slowest: Vec<String> = slowest
        .iter()
        .take(12)
        .map(|(l, k)| format!("{k} {l:.1} ms"))
        .collect();
    report.line(format!(
        "slowest grades at the nominal rate: {}",
        slowest.join(", ")
    ));
    let lateness: Vec<f64> = nominal
        .outcomes
        .iter()
        .map(|o| ms(o.sent - o.due))
        .collect();
    report.line(format!(
        "layer loadgen.lateness_p99_ms = {:.3} (send minus due, {} requests)",
        quantile(&lateness, 0.99),
        lateness.len()
    ));
    report.line(format!(
        "layer serve.backlog_max = {} (at the nominal rate)",
        nominal.backlog_max()
    ));
    report.line(
        "layer not measured here: search.* timings (serve replies carry no Verdict timings); grader.respond_hit_us \
         (a hit is only visible as a serve round trip, see serve.roundtrip_ms grade hit)",
    );
    report.layers.insert("datagen_ms", ms(datagen));
    report
        .layers
        .insert("serve.backlog_max", nominal.backlog_max() as f64);
    report
}

/// Grades answered per second in each question's block of a replay at
/// once. A block ends with the question's `stats` answer, which the daemon
/// gives only when every grade in flight is answered; the next block starts
/// there.
fn question_rates(trial: &Trial, semester: &Semester) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut block_start = trial.start;
    let mut answered = 0usize;
    for (r, o) in semester.requests.iter().zip(&trial.outcomes) {
        let Some((at, doc)) = &o.answered else {
            continue;
        };
        match r.cmd {
            Cmd::Grade if is_answer(doc) => answered += 1,
            Cmd::Stats if r.question != 0 => {
                rates.push(
                    answered as f64 / at.saturating_duration_since(block_start).as_secs_f64(),
                );
                block_start = *at;
                answered = 0;
            }
            _ => {}
        }
    }
    rates
}

/// Time `prepare` on its own: a fresh daemon (with an empty store) gets
/// the semester's eight prepares at once and answers them one after
/// another on its reader thread, so the time between two answers is one
/// prepare's service time. Repeated on [`PREPARE_PROBES`] daemons.
fn prepare_probe(
    semester: &Semester,
    dir: &Path,
    threads: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
    report: &mut Report,
) -> Vec<f64> {
    let probe = Semester {
        requests: semester
            .requests
            .iter()
            .filter(|r| matches!(r.cmd, Cmd::Prepare | Cmd::Shutdown))
            .cloned()
            .collect(),
        sources: Vec::new(),
        questions: BTreeMap::new(),
        grades: 0,
        attempts_mean: semester.attempts_mean,
    };
    let mut service_ms = Vec::new();
    for i in 0..PREPARE_PROBES {
        let store = dir.join(format!("prepare{i}.rvc"));
        let load = Load {
            rate: None,
            repair: false,
        };
        let t = trial(&probe, load, &store, threads, tracer, parent, report);
        let mut previous = t.start;
        for (r, o) in probe.requests.iter().zip(&t.outcomes) {
            let Some((at, _)) = &o.answered else { continue };
            if r.cmd == Cmd::Prepare {
                service_ms.push(ms(*at - previous.max(o.sent)));
            }
            previous = *at;
        }
    }
    service_ms
}

/// Times of the oracle's calls into the frontend and the evaluator.
#[derive(Default)]
struct OracleTimes {
    compile_us: BTreeMap<&'static str, Vec<f64>>,
    fingerprint_us: Vec<f64>,
    eval_ms: Vec<f64>,
}

/// Check every grade verdict of the given trials of `semester` against the
/// program's own frontend and evaluator run from outside: a source the frontend rejects must be
/// answered `rejected`; otherwise `correct` exactly when the reference and
/// the submission return the same rows on the question's instance.
/// Timeouts, errors and refusals are failures, logged by request.
fn oracle(
    semester: &Semester,
    trials: &[(String, &Trial)],
    tracer: &Tracer,
    times: &mut OracleTimes,
    report: &mut Report,
) {
    let mut expected: Vec<Option<&'static str>> = vec![None; semester.sources.len()];
    let OracleTimes {
        compile_us,
        fingerprint_us,
        eval_ms,
    } = times;
    let mut reference_ms: BTreeMap<usize, (Result<ratest_ra::eval::ResultSet, String>, f64)> =
        BTreeMap::new();
    for (q, question) in &semester.questions {
        let (result, took) = tracer.time("ra::eval.evaluate", None, 0, || {
            evaluate(&question.reference, &question.db).map_err(|e| e.to_string())
        });
        reference_ms.insert(*q, (result, ms(took)));
    }
    for (i, source) in semester.sources.iter().enumerate() {
        let question = &semester.questions[&source.question];
        let (entry, took) = tracer.time("grader::ingest.compile_submission", None, 0, || {
            compile_submission("oracle", "oracle", source.lang, &source.text, &question.db)
        });
        let lang = match source.lang {
            SourceLang::Sql => "sql",
            SourceLang::Ra => "ra",
        };
        compile_us
            .entry(lang)
            .or_default()
            .push(took.as_secs_f64() * 1e6);
        expected[i] = Some(match entry {
            IngestEntry::Rejected(_) => "rejected",
            IngestEntry::Parsed(s) => {
                let (_, fp) = tracer.time("ra::canonical.fingerprint", None, 0, || {
                    ratest_ra::canonical::fingerprint(&s.query)
                });
                fingerprint_us.push(fp.as_secs_f64() * 1e6);
                let (result, took) = tracer.time("ra::eval.evaluate", None, 0, || {
                    evaluate(&s.query, &question.db)
                });
                let (reference, reference_took) = &reference_ms[&source.question];
                eval_ms.push(reference_took + ms(took));
                match (reference, result) {
                    (Ok(a), Ok(b)) if a.set_eq(&b) => "correct",
                    (Ok(_), Ok(_)) => "wrong",
                    // The pipeline reports an evaluation failure as an error.
                    _ => "error",
                }
            }
        });
    }
    for (name, trial) in trials {
        for (r, o) in semester.requests.iter().zip(&trial.outcomes) {
            let (Some(source), Some((_, doc))) = (r.source, o.answered.as_ref()) else {
                continue;
            };
            let want = expected[source].expect("every source was compiled");
            match verdict(doc) {
                Some(got) if got == want && is_answer(doc) => {
                    if got == "wrong"
                        && doc
                            .get("counterexample_size")
                            .and_then(Json::as_i64)
                            .is_none()
                    {
                        report.violation(format!(
                            "{name} {}: wrong verdict without a counterexample",
                            r.key
                        ));
                    }
                }
                Some("timeout") | Some("error") | None => {
                    report.line(format!("failure {name} {}: {}", r.key, doc.render()));
                }
                Some(got) => report.violation(format!(
                    "{name} {}: answered {got}, the evaluator says {want}",
                    r.key
                )),
            }
        }
    }
}

fn oracle_layers(times: &OracleTimes, report: &mut Report) {
    let OracleTimes {
        compile_us,
        fingerprint_us,
        eval_ms,
    } = times;
    for (lang, times) in compile_us {
        report.line(format!(
            "layer frontend.compile_us[{lang}] = {:.3} (mean of {} distinct sources)",
            mean(times),
            times.len()
        ));
    }
    report.line(format!(
        "layer ra.fingerprint_us = {:.3} (mean of {}); ra.eval_ms = {:.3} (reference + submission, mean of {})",
        mean(fingerprint_us),
        fingerprint_us.len(),
        mean(eval_ms),
        eval_ms.len()
    ));
    report
        .layers
        .insert("ra.fingerprint_us", mean(fingerprint_us));
    report.layers.insert("ra.eval_ms", mean(eval_ms));
}

/// The restart replay must answer every grade exactly as the first daemon
/// on its store did, and each question's `stats` must show zero searches.
fn check_restart(semester: &Semester, first: &Trial, restart: &Trial, report: &mut Report) {
    let mut searches = 0;
    for ((r, before), after) in semester
        .requests
        .iter()
        .zip(&first.outcomes)
        .zip(&restart.outcomes)
    {
        let (Some((_, before)), Some((_, after))) = (&before.answered, &after.answered) else {
            continue;
        };
        match r.cmd {
            Cmd::Grade => {
                let summary = |d: &Json| {
                    (
                        verdict(d).map(str::to_owned),
                        d.get("counterexample_size").and_then(Json::as_i64),
                    )
                };
                if is_answer(before) && summary(before) != summary(after) {
                    report.violation(format!(
                        "{}: restart answered {:?}, the semester {:?}",
                        r.key,
                        summary(after),
                        summary(before)
                    ));
                }
            }
            Cmd::Stats if r.question != 0 => {
                let n = after.get("searches").and_then(Json::as_i64).unwrap_or(-1);
                if n != 0 {
                    report.violation(format!("{}: restart ran {n} searches", r.key));
                }
                searches += n.max(0);
            }
            _ => {}
        }
    }
    report.line(format!("restart searches = {searches} (must be 0)"));
}

/// Time the store layer's public load and append on the repair replay's
/// store file.
fn store_probe(store: &Path, dir: &Path, tracer: &Tracer, report: &mut Report) {
    let (loaded, load) = tracer.time("grader::store.load", None, 0, || {
        ratest_grader::store::load(store)
    });
    let loaded = match loaded {
        Ok(l) => l,
        Err(e) => {
            report.violation(format!("the verdict store does not load: {e}"));
            return;
        }
    };
    if !loaded.skipped.is_empty() {
        report.violation(format!("{} store records skipped", loaded.skipped.len()));
    }
    let copy = dir.join("append-probe.rvc");
    let (appended, append) = tracer.time("grader::store.append", None, 0, || {
        ratest_grader::store::append(&copy, &loaded.entries)
    });
    if let Err(e) = appended {
        report.violation(format!("the verdict store does not append: {e}"));
    }
    let bytes = std::fs::metadata(store).map_or(0, |m| m.len());
    let entries = loaded.entries.len().max(1);
    report.line(format!(
        "layer store.load_ms = {:.3}, store.append_ms = {:.3} ({} entries), bytes per entry = {:.1} ({bytes} bytes)",
        ms(load),
        ms(append),
        loaded.entries.len(),
        bytes as f64 / entries as f64
    ));
}
