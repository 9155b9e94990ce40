//! Session-API guarantees at workload scale:
//!
//! * a warm session answers repeats with the same outcome as a cold one
//!   (session-level mirror of the grader's warm-regrade conformance test);
//! * a [`Budget`] bounds real work on the TPC-H workload: an expired
//!   deadline stops a run that would otherwise evaluate large joins, and a
//!   small step quota is exhausted *inside* evaluation, proving the budget
//!   is threaded through `ra::eval`/provenance inner loops rather than only
//!   algorithm loop boundaries;
//! * the monotone poly-time path honours a deadline inside its per-tuple
//!   provenance loop.

use ratest_suite::core::session::{Budget, Session};
use ratest_suite::core::RatestError;
use ratest_suite::datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_suite::queries::course::course_questions;
use ratest_suite::queries::mutations::{mutate, sample_mutations};
use ratest_suite::queries::tpch_queries;
use std::time::{Duration, Instant};

#[test]
fn a_warm_session_answers_repeats_identically_to_a_cold_one() {
    let db = university_database(&UniversityConfig::with_total(60));
    let question = &course_questions()[2]; // "exactly one CS course"
    let wrong = &sample_mutations(&question.reference, 1, 9)[0].query;

    let warm = Session::builder(db.clone()).build();
    let reference = warm.prepare(&question.reference).unwrap();
    let first = warm.explain(reference, wrong).unwrap();
    let second = warm.explain(reference, wrong).unwrap();
    assert_eq!(warm.prepared_references(), 1, "one prepared reference");

    let cold = Session::builder(db).build();
    let fresh = cold.explain_pair(&question.reference, wrong).unwrap();
    for outcome in [&second, &fresh] {
        assert_eq!(
            first.counterexample.as_ref().map(|c| c.size()),
            outcome.counterexample.as_ref().map(|c| c.size())
        );
        assert_eq!(first.class, outcome.class);
        assert_eq!(first.algorithm_used, outcome.algorithm_used);
    }
}

#[test]
fn an_expired_deadline_stops_a_tpch_run_immediately() {
    let db = tpch_database(&TpchConfig::with_scale(0.001));
    let session = Session::builder(db)
        .budget(Budget::unlimited().with_deadline(Duration::ZERO))
        .build();
    let start = Instant::now();
    let err = session
        .explain_pair(&tpch_queries::q4(), &tpch_queries::q4_wrong()[0])
        .expect_err("the deadline is already over");
    assert_eq!(err, RatestError::DeadlineExceeded);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "a dead run must not evaluate the workload: {:?}",
        start.elapsed()
    );
}

#[test]
fn a_small_step_quota_is_exhausted_inside_tpch_evaluation() {
    // 8 polls cover the algorithm loop boundaries many times over; only the
    // evaluator's strided inner-loop polling can burn through them on a
    // workload of thousands of row visits. Exhaustion therefore proves the
    // budget reaches `ra::eval`'s row loops.
    let db = tpch_database(&TpchConfig::with_scale(0.002));
    let session = Session::builder(db)
        .budget(Budget::unlimited().with_step_quota(8))
        .build();
    let start = Instant::now();
    let err = session
        .explain_pair(&tpch_queries::q4(), &tpch_queries::q4_wrong()[0])
        .expect_err("the quota runs out mid-evaluation");
    assert_eq!(err, RatestError::StepQuotaExhausted);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "a quota-dead run must not evaluate the workload: {:?}",
        start.elapsed()
    );
}

#[test]
fn per_request_budgets_override_the_session_budget() {
    let db = university_database(&UniversityConfig::with_total(60));
    let question = &course_questions()[0];
    let session = Session::builder(db).build();
    let reference = session.prepare(&question.reference).unwrap();
    let wrong = &sample_mutations(&question.reference, 1, 3)[0].query;

    // The session is unlimited, but this one request is not.
    let err = session
        .explain_with_budget(reference, wrong, &Budget::unlimited().with_step_quota(0))
        .expect_err("the per-request quota is empty");
    assert_eq!(err, RatestError::StepQuotaExhausted);

    // And the session keeps answering other requests normally.
    assert!(session.explain(reference, wrong).is_ok());
}

#[test]
fn a_deadline_stops_the_monotone_path_inside_its_provenance_loop() {
    // Question 6's `a.course = b.course` comparison flipped to `<>` turns a
    // self-join into a near cross product: on a 200-tuple instance the
    // monotone path annotates thousands of differing tuples at about 10 ms
    // each. Each annotation must poll the request's budget, so a 1 s
    // deadline stops the run instead of letting it finish after 20 s.
    let db = university_database(&UniversityConfig {
        total_tuples: 200,
        seed: 101_000,
        ..Default::default()
    });
    let question = course_questions()
        .into_iter()
        .find(|q| q.number == 6)
        .expect("question 6 exists");
    let wrong = mutate(&question.reference)
        .into_iter()
        .find(|m| m.description == "join: changed `=` to `<>` in `(a.course = b.course)`")
        .expect("the flipped-comparison mutant exists")
        .query;
    let session = Session::builder(db).build();
    let reference = session.prepare(&question.reference).unwrap();
    let start = Instant::now();
    let err = session
        .explain_with_budget(
            reference,
            &wrong,
            &Budget::unlimited().with_deadline(Duration::from_secs(1)),
        )
        .expect_err("the deadline expires inside the provenance loop");
    assert_eq!(err, RatestError::DeadlineExceeded);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "the run must stop soon after its deadline: {:?}",
        start.elapsed()
    );
}
