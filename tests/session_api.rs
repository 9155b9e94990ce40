//! Session-API guarantees at workload scale:
//!
//! * a warm session answers repeats with the same outcome as a cold one
//!   (session-level mirror of the grader's warm-regrade conformance test);
//! * a [`Budget`] bounds real work on the TPC-H workload: an expired
//!   deadline stops a run that would otherwise evaluate large joins, and a
//!   small step quota is exhausted *inside* evaluation, proving the budget
//!   is threaded through `ra::eval`/provenance inner loops rather than only
//!   algorithm loop boundaries;
//! * the monotone poly-time path annotates the submission once and honours
//!   a step quota both inside that annotation and in its per-tuple witness
//!   loop; the SPJUD\* path honours one inside its leaf annotations.

use ratest_suite::core::pipeline::Algorithm;
use ratest_suite::core::session::{Budget, ReferenceHandle, Session};
use ratest_suite::core::RatestError;
use ratest_suite::datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_suite::queries::course::course_questions;
use ratest_suite::queries::mutations::{mutate, sample_mutations};
use ratest_suite::queries::tpch_queries;
use ratest_suite::ra::ast::Query;
use ratest_suite::ra::builder::{col, lit, rel, QueryBuilder};
use ratest_suite::ra::classify::{classify_pair, QueryClass};
use ratest_telemetry::MetricsRegistry;
use std::sync::Arc;
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

/// Question 6 with its `a.course = b.course` comparison flipped to `<>`: a
/// self-join that turns into a near cross product, so on a 200-tuple
/// instance about two thousand output tuples differ from the reference. The
/// session records into the returned registry; the reference is prepared.
fn q6_flipped_course_mutant() -> (Session, ReferenceHandle, Query, Arc<MetricsRegistry>) {
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
    let registry = Arc::new(MetricsRegistry::new());
    let session = Session::builder(db).metrics(registry.clone()).build();
    let reference = session.prepare(&question.reference).unwrap();
    (session, reference, wrong, registry)
}

/// What one unlimited request for the flipped q6 mutant costs: its raw
/// evaluation's budget polls and its annotation's budget polls.
struct MonotoneRequestCost {
    eval_polls: u64,
    annotate_polls: u64,
}

fn answer_q6_mutant_unlimited(
    session: &Session,
    reference: ReferenceHandle,
    wrong: &Query,
    registry: &MetricsRegistry,
) -> MonotoneRequestCost {
    let before = registry.snapshot();
    let outcome = session
        .explain_with_budget(reference, wrong, &Budget::unlimited())
        .expect("an unlimited request answers");
    let after = registry.snapshot();
    assert_eq!(outcome.algorithm_used, Algorithm::PolytimeMonotone);
    assert_eq!(outcome.counterexample.map(|c| c.size()), Some(4));
    // The reference side is the prepared annotation; the submission side is
    // annotated once, not once per differing tuple.
    assert!(
        after.counter_since(&before, "provenance.annotate.calls") <= 1,
        "the monotone search annotates each side at most once"
    );
    // The submission's raw evaluation plus both queries on the 4-tuple
    // candidate, which is too small to reach a poll.
    assert_eq!(after.counter_since(&before, "ra.eval.calls"), 3);
    let cost = MonotoneRequestCost {
        eval_polls: after.counter_since(&before, "ra.eval.interrupt_polls"),
        annotate_polls: after.counter_since(&before, "provenance.annotate.interrupt_polls"),
    };
    assert!(
        cost.annotate_polls >= 2,
        "the annotation spans several polls"
    );
    cost
}

#[test]
fn a_step_quota_stops_the_monotone_path_inside_the_submission_annotation() {
    let (session, reference, wrong, registry) = q6_flipped_course_mutant();
    let cost = answer_q6_mutant_unlimited(&session, reference, &wrong, &registry);

    // One poll on entry, the raw evaluation's polls, one poll for the first
    // differing tuple; then the quota runs out halfway through annotating
    // the submission.
    let quota = 2 + cost.eval_polls + cost.annotate_polls / 2;
    let before = registry.snapshot();
    let err = session
        .explain_with_budget(
            reference,
            &wrong,
            &Budget::unlimited().with_step_quota(quota),
        )
        .expect_err("the quota runs out inside the annotation");
    let after = registry.snapshot();
    assert_eq!(err, RatestError::StepQuotaExhausted);
    assert_eq!(after.counter_since(&before, "provenance.annotate.calls"), 1);
    assert!(
        after.counter_since(&before, "provenance.annotate.interrupt_polls") < cost.annotate_polls,
        "the annotation stopped before finishing"
    );
    assert_eq!(after.counter_since(&before, "explain.runs"), 0);
}

#[test]
fn a_step_quota_stops_the_monotone_path_inside_its_witness_loop() {
    let (session, reference, wrong, registry) = q6_flipped_course_mutant();
    let cost = answer_q6_mutant_unlimited(&session, reference, &wrong, &registry);

    // Enough for the raw evaluation and the whole annotation, but only ten
    // of the ~2k per-tuple polls: the loop over differing tuples must stop.
    let quota = 1 + cost.eval_polls + cost.annotate_polls + 10;
    let before = registry.snapshot();
    let err = session
        .explain_with_budget(
            reference,
            &wrong,
            &Budget::unlimited().with_step_quota(quota),
        )
        .expect_err("the quota runs out inside the witness loop");
    let after = registry.snapshot();
    assert_eq!(err, RatestError::StepQuotaExhausted);
    assert_eq!(
        after.counter_since(&before, "provenance.annotate.interrupt_polls"),
        cost.annotate_polls,
        "the annotation finished"
    );
    assert_eq!(
        after.counter_since(&before, "ra.eval.calls"),
        1,
        "no candidate was verified"
    );
}

#[test]
fn a_step_quota_stops_the_spjud_star_path_inside_its_leaf_annotation() {
    // Names of students sharing a course with someone, minus the names of
    // students with a CS (resp. ECON) registration: differences only at the
    // top, and a self-join leaf large enough to span several budget polls.
    let db = university_database(&UniversityConfig {
        total_tuples: 400,
        seed: 101_000,
        ..Default::default()
    });
    let sharing = rel("Registration")
        .rename("a")
        .join_on(
            rel("Registration").rename("b").build(),
            col("a.course")
                .eq(col("b.course"))
                .and(col("a.name").ne(col("b.name"))),
        )
        .project(&["a.name"])
        .build();
    let in_dept = |dept: &str| {
        rel("Registration")
            .select(col("dept").eq(lit(dept)))
            .project(&["name"])
            .build()
    };
    let q1 = QueryBuilder::from_query(sharing.clone())
        .difference(in_dept("CS"))
        .build();
    let q2 = QueryBuilder::from_query(sharing)
        .difference(in_dept("ECON"))
        .build();
    assert_eq!(classify_pair(&q1, &q2), QueryClass::SPJUDStar);

    let registry = Arc::new(MetricsRegistry::new());
    let session = Session::builder(db)
        .algorithm(Algorithm::PolytimeSpjudStar)
        .metrics(registry.clone())
        .build();
    let reference = session.prepare(&q1).unwrap();
    let before = registry.snapshot();
    let outcome = session
        .explain_with_budget(reference, &q2, &Budget::unlimited())
        .expect("an unlimited request answers");
    let after = registry.snapshot();
    assert_eq!(outcome.algorithm_used, Algorithm::PolytimeSpjudStar);
    assert!(outcome.counterexample.is_some());
    let eval_polls = after.counter_since(&before, "ra.eval.interrupt_polls");
    assert!(after.counter_since(&before, "provenance.annotate.interrupt_polls") > 0);

    // Two polls on entry, the raw evaluations' polls and the poll before the
    // algorithm runs; the first poll inside a leaf annotation exhausts it.
    let quota = 3 + eval_polls;
    let before = registry.snapshot();
    let err = session
        .explain_with_budget(reference, &q2, &Budget::unlimited().with_step_quota(quota))
        .expect_err("the quota runs out inside a leaf annotation");
    let after = registry.snapshot();
    assert_eq!(err, RatestError::StepQuotaExhausted);
    assert_eq!(after.counter_since(&before, "provenance.annotate.calls"), 1);
    assert_eq!(after.counter_since(&before, "explain.runs"), 0);
}
