//! The database's foreign-key index against naive reference implementations.
//!
//! `TupleSelection::close_under_foreign_keys` and the solver's
//! `foreign_key_clauses` / `foreign_key_edges` read one child→parents index
//! per database. Here they are checked against what that index replaced:
//! a fixpoint that rescans every foreign key's resolved references each
//! round, kept in this file. Instances: seeded TPC-H (the
//! lineitem→orders→customer→nation→region chain plus lineitem's three
//! parents), seeded university instances, and a university instance
//! extended with a nullable foreign key whose null values reference nothing.

use ratest_suite::core::encode::{foreign_key_clauses, foreign_key_edges, VarMap};
use ratest_suite::datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_suite::solver::formula::Formula;
use ratest_suite::solver::Var;
use ratest_suite::storage::{
    Column, DataType, Database, Relation, Schema, TupleId, TupleSelection, Value,
};

/// Every resolved `(child, parent)` reference, foreign key by foreign key,
/// each in child-relation order.
fn resolved_references(db: &Database) -> Vec<Vec<(TupleId, TupleId)>> {
    db.constraints()
        .foreign_keys()
        .map(|fk| {
            fk.referenced_tuples(db)
                .unwrap()
                .into_iter()
                .filter_map(|(child, parent)| parent.map(|p| (child, p)))
                .collect()
        })
        .collect()
}

/// Fixpoint closure by rescanning every reference each round.
fn naive_closure(references: &[Vec<(TupleId, TupleId)>], seed: &[TupleId]) -> TupleSelection {
    let mut sel = TupleSelection::from_ids(seed.iter().copied());
    loop {
        let mut grew = false;
        for &(child, parent) in references.iter().flatten() {
            if sel.contains(child) && !sel.contains(parent) {
                sel.insert(parent);
                grew = true;
            }
        }
        if !grew {
            return sel;
        }
    }
}

/// The clause builder as a rescan of every reference per round.
fn naive_clauses(references: &[Vec<(TupleId, TupleId)>], vars: &mut VarMap) -> Vec<Formula> {
    let mut clauses = Vec::new();
    loop {
        let before = vars.len();
        let known: Vec<TupleId> = (1..=before as Var).filter_map(|v| vars.tuple(v)).collect();
        for &(child, parent) in references.iter().flatten() {
            if known.contains(&child) {
                let c = vars.var(child);
                let p = vars.var(parent);
                clauses.push(Formula::implies(Formula::var(c), Formula::var(p)));
            }
        }
        if vars.len() == before {
            break;
        }
        clauses.clear();
    }
    clauses.sort_by_key(|f| format!("{f:?}"));
    clauses.dedup();
    clauses
}

/// A small deterministic generator (xorshift), so the selections are seeded.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Random selections of 1 to 8 tuples, biased towards the last relation
/// (the deepest child in the generators' insertion order).
fn random_selections(db: &Database, seed: u64, count: usize) -> Vec<Vec<TupleId>> {
    let all: Vec<TupleId> = TupleSelection::all(db).iter().collect();
    let last = db.relation_count() as u32 - 1;
    let deepest: Vec<TupleId> = all.iter().copied().filter(|t| t.relation == last).collect();
    let mut rng = Rng(seed | 1);
    (0..count)
        .map(|_| {
            let size = 1 + rng.below(8);
            (0..size)
                .map(|_| {
                    if rng.below(2) == 0 && !deepest.is_empty() {
                        deepest[rng.below(deepest.len())]
                    } else {
                        all[rng.below(all.len())]
                    }
                })
                .collect()
        })
        .collect()
}

fn assert_index_matches_naive(db: &Database, seed: u64) {
    let references = resolved_references(db);
    let total: usize = references.iter().map(Vec::len).sum();
    assert_eq!(db.foreign_key_index().unwrap().len(), total);
    for picked in random_selections(db, seed, 24) {
        let mut closed = TupleSelection::from_ids(picked.iter().copied());
        let added = closed.close_under_foreign_keys(db).unwrap();
        let expected = naive_closure(&references, &picked);
        assert_eq!(closed, expected, "closure of {picked:?}");
        let distinct = TupleSelection::from_ids(picked.iter().copied()).len();
        assert_eq!(added, expected.len() - distinct);

        let mut indexed_vars = VarMap::new();
        let mut naive_vars = VarMap::new();
        for &t in &picked {
            indexed_vars.var(t);
            naive_vars.var(t);
        }
        let clauses = foreign_key_clauses(db, &mut indexed_vars).unwrap();
        assert_eq!(clauses, naive_clauses(&references, &mut naive_vars));
        // Same parents, registered in the same order: the solver sees the
        // same variable numbering.
        let order = |vars: &VarMap| -> Vec<TupleId> {
            (1..=vars.len() as Var)
                .filter_map(|v| vars.tuple(v))
                .collect()
        };
        assert_eq!(order(&indexed_vars), order(&naive_vars));

        let edges = foreign_key_edges(db, &indexed_vars).unwrap();
        let known = order(&indexed_vars);
        let expected_edges: Vec<(TupleId, TupleId)> = references
            .iter()
            .flatten()
            .copied()
            .filter(|(child, _)| known.contains(child))
            .collect();
        assert_eq!(edges, expected_edges);
    }
}

#[test]
fn tpch_closures_match_the_naive_fixpoint() {
    for seed in [7, 19] {
        let db = tpch_database(&TpchConfig {
            scale_factor: 0.001,
            seed,
        });
        assert_eq!(db.constraints().foreign_keys().count(), 9);
        assert_index_matches_naive(&db, seed);

        // A lineitem closes over the whole chain: its order, that order's
        // customer, the customer's nation and region, plus its part and
        // supplier (and the supplier's nation and region).
        let lineitem = db
            .relation("lineitem")
            .unwrap()
            .tuple(0)
            .unwrap()
            .id
            .unwrap();
        let mut sel = TupleSelection::from_ids([lineitem]);
        sel.close_under_foreign_keys(&db).unwrap();
        let relations: std::collections::BTreeSet<&str> = sel
            .iter()
            .map(|t| db.relation_by_index(t.relation).unwrap().name())
            .collect();
        for name in [
            "lineitem", "orders", "customer", "nation", "region", "part", "supplier",
        ] {
            assert!(relations.contains(name), "closure misses {name}");
        }
    }
}

#[test]
fn university_closures_match_the_naive_fixpoint() {
    for (total, seed) in [(60, 3), (200, 101_000), (1_000, 42)] {
        let db = university_database(&UniversityConfig {
            total_tuples: total,
            seed,
            ..Default::default()
        });
        assert_index_matches_naive(&db, seed);
    }
}

#[test]
fn null_foreign_keys_reference_nothing() {
    let mut db = university_database(&UniversityConfig {
        total_tuples: 60,
        seed: 5,
        ..Default::default()
    });
    let students: Vec<Value> = db
        .relation("Student")
        .unwrap()
        .iter()
        .map(|t| t.values[0].clone())
        .collect();
    let mut advising = Relation::new(
        "Advising",
        Schema::from_columns(vec![
            Column::new("topic", DataType::Text),
            Column::nullable("mentor", DataType::Text),
        ]),
    );
    for i in 0..12 {
        let mentor = if i % 3 == 0 {
            Value::Null
        } else {
            students[i % students.len()].clone()
        };
        advising
            .insert(vec![Value::from(format!("topic{i}")), mentor])
            .unwrap();
    }
    db.add_relation(advising).unwrap();
    // The index was built before the constraint existed; adding one must
    // drop it.
    let before = db.foreign_key_index().unwrap().len();
    db.constraints_mut()
        .add_foreign_key("Advising", &["mentor"], "Student", &["name"]);
    assert_eq!(db.foreign_key_index().unwrap().len(), before + 8);

    let advising: Vec<TupleId> = db
        .relation("Advising")
        .unwrap()
        .iter()
        .map(|t| t.id.unwrap())
        .collect();
    for (i, &t) in advising.iter().enumerate() {
        let mut sel = TupleSelection::from_ids([t]);
        let added = sel.close_under_foreign_keys(&db).unwrap();
        assert_eq!(added, usize::from(i % 3 != 0), "advising row {i}");
    }
    assert_index_matches_naive(&db, 5);
}
