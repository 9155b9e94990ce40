//! Translating provenance into solver formulas (Sections 4.1 and 4.3).
//!
//! The solver works over dense variable indices; provenance is expressed over
//! [`TupleId`]s. [`VarMap`] maintains the bijection, and
//! [`encode_provenance`] / [`foreign_key_clauses`] produce the formula the
//! min-ones optimizer consumes: the provenance itself as the satisfiability
//! constraint plus one implication `t_child ⇒ t_parent` per referencing tuple
//! mentioned in the formula.

use crate::error::Result;
use ratest_provenance::BoolExpr;
use ratest_solver::formula::Formula;
use ratest_solver::Var;
use ratest_storage::{Database, ForeignKeyEdge, ForeignKeyIndex, TupleId, TupleSelection};
use std::collections::HashMap;

/// A bijection between tuple identifiers and solver variables.
#[derive(Debug, Clone, Default)]
pub struct VarMap {
    to_var: HashMap<TupleId, Var>,
    to_tuple: Vec<TupleId>,
}

impl VarMap {
    /// An empty map.
    pub fn new() -> Self {
        VarMap::default()
    }

    /// The solver variable for a tuple, allocating one if needed.
    pub fn var(&mut self, id: TupleId) -> Var {
        match self.to_var.get(&id) {
            Some(&v) => v,
            None => {
                let v = self.to_tuple.len() as Var + 1;
                self.to_var.insert(id, v);
                self.to_tuple.push(id);
                v
            }
        }
    }

    /// The solver variable for a tuple, if already allocated.
    pub fn lookup(&self, id: TupleId) -> Option<Var> {
        self.to_var.get(&id).copied()
    }

    /// The tuple for a solver variable.
    pub fn tuple(&self, var: Var) -> Option<TupleId> {
        self.to_tuple.get(var as usize - 1).copied()
    }

    /// Number of allocated variables.
    pub fn len(&self) -> usize {
        self.to_tuple.len()
    }

    /// Whether no variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.to_tuple.is_empty()
    }

    /// All allocated variables (1..=len), the objective of min-ones.
    pub fn all_vars(&self) -> Vec<Var> {
        (1..=self.to_tuple.len() as Var).collect()
    }

    /// Convert a set of true solver variables back into a tuple selection.
    pub fn selection_from_vars(&self, true_vars: &[Var]) -> TupleSelection {
        TupleSelection::from_ids(true_vars.iter().filter_map(|&v| self.tuple(v)))
    }
}

/// Translate a provenance expression into a solver formula, registering every
/// mentioned tuple in the [`VarMap`].
pub fn encode_provenance(prv: &BoolExpr, vars: &mut VarMap) -> Formula {
    match prv {
        BoolExpr::True => Formula::True,
        BoolExpr::False => Formula::False,
        BoolExpr::Var(id) => Formula::var(vars.var(*id)),
        BoolExpr::And(parts) => {
            Formula::and(parts.iter().map(|p| encode_provenance(p, vars)).collect())
        }
        BoolExpr::Or(parts) => {
            Formula::or(parts.iter().map(|p| encode_provenance(p, vars)).collect())
        }
        BoolExpr::Not(inner) => Formula::not(encode_provenance(inner, vars)),
    }
}

/// Foreign-key implication clauses for every tuple currently registered in
/// the map (Section 4.3): if a child tuple is retained, its referenced parent
/// tuple must be retained as well. Parents not yet registered are added to
/// the map (they may need to be part of the witness), and the closure is
/// iterated until no new tuples appear.
pub fn foreign_key_clauses(db: &Database, vars: &mut VarMap) -> Result<Vec<Formula>> {
    let index = db.foreign_key_index()?;
    let mut clauses = Vec::new();
    loop {
        let before = vars.len();
        // Edges out of the currently known tuples. Parents registered in
        // this round are only expanded in the next one.
        let edges = edges_in_key_order(index, (1..=before as Var).filter_map(|v| vars.tuple(v)));
        for edge in edges {
            let c = vars.var(edge.child);
            let p = vars.var(edge.parent);
            clauses.push(Formula::implies(Formula::var(c), Formula::var(p)));
        }
        if vars.len() == before {
            break;
        }
        // New parents were registered; they may themselves be children of
        // further foreign keys, so run another round (clauses are rebuilt
        // from scratch to avoid duplicates).
        clauses.clear();
    }
    // Deduplicate.
    clauses.sort_by_key(|f| format!("{f:?}"));
    clauses.dedup();
    Ok(clauses)
}

/// Pair of (tuple-id, tuple-id) foreign-key edges restricted to the tuples in
/// the map — used by the SMT-LIB rendering helpers.
pub fn foreign_key_edges(db: &Database, vars: &VarMap) -> Result<Vec<(TupleId, TupleId)>> {
    let index = db.foreign_key_index()?;
    let known = (1..=vars.len() as Var).filter_map(|v| vars.tuple(v));
    Ok(edges_in_key_order(index, known)
        .into_iter()
        .map(|e| (e.child, e.parent))
        .collect())
}

/// The index edges out of `children`, ordered by foreign key and then by the
/// child's position in its relation — the order a scan of every foreign
/// key's child relation visits them, which fixes the order new parents get
/// their solver variables.
fn edges_in_key_order(
    index: &ForeignKeyIndex,
    children: impl Iterator<Item = TupleId>,
) -> Vec<ForeignKeyEdge> {
    let mut edges: Vec<ForeignKeyEdge> = children
        .flat_map(|child| index.edges_from(child).iter().copied())
        .collect();
    edges.sort_by_key(|e| (e.key, e.position));
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_ra::testdata;
    use ratest_solver::minones::{minimize_ones, MinOnesOptions};

    fn t(rel: u32, row: u32) -> TupleId {
        TupleId::new(rel, row)
    }

    #[test]
    fn varmap_round_trips() {
        let mut m = VarMap::new();
        let a = m.var(t(0, 0));
        let b = m.var(t(1, 3));
        assert_ne!(a, b);
        assert_eq!(m.var(t(0, 0)), a, "idempotent");
        assert_eq!(m.tuple(a), Some(t(0, 0)));
        assert_eq!(m.lookup(t(1, 3)), Some(b));
        assert_eq!(m.lookup(t(9, 9)), None);
        assert_eq!(m.len(), 2);
        let sel = m.selection_from_vars(&[a]);
        assert!(sel.contains(t(0, 0)));
        assert!(!sel.contains(t(1, 3)));
        assert_eq!(m.all_vars(), vec![1, 2]);
    }

    #[test]
    fn provenance_encoding_preserves_semantics() {
        // t1 (t4 + t5) ¬(t1 t4 t5)
        let prv = BoolExpr::and(vec![
            BoolExpr::var(t(0, 0)),
            BoolExpr::or2(BoolExpr::var(t(1, 0)), BoolExpr::var(t(1, 1))),
            BoolExpr::and(vec![
                BoolExpr::var(t(0, 0)),
                BoolExpr::var(t(1, 0)),
                BoolExpr::var(t(1, 1)),
            ])
            .negate(),
        ]);
        let mut vars = VarMap::new();
        let f = encode_provenance(&prv, &mut vars);
        assert_eq!(vars.len(), 3);
        let sol = minimize_ones(&f, &vars.all_vars(), &MinOnesOptions::default()).unwrap();
        // Minimum model keeps the student and exactly one registration.
        assert_eq!(sol.cost, 2);
        let sel = vars.selection_from_vars(&sol.true_vars);
        assert!(sel.contains(t(0, 0)));
    }

    #[test]
    fn foreign_keys_become_implications() {
        let db = testdata::figure1_db();
        let mut vars = VarMap::new();
        // Register only Mary's first registration; the FK closure must pull in
        // Mary's student tuple as a variable and emit the implication.
        vars.var(t(1, 0));
        let clauses = foreign_key_clauses(&db, &mut vars).unwrap();
        assert_eq!(clauses.len(), 1);
        assert!(vars.lookup(t(0, 0)).is_some());
        let edges = foreign_key_edges(&db, &vars).unwrap();
        assert!(edges.contains(&(t(1, 0), t(0, 0))));

        // Solving provenance + FK clauses never selects a registration
        // without its student.
        let prv = BoolExpr::var(t(1, 0));
        let mut f_parts = vec![encode_provenance(&prv, &mut vars)];
        f_parts.extend(foreign_key_clauses(&db, &mut vars).unwrap());
        let f = Formula::and(f_parts);
        let sol = minimize_ones(&f, &vars.all_vars(), &MinOnesOptions::default()).unwrap();
        assert_eq!(sol.cost, 2);
    }

    #[test]
    fn empty_varmap_produces_no_clauses() {
        let db = testdata::figure1_db();
        let mut vars = VarMap::new();
        assert!(foreign_key_clauses(&db, &mut vars).unwrap().is_empty());
        assert!(vars.is_empty());
    }
}
