//! Integrity constraints Γ: keys, not-null, functional dependencies and
//! foreign keys (Section 2 of the paper).
//!
//! Keys, not-null and functional dependencies are *closed under
//! subinstances* — if `D ⊨ Γ` then every `D' ⊆ D` satisfies them too — so the
//! counterexample algorithms only need to validate them on the original
//! instance. Foreign keys are **not** closed under subinstances; the solver
//! layer turns each referencing tuple into an implication clause
//! `t_child ⇒ t_parent` (Section 4.3), and [`ForeignKey::referenced_tuples`]
//! provides the tuple-level dependency map it needs. [`ForeignKeyIndex`]
//! resolves that map once per database for the closure and clause builders.

use crate::database::Database;
use crate::error::{Result, StorageError};
use crate::tuple::TupleId;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A key (uniqueness) constraint over a set of columns of one relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Key {
    /// Relation the key applies to.
    pub relation: String,
    /// Key columns.
    pub columns: Vec<String>,
}

/// A not-null constraint on a single column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotNull {
    /// Relation the constraint applies to.
    pub relation: String,
    /// Column that must not be null.
    pub column: String,
}

/// A functional dependency `determinants → dependents` within one relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionalDependency {
    /// Relation the FD applies to.
    pub relation: String,
    /// Left-hand side columns.
    pub determinants: Vec<String>,
    /// Right-hand side columns.
    pub dependents: Vec<String>,
}

/// A foreign-key (referential) constraint from `child` columns to `parent`
/// columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    /// Referencing relation.
    pub child: String,
    /// Referencing columns (in `child`).
    pub child_columns: Vec<String>,
    /// Referenced relation.
    pub parent: String,
    /// Referenced columns (in `parent`).
    pub parent_columns: Vec<String>,
}

/// Any single integrity constraint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Constraint {
    /// Key constraint.
    Key(Key),
    /// Not-null constraint.
    NotNull(NotNull),
    /// Functional dependency.
    FunctionalDependency(FunctionalDependency),
    /// Foreign key.
    ForeignKey(ForeignKey),
}

impl Constraint {
    /// Whether the constraint class is closed under subinstances.
    pub fn closed_under_subinstances(&self) -> bool {
        !matches!(self, Constraint::ForeignKey(_))
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Key(k) => write!(f, "KEY {}({})", k.relation, k.columns.join(", ")),
            Constraint::NotNull(n) => write!(f, "NOT NULL {}.{}", n.relation, n.column),
            Constraint::FunctionalDependency(fd) => write!(
                f,
                "FD {}: {} -> {}",
                fd.relation,
                fd.determinants.join(", "),
                fd.dependents.join(", ")
            ),
            Constraint::ForeignKey(fk) => write!(
                f,
                "FK {}({}) REFERENCES {}({})",
                fk.child,
                fk.child_columns.join(", "),
                fk.parent,
                fk.parent_columns.join(", ")
            ),
        }
    }
}

/// The set Γ of integrity constraints attached to a database.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// Empty constraint set.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Add a constraint.
    pub fn add(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Add a key constraint.
    pub fn add_key(&mut self, relation: &str, columns: &[&str]) {
        self.add(Constraint::Key(Key {
            relation: relation.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
        }));
    }

    /// Add a foreign-key constraint.
    pub fn add_foreign_key(
        &mut self,
        child: &str,
        child_columns: &[&str],
        parent: &str,
        parent_columns: &[&str],
    ) {
        self.add(Constraint::ForeignKey(ForeignKey {
            child: child.into(),
            child_columns: child_columns.iter().map(|s| s.to_string()).collect(),
            parent: parent.into(),
            parent_columns: parent_columns.iter().map(|s| s.to_string()).collect(),
        }));
    }

    /// Add a not-null constraint.
    pub fn add_not_null(&mut self, relation: &str, column: &str) {
        self.add(Constraint::NotNull(NotNull {
            relation: relation.into(),
            column: column.into(),
        }));
    }

    /// Add a functional dependency.
    pub fn add_fd(&mut self, relation: &str, determinants: &[&str], dependents: &[&str]) {
        self.add(Constraint::FunctionalDependency(FunctionalDependency {
            relation: relation.into(),
            determinants: determinants.iter().map(|s| s.to_string()).collect(),
            dependents: dependents.iter().map(|s| s.to_string()).collect(),
        }));
    }

    /// All constraints.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// The foreign keys only.
    pub fn foreign_keys(&self) -> impl Iterator<Item = &ForeignKey> {
        self.constraints.iter().filter_map(|c| match c {
            Constraint::ForeignKey(fk) => Some(fk),
            _ => None,
        })
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Validate `D ⊨ Γ` on a full database instance.
    pub fn validate(&self, db: &Database) -> Result<()> {
        for c in &self.constraints {
            match c {
                Constraint::Key(k) => validate_key(db, k)?,
                Constraint::NotNull(n) => validate_not_null(db, n)?,
                Constraint::FunctionalDependency(fd) => validate_fd(db, fd)?,
                Constraint::ForeignKey(fk) => {
                    // Validate full referential integrity on the instance.
                    let map = fk.referenced_tuples(db)?;
                    for (child, parent) in &map {
                        if parent.is_none() {
                            return Err(StorageError::ConstraintViolation {
                                constraint: c.to_string(),
                                detail: format!("tuple {child} has no referenced parent tuple"),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl ForeignKey {
    /// For each tuple of the child relation, the id of the parent tuple it
    /// references (or `None` if dangling). This is the tuple-level dependency
    /// map the counterexample algorithms turn into `child ⇒ parent` clauses.
    ///
    /// If several parent tuples share the referenced key value (which cannot
    /// happen when the parent columns form a key), the first one wins.
    pub fn referenced_tuples(&self, db: &Database) -> Result<Vec<(TupleId, Option<TupleId>)>> {
        let child = db.relation(&self.child)?;
        let parent = db.relation(&self.parent)?;
        let child_idx: Vec<usize> = self
            .child_columns
            .iter()
            .map(|c| {
                child
                    .schema()
                    .index_of(c)
                    .ok_or_else(|| StorageError::UnknownColumn {
                        relation: self.child.clone(),
                        column: c.clone(),
                    })
            })
            .collect::<Result<_>>()?;
        let parent_idx: Vec<usize> = self
            .parent_columns
            .iter()
            .map(|c| {
                parent
                    .schema()
                    .index_of(c)
                    .ok_or_else(|| StorageError::UnknownColumn {
                        relation: self.parent.clone(),
                        column: c.clone(),
                    })
            })
            .collect::<Result<_>>()?;

        let mut parent_index: HashMap<Vec<Value>, TupleId> = HashMap::new();
        for t in parent.iter() {
            let key: Vec<Value> = parent_idx.iter().map(|&i| t.values[i].clone()).collect();
            parent_index
                .entry(key)
                .or_insert_with(|| t.id.expect("base tuple"));
        }

        let mut out = Vec::with_capacity(child.len());
        for t in child.iter() {
            let key: Vec<Value> = child_idx.iter().map(|&i| t.values[i].clone()).collect();
            let referenced = if key.iter().any(|v| v.is_null()) {
                // Null foreign keys do not reference anything (and are
                // allowed only if the column is nullable).
                None
            } else {
                parent_index.get(&key).copied()
            };
            out.push((t.id.expect("base tuple"), referenced));
        }
        Ok(out)
    }
}

/// One resolved foreign-key reference, as stored in a [`ForeignKeyIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignKeyEdge {
    /// The referencing (child) tuple.
    pub child: TupleId,
    /// Which foreign key this edge comes from: its position among
    /// [`ConstraintSet::foreign_keys`].
    pub key: usize,
    /// The child's position in its relation's iteration order.
    pub position: usize,
    /// The referenced (parent) tuple.
    pub parent: TupleId,
}

/// Every resolved `child ⇒ parent` reference of a database, grouped by
/// child, built once from [`ForeignKey::referenced_tuples`] so that closing
/// a selection costs one lookup per selected tuple instead of a rescan of
/// every foreign key's child and parent relations. Null and dangling
/// references have no edge.
#[derive(Debug, Clone, Default)]
pub struct ForeignKeyIndex {
    /// Sorted by `(child, key)`.
    edges: Vec<ForeignKeyEdge>,
}

impl ForeignKeyIndex {
    /// Resolve every foreign key of `db`.
    pub(crate) fn build(db: &Database) -> Result<ForeignKeyIndex> {
        let mut edges = Vec::new();
        for (key, fk) in db.constraints().foreign_keys().enumerate() {
            for (position, (child, parent)) in fk.referenced_tuples(db)?.into_iter().enumerate() {
                if let Some(parent) = parent {
                    edges.push(ForeignKeyEdge {
                        child,
                        key,
                        position,
                        parent,
                    });
                }
            }
        }
        edges.sort_by_key(|e| (e.child, e.key));
        Ok(ForeignKeyIndex { edges })
    }

    /// The references held by `child`, in foreign-key order (empty when the
    /// tuple references nothing).
    pub fn edges_from(&self, child: TupleId) -> &[ForeignKeyEdge] {
        let start = self.edges.partition_point(|e| e.child < child);
        let end = start + self.edges[start..].partition_point(|e| e.child == child);
        &self.edges[start..end]
    }

    /// Total number of resolved references.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no tuple references another.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

fn validate_key(db: &Database, k: &Key) -> Result<()> {
    let rel = db.relation(&k.relation)?;
    let idx: Vec<usize> = k
        .columns
        .iter()
        .map(|c| {
            rel.schema()
                .index_of(c)
                .ok_or_else(|| StorageError::UnknownColumn {
                    relation: k.relation.clone(),
                    column: c.clone(),
                })
        })
        .collect::<Result<_>>()?;
    let mut seen: HashMap<Vec<Value>, TupleId> = HashMap::new();
    for t in rel.iter() {
        let key: Vec<Value> = idx.iter().map(|&i| t.values[i].clone()).collect();
        if let Some(prev) = seen.insert(key, t.id.expect("base tuple")) {
            return Err(StorageError::ConstraintViolation {
                constraint: Constraint::Key(k.clone()).to_string(),
                detail: format!("tuples {prev} and {} share a key value", t.id.unwrap()),
            });
        }
    }
    Ok(())
}

fn validate_not_null(db: &Database, n: &NotNull) -> Result<()> {
    let rel = db.relation(&n.relation)?;
    let i = rel
        .schema()
        .index_of(&n.column)
        .ok_or_else(|| StorageError::UnknownColumn {
            relation: n.relation.clone(),
            column: n.column.clone(),
        })?;
    for t in rel.iter() {
        if t.values[i].is_null() {
            return Err(StorageError::ConstraintViolation {
                constraint: Constraint::NotNull(n.clone()).to_string(),
                detail: format!("tuple {} is null", t.id.expect("base tuple")),
            });
        }
    }
    Ok(())
}

fn validate_fd(db: &Database, fd: &FunctionalDependency) -> Result<()> {
    let rel = db.relation(&fd.relation)?;
    let lhs: Vec<usize> = fd
        .determinants
        .iter()
        .map(|c| {
            rel.schema()
                .index_of(c)
                .ok_or_else(|| StorageError::UnknownColumn {
                    relation: fd.relation.clone(),
                    column: c.clone(),
                })
        })
        .collect::<Result<_>>()?;
    let rhs: Vec<usize> = fd
        .dependents
        .iter()
        .map(|c| {
            rel.schema()
                .index_of(c)
                .ok_or_else(|| StorageError::UnknownColumn {
                    relation: fd.relation.clone(),
                    column: c.clone(),
                })
        })
        .collect::<Result<_>>()?;
    let mut seen: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
    for t in rel.iter() {
        let l: Vec<Value> = lhs.iter().map(|&i| t.values[i].clone()).collect();
        let r: Vec<Value> = rhs.iter().map(|&i| t.values[i].clone()).collect();
        if let Some(prev) = seen.get(&l) {
            if *prev != r {
                return Err(StorageError::ConstraintViolation {
                    constraint: Constraint::FunctionalDependency(fd.clone()).to_string(),
                    detail: format!("determinant {l:?} maps to both {prev:?} and {r:?}"),
                });
            }
        } else {
            seen.insert(l, r);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn toy_db() -> Database {
        let mut student = crate::Relation::new(
            "Student",
            Schema::new(vec![("name", DataType::Text), ("major", DataType::Text)]),
        );
        student
            .insert_all(vec![
                vec![Value::from("Mary"), Value::from("CS")],
                vec![Value::from("John"), Value::from("ECON")],
            ])
            .unwrap();
        let mut reg = crate::Relation::new(
            "Registration",
            Schema::new(vec![
                ("name", DataType::Text),
                ("course", DataType::Text),
                ("dept", DataType::Text),
            ]),
        );
        reg.insert_all(vec![
            vec![Value::from("Mary"), Value::from("216"), Value::from("CS")],
            vec![Value::from("John"), Value::from("316"), Value::from("CS")],
        ])
        .unwrap();
        let mut db = Database::new("toy");
        db.add_relation(student).unwrap();
        db.add_relation(reg).unwrap();
        db
    }

    #[test]
    fn keys_validate_and_detect_violations() {
        let db = toy_db();
        let mut cs = ConstraintSet::new();
        cs.add_key("Student", &["name"]);
        assert!(cs.validate(&db).is_ok());

        let mut cs = ConstraintSet::new();
        cs.add_key("Registration", &["dept"]); // both are CS -> violation
        assert!(cs.validate(&db).is_err());
    }

    #[test]
    fn foreign_key_maps_children_to_parents() {
        let db = toy_db();
        let mut cs = ConstraintSet::new();
        cs.add_foreign_key("Registration", &["name"], "Student", &["name"]);
        assert!(cs.validate(&db).is_ok());

        let fk = cs.foreign_keys().next().unwrap().clone();
        let map = fk.referenced_tuples(&db).unwrap();
        assert_eq!(map.len(), 2);
        assert!(map.iter().all(|(_, p)| p.is_some()));
        // Mary's registration refers to Mary's student tuple (relation 0, row 0)
        assert_eq!(map[0].1.unwrap(), TupleId::new(0, 0));
    }

    #[test]
    fn dangling_foreign_key_is_a_violation() {
        let mut db = toy_db();
        db.relation_mut("Registration")
            .unwrap()
            .insert(vec![
                Value::from("Ghost"),
                Value::from("101"),
                Value::from("CS"),
            ])
            .unwrap();
        let mut cs = ConstraintSet::new();
        cs.add_foreign_key("Registration", &["name"], "Student", &["name"]);
        assert!(cs.validate(&db).is_err());
    }

    #[test]
    fn fd_and_not_null_validation() {
        let db = toy_db();
        let mut cs = ConstraintSet::new();
        cs.add_fd("Student", &["name"], &["major"]);
        cs.add_not_null("Student", "major");
        assert!(cs.validate(&db).is_ok());

        // An FD that does not hold: dept -> course (both CS but courses differ)
        let mut cs = ConstraintSet::new();
        cs.add_fd("Registration", &["dept"], &["course"]);
        assert!(cs.validate(&db).is_err());
    }

    #[test]
    fn closure_under_subinstances_flag() {
        assert!(Constraint::Key(Key {
            relation: "R".into(),
            columns: vec!["a".into()]
        })
        .closed_under_subinstances());
        assert!(!Constraint::ForeignKey(ForeignKey {
            child: "R".into(),
            child_columns: vec!["a".into()],
            parent: "S".into(),
            parent_columns: vec!["a".into()]
        })
        .closed_under_subinstances());
    }

    #[test]
    fn display_renders_constraints() {
        let mut cs = ConstraintSet::new();
        cs.add_key("Student", &["name"]);
        cs.add_foreign_key("Registration", &["name"], "Student", &["name"]);
        let rendered: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
        assert!(rendered[0].starts_with("KEY"));
        assert!(rendered[1].contains("REFERENCES"));
        assert_eq!(cs.len(), 2);
        assert!(!cs.is_empty());
    }

    #[test]
    fn unknown_columns_are_reported() {
        let db = toy_db();
        let mut cs = ConstraintSet::new();
        cs.add_key("Student", &["nope"]);
        assert!(matches!(
            cs.validate(&db),
            Err(StorageError::UnknownColumn { .. })
        ));
    }
}
