//! Database instances: named collections of relations plus their constraints.

use crate::constraints::{ConstraintSet, ForeignKeyIndex};
use crate::error::{Result, StorageError};
use crate::relation::Relation;
use crate::tuple::TupleId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A database instance `D`: an ordered collection of named relations together
/// with its integrity constraints Γ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Database {
    name: String,
    relations: Vec<Relation>,
    #[serde(skip)]
    by_name: HashMap<String, usize>,
    constraints: ConstraintSet,
    /// Built on first use by [`Database::foreign_key_index`]; every mutable
    /// accessor drops it.
    #[serde(skip)]
    fk_index: OnceLock<ForeignKeyIndex>,
}

impl Database {
    /// Create an empty database instance.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            relations: Vec::new(),
            by_name: HashMap::new(),
            constraints: ConstraintSet::new(),
            fk_index: OnceLock::new(),
        }
    }

    /// The instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a relation. Its tuples are re-identified with this database's
    /// relation index so that [`TupleId`]s are globally unique.
    pub fn add_relation(&mut self, mut relation: Relation) -> Result<u32> {
        if self.by_name.contains_key(relation.name()) {
            return Err(StorageError::DuplicateRelation(relation.name().into()));
        }
        let idx = self.relations.len() as u32;
        relation.set_relation_index(idx);
        self.fk_index.take();
        self.by_name
            .insert(relation.name().to_owned(), idx as usize);
        self.relations.push(relation);
        Ok(idx)
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.by_name
            .get(name)
            .map(|&i| &self.relations[i])
            .ok_or_else(|| StorageError::UnknownRelation(name.into()))
    }

    /// Look up a relation mutably by name.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        match self.by_name.get(name) {
            Some(&i) => {
                self.fk_index.take();
                Ok(&mut self.relations[i])
            }
            None => Err(StorageError::UnknownRelation(name.into())),
        }
    }

    /// Look up a relation by its index.
    pub fn relation_by_index(&self, idx: u32) -> Option<&Relation> {
        self.relations.get(idx as usize)
    }

    /// Iterate over the relations in insertion order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.iter()
    }

    /// Names of all relations, in insertion order.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.iter().map(|r| r.name()).collect()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations: `|D|` in the paper.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// The constraint set Γ.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Mutable access to Γ.
    pub fn constraints_mut(&mut self) -> &mut ConstraintSet {
        self.fk_index.take();
        &mut self.constraints
    }

    /// The resolved foreign-key references of this instance, built on the
    /// first call and kept until the relations or constraints change.
    pub fn foreign_key_index(&self) -> Result<&ForeignKeyIndex> {
        if let Some(index) = self.fk_index.get() {
            return Ok(index);
        }
        let index = ForeignKeyIndex::build(self)?;
        Ok(self.fk_index.get_or_init(|| index))
    }

    /// Check `D ⊨ Γ`.
    pub fn validate_constraints(&self) -> Result<()> {
        self.constraints.validate(self)
    }

    /// Resolve a [`TupleId`] to its tuple.
    pub fn tuple(&self, id: TupleId) -> Result<&crate::tuple::Tuple> {
        let rel = self
            .relation_by_index(id.relation)
            .ok_or_else(|| StorageError::UnknownRelation(format!("#{}", id.relation)))?;
        rel.tuple(id.row as usize)
    }

    /// Build the sub-instance `D' ⊆ D` induced by a set of tuple ids. The
    /// result has the same relations (some possibly empty), the same schema,
    /// the same constraints, and retained tuples keep their identifiers.
    pub fn subinstance<F: Fn(TupleId) -> bool>(&self, keep: F) -> Database {
        let relations: Vec<Relation> = self.relations.iter().map(|r| r.restrict(&keep)).collect();
        let by_name = relations
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name().to_owned(), i))
            .collect();
        Database {
            name: format!("{}⊆", self.name),
            relations,
            by_name,
            constraints: self.constraints.clone(),
            fk_index: OnceLock::new(),
        }
    }

    /// Whether `other` is a sub-instance of `self` (every tuple of `other`
    /// appears, with the same identifier and values, in `self`).
    pub fn contains_subinstance(&self, other: &Database) -> bool {
        for rel in other.relations() {
            let Ok(mine) = self.relation(rel.name()) else {
                return false;
            };
            for t in rel.iter() {
                let Some(id) = t.id else { return false };
                match mine.tuple(id.row as usize) {
                    Ok(orig) => {
                        if orig.values != t.values {
                            return false;
                        }
                    }
                    Err(_) => return false,
                }
            }
        }
        true
    }

    /// Reassemble a database from previously serialized parts, keeping each
    /// relation's index and tuple identifiers exactly as given (unlike
    /// [`Database::add_relation`], which re-identifies). Used by
    /// [`crate::codec`].
    pub(crate) fn from_parts(
        name: String,
        relations: Vec<Relation>,
        constraints: ConstraintSet,
    ) -> Database {
        let by_name = relations
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name().to_owned(), i))
            .collect();
        Database {
            name,
            relations,
            by_name,
            constraints,
            fk_index: OnceLock::new(),
        }
    }

    /// Rebuild name and dedup indexes (needed after deserialization).
    pub fn rebuild_indexes(&mut self) {
        self.fk_index.take();
        self.by_name = self
            .relations
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name().to_owned(), i))
            .collect();
        for r in &mut self.relations {
            r.rebuild_index();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;

    fn toy() -> Database {
        let mut student = Relation::new(
            "Student",
            Schema::new(vec![("name", DataType::Text), ("major", DataType::Text)]),
        );
        student
            .insert_all(vec![
                vec![Value::from("Mary"), Value::from("CS")],
                vec![Value::from("John"), Value::from("ECON")],
                vec![Value::from("Jesse"), Value::from("CS")],
            ])
            .unwrap();
        let mut db = Database::new("toy");
        db.add_relation(student).unwrap();
        db
    }

    #[test]
    fn add_and_lookup_relations() {
        let db = toy();
        assert_eq!(db.relation_count(), 1);
        assert_eq!(db.total_tuples(), 3);
        assert!(db.relation("Student").is_ok());
        assert!(db.relation("Nope").is_err());
        assert_eq!(db.relation_names(), vec!["Student"]);
        assert!(db.relation_by_index(0).is_some());
        assert!(db.relation_by_index(9).is_none());
    }

    #[test]
    fn duplicate_relation_names_are_rejected() {
        let mut db = toy();
        let dup = Relation::new("Student", Schema::new(vec![("x", DataType::Int)]));
        assert!(matches!(
            db.add_relation(dup),
            Err(StorageError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn tuple_lookup_by_id() {
        let db = toy();
        let t = db.tuple(TupleId::new(0, 2)).unwrap();
        assert_eq!(t.values[0], Value::from("Jesse"));
        assert!(db.tuple(TupleId::new(0, 99)).is_err());
        assert!(db.tuple(TupleId::new(4, 0)).is_err());
    }

    #[test]
    fn subinstance_keeps_ids_and_is_contained() {
        let db = toy();
        let sub = db.subinstance(|id| id.row != 1);
        assert_eq!(sub.total_tuples(), 2);
        assert!(db.contains_subinstance(&sub));
        assert!(!sub.contains_subinstance(&db));
        // Retained tuples keep their original ids.
        let ids: Vec<u32> = sub
            .relation("Student")
            .unwrap()
            .iter()
            .map(|t| t.id.unwrap().row)
            .collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn subinstance_preserves_constraints() {
        let mut db = toy();
        db.constraints_mut().add_key("Student", &["name"]);
        let sub = db.subinstance(|_| true);
        assert_eq!(sub.constraints().len(), 1);
        assert!(sub.validate_constraints().is_ok());
    }

    #[test]
    fn rebuild_indexes_restores_lookup() {
        let mut db = toy();
        db.by_name.clear();
        db.rebuild_indexes();
        assert!(db.relation("Student").is_ok());
    }
}
