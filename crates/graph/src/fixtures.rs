//! The running example of the paper as a reusable fixture.
//!
//! [`figure3_db`] builds exactly the database of Fig. 3 (and hence the
//! data graph of Fig. 6): proteins 32/78/34/44, unigenes 103/150/188/194,
//! DNAs 214/215/742 and their encodes / uni_encodes / uni_contains rows.
//! Unit tests across the workspace assert the paper's worked examples
//! (PS(78,215,3) = {l2,l3,l6}, 3-Top(78,215) = {T3,T4}, …) against it.
//!
//! Entity-set ids: Protein=0, Unigene=1, DNA=2.
//! Relationship-set ids: encodes=0, uni_encodes=1, uni_contains=2.

// The whole module is test data: each insert is a fixed row the schema
// above accepts, so a failure is a broken fixture, not a runtime state.
#![expect(
    clippy::expect_used,
    reason = "fixed rows into a fresh database of the fixture's own schema"
)]

use ts_storage::{row, ColumnDef, Database, TableSchema, ValueType};

use crate::data_graph::DataGraph;
use crate::schema_graph::SchemaGraph;

/// Entity-set id of Protein in the fixture.
pub const PROTEIN: u16 = 0;
/// Entity-set id of Unigene in the fixture.
pub const UNIGENE: u16 = 1;
/// Entity-set id of DNA in the fixture.
pub const DNA: u16 = 2;

/// Build the Fig. 3 example database.
pub fn figure3_db() -> Database {
    let mut db = Database::new();
    let protein = db
        .create_table(TableSchema::new(
            "Protein",
            vec![ColumnDef::new("ID", ValueType::Int), ColumnDef::new("desc", ValueType::Str)],
            Some(0),
        ))
        .expect("fresh db");
    let unigene = db
        .create_table(TableSchema::new(
            "Unigene",
            vec![ColumnDef::new("ID", ValueType::Int), ColumnDef::new("desc", ValueType::Str)],
            Some(0),
        ))
        .expect("fresh db");
    let dna = db
        .create_table(TableSchema::new(
            "DNA",
            vec![
                ColumnDef::new("ID", ValueType::Int),
                ColumnDef::new("type", ValueType::Str),
                ColumnDef::new("defs", ValueType::Str),
            ],
            Some(0),
        ))
        .expect("fresh db");
    let encodes = db
        .create_table(TableSchema::new(
            "Encodes",
            vec![ColumnDef::new("PID", ValueType::Int), ColumnDef::new("DID", ValueType::Int)],
            None,
        ))
        .expect("fresh db");
    let uni_encodes = db
        .create_table(TableSchema::new(
            "Uni_encodes",
            vec![ColumnDef::new("UID", ValueType::Int), ColumnDef::new("PID", ValueType::Int)],
            None,
        ))
        .expect("fresh db");
    let uni_contains = db
        .create_table(TableSchema::new(
            "Uni_contains",
            vec![ColumnDef::new("UID", ValueType::Int), ColumnDef::new("DID", ValueType::Int)],
            None,
        ))
        .expect("fresh db");

    let p = db.declare_entity_set("Protein", protein).expect("fresh db");
    let u = db.declare_entity_set("Unigene", unigene).expect("fresh db");
    let d = db.declare_entity_set("DNA", dna).expect("fresh db");
    db.declare_rel_set("encodes", encodes, p, 0, d, 1).expect("fresh db");
    db.declare_rel_set("uni_encodes", uni_encodes, u, 0, p, 1).expect("fresh db");
    db.declare_rel_set("uni_contains", uni_contains, u, 0, d, 1).expect("fresh db");

    for (id, desc) in [
        (32i64, "Ubiquitin-conjugating enzyme UBCi"),
        (78, "Ubiquitin-conjugating enzyme variant MMS2"),
        (34, "vitamin D inducible protein"),
        (44, "ubiquitin-conjugating enzyme E2B homolog"),
    ] {
        db.table_mut(protein).insert(row![id, desc]).expect("unique ids");
    }
    for (id, desc) in [
        (103i64, "ubiquitin-conjugating enzyme E2"),
        (150, "hypothetical protein FLJ13855"),
        (188, "ubiquitin-conjugating enzyme E2S"),
        (194, "ubiquitin-conjugating enzyme E2S"),
    ] {
        db.table_mut(unigene).insert(row![id, desc]).expect("unique ids");
    }
    for (id, ty, defs) in [
        (214i64, "mRNA", "Oryctolagus cuniculus ubiquitin-conjugating enzyme UBCi"),
        (215, "mRNA", "Homo sapiens MMS2 mRNA complete cds"),
        (742, "mRNA", "Human ubiquitin carrier protein E2-EPF mRNA complete cds"),
    ] {
        db.table_mut(dna).insert(row![id, ty, defs]).expect("unique ids");
    }
    db.table_mut(encodes).insert(row![32i64, 214i64]).expect("insert");
    db.table_mut(encodes).insert(row![34i64, 215i64]).expect("insert");
    for (uid, pid) in [(103i64, 78i64), (150, 78), (103, 34), (188, 44), (194, 44)] {
        db.table_mut(uni_encodes).insert(row![uid, pid]).expect("insert");
    }
    for (uid, did) in [(103i64, 215i64), (150, 215), (188, 742), (194, 742)] {
        db.table_mut(uni_contains).insert(row![uid, did]).expect("insert");
    }
    db.analyze_all();
    db
}

/// Fixture bundle: database, data graph, schema graph.
pub fn figure3() -> (Database, DataGraph, SchemaGraph) {
    let db = figure3_db();
    let g = DataGraph::from_db(&db).expect("fixture is consistent");
    let s = SchemaGraph::from_db(&db);
    (db, g, s)
}
