//! The schema graph (Fig. 1 of the paper) and schema-level path machinery.
//!
//! Nodes are entity sets, edges are relationship sets. Three tools live
//! here:
//!
//! * **walk enumeration** — all label walks of length ≤ l between two
//!   entity sets. These are the "schema paths" the paper's Topology
//!   Computation module iterates (§4.1), and the raw material for the
//!   SQL method's candidate-topology enumeration (§3.1, the "ten schema
//!   paths of length three or less that connect proteins and DNAs");
//! * **reachability tables** — `reach[t][r]` = "can entity set `t` reach
//!   the target set within r edges";
//! * the **walk automaton** ([`WalkAutomaton`]) — the prefix trie of
//!   those walks, stepped by relationship id. It steers the
//!   instance-level DFS in [`crate::paths`] to exactly the walk prefixes
//!   that can complete, and names the walk each emitted path followed:
//!   the paper's one SQL query per schema path (§4.1), fused into one
//!   traversal that still knows which query a path came from.

use ts_storage::cast;
use ts_storage::Database;

/// A walk at the schema level: `types.len() == rels.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchemaWalk {
    /// Entity-set ids along the walk.
    pub types: Vec<u16>,
    /// Relationship-set ids along the walk.
    pub rels: Vec<u16>,
}

impl SchemaWalk {
    /// Walk length in edges.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// True for the degenerate zero-edge walk (never produced).
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }
}

/// The schema graph: entity sets connected by relationship sets.
#[derive(Debug, Clone)]
pub struct SchemaGraph {
    n_types: usize,
    /// Number of relationship sets (ids are `0..n_rels`).
    n_rels: usize,
    /// adjacency: for each entity set, (relationship id, other entity set).
    adj: Vec<Vec<(u16, u16)>>,
}

impl SchemaGraph {
    /// Build from the ER declarations of a database.
    pub fn from_db(db: &Database) -> Self {
        let n_types = db.entity_sets().len();
        let mut adj: Vec<Vec<(u16, u16)>> = vec![Vec::new(); n_types];
        for (rid, rel) in db.rel_sets().iter().enumerate() {
            let rid16 = cast::to_u16(rid);
            adj[rel.from].push((rid16, cast::to_u16(rel.to)));
            if rel.from != rel.to {
                adj[rel.to].push((rid16, cast::to_u16(rel.from)));
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        SchemaGraph { n_types, n_rels: db.rel_sets().len(), adj }
    }

    /// Number of entity sets.
    pub fn type_count(&self) -> usize {
        self.n_types
    }

    /// Neighbour list of an entity set.
    pub fn neighbors(&self, t: u16) -> &[(u16, u16)] {
        &self.adj[t as usize]
    }

    /// All label walks from `from` to `to` of length 1..=`max_len`.
    ///
    /// Walks may revisit entity sets (instance paths are simple over
    /// *entities*, not over *types* — P-D-P-U-D in §6.2.3 revisits both P
    /// and D at the schema level).
    pub fn walks(&self, from: u16, to: u16, max_len: usize) -> Vec<SchemaWalk> {
        let reach = self.reach_table(to, max_len);
        let mut out = Vec::new();
        let mut types = vec![from];
        let mut rels = Vec::new();
        self.walk_dfs(to, max_len, &reach, &mut types, &mut rels, &mut out);
        out
    }

    fn walk_dfs(
        &self,
        to: u16,
        max_len: usize,
        reach: &[Vec<bool>],
        types: &mut Vec<u16>,
        rels: &mut Vec<u16>,
        out: &mut Vec<SchemaWalk>,
    ) {
        // `walks` seeds the walk with `from`: an empty one has no end to
        // extend.
        let Some(&cur) = types.last() else { return };
        if !rels.is_empty() && cur == to {
            out.push(SchemaWalk { types: types.clone(), rels: rels.clone() });
        }
        if rels.len() == max_len {
            return;
        }
        let remaining = max_len - rels.len();
        for &(rid, next) in &self.adj[cur as usize] {
            if !reach[next as usize][remaining - 1] {
                continue;
            }
            types.push(next);
            rels.push(rid);
            self.walk_dfs(to, max_len, reach, types, rels, out);
            types.pop();
            rels.pop();
        }
    }

    /// `reach[t][r]` — true iff entity set `t` can reach `target` using at
    /// most `r` edges (`reach[target][0]` is true).
    pub fn reach_table(&self, target: u16, max_len: usize) -> Vec<Vec<bool>> {
        let mut reach = vec![vec![false; max_len + 1]; self.n_types];
        reach[target as usize][0] = true;
        for r in 1..=max_len {
            for t in 0..self.n_types {
                reach[t][r] = reach[t][r - 1]
                    || self.adj[t].iter().any(|&(_, next)| reach[next as usize][r - 1]);
            }
        }
        reach
    }

    /// Count of schema walks (the paper's "ten schema paths of length
    /// three or less that connect proteins and DNAs").
    pub fn walk_count(&self, from: u16, to: u16, max_len: usize) -> usize {
        self.walks(from, to, max_len).len()
    }
}

/// Marks a missing transition and a state that completes no walk.
const NONE: u32 = u32::MAX;

/// The schema walks from one entity set to another of length 1..=l, as a
/// deterministic automaton over relationship ids.
///
/// States are the walk prefixes that can still complete within the
/// length budget — the prefix trie of [`SchemaGraph::walks`] — so a DFS
/// over the data graph that steps the automaton along each edge visits
/// exactly the instance prefixes that can still complete. A state whose
/// prefix ends at the target set *accepts*: it names the walk (index
/// into [`WalkAutomaton::accepted_walks`], in [`SchemaGraph::walks`]'
/// order) that an instance path reaching it followed. A relationship id
/// alone picks the transition: from a given entity set each relationship
/// set leads to one other set (itself, for a self-relationship).
#[derive(Debug, Clone)]
pub struct WalkAutomaton {
    /// Row width of `next`: the schema's relationship-set count.
    n_rels: usize,
    /// `next[s * n_rels + rid]`: the state after stepping `rid` from `s`.
    next: Vec<u32>,
    /// Per state: the walk it completes, or `NONE`.
    accept: Vec<u32>,
    /// Per state: true when some transition leaves it.
    open: Vec<bool>,
    walks: Vec<SchemaWalk>,
}

impl WalkAutomaton {
    /// The start state: the empty prefix at the source entity set.
    pub(crate) const START: u32 = 0;

    /// The automaton of the walks from `from` to `to` of length 1..=`l`.
    pub fn new(schema: &SchemaGraph, from: u16, to: u16, l: usize) -> Self {
        let mut auto = WalkAutomaton {
            n_rels: schema.n_rels,
            next: Vec::new(),
            accept: Vec::new(),
            open: Vec::new(),
            walks: Vec::new(),
        };
        let reach = schema.reach_table(to, l);
        let mut walk = SchemaWalk { types: vec![from], rels: Vec::new() };
        auto.grow(schema, to, l, &reach, &mut walk, from);
        auto
    }

    /// Add the state of prefix `walk`, which ends at entity set `cur`,
    /// and, depth first, every completable extension of it; returns the
    /// new state.
    fn grow(
        &mut self,
        schema: &SchemaGraph,
        to: u16,
        l: usize,
        reach: &[Vec<bool>],
        walk: &mut SchemaWalk,
        cur: u16,
    ) -> u32 {
        let s = cast::to_u32(self.accept.len());
        self.next.resize(self.next.len() + self.n_rels, NONE);
        self.accept.push(NONE);
        self.open.push(false);
        if !walk.rels.is_empty() && cur == to {
            self.accept[s as usize] = cast::to_u32(self.walks.len());
            self.walks.push(walk.clone());
        }
        if walk.rels.len() == l {
            return s;
        }
        let remaining = l - walk.rels.len();
        for &(rid, next) in schema.neighbors(cur) {
            if !reach[next as usize][remaining - 1] {
                continue;
            }
            walk.types.push(next);
            walk.rels.push(rid);
            let child = self.grow(schema, to, l, reach, walk, next);
            walk.types.pop();
            walk.rels.pop();
            self.next[s as usize * self.n_rels + rid as usize] = child;
            self.open[s as usize] = true;
        }
        s
    }

    /// The state after stepping relationship `rid` from `state`, if that
    /// prefix can still complete.
    #[inline]
    pub(crate) fn step(&self, state: u32, rid: u16) -> Option<u32> {
        let rid = rid as usize;
        if rid >= self.n_rels {
            return None;
        }
        let t = self.next[state as usize * self.n_rels + rid];
        (t != NONE).then_some(t)
    }

    /// The walk `state` completes, if it is accepting.
    #[inline]
    pub(crate) fn accepts(&self, state: u32) -> Option<u32> {
        let w = self.accept[state as usize];
        (w != NONE).then_some(w)
    }

    /// True when some transition leaves `state`.
    #[inline]
    pub(crate) fn is_open(&self, state: u32) -> bool {
        self.open[state as usize]
    }

    /// The accepted walks, by walk id — [`SchemaGraph::walks`]' list.
    pub fn accepted_walks(&self) -> &[SchemaWalk] {
        &self.walks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_storage::{ColumnDef, TableSchema, ValueType};

    /// Minimal Biozon-like ER schema: Protein, DNA, Unigene with
    /// encodes(P,D), uni_encodes(U,P), uni_contains(U,D).
    fn tiny_schema_db() -> Database {
        let mut db = Database::new();
        let mk_entity = |db: &mut Database, name: &str| {
            let t = db
                .create_table(TableSchema::new(
                    name,
                    vec![ColumnDef::new("ID", ValueType::Int)],
                    Some(0),
                ))
                .unwrap();
            db.declare_entity_set(name, t).unwrap()
        };
        let p = mk_entity(&mut db, "Protein");
        let d = mk_entity(&mut db, "DNA");
        let u = mk_entity(&mut db, "Unigene");
        let mk_rel = |db: &mut Database, name: &str, a, b| {
            let t = db
                .create_table(TableSchema::new(
                    name,
                    vec![ColumnDef::new("A", ValueType::Int), ColumnDef::new("B", ValueType::Int)],
                    None,
                ))
                .unwrap();
            db.declare_rel_set(name, t, a, 0, b, 1).unwrap()
        };
        mk_rel(&mut db, "encodes", p, d);
        mk_rel(&mut db, "uni_encodes", u, p);
        mk_rel(&mut db, "uni_contains", u, d);
        db
    }

    #[test]
    fn adjacency_is_undirected() {
        let db = tiny_schema_db();
        let g = SchemaGraph::from_db(&db);
        assert_eq!(g.type_count(), 3);
        // Protein sees encodes->DNA and uni_encodes->Unigene.
        let p_neigh = g.neighbors(0);
        assert_eq!(p_neigh.len(), 2);
        assert!(p_neigh.contains(&(0, 1)));
        assert!(p_neigh.contains(&(1, 2)));
    }

    #[test]
    fn walks_of_length_one_and_two() {
        let db = tiny_schema_db();
        let g = SchemaGraph::from_db(&db);
        let w1 = g.walks(0, 1, 1);
        assert_eq!(w1.len(), 1); // P -encodes- D
        assert_eq!(w1[0].rels, vec![0]);
        let w2 = g.walks(0, 1, 2);
        // length 1: P-D; length 2: P-U-D
        assert_eq!(w2.len(), 2);
        assert!(w2.iter().any(|w| w.rels == vec![1, 2]));
    }

    #[test]
    fn walks_can_revisit_types() {
        let db = tiny_schema_db();
        let g = SchemaGraph::from_db(&db);
        let w3 = g.walks(0, 1, 3);
        // Must include P-D-P-D style revisits: P -encodes- D -encodes- P -encodes- D.
        assert!(w3.iter().any(|w| w.types == vec![0, 1, 0, 1]));
        // And the count matches a hand enumeration:
        // l=1: PD (1)
        // l=2: P-U-D (1)
        // l=3: P-D-P-D, P-D-U-D, P-U-P-D, P-U-D? no (len2 already), P-U-U? no.
        //   From P: P-D-P-D (e,e,e), P-D-U-D (e,uc,uc), P-U-P-D (ue,ue,e).
        assert_eq!(w3.len(), 5);
    }

    #[test]
    fn reach_table_monotone() {
        let db = tiny_schema_db();
        let g = SchemaGraph::from_db(&db);
        let reach = g.reach_table(1, 3);
        assert!(reach[1][0]);
        assert!(!reach[0][0]);
        assert!(reach[0][1]);
        assert!(reach[2][1]);
        for row in reach.iter().take(3) {
            for r in 1..=3 {
                assert!(!row[r - 1] || row[r], "monotone in r");
            }
        }
    }

    #[test]
    fn self_relationship_supported() {
        let mut db = tiny_schema_db();
        let sim = db
            .create_table(TableSchema::new(
                "Similar",
                vec![ColumnDef::new("A", ValueType::Int), ColumnDef::new("B", ValueType::Int)],
                None,
            ))
            .unwrap();
        db.declare_rel_set("similar", sim, 0, 0, 0, 1).unwrap();
        let g = SchemaGraph::from_db(&db);
        let w = g.walks(0, 1, 2);
        // P -similar- P -encodes- D is now a walk.
        assert!(w.iter().any(|w| w.rels == vec![3, 0]));
        // The automaton accepts exactly the walks, self-steps included.
        for (from, to, l) in [(0, 1, 2), (0, 0, 3), (1, 1, 4), (2, 0, 3)] {
            let auto = WalkAutomaton::new(&g, from, to, l);
            assert_eq!(auto.accepted_walks(), g.walks(from, to, l).as_slice());
        }
    }
}
