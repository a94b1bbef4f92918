//! Instance retrieval (§6.2.4): materialize the concrete entity
//! subgraphs behind a topology.
//!
//! "In addition, for each topology we report all instance-level results
//! that adhere to that topology" (§1). Given a topology id, this module
//! finds the entity pairs related by it (one AllTops index probe) and
//! reconstructs, per pair, a witness subgraph: concrete entities and
//! relationships whose union has exactly the topology's canonical code.
//!
//! A pair's paths are grouped by the build's own front end
//! ([`SourcePaths`], under the weak policy the catalog was built with),
//! so the pair has the classes the build gave it, and the witness search
//! steps the build's representative odometer. It does not bound the
//! product: the build's bounded product is a prefix of it, so every
//! related pair yields a witness.

use std::ops::ControlFlow;

use ts_exec::Work;
use ts_graph::{canonical_code, LGraph, WalkAutomaton};
use ts_storage::Value;

use crate::catalog::TopologyId;
use crate::methods::QueryContext;
use crate::topology::{build_union, SourcePaths, TopScratch, WalkClasses};

/// One concrete instance of a topology.
#[derive(Debug, Clone)]
pub struct TopologyInstance {
    /// Entity id on the espair-from side.
    pub e1: i64,
    /// Entity id on the espair-to side.
    pub e2: i64,
    /// The witness subgraph (labels are entity-set / relationship ids).
    pub graph: LGraph,
    /// Entity ids per graph node (parallel to `graph.labels`).
    pub entities: Vec<i64>,
}

/// Retrieve up to `limit` instances of a topology.
///
/// Cost profile matches the paper's observation: proportional to the
/// topology's frequency (one probe, then per-pair path recomputation).
pub fn retrieve_instances(
    ctx: &QueryContext<'_>,
    tid: TopologyId,
    limit: usize,
    work: &Work,
) -> Vec<TopologyInstance> {
    let meta = ctx.catalog.meta(tid);
    let espair = meta.espair;
    let g = ctx.graph;
    let auto = WalkAutomaton::new(ctx.schema, espair.from, espair.to, ctx.catalog.l);
    let walks = WalkClasses::new(&auto, ctx.catalog.weak_policy.as_ref());

    // Pairs related by this topology: AllTops probe on TID.
    work.tick(1);
    let row_ids = ctx.catalog.alltops.index_probe(2, &Value::Int(tid as i64));

    let mut source = SourcePaths::default();
    let mut scratch = TopScratch::new();
    let mut out = Vec::new();
    for &rid in row_ids {
        if out.len() >= limit {
            break;
        }
        let row = ctx.catalog.alltops.row(rid);
        let (e1, e2) = (row.get(0).as_int(), row.get(1).as_int());
        let Some(a) = g.node(espair.from, e1) else { continue };
        let Some(b) = g.node(espair.to, e2) else { continue };

        // Recompute the pair's paths and find a representative choice
        // whose union matches the topology.
        source.collect(g, &auto, &walks, a, |d| d == b);
        let witness = source.for_each_pair(&mut scratch, |_, paths, s| {
            work.tick(paths.len() as u64);
            s.first_combination();
            loop {
                work.tick(1);
                let union = build_union(g, paths, s);
                if canonical_code(union) == meta.code {
                    let graph = union.clone();
                    // Map the builder's nodes back to entity ids.
                    let mut entities = vec![0i64; graph.node_count()];
                    for p in s.combination(paths) {
                        for &n in p.nodes {
                            if let Some(local) = s.union_node(n) {
                                entities[usize::from(local)] = g.node_entity(n);
                            }
                        }
                    }
                    return ControlFlow::Break(TopologyInstance { e1, e2, graph, entities });
                }
                if !s.next_combination(usize::MAX) {
                    return ControlFlow::Continue(());
                }
            }
        });
        if let ControlFlow::Break(instance) = witness {
            out.push(instance);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EsPair;
    use crate::compute::{compute_catalog, ComputeOptions};
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};

    fn setup() -> (ts_storage::Database, ts_graph::DataGraph, ts_graph::SchemaGraph, crate::Catalog)
    {
        let (db, g, schema) = figure3();
        let (cat, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        (db, g, schema, cat)
    }

    #[test]
    fn instances_match_frequency() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let pd = EsPair::new(PROTEIN, DNA);
        for &tid in &cat.topologies_for(pd) {
            let work = Work::new();
            let inst = retrieve_instances(&ctx, tid, 100, &work);
            assert_eq!(
                inst.len() as u64,
                cat.meta(tid).freq,
                "every related pair yields a witness for tid {tid}"
            );
            assert!(work.get() > 0);
        }
    }

    #[test]
    fn witness_graphs_have_target_code() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let pd = EsPair::new(PROTEIN, DNA);
        for &tid in &cat.topologies_for(pd) {
            let work = Work::new();
            for inst in retrieve_instances(&ctx, tid, 10, &work) {
                assert_eq!(canonical_code(&inst.graph), cat.meta(tid).code);
                assert_eq!(inst.entities.len(), inst.graph.node_count());
                // Entity ids must include the pair endpoints.
                assert!(inst.entities.contains(&inst.e1));
                assert!(inst.entities.contains(&inst.e2));
            }
        }
    }

    #[test]
    fn limit_respected() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let pd = EsPair::new(PROTEIN, DNA);
        let tid = cat.topologies_for(pd)[0];
        let work = Work::new();
        assert!(retrieve_instances(&ctx, tid, 0, &work).is_empty());
    }
}
