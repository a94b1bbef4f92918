//! Instance retrieval (§6.2.4): materialize the concrete entity
//! subgraphs behind a topology.
//!
//! "In addition, for each topology we report all instance-level results
//! that adhere to that topology" (§1). Given a topology id, this module
//! finds the entity pairs related by it (one AllTops index probe) and
//! reconstructs, per pair, a witness subgraph: concrete entities and
//! relationships whose union has exactly the topology's canonical code.

use ts_exec::Work;
use ts_graph::{canonical_code, InstanceGraphBuilder, LGraph};
use ts_storage::Value;

use crate::catalog::TopologyId;
use crate::methods::QueryContext;
use crate::topology::path_classes;

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
    let target = &meta.code;
    let auto = ts_graph::WalkAutomaton::new(ctx.schema, espair.from, espair.to, ctx.catalog.l);

    // Pairs related by this topology: AllTops probe on TID.
    work.tick(1);
    let row_ids = ctx.catalog.alltops.index_probe(2, &Value::Int(tid as i64));

    let mut out = Vec::new();
    for &rid in row_ids {
        if out.len() >= limit {
            break;
        }
        let row = ctx.catalog.alltops.row(rid);
        let (e1, e2) = (row.get(0).as_int(), row.get(1).as_int());
        let Some(a) = ctx.graph.node(espair.from, e1) else { continue };
        let Some(b) = ctx.graph.node(espair.to, e2) else { continue };

        // Recompute the pair's paths and find a representative choice
        // whose union matches the topology.
        let mut arena = ts_graph::PathArena::new();
        ts_graph::paths_from_into(ctx.graph, &auto, a, &mut arena);
        let paths: Vec<ts_graph::PathRef<'_>> =
            arena.iter().filter(|p| p.endpoints().1 == b).collect();
        work.tick(paths.len() as u64);
        let classes = path_classes(ctx.graph, &paths);
        if classes.is_empty() {
            continue;
        }
        let reps: Vec<&[ts_graph::PathRef<'_>]> =
            classes.iter().map(|(_, ps)| ps.as_slice()).collect();
        let mut idx = vec![0usize; reps.len()];
        'product: loop {
            let mut builder = InstanceGraphBuilder::new();
            let mut entities: Vec<(u32, i64)> = Vec::new();
            for (c, &class_reps) in reps.iter().enumerate() {
                let p = class_reps[idx[c]];
                for i in 0..p.rels.len() {
                    let (u, v) = (p.nodes[i], p.nodes[i + 1]);
                    builder.edge(u, ctx.graph.node_type(u), v, ctx.graph.node_type(v), p.rels[i]);
                    for n in [u, v] {
                        if !entities.iter().any(|&(k, _)| k == n) {
                            entities.push((n, ctx.graph.node_entity(n)));
                        }
                    }
                }
            }
            let lookup: Vec<(u32, i64)> = entities.clone();
            let union = builder.build();
            work.tick(1);
            if &canonical_code(&union) == target {
                // Map builder nodes back to entity ids.
                let mut ents = vec![0i64; union.node_count()];
                let mut b2 = InstanceGraphBuilder::new();
                for (c, &class_reps) in reps.iter().enumerate() {
                    let p = class_reps[idx[c]];
                    for i in 0..p.rels.len() {
                        let (u, v) = (p.nodes[i], p.nodes[i + 1]);
                        b2.edge(u, ctx.graph.node_type(u), v, ctx.graph.node_type(v), p.rels[i]);
                    }
                }
                for &(key, ent) in &lookup {
                    if let Some(local) = b2.lookup(key) {
                        ents[local as usize] = ent;
                    }
                }
                out.push(TopologyInstance { e1, e2, graph: union, entities: ents });
                break 'product;
            }
            // Advance odometer.
            let mut c = 0;
            loop {
                if c == reps.len() {
                    break 'product;
                }
                idx[c] += 1;
                if idx[c] < reps[c].len() {
                    break;
                }
                idx[c] = 0;
                c += 1;
            }
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
