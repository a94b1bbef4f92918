//! Definitions 1 and 2 for one pair, written the way a reader of §2.1
//! would, as the reference the catalog build is checked against. It
//! shares no code with `ts-core`'s product: classes come from each
//! path's own signature, not from the schema walk it followed; every
//! combination of representatives builds its union and runs the
//! canonical search, with no memo of any kind; and a code's union is its
//! first occurrence in the product.
//!
//! Included by path from `ts-core`'s unit tests and from the facade's
//! integration tests, so it names ts-core as `ts_core` in both.

use ts_core::TopOptions;
use ts_graph::{
    canonical_code, CanonicalCode, DataGraph, InstanceGraphBuilder, LGraph, PathRef, PathSig,
};

/// `l-Top(a, b)` of one pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Tops {
    /// Distinct unions with their codes, sorted by code; each union is
    /// the first combination of the product that has the code.
    pub unions: Vec<(LGraph, CanonicalCode)>,
    /// The pair's path classes: distinct signatures, ascending.
    pub classes: Vec<PathSig>,
    /// True if `TopOptions` cut the product short.
    pub truncated: bool,
}

/// Definition 2 over one pair's path set `paths` (all from `a` to `b`),
/// under the product bounds of `opts`: at most `max_reps_per_class`
/// representatives per class, in input order, and at most `max_product`
/// combinations, the first class turning fastest.
pub fn pair_tops(g: &DataGraph, paths: &[PathRef<'_>], opts: TopOptions) -> Tops {
    // Definition 1: a class per distinct signature, paths in input order.
    let mut classes: Vec<(PathSig, Vec<PathRef<'_>>)> = Vec::new();
    for &p in paths {
        let sig = p.sig(g);
        match classes.iter_mut().find(|(s, _)| *s == sig) {
            Some((_, members)) => members.push(p),
            None => classes.push((sig, vec![p])),
        }
    }
    classes.sort_by(|x, y| x.0.cmp(&y.0));
    let mut truncated = classes.iter().any(|(_, ps)| ps.len() > opts.max_reps_per_class);
    let reps: Vec<&[PathRef<'_>]> =
        classes.iter().map(|(_, ps)| &ps[..ps.len().min(opts.max_reps_per_class)]).collect();

    let mut unions: Vec<(LGraph, CanonicalCode)> = Vec::new();
    let mut idx = vec![0usize; reps.len()];
    let mut produced = 0;
    while !reps.is_empty() {
        if produced == opts.max_product {
            truncated = true;
            break;
        }
        produced += 1;
        let mut builder = InstanceGraphBuilder::new();
        for (class, &i) in reps.iter().zip(&idx) {
            let p = class[i];
            for (e, &rel) in p.rels.iter().enumerate() {
                let (u, v) = (p.nodes[e], p.nodes[e + 1]);
                builder.edge(u, g.node_type(u), v, g.node_type(v), rel);
            }
        }
        let union = builder.build();
        let code = canonical_code(&union);
        if unions.iter().all(|(_, c)| *c != code) {
            unions.push((union, code));
        }
        // The odometer: turn the first class, carry into the next.
        let mut c = 0;
        while c < reps.len() {
            idx[c] += 1;
            if idx[c] < reps[c].len() {
                break;
            }
            idx[c] = 0;
            c += 1;
        }
        if c == reps.len() {
            break;
        }
    }
    unions.sort_by(|x, y| x.1.cmp(&y.1));
    Tops { unions, classes: classes.into_iter().map(|(s, _)| s).collect(), truncated }
}
