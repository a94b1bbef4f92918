//! ASCII rendering of topology structures.
//!
//! Fig. 12 of the paper shows "the details of the top 10 most frequent
//! topologies relating Proteins and DNAs" as small graph drawings; the
//! benchmark harness reproduces that table textually. Rendering is
//! deterministic: nodes are emitted in canonical-ish order (sorted by
//! label then index) and each edge on its own line.

use crate::lgraph::LGraph;
use ts_storage::cast;

/// Render a labeled graph as an edge list, resolving label names through
/// the provided lookup functions.
///
/// Output looks like:
/// ```text
/// nodes: Protein#0, Unigene#1, DNA#2
/// Protein#0 --uni_encodes-- Unigene#1
/// Unigene#1 --uni_contains-- DNA#2
/// ```
pub fn render(
    g: &LGraph,
    type_name: &dyn Fn(u16) -> String,
    rel_name: &dyn Fn(u16) -> String,
) -> String {
    let mut out = String::new();
    let names: Vec<String> =
        g.labels.iter().enumerate().map(|(i, &l)| format!("{}#{}", type_name(l), i)).collect();
    out.push_str("nodes: ");
    out.push_str(&names.join(", "));
    out.push('\n');
    let mut edges = g.edges.clone();
    edges.sort_unstable();
    for (u, v, l) in edges {
        out.push_str(&format!("{} --{}-- {}\n", names[u as usize], rel_name(l), names[v as usize]));
    }
    out
}

/// Compact single-line motif string, e.g. `P-U-D` paths render as
/// `[P]-ue-[U]-uc-[D]` using caller-provided short names.
pub fn motif_line(
    g: &LGraph,
    type_name: &dyn Fn(u16) -> String,
    rel_name: &dyn Fn(u16) -> String,
) -> String {
    // If the graph is a simple path, draw it linearly; otherwise fall back
    // to a degree-annotated summary.
    if let Some(order) = path_order(g) {
        let mut s = String::new();
        for (i, &v) in order.iter().enumerate() {
            s.push_str(&format!("[{}]", type_name(g.labels[v as usize])));
            if i + 1 < order.len() {
                let (a, b) = (order[i], order[i + 1]);
                let lbl = g
                    .edges
                    .iter()
                    .find(|&&(x, y, _)| (x == a && y == b) || (x == b && y == a))
                    .map(|&(_, _, l)| rel_name(l))
                    .unwrap_or_else(|| "?".into());
                s.push_str(&format!("-{lbl}-"));
            }
        }
        s
    } else {
        let mut labels: Vec<String> = g.labels.iter().map(|&l| type_name(l)).collect();
        labels.sort();
        format!("{{{} nodes: {}; {} edges}}", g.node_count(), labels.join(","), g.edge_count())
    }
}

/// If `g` is a simple path, return its node order end-to-end.
fn path_order(g: &LGraph) -> Option<Vec<u8>> {
    let n = g.node_count();
    if n == 0 || g.edge_count() != n - 1 {
        return None;
    }
    let degs: Vec<usize> = (0..n).map(|v| g.degree(cast::to_u8(v))).collect();
    let ends: Vec<u8> = (0..n).filter(|&v| degs[v] == 1).map(cast::to_u8).collect();
    if n == 1 {
        return Some(vec![0]);
    }
    if ends.len() != 2 || degs.iter().any(|&d| d > 2) {
        return None;
    }
    let mut cur = ends[0];
    let mut order = vec![cur];
    let mut prev: Option<u8> = None;
    while order.len() < n {
        let next = g.neighbors(cur).into_iter().map(|(_, w)| w).find(|&w| Some(w) != prev)?;
        prev = Some(cur);
        order.push(next);
        cur = next;
    }
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tn(t: u16) -> String {
        ["P", "U", "D"][t as usize].to_string()
    }
    fn rn(r: u16) -> String {
        ["e", "ue", "uc"][r as usize].to_string()
    }

    #[test]
    fn renders_path_as_line() {
        let mut g = LGraph::new();
        let p = g.add_node(0);
        let u = g.add_node(1);
        let d = g.add_node(2);
        g.add_edge(p, u, 1);
        g.add_edge(u, d, 2);
        g.normalize();
        assert_eq!(motif_line(&g, &tn, &rn), "[P]-ue-[U]-uc-[D]");
        let full = render(&g, &tn, &rn);
        assert!(full.contains("P#0 --ue-- U#1"));
        assert!(full.contains("U#1 --uc-- D#2"));
    }

    #[test]
    fn non_path_falls_back_to_summary() {
        let mut g = LGraph::new();
        let p = g.add_node(0);
        let u1 = g.add_node(1);
        let u2 = g.add_node(1);
        let d = g.add_node(2);
        g.add_edge(p, u1, 1);
        g.add_edge(u1, d, 2);
        g.add_edge(p, u2, 1);
        g.add_edge(u2, d, 2);
        g.normalize();
        let line = motif_line(&g, &tn, &rn);
        assert!(line.contains("4 nodes"));
        assert!(line.contains("4 edges"));
    }

    #[test]
    fn single_node_renders() {
        let mut g = LGraph::new();
        g.add_node(0);
        assert_eq!(motif_line(&g, &tn, &rn), "[P]");
    }

    #[test]
    fn cycle_is_not_a_path() {
        let mut g = LGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        g.add_edge(a, b, 0);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 2);
        g.normalize();
        assert!(path_order(&g).is_none());
    }
}
