//! The early-termination cost model (§5.4.2–5.4.3 and Appendix A).
//!
//! Notation (paper → here):
//!
//! * `n` operators `opr_1..opr_n` stacked above a group-ordered source;
//!   `opr_1` is the lowest (consumes the group stream).
//! * `m` groups `g_1..g_m` with cardinalities `Card_i`.
//! * `s_i·N_i` — expected inner matches per outer tuple at `opr_i`
//!   ([`DgjOpParams::fanout`]).
//! * `ρ_i` — selectivity of the local predicate at `opr_i`.
//! * `I_i` — cost of one index probe at `opr_i`.
//!
//! Two places where we fix the paper's arithmetic (the experiments are
//! insensitive to the fixes, but the math should stand on its own):
//!
//! 1. Lemma 1 states `x_{n+1} = 0`; a tuple that has passed *all* joins
//!    and predicates **is** a result, so the base case must be
//!    `x_{n+1} = 1` (with 0, every `x_i` collapses to 0).
//! 2. Theorem 4 writes `ρ_l` for the probability that the j-th tuple is a
//!    result while Lemma 1 derives that probability as `x_l`; we use
//!    `x_l` consistently.
//!
//! We also evaluate the binomial expectations in closed form: with
//! `J ~ Bin(m, ρ)`, `E[1-(1-x)^J] = 1-(1-ρx)^m`, which extends smoothly
//! to fractional expected fan-outs.

/// Parameters of one operator in a DGJ stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DgjOpParams {
    /// Expected number of inner matches per outer tuple: `s_i · N_i`.
    pub fanout: f64,
    /// Local predicate selectivity `ρ_i` at this operator.
    pub rho: f64,
    /// Cost of one index probe `I_i` (HDGJ: amortized per-tuple rescan cost).
    pub probe_cost: f64,
}

/// Parameters of a whole stack: the operators bottom-up plus the group
/// cardinalities in score order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DgjStackParams {
    /// `opr_1..opr_n`, bottom-up.
    pub ops: Vec<DgjOpParams>,
    /// `Card_1..Card_m` in the score order the plan will consume.
    pub groups: Vec<f64>,
}

/// Derived quantities of the model, exposed for tests and explain output.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// `x_i` for `i = 1..=n+1` (`x[0]` unused; `x[n+1] = 1`).
    pub x: Vec<f64>,
    /// `δ_i` for `i = 1..=n+1` (`δ[n+1] = 0`).
    pub delta: Vec<f64>,
    /// Per-group `np_i` (probability of no result in group i).
    pub np: Vec<f64>,
    /// Per-group `nc_i` (expected cost of finding no result in group i).
    pub nc: Vec<f64>,
    /// Per-group `ec_i` (expected cost of finding the first result).
    pub ec: Vec<f64>,
}

impl CostModel {
    /// Evaluate Lemmas 1–2 and Theorems 2–4 for a stack.
    pub fn derive(p: &DgjStackParams) -> CostModel {
        let n = p.ops.len();
        // Lemma 1 (closed form, corrected base case x_{n+1} = 1).
        let mut x = vec![0.0; n + 2];
        x[n + 1] = 1.0;
        for i in (1..=n).rev() {
            let op = p.ops[i - 1];
            x[i] = 1.0 - (1.0 - op.rho * x[i + 1]).max(0.0).powf(op.fanout.max(0.0));
        }
        // Lemma 2 (closed form): δ_i = I_i + m_i·ρ_i·δ_{i+1}.
        let mut delta = vec![0.0; n + 2];
        for i in (1..=n).rev() {
            let op = p.ops[i - 1];
            delta[i] = op.probe_cost + op.fanout * op.rho * delta[i + 1];
        }

        let x1 = if n == 0 { 1.0 } else { x[1] };
        let d1 = if n == 0 { 0.0 } else { delta[1] };

        let mut np = Vec::with_capacity(p.groups.len());
        let mut nc = Vec::with_capacity(p.groups.len());
        let mut ec = Vec::with_capacity(p.groups.len());
        for &card in &p.groups {
            // Theorem 2.
            let npi = (1.0 - x1).max(0.0).powf(card);
            np.push(npi);
            // Theorem 3: nc_i = np_i · Card_i · δ_1.
            nc.push(npi * card * d1);
            // Theorem 4 (with the x_l fix), evaluated bottom-up.
            ec.push(expected_first_result_cost(p, &x, &delta, card));
        }
        CostModel { x, delta, np, nc, ec }
    }
}

/// `EC^{1:n}_h`: expected cost for the stack to find the first result
/// among `h` input tuples of `opr_1` (Theorem 4).
///
/// `EC^{l:n}_h = Σ_{j=1..h} x_l (1-x_l)^{j-1} [ (j-1)δ_l + I_l + EC^{l+1:n}_{m_l} ]`,
/// computed in closed form over the geometric series.
fn expected_first_result_cost(p: &DgjStackParams, x: &[f64], delta: &[f64], h: f64) -> f64 {
    fn ec_level(p: &DgjStackParams, x: &[f64], delta: &[f64], l: usize, h: f64) -> f64 {
        if l > p.ops.len() || h <= 0.0 {
            return 0.0;
        }
        let op = p.ops[l - 1];
        let xl = x[l].clamp(0.0, 1.0);
        if xl <= f64::EPSILON {
            return 0.0; // no tuple ever produces a result: every term has factor x_l = 0
        }
        let q = 1.0 - xl;
        // S0 = Σ_{j=1..h} x q^{j-1} = 1 - q^h
        let qh = q.powf(h);
        let s0 = 1.0 - qh;
        // S1 = Σ_{j=1..h} (j-1) x q^{j-1}
        //    = x·q·(1 - h·q^{h-1} + (h-1)·q^h) / (1-q)^2
        let s1 = if q <= f64::EPSILON {
            0.0
        } else {
            xl * q * (1.0 - h * q.powf(h - 1.0) + (h - 1.0) * qh) / ((1.0 - q) * (1.0 - q))
        };
        let ec_next = ec_level(p, x, delta, l + 1, op.fanout);
        s1 * delta[l] + s0 * (op.probe_cost + ec_next)
    }
    ec_level(p, x, delta, 1, h.max(0.0)).max(0.0)
}

/// Theorem 1: `E[Z^k_{1:m}]`, the expected cost of finding the top `k`
/// results from groups `g_1..g_m` in score order, by dynamic programming
/// over `(l, k)` with base cases `E[Z^k_{l:m}] = 0` when `l > m` or
/// `k = 0`:
///
/// `E[Z^k_{l:m}] = ec_l + (1-np_l)·E[Z^{k-1}_{l+1:m}] + nc_l + np_l·E[Z^k_{l+1:m}]`
pub fn et_stack_cost(p: &DgjStackParams, k: usize) -> f64 {
    let m = p.groups.len();
    if m == 0 || k == 0 {
        return 0.0;
    }
    let model = CostModel::derive(p);
    // row[kk] = E[Z^kk_{l:m}], one row reused for every l from m down to
    // 1: cell kk of level l reads cells kk and kk-1 of level l+1, so
    // overwriting from kmax downwards never reads a cell already updated.
    let kmax = k.min(m);
    let mut row = vec![0.0f64; kmax + 1]; // level m+1: zeros
    for i in (0..m).rev() {
        for kk in (1..=kmax).rev() {
            row[kk] = model.ec[i]
                + (1.0 - model.np[i]) * row[kk - 1]
                + model.nc[i]
                + model.np[i] * row[kk];
        }
    }
    row[kmax]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(ops: Vec<DgjOpParams>, groups: Vec<f64>) -> DgjStackParams {
        DgjStackParams { ops, groups }
    }

    fn op(fanout: f64, rho: f64, probe: f64) -> DgjOpParams {
        DgjOpParams { fanout, rho, probe_cost: probe }
    }

    #[test]
    fn x_closed_form_single_op() {
        // One operator, fanout 2, rho 0.5: x_1 = 1 - (1 - 0.5)^2 = 0.75.
        let p = stack(vec![op(2.0, 0.5, 1.0)], vec![1.0]);
        let m = CostModel::derive(&p);
        assert!((m.x[1] - 0.75).abs() < 1e-12);
        assert_eq!(m.x[2], 1.0);
    }

    #[test]
    fn x_composes_down_the_stack() {
        // Two ops: x_2 = 1-(1-ρ2)^m2; x_1 = 1-(1-ρ1·x_2)^m1.
        let p = stack(vec![op(1.0, 0.5, 1.0), op(1.0, 0.5, 1.0)], vec![1.0]);
        let m = CostModel::derive(&p);
        assert!((m.x[2] - 0.5).abs() < 1e-12);
        assert!((m.x[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn delta_recurrence() {
        // δ_2 = I_2 = 3; δ_1 = I_1 + m_1 ρ_1 δ_2 = 1 + 2·0.5·3 = 4.
        let p = stack(vec![op(2.0, 0.5, 1.0), op(1.0, 1.0, 3.0)], vec![1.0]);
        let m = CostModel::derive(&p);
        assert!((m.delta[2] - 3.0).abs() < 1e-12);
        assert!((m.delta[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn np_is_no_result_probability() {
        let p = stack(vec![op(1.0, 0.5, 1.0)], vec![2.0]);
        let m = CostModel::derive(&p);
        // x1 = 0.5; np = (1-0.5)^2 = 0.25.
        assert!((m.np[0] - 0.25).abs() < 1e-12);
        // nc = np · Card · δ1 = 0.25 · 2 · 1 = 0.5.
        assert!((m.nc[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ec_zero_when_nothing_matches() {
        let p = stack(vec![op(1.0, 0.0, 1.0)], vec![100.0]);
        let m = CostModel::derive(&p);
        assert_eq!(m.ec[0], 0.0);
        assert!((m.np[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ec_single_certain_hit_costs_one_probe() {
        // rho = 1, fanout = 1 => x1 = 1: the first tuple always produces a
        // result; expected cost = I_1.
        let p = stack(vec![op(1.0, 1.0, 2.5)], vec![10.0]);
        let m = CostModel::derive(&p);
        assert!((m.ec[0] - 2.5).abs() < 1e-9, "ec = {}", m.ec[0]);
    }

    #[test]
    fn ec_geometric_expected_tries() {
        // x1 = 0.5, unbounded-ish h: E[tries] = 2, each failed try costs
        // δ1 = I = 1, the final try costs I. EC ≈ E[(j-1)]·δ + E[S0]·I
        //   = (sum formula) ≈ 1·1 + 1·1 = 2 for large h.
        let p = stack(vec![op(1.0, 0.5, 1.0)], vec![1000.0]);
        let m = CostModel::derive(&p);
        assert!((m.ec[0] - 2.0).abs() < 1e-6, "ec = {}", m.ec[0]);
    }

    #[test]
    fn theorem1_k1_single_group() {
        // One group, k=1: E = ec + nc (np·E[..] terms vanish past the end).
        let p = stack(vec![op(1.0, 0.5, 1.0)], vec![4.0]);
        let m = CostModel::derive(&p);
        let e = et_stack_cost(&p, 1);
        assert!((e - (m.ec[0] + m.nc[0])).abs() < 1e-12);
    }

    #[test]
    fn theorem1_monotone_in_k() {
        let p =
            stack(vec![op(3.0, 0.3, 1.0), op(1.0, 0.4, 1.0)], vec![50.0, 40.0, 30.0, 20.0, 10.0]);
        let mut prev = 0.0;
        for k in 1..=5 {
            let e = et_stack_cost(&p, k);
            assert!(e >= prev, "cost must grow with k: {e} < {prev}");
            prev = e;
        }
    }

    #[test]
    fn theorem1_k_capped_by_group_count() {
        let p = stack(vec![op(1.0, 0.9, 1.0)], vec![5.0, 5.0]);
        // Asking for more results than groups costs the same as k = m.
        assert!((et_stack_cost(&p, 2) - et_stack_cost(&p, 10)).abs() < 1e-12);
    }

    #[test]
    fn selective_predicates_make_et_expensive() {
        // The paper's empirical finding (§6.2.2): ET plans are poor for
        // selective predicates because groups rarely produce a match and
        // each group is paid for in full. Cost with rho = 0.01 must
        // exceed cost with rho = 0.9 for the same shape.
        let groups: Vec<f64> = vec![100.0; 50];
        let cheap = stack(vec![op(1.0, 0.9, 1.0), op(1.0, 0.9, 1.0)], groups.clone());
        let dear = stack(vec![op(1.0, 0.01, 1.0), op(1.0, 0.01, 1.0)], groups);
        assert!(et_stack_cost(&dear, 10) > et_stack_cost(&cheap, 10));
    }

    #[test]
    fn empty_stack_or_zero_k_is_free() {
        assert_eq!(et_stack_cost(&DgjStackParams::default(), 5), 0.0);
        let p = stack(vec![op(1.0, 0.5, 1.0)], vec![3.0]);
        assert_eq!(et_stack_cost(&p, 0), 0.0);
    }
}
