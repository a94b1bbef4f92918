//! Property tests for the Theorem-1 cost model.

use proptest::prelude::*;
use ts_optimizer::{et_stack_cost, CostModel, DgjOpParams, DgjStackParams};

fn arb_op() -> impl Strategy<Value = DgjOpParams> {
    (0.1f64..10.0, 0.0f64..1.0, 0.5f64..4.0).prop_map(|(fanout, rho, probe_cost)| DgjOpParams {
        fanout,
        rho,
        probe_cost,
    })
}

fn arb_stack() -> impl Strategy<Value = DgjStackParams> {
    (proptest::collection::vec(arb_op(), 1..4), proptest::collection::vec(1.0f64..200.0, 1..30))
        .prop_map(|(ops, groups)| DgjStackParams { ops, groups })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn probabilities_are_probabilities(p in arb_stack()) {
        let m = CostModel::derive(&p);
        for &x in &m.x[1..] {
            prop_assert!((0.0..=1.0).contains(&x), "x = {x}");
        }
        for (&np, &nc) in m.np.iter().zip(m.nc.iter()) {
            prop_assert!((0.0..=1.0).contains(&np), "np = {np}");
            prop_assert!(nc >= 0.0);
        }
        for &ec in &m.ec {
            prop_assert!(ec >= 0.0 && ec.is_finite());
        }
    }

    #[test]
    fn cost_monotone_in_k(p in arb_stack()) {
        let mut prev = 0.0;
        for k in 1..=6 {
            let c = et_stack_cost(&p, k);
            prop_assert!(c.is_finite());
            prop_assert!(c + 1e-9 >= prev, "k={k}: {c} < {prev}");
            prev = c;
        }
    }

    #[test]
    fn impossible_results_cost_only_the_failures(mut p in arb_stack()) {
        // With rho = 0 everywhere, no group ever yields a result: the
        // total cost is exactly the sum of per-group no-result costs.
        for op in &mut p.ops {
            op.rho = 0.0;
        }
        let m = CostModel::derive(&p);
        let expected: f64 = m.nc.iter().sum();
        let c = et_stack_cost(&p, 3);
        prop_assert!((c - expected).abs() < 1e-6 * expected.max(1.0), "{c} vs {expected}");
    }

    #[test]
    fn certain_results_stop_after_k_groups(mut p in arb_stack()) {
        // With rho = 1 and fanout >= 1, the first tuple of each group is a
        // result: the plan touches exactly min(k, m) groups.
        for op in &mut p.ops {
            op.rho = 1.0;
            op.fanout = op.fanout.max(1.0);
        }
        let m = p.groups.len();
        let k = 2usize.min(m);
        let model = CostModel::derive(&p);
        let expected: f64 = model.ec.iter().take(k).sum();
        let c = et_stack_cost(&p, k);
        prop_assert!((c - expected).abs() < 1e-6 * expected.max(1.0), "{c} vs {expected}");
    }
}
