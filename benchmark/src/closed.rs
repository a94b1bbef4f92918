//! The two closed-loop query workloads, `topk_et` and `full_scan`: one
//! thread, direct `Method::try_eval_with`, a fixed op list replayed in
//! whole passes until the measuring time is used up, the core's clock
//! probed every few ops so that times can be reported at one clock rate.

use std::time::Instant;

use ts_core::{validate_query, Method, QueryContext, Snapshot, TopologyId, TopologyQuery, Work};

use crate::check::{check_answer, digest_answer, reference};
use crate::clock::{probe_us, Readings};
use crate::env::{build_env, bytes_per_pair, repeat_setup, setup_s};
use crate::probes;
use crate::run::{cross_ops, ops_digest, peak_rss_mib, Metrics, Op, RunConfig, RunOutput};
use crate::stats::{per_op_low_decile, percentile, sorted, Fnv};
use crate::trace::Tracer;

/// The clock is probed before every this-many-th op of a pass (and after
/// the last): every 4 to 8 ms, for 3 % of the pass's time.
const PROBE_EVERY: usize = 8;

/// One replay of an op list.
pub struct Pass {
    /// Per-op latency as measured, ms.
    pub latency_ms: Vec<f64>,
    /// Per-op latency at the reference clock, ms.
    pub at_ref_ms: Vec<f64>,
    /// Per-op metered work units.
    pub work: Vec<u64>,
    /// Per-op fingerprint of what came back: work count, topology ids
    /// and score bits. Passes of one run are compared by it, so that
    /// only one pass has to keep its answers.
    pub prints: Vec<u64>,
    /// Per-op answer; `None` where the call was rejected or cut short.
    pub answers: Vec<Option<Vec<(TopologyId, f64)>>>,
    pub wall_s: f64,
}

fn fingerprint(work: u64, answer: Option<&[(TopologyId, f64)]>) -> u64 {
    let mut h = Fnv::default();
    h.u64(work);
    let Some(answer) = answer else {
        return h.0;
    };
    h.u64(answer.len() as u64 + 1);
    for &(tid, score) in answer {
        h.u64(u64::from(tid));
        h.u64(score.to_bits());
    }
    h.0
}

/// Replay `ops` once: the two calls `Method::try_eval_with` makes, made
/// one by one so that each gets a span. An op's latency covers both; the
/// clock probes run between ops, outside every latency and every span.
pub fn run_pass(
    ctx: &QueryContext<'_>,
    queries: &[TopologyQuery],
    ops: &[Op],
    tracer: &mut Tracer,
) -> Pass {
    let mut pass = Pass {
        latency_ms: Vec::with_capacity(ops.len()),
        at_ref_ms: Vec::new(),
        work: Vec::with_capacity(ops.len()),
        prints: Vec::with_capacity(ops.len()),
        answers: Vec::with_capacity(ops.len()),
        wall_s: 0.0,
    };
    let mut clock = Readings { every: PROBE_EVERY, probes_us: Vec::new() };
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if i % PROBE_EVERY == 0 {
            clock.probes_us.push(probe_us());
        }
        let q = &queries[op.query];
        let request = i as u64;
        let t = Instant::now();
        let root = tracer.begin("op", None, request);
        let valid = tracer.span("core.validate", Some(root), request, || validate_query(ctx, q));
        let outcome = valid.ok().map(|()| {
            let span = tracer.begin("core.eval", Some(root), request);
            let outcome = std::hint::black_box(op.method.eval_with(ctx, q, Work::new()));
            tracer.end(span, &[("work", outcome.work), ("rows", outcome.topologies.len() as u64)]);
            outcome
        });
        tracer.end(root, &[]);
        pass.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let outcome = outcome.filter(|o| o.exhausted.is_none());
        let work = outcome.as_ref().map_or(0, |o| o.work);
        let answer = outcome.map(|o| o.topologies);
        pass.work.push(work);
        pass.prints.push(fingerprint(work, answer.as_deref()));
        pass.answers.push(answer);
    }
    clock.probes_us.push(probe_us());
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.at_ref_ms =
        pass.latency_ms.iter().enumerate().map(|(i, ms)| ms * clock.factor(i)).collect();
    pass
}

/// Compare a pass's answers with the references and fold them into a
/// digest. Returns (per op: is it wrong, answers digest).
pub fn check_pass(
    snapshot: &Snapshot,
    queries: &[TopologyQuery],
    ops: &[Op],
    pass: &Pass,
    notes: &mut Vec<String>,
) -> (Vec<bool>, u64) {
    let ctx = snapshot.ctx();
    let refs: Vec<_> = queries.iter().map(|q| reference(&ctx, q)).collect();
    let mut digest = Fnv::default();
    let mut wrong = Vec::with_capacity(ops.len());
    for (i, (op, answer)) in ops.iter().zip(&pass.answers).enumerate() {
        let verdict = match answer {
            None => Err("rejected or cut short".to_string()),
            Some(a) => {
                digest_answer(&mut digest, &snapshot.catalog, i, a);
                check_answer(op.method, queries[op.query].k, a, &refs[op.query])
            }
        };
        if let Err(why) = &verdict {
            if wrong.iter().filter(|&&w| w).count() < 5 {
                notes.push(format!("op {i} ({}, query {}): {why}", op.method.name(), op.query));
            }
        }
        wrong.push(verdict.is_err());
    }
    (wrong, digest.0)
}

/// Failed ops over all passes, given each pass's fingerprints and which
/// ops the last pass got wrong: an op of a pass failed if the last pass
/// got it wrong or it came back differently from the last pass.
fn failed_ops(prints: &[&[u64]], wrong_in_last: &[bool]) -> u64 {
    let last = prints.last().expect("at least one pass");
    prints
        .iter()
        .map(|pass| (0..last.len()).filter(|&i| wrong_in_last[i] || pass[i] != last[i]).count())
        .sum::<usize>() as u64
}

pub fn run(cfg: &RunConfig, methods: &[Method]) -> RunOutput {
    let mut out = RunOutput { workers: 1, ..RunOutput::default() };
    let mut tracer = Tracer::new(cfg.trace);
    let mut untraced = Tracer::new(false);

    let (env, setup_samples) =
        repeat_setup(cfg.single_shot(), || build_env(cfg.scale(), &mut tracer));
    let ctx = env.snapshot.ctx();
    let queries = cfg.query_mix(&env.ids);
    let ops = cross_ops(queries.len(), methods);
    out.ops_digest = ops_digest(&queries, &ops);

    // Warm-up: caches fill and lazy set-up finishes before timing.
    run_pass(&ctx, &queries, &ops, &mut untraced);

    // Whole passes only, so that every run executes the identical mix.
    let mut passes: Vec<Pass> = Vec::new();
    let timed = Instant::now();
    loop {
        // Only the last pass keeps its answers, the others their
        // fingerprints; keeping every pass's answers would make peak
        // memory depend on how many passes fit.
        if let Some(previous) = passes.last_mut() {
            previous.answers = Vec::new();
        }
        passes.push(run_pass(&ctx, &queries, &ops, &mut untraced));
        let enough = if cfg.single_shot() {
            true
        } else {
            passes.len() >= 2 && timed.elapsed().as_secs_f64() >= cfg.seconds
        };
        if enough {
            break;
        }
    }
    out.passes = passes.len();

    // The last pass is checked against the references, every other pass
    // against the last: the program is deterministic, so an op that is
    // right once and comes back the same (answer and work count) every
    // time is right every time.
    let last = passes.last().expect("at least one pass");
    let (wrong, digest) = check_pass(&env.snapshot, &queries, &ops, last, &mut out.notes);
    out.answers_digest = digest;
    let prints: Vec<&[u64]> = passes.iter().map(|p| p.prints.as_slice()).collect();
    out.attempted = (ops.len() * passes.len()) as u64;
    out.failed = failed_ops(&prints, &wrong);
    let wrong_in_last = wrong.iter().filter(|&&w| w).count();
    if out.failed > (wrong_in_last * passes.len()) as u64 {
        out.notes.push("some ops came back differently from the last pass".to_string());
    }

    let at_ref: Vec<&[f64]> = passes.iter().map(|p| p.at_ref_ms.as_slice()).collect();
    let per_op = per_op_low_decile(&at_ref);
    let by_rank = sorted(&per_op);
    let m = &mut out.metrics;
    m.set("op_p50_ms", percentile(&by_rank, 0.50));
    m.set("op_tail_ms", percentile(&by_rank, 0.99));
    m.set("throughput_per_s", per_op.len() as f64 / (per_op.iter().sum::<f64>() / 1e3));
    m.set("good_share", 1.0 - out.failed as f64 / out.attempted as f64);
    m.set("catalog_bytes_per_pair", bytes_per_pair(&env.snapshot.catalog));

    if cfg.trace {
        let all: Vec<f64> = passes.iter().flat_map(|p| p.latency_ms.iter().copied()).collect();
        let all = sorted(&all);
        let mut layer = Metrics::default();
        layer.set("harness.raw_p50_ms", percentile(&all, 0.50));
        layer.set("harness.raw_p99_ms", percentile(&all, 0.99));
        let traced = run_pass(&ctx, &queries, &ops, &mut tracer);
        layer.set("harness.trace_overhead_share", traced.wall_s / last.wall_s - 1.0);
        probes::run(
            probes::View { snapshot: &env.snapshot, ids: &env.ids },
            &queries,
            cfg,
            &mut tracer,
            &mut layer,
        );
        out.metrics.extend(layer);
        out.notes.extend(crate::report::write_spans(cfg, &out, &tracer));
    }
    // Read before the second batch of set-ups, so that the high-water
    // mark is the workload's and not a matter of how the allocator
    // reuses what the workload's environment gave back.
    out.metrics.set("peak_rss_mib", peak_rss_mib());
    drop(env);
    let again = || build_env(cfg.scale(), &mut untraced);
    out.metrics.set("setup_s", setup_s(setup_samples, cfg.single_shot(), again));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_op_counts_in_every_pass() {
        // Three passes of two ops, all alike; the last pass got op 1 wrong.
        let prints: [&[u64]; 3] = [&[7, 8], &[7, 8], &[7, 8]];
        assert_eq!(failed_ops(&prints, &[false, false]), 0);
        assert_eq!(failed_ops(&prints, &[false, true]), 3);
        // Every op wrong: every attempted op failed.
        assert_eq!(failed_ops(&prints, &[true, true]), 6);
    }

    #[test]
    fn an_op_that_differs_from_the_last_pass_counts_once() {
        let prints: [&[u64]; 3] = [&[7, 8], &[7, 9], &[7, 8]];
        assert_eq!(failed_ops(&prints, &[false, false]), 1);
        assert_eq!(failed_ops(&prints, &[false, true]), 3);
    }

    #[test]
    fn the_fingerprint_tells_answers_and_work_apart() {
        let a = [(3, 1.5), (4, 1.0)];
        assert_eq!(fingerprint(10, Some(&a)), fingerprint(10, Some(&a)));
        assert_ne!(fingerprint(10, Some(&a)), fingerprint(11, Some(&a)));
        assert_ne!(fingerprint(10, Some(&a)), fingerprint(10, Some(&a[..1])));
        assert_ne!(fingerprint(10, Some(&[(3, 1.5), (4, 2.0)])), fingerprint(10, Some(&a)));
        assert_ne!(fingerprint(0, None), fingerprint(0, Some(&[])));
    }
}
