//! The `build` workload: full catalog rebuilds over one generated
//! database — compute → prune → score → snapshot, the curator's refresh
//! after a data load.

use std::time::Instant;

use crate::clock::{timed, Timed};
use crate::env::{
    build_catalog, bytes_per_pair, generate_base, into_env, repeat_setup, setup_s, split_snapshot,
    Base, Env, TIMED_BUILD_PARALLEL,
};
use crate::probes;
use crate::run::{peak_rss_mib, Metrics, RunConfig, RunOutput};
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;

/// One timed rebuild, between two clock probes. The environment it
/// produced is handed back so the next one can reuse its base.
fn rebuild(base: Base, tracer: &mut Tracer, request: u64) -> (Env, Timed) {
    timed(|| {
        let root = tracer.begin("build", None, request);
        let built = build_catalog(base.as_ref(), TIMED_BUILD_PARALLEL, tracer, Some(root), request);
        let env = into_env(base, built, tracer, Some(root));
        tracer.end(root, &[]);
        env
    })
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput { workers: 1, ..RunOutput::default() };
    let mut tracer = Tracer::new(cfg.trace);

    // Set-up here is the part a rebuild does not repeat: generating the
    // database and deriving both graphs from it.
    let (base, setup_samples) = repeat_setup(cfg.single_shot(), || {
        let root = tracer.begin("setup", None, 0);
        let base = generate_base(cfg.scale(), &mut tracer, Some(root), 0);
        tracer.end(root, &[]);
        base
    });
    let config = base.biozon.config.clone();

    // Warm-up rebuild: untimed, untraced; its digest is the reference.
    let (mut env, _) = rebuild(base, &mut Tracer::new(false), 0);
    let reference_digest = env.snapshot.digest();

    // Per rebuild, ms: as measured, and at the reference clock.
    let mut rebuild_ms = Vec::new();
    let mut at_ref_ms = Vec::new();
    let mut differing = 0u64;
    let started = Instant::now();
    loop {
        let ids = env.ids;
        // Freeing the previous catalog is not part of building the next.
        let (base, old_catalog) = split_snapshot(env.snapshot, ids, config.clone());
        drop(old_catalog);
        let (next, t) = rebuild(base, &mut tracer, rebuild_ms.len() as u64 + 1);
        env = next;
        rebuild_ms.push(t.raw_s * 1e3);
        at_ref_ms.push(t.at_ref_s * 1e3);
        differing += u64::from(env.snapshot.digest() != reference_digest);
        let enough = if cfg.single_shot() {
            true
        } else {
            rebuild_ms.len() >= 3 && started.elapsed().as_secs_f64() >= cfg.seconds
        };
        if enough {
            break;
        }
    }
    out.passes = rebuild_ms.len();
    out.attempted = rebuild_ms.len() as u64;
    out.failed = differing;
    out.answers_digest = reference_digest;
    if differing > 0 {
        out.notes.push(format!("{differing} rebuilds produced a different catalog digest"));
    }

    // A closed loop whose op list has one op, the rebuild: as on the
    // query workloads the op's value is its lower decile over the timed
    // passes, at the reference clock. Median and tail over a list of
    // one are that value, and the throughput is its inverse. How one
    // rebuild differs from the next on the same input is the box's
    // doing, not the program's, so no tail across rebuilds is gated.
    let rebuild_at_ref_ms = percentile(&sorted(&at_ref_ms), 0.10);
    let m = &mut out.metrics;
    m.set("op_p50_ms", rebuild_at_ref_ms);
    m.set("op_tail_ms", rebuild_at_ref_ms);
    m.set("throughput_per_s", 1e3 / rebuild_at_ref_ms);
    m.set("good_share", 1.0 - differing as f64 / rebuild_ms.len() as f64);
    m.set("catalog_bytes_per_pair", bytes_per_pair(&env.snapshot.catalog));

    if cfg.trace {
        let by_rank = sorted(&rebuild_ms);
        let mut layer = Metrics::default();
        layer.set("harness.raw_p50_ms", percentile(&by_rank, 0.50));
        layer.set("harness.raw_p99_ms", percentile(&by_rank, 0.99));
        // The traced rebuild against an untraced one of the same base.
        let ids = env.ids;
        let (base, old_catalog) = split_snapshot(env.snapshot, ids, config);
        drop(old_catalog);
        let (untraced_env, untraced) = rebuild(base, &mut Tracer::new(false), 0);
        env = untraced_env;
        layer.set("harness.trace_overhead_share", rebuild_ms[0] / (untraced.raw_s * 1e3) - 1.0);
        let queries = cfg.query_mix(&env.ids);
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
    let again = || generate_base(cfg.scale(), &mut Tracer::new(false), None, 0);
    out.metrics.set("setup_s", setup_s(setup_samples, cfg.single_shot(), again));
    out
}
