//! The `serve_open` workload: open-loop arrivals into a one-worker
//! `ts-server`.
//!
//! Independent users do not wait for each other, so requests are sent
//! on a fixed schedule whatever the server does, each is timed from the
//! moment it was *due*, and how late the generator itself ran is
//! recorded per send. One thread does all of it: submit when due, then
//! poll the outstanding tickets without blocking.

use std::time::{Duration, Instant};

use ts_core::TopologyQuery;
use ts_server::{BudgetSpec, QueryResponse, Server, ServerConfig, Ticket};

use crate::check::{check_answer, partial_is_sound, reference, Reference};
use crate::closed::{check_pass, run_pass};
use crate::env::{build_env, bytes_per_pair, repeat_setup, setup_s};
use crate::probes;
use crate::registry::RUNGS;
use crate::run::{cross_ops, ops_digest, peak_rss_mib, Metrics, Op, RunConfig, RunOutput, METHODS};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;

/// A response counts as good only within this long of its due time;
/// it is also the per-query deadline the server enforces.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// A slice whose generator ran later than this at its 99th percentile
/// did not offer the load it claims to: it is reported invalid and
/// left out of every metric.
const MAX_GEN_LATE_P99_MS: f64 = 1.0;
const WORKERS: usize = 1;
/// Each rung's share of `--seconds`, in `RUNGS` order: the rung the
/// latency metrics read gets the most.
const RUNG_SHARES: [f64; 4] = [1.0 / 3.0, 0.25, 1.0 / 6.0, 0.25];
/// The rungs the end-to-end metrics read. One worker serves 1 300 to
/// 1 450 qps of the mix on the reference box, so these sit at about a
/// quarter, under half and 1.7 times its capacity; `r900` in between is
/// the busiest rung that does not saturate, for the per-layer rows.
///
/// Latency is gated where little queues: at half load a 20 % slower
/// phase of the box already moves p95 by half (3.5–6.7 ms over ten runs
/// of unchanged code), because queue wait grows with 1 / (1 - load).
const LOW_RUNG: &str = "r300";
const MID_RUNG: &str = "r600";
const OVERLOAD_RUNG: &str = "r2400";
/// How many times the ladder is climbed: about three seconds a round.
const ROUNDS: usize = 9;
/// Discarded warm-up before the first rung, at the lowest rate.
const WARMUP_S: f64 = 1.0;

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        default_budget: BudgetSpec {
            deadline_ms: Some(LATENCY_LIMIT_MS as u64),
            ..BudgetSpec::default()
        },
        ..ServerConfig::default()
    }
}

/// Request `i` of the run: the mix in order, the method rotating one
/// step further on every lap so that each query meets each method.
fn op_at(i: usize, queries: usize) -> Op {
    Op { query: i % queries, method: METHODS[(i + i / queries) % METHODS.len()] }
}

enum Fate {
    /// Refused at the door.
    Shed,
    Answered {
        response: QueryResponse,
        /// Due time → response observed, ms.
        latency_ms: f64,
    },
}

struct Sent {
    op: Op,
    fate: Fate,
    /// How far past its due time the request was sent, ms.
    late_ms: f64,
    /// Time inside `Server::submit`, ns.
    submit_ns: u64,
}

struct Rung {
    name: &'static str,
    sent: Vec<Sent>,
    /// First due time → last response, or the schedule's length if longer.
    wall_s: f64,
    /// Last send → queue drained, ms.
    drain_ms: f64,
    /// Worker-busy time the server counted over the rung, µs.
    busy_us: u64,
}

/// Offer `count` requests at `rate` per second, starting the op
/// sequence at `first`; return once every admitted one is answered.
fn run_rung(
    server: &Server,
    queries: &[TopologyQuery],
    name: &'static str,
    rate: f64,
    count: usize,
    first: usize,
    tracer: &mut Tracer,
) -> Rung {
    struct Outstanding {
        slot: usize,
        ticket: Ticket,
        due: Duration,
        root: crate::trace::SpanId,
        wait_start_ns: u64,
    }
    let busy_before = server.stats().busy_us;
    let mut sent: Vec<Sent> = Vec::with_capacity(count);
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let mut last_send = Duration::ZERO;
    let mut last_response = Duration::ZERO;
    let start = Instant::now();
    while sent.len() < count || !outstanding.is_empty() {
        let now = start.elapsed();
        let due = Duration::from_secs_f64(sent.len() as f64 / rate);
        if sent.len() < count && now >= due {
            let op = op_at(first + sent.len(), queries.len());
            let query = queries[op.query].clone();
            let request = (first + sent.len()) as u64;
            let root = tracer.begin("op", None, request);
            let span = tracer.begin("server.submit", Some(root), request);
            let t = Instant::now();
            let admitted = server.submit(op.method, query);
            let submit_ns = t.elapsed().as_nanos() as u64;
            tracer.end(span, &[]);
            last_send = start.elapsed();
            let late_ms = (now - due).as_secs_f64() * 1e3;
            let slot = sent.len();
            match admitted {
                Ok(ticket) => {
                    let wait_start_ns = tracer.now_ns();
                    outstanding.push(Outstanding { slot, ticket, due, root, wait_start_ns });
                    // Placeholder until the response is observed.
                    sent.push(Sent { op, fate: Fate::Shed, late_ms, submit_ns });
                }
                Err(_) => {
                    tracer.end(root, &[("shed", 1)]);
                    sent.push(Sent { op, fate: Fate::Shed, late_ms, submit_ns });
                }
            }
        }
        // Between sends the generator neither sleeps nor hogs its core: it
        // sweeps, then yields. Sleeping was tried both ways, six
        // alternating runs each. Blocked on the oldest ticket until the
        // next due time, the worker pays for waking the generator at every
        // reply: goodput 1 000 qps against 1 230-1 430, sends 3 ms late at
        // p99. Napping 50 us between sweeps, served medians rose from
        // 0.61-0.75 ms to 0.76-0.97 ms. A pure spin with no yield made
        // `r600` p99 range 4-22 ms over four runs.
        std::thread::yield_now();
        let mut i = 0;
        while i < outstanding.len() {
            let Some(response) = outstanding[i].ticket.wait_timeout(Duration::ZERO) else {
                i += 1;
                continue;
            };
            let done = outstanding.swap_remove(i);
            last_response = start.elapsed();
            if tracer.enabled() {
                let now_ns = tracer.now_ns();
                let request = (first + done.slot) as u64;
                let wait = tracer.record(
                    "server.wait",
                    Some(done.root),
                    request,
                    done.wait_start_ns,
                    now_ns,
                    &[],
                    false,
                );
                if let Some(outcome) = response.outcome() {
                    // The evaluation as the server reports it, placed at
                    // the end of the wait it was part of: the wait's
                    // self time is then queueing plus the hop back.
                    let eval_ns = (outcome.wall_ms * 1e6) as u64;
                    tracer.record(
                        "core.eval",
                        Some(wait),
                        request,
                        now_ns.saturating_sub(eval_ns).max(done.wait_start_ns),
                        now_ns,
                        &[("work", outcome.work), ("rows", outcome.topologies.len() as u64)],
                        true,
                    );
                }
                tracer.end(done.root, &[]);
            }
            let latency_ms = (last_response - done.due).as_secs_f64() * 1e3;
            sent[done.slot].fate = Fate::Answered { response, latency_ms };
        }
    }
    let schedule_s = count as f64 / rate;
    Rung {
        name,
        sent,
        wall_s: last_response.as_secs_f64().max(schedule_s),
        drain_ms: last_response.saturating_sub(last_send).as_secs_f64() * 1e3,
        busy_us: server.stats().busy_us - busy_before,
    }
}

#[derive(Default)]
struct RungSummary {
    sent: u64,
    shed: u64,
    degraded: u64,
    /// Ok, correct and within the latency limit.
    good: u64,
    /// Wrong answers, unsound partials, `Failed` and `Rejected`.
    broken: u64,
    latencies_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    gen_late_ms: Vec<f64>,
}

fn summarize(
    rung: &Rung,
    queries: &[TopologyQuery],
    refs: &[Reference],
    notes: &mut Vec<String>,
) -> RungSummary {
    let mut s = RungSummary { sent: rung.sent.len() as u64, ..RungSummary::default() };
    for sent in &rung.sent {
        s.gen_late_ms.push(sent.late_ms);
        let Fate::Answered { response, latency_ms } = &sent.fate else {
            s.shed += 1;
            continue;
        };
        s.latencies_ms.push(*latency_ms);
        if let Some(outcome) = response.outcome() {
            s.queue_wait_ms.push((latency_ms - outcome.wall_ms).max(0.0));
        }
        let reference = &refs[sent.op.query];
        match response {
            QueryResponse::Ok(outcome) => {
                let k = queries[sent.op.query].k;
                match check_answer(sent.op.method, k, &outcome.topologies, reference) {
                    Ok(()) => s.good += u64::from(*latency_ms <= LATENCY_LIMIT_MS),
                    Err(why) => {
                        s.broken += 1;
                        if notes.len() < 5 {
                            notes.push(format!("{} {}: {why}", rung.name, sent.op.method.name()));
                        }
                    }
                }
            }
            QueryResponse::Degraded { partial, .. } => {
                s.degraded += 1;
                s.broken += u64::from(!partial_is_sound(&partial.topologies, reference));
            }
            QueryResponse::Rejected(_) | QueryResponse::Failed(_) => s.broken += 1,
        }
    }
    s
}

/// One rung's slice of one round: what is kept of a [`Rung`] once it
/// has been summarised. The responses themselves are dropped — kept,
/// they made peak memory a count of how many requests were answered
/// (70 MiB in a slow hour of the box, 80 in a fast one).
struct Slice {
    ops: Vec<Op>,
    submit_ns: Vec<u64>,
    wall_s: f64,
    drain_ms: f64,
    busy_us: u64,
    summary: RungSummary,
    /// 99th percentile of how late the generator sent, ms.
    late_p99_ms: f64,
}

impl Slice {
    fn valid(&self) -> bool {
        self.late_p99_ms <= MAX_GEN_LATE_P99_MS
    }
}

/// A rung's rounds taken together.
fn pool(slices: &[Slice]) -> RungSummary {
    let mut all = RungSummary::default();
    for s in slices.iter().map(|s| &s.summary) {
        all.sent += s.sent;
        all.shed += s.shed;
        all.degraded += s.degraded;
        all.good += s.good;
        all.broken += s.broken;
        all.latencies_ms.extend_from_slice(&s.latencies_ms);
        all.queue_wait_ms.extend_from_slice(&s.queue_wait_ms);
        all.gen_late_ms.extend_from_slice(&s.gen_late_ms);
    }
    all
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput { workers: WORKERS, ..RunOutput::default() };
    let mut tracer = Tracer::new(cfg.trace);

    let ((server, ids), setup_samples) = repeat_setup(cfg.single_shot(), || {
        let env = build_env(cfg.scale(), &mut tracer);
        let ids = env.ids;
        (Server::new(env.snapshot, server_config()), ids)
    });
    let snapshot = server.snapshot();
    let ctx = snapshot.ctx();
    let queries = cfg.query_mix(&ids);
    let refs: Vec<Reference> = queries.iter().map(|q| reference(&ctx, q)).collect();

    // `--seconds` is shared out among the rungs, and each rung's share is
    // cut into rounds that interleave with the other rungs': the ladder
    // is climbed several times, so that every rung is seen at several
    // moments of the run.
    let (seconds, rounds) = if cfg.smoke { (1.0, 1) } else { (cfg.seconds, ROUNDS) };
    let counts: Vec<usize> = RUNGS
        .iter()
        .zip(RUNG_SHARES)
        .map(|(&(_, rate), share)| (rate * seconds * share / rounds as f64) as usize)
        .collect();
    let total: usize = counts.iter().sum::<usize>() * rounds;
    let all_ops: Vec<Op> = (0..total).map(|i| op_at(i, queries.len())).collect();
    out.ops_digest = ops_digest(&queries, &all_ops);

    let warmup = (RUNGS[0].1 * if cfg.smoke { 0.1 } else { WARMUP_S }) as usize;
    run_rung(&server, &queries, "warmup", RUNGS[0].1, warmup, 0, &mut Tracer::new(false));

    // Traced runs only: one slice of the lowest rung with tracing off,
    // to price the tracing itself.
    let untraced_low = cfg.trace.then(|| {
        let (name, rate) = RUNGS[0];
        let rung = run_rung(&server, &queries, name, rate, counts[0], 0, &mut Tracer::new(false));
        summarize(&rung, &queries, &refs, &mut out.notes)
    });

    // slices[rung][round]
    let mut slices: Vec<Vec<Slice>> = RUNGS.iter().map(|_| Vec::new()).collect();
    let mut first = 0;
    for round in 0..rounds {
        for (i, (&(name, rate), &count)) in RUNGS.iter().zip(&counts).enumerate() {
            let rung = run_rung(&server, &queries, name, rate, count, first, &mut tracer);
            first += count;
            let summary = summarize(&rung, &queries, &refs, &mut out.notes);
            let late_p99_ms = percentile(&sorted(&summary.gen_late_ms), 0.99);
            if late_p99_ms > MAX_GEN_LATE_P99_MS {
                out.notes.push(format!(
                    "{name} round {round} is invalid: generator lateness p99 {late_p99_ms:.3} ms \
                     exceeds {MAX_GEN_LATE_P99_MS} ms"
                ));
            }
            slices[i].push(Slice {
                ops: rung.sent.iter().map(|s| s.op).collect(),
                submit_ns: rung.sent.iter().map(|s| s.submit_ns).collect(),
                wall_s: rung.wall_s,
                drain_ms: rung.drain_ms,
                busy_us: rung.busy_us,
                summary,
                late_p99_ms,
            });
        }
    }
    out.passes = rounds;

    // Failures are what the program got wrong: wrong answers, unsound
    // partials, `Failed`, `Rejected`. A request shed or past the limit
    // is load behaviour — the server doing its job on the overload rung,
    // a stall of the box below it — and shows in `good_share`.
    out.attempted = slices.iter().flatten().map(|s| s.summary.sent).sum();
    out.failed = slices.iter().flatten().map(|s| s.summary.broken).sum();

    // Which requests are shed, cut short or late depends on timing, so
    // the digest is taken from what does not: every query of the mix
    // through every method, called directly on the served snapshot.
    let direct_ops = cross_ops(queries.len(), &METHODS);
    let direct = run_pass(&ctx, &queries, &direct_ops, &mut Tracer::new(false));
    let (wrong, digest) = check_pass(&snapshot, &queries, &direct_ops, &direct, &mut out.notes);
    out.answers_digest = digest;
    out.attempted += direct_ops.len() as u64;
    out.failed += wrong.iter().filter(|&&w| w).count() as u64;

    // An invalid slice offered less load than its rung claims, which
    // flatters latency and good share: it enters no metric. A rung left
    // without a valid slice cannot be measured, and fails the run —
    // unless it is a smoke run, whose one round of 150-request slices a
    // single 3 ms stall invalidates and whose numbers nobody compares.
    for (of_rung, &(name, _)) in slices.iter_mut().zip(&RUNGS) {
        if of_rung.iter().any(Slice::valid) {
            of_rung.retain(Slice::valid);
        } else {
            out.notes.push(format!("{name} has no valid slice: its metrics are not to be trusted"));
            if !cfg.smoke {
                out.failed += of_rung.iter().map(|s| s.summary.sent).sum::<u64>();
            }
        }
    }

    let of = |name: &str| {
        let i = RUNGS.iter().position(|&(n, _)| n == name).expect("a registered rung");
        &slices[i]
    };
    let pooled: Vec<RungSummary> = slices.iter().map(|s| pool(s)).collect();

    // Per round, then the median round. These times are as measured,
    // not at the reference clock: the worker's core steps its clock on
    // its own, and the generator, on the other core, cannot read it.
    // With both cores busy the clock sits at its slowest step most of
    // the time and leaves it both ways, so the middle round is the
    // steady one: over 100 rounds cut into runs of nine its `r300`
    // median spread 2.5 % from run to run (the fast quartile 3.5 %), its
    // p95 6.9 %, the `r2400` goodput 6.2 %.
    let per_round = |name: &str, f: &dyn Fn(&Slice) -> f64| -> f64 {
        median(&of(name).iter().map(f).collect::<Vec<f64>>())
    };
    let latency_at = |p: f64| move |s: &Slice| percentile(&sorted(&s.summary.latencies_ms), p);
    let mid = pool(of(MID_RUNG));
    let m = &mut out.metrics;
    m.set("op_p50_ms", per_round(LOW_RUNG, &latency_at(0.50)));
    // p95, not p99: a slice of the rung carries some 290 requests, and one
    // 10 ms stall of this box delays as many as p99 leaves beyond it.
    m.set("op_tail_ms", per_round(LOW_RUNG, &latency_at(0.95)));
    let goodput = |s: &Slice| s.summary.good as f64 / s.wall_s;
    m.set("throughput_per_s", per_round(OVERLOAD_RUNG, &goodput));
    m.set("good_share", share(mid.good, mid.sent));
    m.set("catalog_bytes_per_pair", bytes_per_pair(&snapshot.catalog));

    if cfg.trace {
        let mut layer = Metrics::default();
        let mut all_latencies = Vec::new();
        let mut all_late = Vec::new();
        let mut max_good_rate = 0.0;
        for ((of_rung, s), &(name, rate)) in slices.iter().zip(&pooled).zip(&RUNGS) {
            let lat = sorted(&s.latencies_ms);
            let wall_s: f64 = of_rung.iter().map(|x| x.wall_s).sum();
            let busy_us: u64 = of_rung.iter().map(|x| x.busy_us).sum();
            let drained = of_rung.iter().all(|x| x.drain_ms <= LATENCY_LIMIT_MS);
            let field = |f: &str| format!("server.{name}.{f}");
            layer.set(field("p50_ms"), percentile(&lat, 0.50));
            layer.set(field("p99_ms"), percentile(&lat, 0.99));
            layer.set(field("queue_wait_p50_ms"), percentile(&sorted(&s.queue_wait_ms), 0.50));
            layer.set(field("good_share"), share(s.good, s.sent));
            layer.set(field("shed_share"), share(s.shed, s.sent));
            layer.set(field("busy_share"), busy_us as f64 / 1e6 / wall_s);
            if share(s.good, s.sent) >= 0.99 && drained {
                max_good_rate = rate;
            }
            all_latencies.extend_from_slice(&s.latencies_ms);
            all_late.extend_from_slice(&s.gen_late_ms);
        }
        layer.set("server.max_good_rate_qps", max_good_rate);
        let (below, over) = pooled.split_at(RUNGS.len() - 1);
        layer.set(
            "server.degraded_share",
            share(below.iter().map(|s| s.degraded).sum(), below.iter().map(|s| s.sent).sum()),
        );
        layer.set("server.degraded_share_r2400", share(over[0].degraded, over[0].sent));
        let submit_ns: Vec<f64> =
            slices.iter().flatten().flat_map(|x| x.submit_ns.iter().map(|&ns| ns as f64)).collect();
        layer.set("server.submit_ns", median(&submit_ns));

        // What the hop through the server costs: the lowest rung's
        // median against direct calls of the very same ops.
        let low = &of(LOW_RUNG)[0];
        let direct = run_pass(&ctx, &queries, &low.ops, &mut Tracer::new(false));
        let direct_p50 = percentile(&sorted(&direct.latency_ms), 0.50);
        let served_p50 = percentile(&sorted(&low.summary.latencies_ms), 0.50);
        layer.set("server.hop_overhead_us", (served_p50 - direct_p50) * 1e3);

        let all_latencies = sorted(&all_latencies);
        layer.set("harness.raw_p50_ms", percentile(&all_latencies, 0.50));
        layer.set("harness.raw_p99_ms", percentile(&all_latencies, 0.99));
        layer.set("harness.gen_late_p99_ms", percentile(&sorted(&all_late), 0.99));
        // An open loop's wall time is its schedule, so tracing is priced
        // on latency: the traced lowest rung against the untraced one.
        if let Some(untraced) = &untraced_low {
            let untraced_p50 = percentile(&sorted(&untraced.latencies_ms), 0.50);
            layer.set("harness.trace_overhead_share", served_p50 / untraced_p50 - 1.0);
        }

        probes::run(
            probes::View { snapshot: &snapshot, ids: &ids },
            &queries,
            cfg,
            &mut tracer,
            &mut layer,
        );
        out.metrics.extend(layer);
        out.notes.extend(crate::report::write_spans(cfg, &out, &tracer));
    }

    let report = server.shutdown();
    for panic in report.worker_panics {
        out.failed += 1;
        out.notes.push(format!("a server worker died: {panic}"));
    }
    // Read before the second batch of set-ups, so that the high-water
    // mark is the workload's and not a matter of how the allocator
    // reuses what the workload's environment gave back.
    out.metrics.set("peak_rss_mib", peak_rss_mib());
    drop(snapshot);
    let again = || {
        let env = build_env(cfg.scale(), &mut Tracer::new(false));
        Server::new(env.snapshot, server_config())
    };
    out.metrics.set("setup_s", setup_s(setup_samples, cfg.single_shot(), again));
    out
}

/// Which method a request index maps to must not depend on anything but
/// the index and the mix length.
#[cfg(test)]
mod tests {
    use super::*;
    use ts_core::Method;

    #[test]
    fn every_query_meets_every_method() {
        let queries = 600;
        let mut seen = std::collections::HashSet::new();
        for i in 0..queries * METHODS.len() {
            let op = op_at(i, queries);
            seen.insert((op.query, op.method.name()));
        }
        assert_eq!(seen.len(), queries * METHODS.len());
    }

    #[test]
    fn sql_is_never_sent() {
        assert!((0..5000).all(|i| op_at(i, 600).method != Method::Sql));
    }
}
