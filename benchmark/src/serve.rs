//! `serve-m3`: exact shortest-path queries on M3 beside oracle rebuilds.
//!
//! The engine serves one of two precomputed ASG labellings of M3. A cycle
//! answers a fixed number of origin–destination queries from closed-loop
//! querier threads (one per pool slot); halfway through, querier 0
//! publishes the other labelling and calls `refresh()`, rebuilding the
//! boundary oracles on its own thread while the other queriers keep
//! reading. The run repeats whole cycles until its time is up.
//!
//! Every 25th query is checked after the run against a whole-network
//! Dijkstra (`exact_route`): costs are sums of whole seconds, so they must
//! match with `==`, and a no-route answer must be no-route there too.
//! Versions a querier sees must never go backwards.

use crate::checks::quality;
use crate::inputs::{self, City, ALGO_SEED, K};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{Report, RunConfig};
use roadpart::{partition_network, PipelineConfig};
use roadpart_linalg::ThreadPool;
use roadpart_net::{RoadGraph, SegmentId};
use roadpart_serve::{
    exact_route, QueryContext, QueryEngine, RefreshOutcome, SegmentGraph, ServeError,
};
use roadpart_stream::PartitionStore;
use serde_json::json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every `SAMPLE_EVERY`-th query is re-checked against `exact_route`.
pub const SAMPLE_EVERY: usize = 25;

/// Normalized times of the two labellings' density snapshots.
const LABEL_TIMES: [f64; 2] = [0.3, 0.7];

/// A query answer kept for the after-run check: `None` means no route.
type Sample = (SegmentId, SegmentId, Option<f64>);

/// What one querier thread saw during one cycle.
struct Querier {
    latency_us: Vec<f64>,
    settled: u64,
    answered: u64,
    overlay: u64,
    no_route: u64,
    samples: Vec<Sample>,
    refresh_ms: Option<f64>,
    errors: Vec<String>,
    tracer: Tracer,
}

/// Shared, read-only state of one cycle.
struct Cycle<'a> {
    cfg: &'a RunConfig,
    engine: &'a QueryEngine,
    segments: usize,
    /// Global index of the cycle's first query.
    first: usize,
    queries: usize,
    next: &'a AtomicUsize,
}

/// Claims and answers queries until the cycle's are gone. `publish` (only
/// querier 0 gets one) is published and refreshed once half the cycle's
/// queries have been claimed.
fn querier(
    cycle: &Cycle<'_>,
    ctx: &mut QueryContext,
    mut publish: Option<(Vec<usize>, u64)>,
) -> Querier {
    let mut out = Querier {
        latency_us: Vec::new(),
        settled: 0,
        answered: 0,
        overlay: 0,
        no_route: 0,
        samples: Vec::new(),
        refresh_ms: None,
        errors: Vec::new(),
        tracer: Tracer::new(cycle.cfg.trace, cycle.cfg.epoch),
    };
    let engine = cycle.engine;
    let mut last_version = 0;
    loop {
        // Claiming an index publishes nothing else; Relaxed suffices.
        let i = cycle.next.fetch_add(1, Ordering::Relaxed);
        if i >= cycle.queries {
            break;
        }
        if i >= cycle.queries / 2 {
            if let Some((labels, epoch)) = publish.take() {
                let t = Instant::now();
                engine.store().publish(labels, epoch);
                let refreshed = out.tracer.span("serve.refresh", |_| engine.refresh());
                out.refresh_ms = Some(t.elapsed().as_secs_f64() * 1e3);
                match refreshed {
                    Ok(RefreshOutcome::Rebuilt { .. }) => {}
                    other => out.errors.push(format!("refresh: {other:?}")),
                }
            }
        }
        let index = cycle.first + i;
        let (from, to) = inputs::od_pair(cycle.cfg.seed, index, cycle.segments);
        out.tracer.set_op(index);
        let t = Instant::now();
        let answer = out
            .tracer
            .span("serve.query", |_| engine.query(from, to, ctx));
        out.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        let cost = match answer {
            Ok(r) => {
                out.answered += 1;
                out.settled += r.settled as u64;
                out.overlay += u64::from(r.used_overlay);
                if r.version < last_version {
                    out.errors.push(format!(
                        "query {index}: version went back from {last_version} to {}",
                        r.version
                    ));
                }
                last_version = r.version;
                Some(r.cost)
            }
            Err(ServeError::NoRoute { .. }) => {
                out.no_route += 1;
                None
            }
            Err(e) => {
                out.errors.push(format!("query {index}: {e}"));
                continue;
            }
        };
        if index % SAMPLE_EVERY == 0 {
            out.samples.push((from, to, cost));
        }
    }
    out
}

/// Runs `serve-m3`, recording into `rep`.
///
/// # Errors
/// Reports a failure that stops the run before its measurements finish.
pub fn run(cfg: &RunConfig, rep: &mut Report) -> Result<(), String> {
    let net = inputs::city(City::M3, cfg.scale())?;
    let n = net.segment_count();
    let snaps = inputs::snapshots(&net, &LABEL_TIMES);
    let pipeline = PipelineConfig::asg(K)
        .with_seed(ALGO_SEED)
        .with_pool(cfg.pool());
    let labellings = snaps
        .iter()
        .map(|d| {
            partition_network(&net, d, &pipeline)
                .map(|r| r.partition.labels().to_vec())
                .map_err(|e| format!("labelling: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let base = RoadGraph::from_network(&net).map_err(|e| format!("road graph: {e}"))?;
    let scores: Vec<_> = labellings
        .iter()
        .zip(&snaps)
        .map(|(l, d)| quality(base.adjacency(), d, l, K))
        .collect();
    let costs = inputs::quantized_costs(&net);

    // Set-up: routing graph, store and the first oracle build, on a
    // serial pool so that rebuilds stay on the refreshing querier.
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut prepared = None;
    for _ in 0..cfg.setup_reps(3) {
        let t = Instant::now();
        let graph = SegmentGraph::with_costs(&net, costs.clone()).map_err(|e| e.to_string())?;
        let store = Arc::new(PartitionStore::new(labellings[0].clone(), 0));
        let engine =
            QueryEngine::new(graph, store, ThreadPool::serial()).map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        build_ms.push(engine.serving().build_ms);
        prepared = Some(engine);
    }
    let engine = prepared.ok_or("no set-up ran")?;
    let serving = engine.serving();
    rep.note("segments", json!(n));
    rep.note("partitions", json!(serving.partition_count()));
    let (boundary, overlay_edges) = (serving.boundary_count(), serving.overlay_edge_count());
    drop(serving);

    // One context per querier, sized by a first query here so that the
    // search buffers are allocated once, not in every cycle's threads.
    let queriers = cfg.threads.max(1);
    let mut contexts: Vec<QueryContext> = (0..queriers).map(|_| QueryContext::new()).collect();
    for ctx in &mut contexts {
        let (from, to) = inputs::od_pair(cfg.seed, usize::MAX, n);
        let _ = engine.query(from, to, ctx);
    }
    let per_cycle = if cfg.smoke { 100 } else { 1000 };
    let start = Instant::now();
    let mut cycles = 0usize;
    let mut busy_s = 0.0;
    let mut all: Vec<Querier> = Vec::new();
    loop {
        let next = AtomicUsize::new(0);
        let cycle = Cycle {
            cfg,
            engine: &engine,
            segments: n,
            first: cycles * per_cycle,
            queries: per_cycle,
            next: &next,
        };
        let publish = (labellings[(cycles + 1) % 2].clone(), cycles as u64 + 1);
        let t = Instant::now();
        let outs: Vec<Querier> = std::thread::scope(|s| {
            let mut publish = Some(publish);
            let handles: Vec<_> = contexts
                .iter_mut()
                .map(|ctx| {
                    let mine = publish.take();
                    let cycle = &cycle;
                    s.spawn(move || querier(cycle, ctx, mine))
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        });
        busy_s += t.elapsed().as_secs_f64();
        if outs.len() != queriers {
            rep.fail(format!("cycle {cycles}: a querier panicked"));
        }
        all.extend(outs);
        cycles += 1;
        if cfg.done(start, cycles) {
            break;
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    rep.note("cycles", json!(cycles));

    let mut latency_us = Vec::new();
    let mut refresh_ms = Vec::new();
    let (mut settled, mut answered, mut overlay, mut no_route) = (0u64, 0u64, 0u64, 0u64);
    let mut samples = Vec::new();
    let mut tracer = Tracer::new(cfg.trace, cfg.epoch);
    for q in all {
        latency_us.extend(q.latency_us);
        refresh_ms.extend(q.refresh_ms);
        settled += q.settled;
        answered += q.answered;
        overlay += q.overlay;
        no_route += q.no_route;
        samples.extend(q.samples);
        for e in q.errors {
            rep.fail(e);
        }
        tracer.absorb(q.tracer);
    }
    let queries = (cycles * per_cycle) as u64;
    rep.attempted = queries;

    // Sampled answers against a whole-network Dijkstra.
    let mut ctx = QueryContext::new();
    for &(from, to, cost) in &samples {
        match (exact_route(engine.graph(), from, to, &mut ctx), cost) {
            (Ok((exact, _)), Some(c)) if exact == c => {}
            (Err(ServeError::NoRoute { .. }), None) => {}
            (exact, served) => rep.fail(format!(
                "{from:?}->{to:?}: served {served:?}, exact {:?}",
                exact.map(|(c, _)| c)
            )),
        }
    }
    rep.note("samples_checked", json!(samples.len()));

    let frac = |x: u64, of: u64| x as f64 / of.max(1) as f64;
    if cfg.trace {
        rep.layer("serve.oracle_build_ms", median(&build_ms));
        rep.layer("serve.refresh_ms", median(&refresh_ms));
        rep.layer("serve.boundary_nodes", boundary as f64);
        rep.layer("serve.overlay_edges", overlay_edges as f64);
        rep.layer("serve.settled_per_query", frac(settled, answered));
        rep.layer("serve.overlay_frac", frac(overlay, answered));
        rep.layer("serve.no_route_frac", frac(no_route, queries));
        rep.layer("serve.query_p99_us", percentile(&latency_us, 0.99));
        rep.layer(
            "eval.gdbi_mean",
            mean(&scores.iter().map(|q| q.gdbi).collect::<Vec<_>>()),
        );
        rep.layer(
            "trace_overhead_frac",
            tracer.overhead().as_secs_f64() / (loop_s * queriers as f64),
        );
        crate::write_spans(cfg, &tracer);
    } else {
        let latency_ms: Vec<f64> = latency_us.iter().map(|us| us / 1e3).collect();
        rep.metric("setup_s", median(&setup_s));
        rep.metric("p50_ms", median(&latency_ms));
        rep.metric("ops_per_s", queries as f64 / busy_s);
        rep.metric(
            "ans_mean",
            mean(&scores.iter().map(|q| q.ans).collect::<Vec<_>>()),
        );
        rep.metric(
            "k_ratio",
            mean(&scores.iter().map(|q| q.k_ratio).collect::<Vec<_>>()),
        );
        rep.note("refresh_ms", json!(median(&refresh_ms)));
        rep.note("query_p99_ms", json!(percentile(&latency_ms, 0.99)));
    }
    Ok(())
}
