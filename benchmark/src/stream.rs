//! `stream-m1`: the online repartitioning loop on M1.
//!
//! A cycle feeds the whole streaming trace (see
//! [`inputs::stream_trace`]) into a fresh `StreamEngine`, three snapshots
//! per epoch, and closes one epoch per three snapshots. Every cycle starts
//! from a cold engine, so each cycle sees the same sequence of no-op,
//! regional and global epochs. After every epoch the served snapshot must
//! cover every segment with dense labels, and the store version must grow
//! by one exactly when the epoch published.

use crate::checks::{dense_labels, quality};
use crate::inputs::{self, City, ALGO_SEED, K};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{Report, RunConfig};
use roadpart_net::{RoadGraph, RoadNetwork};
use roadpart_stream::{EngineConfig, EpochAction, StreamEngine};
use serde_json::json;
use std::time::Instant;

/// Snapshots ingested before each `run_epoch`.
pub const INGESTS_PER_EPOCH: usize = 3;

/// Dual graph plus a cold engine whose first partition is built on the
/// trace's first snapshot.
fn cold_engine(
    net: &RoadNetwork,
    first: &[f64],
    engine_cfg: &EngineConfig,
) -> Result<StreamEngine, String> {
    let mut graph = RoadGraph::from_network(net).map_err(|e| format!("road graph: {e}"))?;
    graph
        .set_features(first.to_vec())
        .map_err(|e| format!("features: {e}"))?;
    StreamEngine::new(graph, engine_cfg.clone()).map_err(|e| format!("cold build: {e}"))
}

/// Epoch latencies by executed action.
#[derive(Default)]
struct ByAction {
    noop: Vec<f64>,
    regional: Vec<f64>,
    global: Vec<f64>,
}

impl ByAction {
    fn push(&mut self, action: EpochAction, ms: f64) {
        match action {
            EpochAction::NoOp => self.noop.push(ms),
            EpochAction::Regional => self.regional.push(ms),
            EpochAction::Global => self.global.push(ms),
        }
    }
}

/// Runs `stream-m1`, recording into `rep`.
///
/// # Errors
/// Reports a failure that stops the run before its measurements finish.
pub fn run(cfg: &RunConfig, rep: &mut Report) -> Result<(), String> {
    let net = inputs::city(City::M1, cfg.scale())?;
    let n = net.segment_count();
    let steps = if cfg.smoke { 6 } else { 24 };
    let trace = inputs::stream_trace(&net, cfg.seed, steps);
    let first = trace.first().ok_or("empty trace")?;
    let base = RoadGraph::from_network(&net).map_err(|e| format!("road graph: {e}"))?;
    let engine_cfg = EngineConfig::new(K)
        .with_seed(ALGO_SEED)
        .with_pool(cfg.pool());
    let mut tracer = Tracer::new(cfg.trace, cfg.epoch);

    // Set-up: dual graph and the engine's cold initial partition.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..cfg.setup_reps(5) {
        let t = Instant::now();
        let built = tracer.span("stream.cold_build", |_| {
            cold_engine(&net, first, &engine_cfg)
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some(built);
    }
    rep.note("segments", json!(n));
    rep.note("snapshots_per_cycle", json!(trace.len()));

    let start = Instant::now();
    let mut cycles = 0usize;
    let mut epoch_ms = Vec::new();
    let mut ingest_us = Vec::new();
    let mut by_action = ByAction::default();
    let mut retries = 0usize;
    let mut served = Vec::new();
    loop {
        let mut engine = match prepared.take() {
            Some(e) => e,
            None => cold_engine(&net, first, &engine_cfg)?,
        };
        let store = engine.store();
        let mut version = store.read().version;
        for chunk in trace.chunks(INGESTS_PER_EPOCH) {
            let op = rep.attempted as usize;
            rep.attempted += 1;
            tracer.set_op(op);
            let mut ingested = Ok(());
            for snap in chunk {
                let t = Instant::now();
                let r = tracer.span("stream.ingest", |_| engine.ingest(snap));
                ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
                ingested = ingested.and(r);
            }
            if let Err(e) = ingested {
                rep.fail(format!("epoch {op}: ingest: {e}"));
                continue;
            }
            let t = Instant::now();
            let outcome = tracer.span("stream.epoch", |_| engine.run_epoch());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let report = match outcome {
                Ok(r) => r,
                Err(e) => {
                    rep.fail(format!("epoch {op}: {e}"));
                    continue;
                }
            };
            epoch_ms.push(ms);
            by_action.push(report.action, ms);
            retries += report
                .resilience
                .attempts
                .iter()
                .filter(|a| !a.succeeded)
                .count();
            let snapshot = store.read();
            let published = u64::from(report.action != EpochAction::NoOp);
            let check = dense_labels(snapshot.labels(), n).and_then(|_| {
                if snapshot.version != version + published || report.version != snapshot.version {
                    Err(format!(
                        "version {} after {:?} epoch (was {version}, report says {})",
                        snapshot.version, report.action, report.version
                    ))
                } else {
                    Ok(())
                }
            });
            version = version.max(snapshot.version);
            if let Err(e) = check {
                rep.fail(format!("epoch {op}: {e}"));
                continue;
            }
            if cycles == 0 {
                let densities = chunk.last().map_or(first.as_slice(), Vec::as_slice);
                served.push(quality(base.adjacency(), densities, snapshot.labels(), K));
            }
        }
        cycles += 1;
        if cfg.done(start, cycles) {
            break;
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    rep.note("cycles", json!(cycles));
    let per_cycle = |count: usize| count as f64 / cycles.max(1) as f64;

    if cfg.trace {
        rep.layer("stream.global_epochs", per_cycle(by_action.global.len()));
        rep.layer(
            "stream.regional_epochs",
            per_cycle(by_action.regional.len()),
        );
        rep.layer("stream.noop_epochs", per_cycle(by_action.noop.len()));
        rep.layer("stream.global_ms_p50", median(&by_action.global));
        rep.layer("stream.regional_ms_p50", median(&by_action.regional));
        rep.layer("stream.noop_ms_p50", median(&by_action.noop));
        rep.layer("stream.epoch_p90_ms", percentile(&epoch_ms, 0.9));
        rep.layer("stream.ingest_us_p50", median(&ingest_us));
        rep.layer("stream.retries", per_cycle(retries));
        rep.layer(
            "stream.cold_build_ms",
            median(&tracer.durations_ms("stream.cold_build")),
        );
        rep.layer(
            "eval.gdbi_mean",
            mean(&served.iter().map(|q| q.gdbi).collect::<Vec<_>>()),
        );
        rep.layer(
            "trace_overhead_frac",
            tracer.overhead().as_secs_f64() / loop_s,
        );
        crate::write_spans(cfg, &tracer);
    } else {
        rep.metric("setup_s", median(&setup_s));
        rep.metric("p50_ms", median(&epoch_ms));
        rep.metric(
            "ops_per_s",
            epoch_ms.len() as f64 / (epoch_ms.iter().sum::<f64>() / 1e3),
        );
        rep.metric(
            "ans_mean",
            mean(&served.iter().map(|q| q.ans).collect::<Vec<_>>()),
        );
        rep.metric(
            "k_ratio",
            mean(&served.iter().map(|q| q.k_ratio).collect::<Vec<_>>()),
        );
        rep.note(
            "epochs_per_cycle",
            json!({
                "noop": per_cycle(by_action.noop.len()),
                "regional": per_cycle(by_action.regional.len()),
                "global": per_cycle(by_action.global.len()),
            }),
        );
    }
    Ok(())
}
