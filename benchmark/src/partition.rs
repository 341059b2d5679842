//! `asg-m3` and `ag-m1`: repeated `partition_network` calls.
//!
//! A pass partitions ten density snapshots of one morning, one call each,
//! in a seeded order. A cycle is two passes on `asg-m3` (a median over
//! ten ~1 s partitions moved by 15% between runs on a shared host; over
//! twenty, by 3%) and one pass on `ag-m1`; the run repeats whole cycles
//! until its time is up, after one untimed warm-up call. Every partition must cover every segment, pass
//! `Partition::validate`, have connected parts, and repeat its labels
//! exactly whenever its snapshot comes round again.

use crate::checks::{connected_parts, dense_labels, quality};
use crate::inputs::{self, City, ALGO_SEED, K};
use crate::layers::{traced_partition, Traced};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{Report, RunConfig, Workload};
use roadpart::{partition_network, PipelineConfig, Scheme};
use roadpart_cut::Partition;
use roadpart_net::{RoadGraph, RoadNetwork};
use serde_json::json;
use std::time::Instant;

/// Snapshots per cycle.
pub const SNAPSHOTS: usize = 10;

/// The inputs and settings every cycle reuses.
struct Bench {
    net: RoadNetwork,
    /// Binary dual graph, for the connectivity checks and quality.
    graph: RoadGraph,
    snaps: Vec<Vec<f64>>,
    pipeline: PipelineConfig,
    /// Labels of each snapshot's first partition.
    first: Vec<Option<Vec<usize>>>,
}

impl Bench {
    /// Checks one partition of snapshot `i`.
    fn check(&mut self, i: usize, partition: &Partition) -> Result<(), String> {
        let n = self.net.segment_count();
        if partition.len() != n {
            return Err(format!(
                "partition covers {} of {n} segments",
                partition.len()
            ));
        }
        partition
            .validate()
            .map_err(|e| format!("snapshot {i}: {e}"))?;
        let labels = partition.labels();
        let k = dense_labels(labels, n)?;
        connected_parts(self.graph.adjacency(), labels, k)
            .map_err(|e| format!("snapshot {i}: {e}"))?;
        match &self.first[i] {
            Some(prev) if prev.as_slice() != labels => {
                Err(format!("snapshot {i}: labels changed between repetitions"))
            }
            Some(_) => Ok(()),
            None => {
                self.first[i] = Some(labels.to_vec());
                Ok(())
            }
        }
    }
}

/// Runs `asg-m3` or `ag-m1`, recording into `rep`.
///
/// # Errors
/// Reports a failure that stops the run before its measurements finish.
pub fn run(cfg: &RunConfig, rep: &mut Report) -> Result<(), String> {
    let (city, scheme, passes) = match cfg.workload {
        Workload::AsgM3 => (City::M3, Scheme::ASG, 2),
        _ => (City::M1, Scheme::AG, 1),
    };
    let net = inputs::city(city, cfg.scale())?;
    let times = inputs::snapshot_times(SNAPSHOTS);
    let snaps = inputs::snapshots(&net, &times);
    let mut pipeline = PipelineConfig::asg(K)
        .with_seed(ALGO_SEED)
        .with_pool(cfg.pool());
    pipeline.scheme = scheme;

    // Set-up: the dual road graph, the per-network work before any cut.
    // It takes 10-50 ms, so it is repeated often enough for a steady
    // median.
    let mut setup_s = Vec::new();
    let mut graph = None;
    for _ in 0..cfg.setup_reps(25) {
        let t = Instant::now();
        let g = RoadGraph::from_network(&net).map_err(|e| format!("road graph: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        graph = Some(g);
    }
    let graph = graph.ok_or("no set-up ran")?;
    rep.note("segments", json!(net.segment_count()));

    let mut bench = Bench {
        net,
        graph,
        snaps,
        pipeline,
        first: vec![None; SNAPSHOTS],
    };
    let warm = inputs::visit_order(cfg.seed, 0, SNAPSHOTS)[0];
    partition_network(&bench.net, &bench.snaps[warm], &bench.pipeline)
        .map_err(|e| format!("warm-up: {e}"))?;

    let start = Instant::now();
    let mut cycles = 0usize;
    let mut op_ms = Vec::new();
    let mut tracer = Tracer::new(cfg.trace, cfg.epoch);
    let mut traced: Vec<(usize, Traced)> = Vec::new();
    loop {
        let order: Vec<usize> = (0..passes)
            .flat_map(|p| inputs::visit_order(cfg.seed, cycles * passes + p, SNAPSHOTS))
            .collect();
        for i in order {
            let op = rep.attempted as usize;
            rep.attempted += 1;
            let outcome = if cfg.trace {
                traced_op(&mut bench, &mut tracer, op, i).map(|t| traced.push((op, t)))
            } else {
                let t = Instant::now();
                let result = partition_network(&bench.net, &bench.snaps[i], &bench.pipeline);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                result
                    .map_err(|e| format!("snapshot {i}: {e}"))
                    .and_then(|r| {
                        op_ms.push(ms);
                        bench.check(i, &r.partition)
                    })
            };
            if let Err(e) = outcome {
                rep.fail(e);
            }
        }
        cycles += 1;
        if cfg.done(start, cycles) {
            break;
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    rep.note("cycles", json!(cycles));

    // Quality of each snapshot's partition, outside the timed region.
    let scores: Vec<_> = bench
        .first
        .iter()
        .zip(&bench.snaps)
        .filter_map(|(labels, d)| {
            labels
                .as_ref()
                .map(|l| quality(bench.graph.adjacency(), d, l, K))
        })
        .collect();
    let ans: Vec<f64> = scores.iter().map(|q| q.ans).collect();
    let gdbi: Vec<f64> = scores.iter().map(|q| q.gdbi).collect();
    let k_ratio: Vec<f64> = scores.iter().map(|q| q.k_ratio).collect();

    if cfg.trace {
        layer_metrics(rep, &tracer, &traced, bench.net.segment_count());
        rep.layer("eval.gdbi_mean", mean(&gdbi));
        rep.layer(
            "trace_overhead_frac",
            tracer.overhead().as_secs_f64() / loop_s,
        );
        let reference: Vec<f64> = tracer.durations_ms("reference");
        rep.note("reference_p50_ms", json!(median(&reference)));
        crate::write_spans(cfg, &tracer);
    } else {
        rep.metric("setup_s", median(&setup_s));
        rep.metric("p50_ms", median(&op_ms));
        rep.metric(
            "ops_per_s",
            op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3),
        );
        rep.metric("ans_mean", mean(&ans));
        rep.metric("k_ratio", mean(&k_ratio));
        rep.note("gdbi_mean", json!(mean(&gdbi)));
    }
    Ok(())
}

/// One traced operation: the composed path with spans, then the untraced
/// `partition_network` on the same snapshot, whose labels the composed
/// path must reproduce bit for bit.
fn traced_op(
    bench: &mut Bench,
    tracer: &mut Tracer,
    op: usize,
    i: usize,
) -> Result<Traced, String> {
    tracer.set_op(op);
    let traced = traced_partition(tracer, &bench.net, &bench.snaps[i], &bench.pipeline)
        .map_err(|e| format!("snapshot {i}: {e}"))?;
    let reference = tracer
        .span("reference", |_| {
            partition_network(&bench.net, &bench.snaps[i], &bench.pipeline)
        })
        .map_err(|e| format!("snapshot {i}: {e}"))?;
    if traced.labels != reference.partition.labels() {
        return Err(format!(
            "snapshot {i}: traced labels differ from partition_network"
        ));
    }
    bench.check(i, &reference.partition)?;
    Ok(traced)
}

/// Per-layer medians over the traced operations.
fn layer_metrics(rep: &mut Report, tracer: &Tracer, traced: &[(usize, Traced)], segments: usize) {
    let med = |name: &str| {
        let v: Vec<f64> = tracer
            .per_op_ms(name)
            .into_iter()
            .map(|(_, ms)| ms)
            .collect();
        median(&v)
    };
    let at = |name: &str, op: usize| {
        tracer
            .per_op_ms(name)
            .into_iter()
            .find(|&(o, _)| o == op)
            .map_or(0.0, |(_, ms)| ms)
    };
    rep.layer("net.road_graph_ms", med("net.road_graph"));
    rep.layer("core.mine_ms", med("core.mine"));
    rep.layer("cut.affinity_ms", med("cut.affinity"));
    rep.layer("cut.spectral_ms", med("cut.spectral"));
    rep.layer("linalg.eigensolve_ms", med("linalg.eigensolve"));
    rep.layer("cluster.kmeans_ms", med("cluster.kmeans"));
    rep.layer("cluster.components_ms", med("cluster.components"));
    // Spectral time not spent in the three stages the breakdown repeats:
    // row normalization, refinement to k and connectivity enforcement.
    let refine: Vec<f64> = tracer
        .per_op_ms("cut.spectral")
        .into_iter()
        .map(|(op, ms)| {
            ms - at("linalg.eigensolve", op)
                - at("cluster.kmeans", op)
                - at("cluster.components", op)
        })
        .collect();
    rep.layer("cut.refine_ms", median(&refine));
    let non_matvec: Vec<f64> = traced
        .iter()
        .filter(|(_, t)| t.matvecs > 0)
        .map(|(op, t)| at("linalg.eigensolve", *op) - t.matvec_ms)
        .collect();
    rep.layer("linalg.non_matvec_ms", median(&non_matvec));
    let col = |f: fn(&Traced) -> f64| traced.iter().map(|(_, t)| f(t)).collect::<Vec<f64>>();
    let order = median(&col(|t| t.supergraph_order.unwrap_or(0) as f64));
    rep.layer("core.supergraph_order", order);
    rep.layer("core.condensation", order / segments.max(1) as f64);
    rep.layer(
        "core.kappa_shortlisted",
        median(&col(|t| t.kappa_shortlisted as f64)),
    );
    rep.layer(
        "cut.fine_partitions",
        median(&col(|t| t.fine_partitions as f64)),
    );
    rep.layer("linalg.matvecs", median(&col(|t| t.matvecs as f64)));
    rep.layer("linalg.matvec_ms", median(&col(|t| t.matvec_ms)));
    rep.layer(
        "linalg.fallback_rungs",
        mean(&col(|t| t.fallback_rungs as f64)),
    );
}
