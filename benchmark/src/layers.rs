//! The traced partition path, composed from the library's public calls.
//!
//! Every call into a solver stage that the benchmark makes from outside
//! the library lives in this file, so that collapsing the
//! `_ws`/`_recovering`/`_par` entry points touches one file here. The
//! composition mirrors `partition_network` exactly:
//!
//! 1. `RoadGraph::from_network` (+ `set_features`);
//! 2. ASG: `mine_supergraph`, later `Supergraph::expand_labels`;
//!    AG: `gaussian_affinity_par`;
//! 3. `spectral_partition_recovering`.
//!
//! For the breakdown inside step 3 the traced run repeats its stages one
//! by one: `sym_eigs_recovering` over a `RankOneUpdate` of a
//! [`CountingOp`] (which counts and times the sparse matvecs from
//! outside), `row_normalize`, `roadpart_cluster::kmeans` and
//! `constrained_components`. The counting operator delegates every apply
//! unchanged, so its eigenvectors are bit-identical to
//! `embedding_recovering`'s.

use crate::trace::Tracer;
use roadpart::{mine_supergraph, MiningOutcome, PipelineConfig, Scheme};
use roadpart_cluster::{constrained_components, kmeans};
use roadpart_cut::{
    gaussian_affinity_par, row_normalize, spectral_partition_recovering, CutKind, Partition,
};
use roadpart_linalg::{
    sym_eigs_recovering, CsrMatrix, DenseMatrix, FallbackConfig, RankOneUpdate, RecoveryLog, SymOp,
    ThreadPool, Which, Workspace,
};
use roadpart_net::{RoadGraph, RoadNetwork};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A sparse operator that counts and times its applies. Every apply is
/// forwarded to the same method of the wrapped matrix.
pub struct CountingOp<'a> {
    inner: &'a CsrMatrix,
    applies: AtomicU64,
    nanos: AtomicU64,
}

impl<'a> CountingOp<'a> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'a CsrMatrix) -> Self {
        Self {
            inner,
            applies: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// Applies so far.
    pub fn applies(&self) -> u64 {
        self.applies.load(Ordering::Relaxed)
    }

    /// Milliseconds spent inside applies so far.
    pub fn ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    fn timed(&self, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: the counters publish no other data.
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
    }
}

impl SymOp for CountingOp<'_> {
    fn dim(&self) -> usize {
        SymOp::dim(self.inner)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.timed(|| self.inner.apply(x, y));
    }

    fn apply_par(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        self.timed(|| self.inner.apply_par(pool, x, y));
    }

    fn apply_par_ws(&self, pool: &ThreadPool, ws: &mut Workspace, x: &[f64], y: &mut [f64]) {
        self.timed(|| self.inner.apply_par_ws(pool, ws, x, y));
    }
}

/// Eigenvectors of the α-Cut operator of `adj` through a [`CountingOp`],
/// built the way `embedding_recovering` builds it. Returns the `n x nev`
/// eigenvectors, the apply count and the apply time (ms).
///
/// # Errors
/// Propagates operator-construction and eigensolver failures.
pub fn counted_alpha_eigs(
    adj: &CsrMatrix,
    k: usize,
    cfg: &roadpart_linalg::EigenConfig,
    fallback: &FallbackConfig,
) -> Result<(DenseMatrix, u64, f64), String> {
    let d = adj.degrees();
    let s: f64 = d.iter().sum();
    let scale = if s > 0.0 { 1.0 / s } else { 0.0 };
    let counting = CountingOp::new(adj);
    let op = RankOneUpdate::new(&counting, d, scale, -1.0).map_err(|e| e.to_string())?;
    let nev = k.min(adj.dim());
    let dec = sym_eigs_recovering(
        &op,
        nev,
        Which::Smallest,
        cfg,
        fallback,
        &mut RecoveryLog::new(),
    )
    .map_err(|e| format!("eigensolve: {e}"))?;
    Ok((dec.vectors, counting.applies(), counting.ms()))
}

/// What one traced partition measured besides its spans.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Segment labels of the composed production path.
    pub labels: Vec<usize>,
    /// Mined supergraph order (ASG only).
    pub supergraph_order: Option<usize>,
    /// κ values the miner shortlisted (0 without mining).
    pub kappa_shortlisted: usize,
    /// Fallback rungs the production spectral call climbed.
    pub fallback_rungs: usize,
    /// Fine partitions k′ after the within-cluster component split.
    pub fine_partitions: usize,
    /// Sparse matvecs of the breakdown eigensolve.
    pub matvecs: u64,
    /// Time inside those matvecs (ms).
    pub matvec_ms: f64,
}

/// The graph the spectral stage cuts: the mined supergraph (ASG) or the
/// affinity-weighted road graph (AG).
enum SpectralInput {
    Supergraph(MiningOutcome),
    Affinity(CsrMatrix),
}

impl SpectralInput {
    fn adjacency(&self) -> &CsrMatrix {
        match self {
            SpectralInput::Supergraph(m) => m.supergraph.adjacency(),
            SpectralInput::Affinity(a) => a,
        }
    }
}

/// One partition of `net` under `densities`, composed stage by stage with
/// spans, followed by the spectral breakdown calls. The `partition` span
/// is the production path (`net.road_graph`, `core.mine` or
/// `cut.affinity`, `cut.spectral`, `core.expand`); the `breakdown` span
/// repeats the spectral stage piecewise (`linalg.eigensolve`,
/// `cut.row_normalize`, `cluster.kmeans`, `cluster.components`).
///
/// # Errors
/// Reports the failing stage.
pub fn traced_partition(
    tr: &mut Tracer,
    net: &RoadNetwork,
    densities: &[f64],
    cfg: &PipelineConfig,
) -> Result<Traced, String> {
    if cfg.scheme.cut_kind() != CutKind::Alpha {
        return Err(format!("{} is not an α-Cut scheme", cfg.scheme.name()));
    }
    let spectral = &cfg.framework.spectral;
    let mut log = RecoveryLog::new();
    let (labels, input, k) = tr.span("partition", |tr| {
        let graph = tr.span("net.road_graph", |_| {
            let mut g = RoadGraph::from_network(net).map_err(|e| format!("road graph: {e}"))?;
            g.set_features(densities.to_vec())
                .map_err(|e| format!("features: {e}"))?;
            Ok::<_, String>(g)
        })?;
        if cfg.scheme == Scheme::ASG {
            let mining = tr
                .span("core.mine", |_| {
                    mine_supergraph(&graph, &cfg.framework.mining)
                })
                .map_err(|e| format!("mining: {e}"))?;
            let sg = &mining.supergraph;
            let k = cfg.k.min(sg.order());
            let part = tr
                .span("cut.spectral", |_| {
                    spectral_partition_recovering(
                        sg.adjacency(),
                        k,
                        CutKind::Alpha,
                        spectral,
                        &mut log,
                    )
                })
                .map_err(|e| format!("spectral: {e}"))?;
            let labels = tr
                .span("core.expand", |_| {
                    sg.expand_labels(part.labels())
                        .map(|l| Partition::from_labels(&l).labels().to_vec())
                })
                .map_err(|e| format!("expand: {e}"))?;
            Ok::<_, String>((labels, SpectralInput::Supergraph(mining), k))
        } else {
            let affinity = tr
                .span("cut.affinity", |_| {
                    gaussian_affinity_par(graph.adjacency(), graph.features(), &spectral.pool())
                })
                .map_err(|e| format!("affinity: {e}"))?;
            let part = tr
                .span("cut.spectral", |_| {
                    spectral_partition_recovering(
                        &affinity,
                        cfg.k,
                        CutKind::Alpha,
                        spectral,
                        &mut log,
                    )
                })
                .map_err(|e| format!("spectral: {e}"))?;
            Ok((
                part.labels().to_vec(),
                SpectralInput::Affinity(affinity),
                cfg.k,
            ))
        }
    })?;
    let (supergraph_order, kappa_shortlisted) = match &input {
        SpectralInput::Supergraph(m) => (Some(m.supergraph.order()), m.shortlisted.len()),
        SpectralInput::Affinity(_) => (None, 0),
    };
    let adj = input.adjacency();
    let mut out = Traced {
        labels,
        supergraph_order,
        kappa_shortlisted,
        fallback_rungs: log.failures(),
        fine_partitions: k,
        matvecs: 0,
        matvec_ms: 0.0,
    };
    // At k == n the spectral stage hands back singletons without solving.
    if k >= adj.dim() {
        return Ok(out);
    }
    tr.span("breakdown", |tr| {
        let (mut z, matvecs, matvec_ms) = tr.span("linalg.eigensolve", |_| {
            counted_alpha_eigs(adj, k, &spectral.eigen, &spectral.fallback)
        })?;
        tr.span("cut.row_normalize", |_| row_normalize(&mut z));
        let km = tr
            .span("cluster.kmeans", |_| kmeans(&z, k, &spectral.kmeans))
            .map_err(|e| format!("kmeans: {e}"))?;
        let comp = tr
            .span("cluster.components", |_| {
                constrained_components(adj, Some(&km.assignments))
            })
            .map_err(|e| format!("components: {e}"))?;
        out.fine_partitions = comp.iter().copied().max().map_or(0, |m| m + 1);
        out.matvecs = matvecs;
        out.matvec_ms = matvec_ms;
        Ok(out)
    })
}
