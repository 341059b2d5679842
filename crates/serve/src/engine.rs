//! The query engine: epoch-consistent, non-blocking, exact.
//!
//! [`QueryEngine`] pairs a [`SegmentGraph`] with the RCU
//! [`PartitionStore`] published by the streaming layer. The serving state
//! is a single `Arc<OracleSet>`; because an [`OracleSet`] *owns* the
//! [`PartitionSnapshot`] it was built from, a query that grabs the `Arc`
//! once works against one consistent (labels, oracle) pair for its whole
//! lifetime — there is no window where the labeling and the oracle can
//! disagree, whatever the epoch loop does concurrently.
//!
//! Swaps follow the same read-copy-update shape as the store itself:
//! [`QueryEngine::refresh`] notices a newer snapshot, builds the next
//! oracle set entirely off-lock (queries keep flowing against the old
//! one), and installs it with a momentary write lock. A compare-and-swap
//! guard makes concurrent refreshers cheap no-ops, and installation is
//! version-gated so a slow rebuild can never clobber a newer one.
//!
//! A query runs three phases — forward Dijkstra inside the origin's
//! partition, backward Dijkstra inside the destination's, and a
//! multi-source Dijkstra over the condensed boundary graph seeded with
//! the forward distances — then recombines the cheapest candidate into an
//! exact path (see `oracle` module docs for why this is exact).
//!
//! [`PartitionSnapshot`]: roadpart_stream::PartitionSnapshot

use crate::error::ServeError;
use crate::graph::SegmentGraph;
use crate::local::{run_backward, run_forward, run_overlay, NO_TARGET, UNRESTRICTED};
use crate::oracle::{EdgeKind, OracleSet};
use crate::scratch::{DijkstraScratch, NONE};
use roadpart_linalg::ThreadPool;
use roadpart_net::SegmentId;
use roadpart_stream::PartitionStore;
use serde::Serialize;
use std::time::Instant;

// Under `--cfg loom` the serving swap runs on the model checker's sync
// types so tests/loom_oracle.rs can explore query/refresh interleavings;
// the loom stub's `Arc` re-exports `std::sync::Arc`, so public signatures
// are identical either way.
#[cfg(loom)]
use loom::sync::{
    atomic::{AtomicBool, Ordering},
    Arc, RwLock,
};
#[cfg(not(loom))]
use std::sync::{
    atomic::{AtomicBool, Ordering},
    Arc, RwLock,
};

/// Per-thread reusable query state: the three search scratches, the
/// clique re-expansion scratch, and the overlay walk buffer.
#[derive(Debug, Default)]
pub struct QueryContext {
    fwd: DijkstraScratch,
    bwd: DijkstraScratch,
    overlay: DijkstraScratch,
    expand: DijkstraScratch,
    /// Winning overlay walk as (from, to, kind) overlay-index triples.
    chain: Vec<(u32, u32, EdgeKind)>,
}

impl QueryContext {
    /// An empty context; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, nodes: usize, overlay_nodes: usize) {
        self.fwd.ensure(nodes);
        self.bwd.ensure(nodes);
        self.expand.ensure(nodes);
        self.overlay.ensure(overlay_nodes);
    }
}

/// One answered query: the exact route and its serving metadata.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Canonical route cost: left-to-right sum of segment costs over
    /// `path` (see [`SegmentGraph::path_cost`]).
    pub cost: f64,
    /// The route, origin and destination included.
    pub path: Vec<SegmentId>,
    /// Version of the partition snapshot the query was answered under.
    pub version: u64,
    /// Epoch of that snapshot.
    pub epoch: u64,
    /// Nodes settled across all search phases (work measure).
    pub settled: usize,
    /// Condensed-graph edges on the winning walk (0 for in-cell routes).
    pub boundary_hops: usize,
    /// True when the winner went through the condensed boundary graph.
    pub used_overlay: bool,
}

/// What a [`QueryEngine::refresh`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshOutcome {
    /// The serving oracle already matches the store's snapshot.
    Current,
    /// Another thread is mid-rebuild; nothing to do.
    Busy,
    /// A new oracle set was built and installed.
    Rebuilt {
        /// Version of the snapshot now being served.
        version: u64,
    },
}

/// Per-query measurement taken during batch execution.
#[derive(Debug, Clone)]
pub struct QueryStat {
    /// Origin segment.
    pub from: SegmentId,
    /// Destination segment.
    pub to: SegmentId,
    /// Exact route cost, or `None` for a no-route outcome.
    pub cost: Option<f64>,
    /// Wall-clock latency of this query in microseconds.
    pub latency_us: f64,
    /// Nodes settled answering it.
    pub settled: usize,
    /// Snapshot version it was answered under.
    pub version: u64,
}

/// A set of origin–destination queries executed together on the pool.
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    pairs: Vec<(SegmentId, SegmentId)>,
}

impl QueryBatch {
    /// A batch over the given origin–destination pairs.
    #[must_use]
    pub fn new(pairs: Vec<(SegmentId, SegmentId)>) -> Self {
        Self { pairs }
    }

    /// Number of queries in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the batch holds no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Aggregate statistics of one executed [`QueryBatch`].
#[derive(Debug, Clone, Serialize)]
pub struct BatchReport {
    /// Queries executed.
    pub queries: usize,
    /// Queries answered with a route.
    pub ok: usize,
    /// Queries that ended in a typed no-route outcome.
    pub no_route: usize,
    /// Wall-clock time for the whole batch in milliseconds.
    pub wall_ms: f64,
    /// Throughput in queries per second.
    pub qps: f64,
    /// Median per-query latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-query latency in microseconds.
    pub p99_us: f64,
    /// Worst per-query latency in microseconds.
    pub max_us: f64,
    /// Mean nodes settled per query.
    pub mean_settled: f64,
    /// Lowest snapshot version any query was answered under.
    pub version_lo: u64,
    /// Highest snapshot version any query was answered under.
    pub version_hi: u64,
    /// Sum of all route costs, folded in query order (deterministic at
    /// any pool size; useful as a differential check value).
    pub total_cost: f64,
    /// The per-query measurements (not serialized).
    #[serde(skip)]
    pub per_query: Vec<QueryStat>,
}

/// Partition-aware shortest-path server over a live partition store.
#[derive(Debug)]
pub struct QueryEngine {
    graph: SegmentGraph,
    store: std::sync::Arc<PartitionStore>,
    pool: ThreadPool,
    serving: RwLock<Arc<OracleSet>>,
    rebuilding: AtomicBool,
}

impl QueryEngine {
    /// Builds the engine, constructing the first oracle set from the
    /// store's current snapshot on `pool`.
    ///
    /// # Errors
    /// Propagates [`OracleSet::build`] failures (snapshot/graph length
    /// mismatch, id-space overflow).
    pub fn new(
        graph: SegmentGraph,
        store: std::sync::Arc<PartitionStore>,
        pool: ThreadPool,
    ) -> Result<Self, ServeError> {
        let snapshot = store.read();
        let oracle = OracleSet::build(&graph, snapshot, &pool)?;
        Ok(Self {
            graph,
            store,
            pool,
            serving: RwLock::new(Arc::new(oracle)),
            rebuilding: AtomicBool::new(false),
        })
    }

    /// The routing graph being served.
    #[must_use]
    pub fn graph(&self) -> &SegmentGraph {
        &self.graph
    }

    /// The partition store the engine follows.
    #[must_use]
    pub fn store(&self) -> &std::sync::Arc<PartitionStore> {
        &self.store
    }

    /// The oracle set currently serving queries. O(1): one `Arc` clone
    /// under a momentary read lock; the returned set (labels + oracles,
    /// one consistent version) stays valid however long it is held.
    #[must_use]
    pub fn serving(&self) -> Arc<OracleSet> {
        // Poison recovery is sound: the only mutation under this lock is
        // a version-gated `Arc` swap, so a panicking writer cannot leave
        // a torn serving state behind.
        match self.serving.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Brings the serving oracle up to date with the partition store.
    ///
    /// Non-blocking for queriers: the new oracle set is built entirely
    /// off-lock on the caller's thread (old-epoch oracles keep serving),
    /// then installed with a momentary write lock. Concurrent refreshers
    /// are deduplicated by a compare-and-swap guard, and installation
    /// only ever moves the served version forward.
    ///
    /// # Errors
    /// Propagates [`OracleSet::build`] failures; the previous oracle set
    /// keeps serving and the rebuild guard is released.
    pub fn refresh(&self) -> Result<RefreshOutcome, ServeError> {
        let served = self.serving().version();
        let Some(snapshot) = self.store.read_if_newer(served) else {
            return Ok(RefreshOutcome::Current);
        };
        if self.rebuilding.swap(true, Ordering::AcqRel) {
            return Ok(RefreshOutcome::Busy);
        }
        let built = OracleSet::build(&self.graph, snapshot, &self.pool);
        let outcome = match built {
            Ok(set) => {
                let version = set.version();
                self.install(Arc::new(set));
                Ok(RefreshOutcome::Rebuilt { version })
            }
            Err(e) => Err(e),
        };
        self.rebuilding.store(false, Ordering::Release);
        outcome
    }

    /// Version-gated install: never replaces a newer serving state.
    fn install(&self, set: Arc<OracleSet>) {
        match self.serving.write() {
            Ok(mut guard) => {
                if set.version() > guard.version() {
                    *guard = set;
                }
            }
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                if set.version() > guard.version() {
                    *guard = set;
                }
            }
        }
    }

    /// Answers one query against the current serving state.
    ///
    /// # Errors
    /// [`ServeError::NoRoute`] when the destination is unreachable,
    /// [`ServeError::InvalidQuery`] for out-of-range segments,
    /// [`ServeError::Internal`] if a predecessor chain breaks (a bug,
    /// reported instead of panicking).
    pub fn query(
        &self,
        from: SegmentId,
        to: SegmentId,
        ctx: &mut QueryContext,
    ) -> Result<QueryResponse, ServeError> {
        let oracle = self.serving();
        self.query_with(&oracle, from, to, ctx)
    }

    /// Answers one query against an explicitly pinned oracle set (the
    /// epoch-consistency contract: everything the query reads comes from
    /// this one set).
    ///
    /// # Errors
    /// As for [`QueryEngine::query`].
    pub fn query_with(
        &self,
        oracle: &OracleSet,
        from: SegmentId,
        to: SegmentId,
        ctx: &mut QueryContext,
    ) -> Result<QueryResponse, ServeError> {
        let g = &self.graph;
        let n = g.len();
        for seg in [from, to] {
            if seg.index() >= n {
                return Err(ServeError::InvalidQuery {
                    segment: seg,
                    segments: n,
                });
            }
        }
        let snapshot = oracle.snapshot();
        let (version, epoch) = (snapshot.version, snapshot.epoch);
        if from == to {
            return Ok(QueryResponse {
                cost: g.cost(from.0),
                path: vec![from],
                version,
                epoch,
                settled: 0,
                boundary_hops: 0,
                used_overlay: false,
            });
        }
        let labels = snapshot.labels();
        let (s, t) = (from.0, to.0);
        let (cell_s, cell_t) = (labels[from.index()], labels[to.index()]);
        ctx.ensure(n, oracle.boundary_count());

        // Phase A: forward search inside the origin's partition.
        ctx.fwd.reset();
        ctx.fwd.seed(s, 0.0);
        let mut settled = run_forward(g, labels, cell_s, NO_TARGET, &mut ctx.fwd);
        let direct = if cell_s == cell_t {
            ctx.fwd.distance(t)
        } else {
            f64::INFINITY
        };

        // Phase B: backward search inside the destination's partition.
        ctx.bwd.reset();
        ctx.bwd.seed(t, 0.0);
        settled += run_backward(g, labels, cell_t, NO_TARGET, &mut ctx.bwd);

        // Phase C: condensed-graph search seeded with the forward
        // distances to the origin partition's boundary.
        ctx.overlay.reset();
        if let Some(cell) = oracle.cell(cell_s) {
            for &b in cell.boundary() {
                let d = ctx.fwd.distance(b);
                if d.is_finite() {
                    if let Some(bi) = oracle.overlay_index(b) {
                        ctx.overlay.seed(bi, d);
                    }
                }
            }
        }
        let (edge_start, edge_target, edge_weight) = oracle.overlay_edges();
        settled += run_overlay(edge_start, edge_target, edge_weight, &mut ctx.overlay);

        // Join: cheapest entry boundary of the destination partition.
        let mut best_via = f64::INFINITY;
        let mut best_entry = NONE;
        if let Some(cell) = oracle.cell(cell_t) {
            for &b in cell.boundary() {
                let back = ctx.bwd.distance(b);
                if !back.is_finite() {
                    continue;
                }
                let Some(bi) = oracle.overlay_index(b) else {
                    continue;
                };
                let total = ctx.overlay.distance(bi) + back;
                if total < best_via {
                    best_via = total;
                    best_entry = bi;
                }
            }
        }

        // Ties prefer the direct in-cell route (shorter reconstruction,
        // identical cost).
        if direct <= best_via {
            if !direct.is_finite() {
                return Err(ServeError::NoRoute { from, to });
            }
            let mut path = Vec::new();
            append_tree_path(&ctx.fwd, t, s, true, &mut path)?;
            let cost = g.path_cost(&path);
            return Ok(QueryResponse {
                cost,
                path,
                version,
                epoch,
                settled,
                boundary_hops: 0,
                used_overlay: false,
            });
        }

        // Walk the winning overlay chain back to its seed.
        ctx.chain.clear();
        let mut node = best_entry;
        let mut hops = 0usize;
        while ctx.overlay.prev[node as usize] != NONE {
            let prev = ctx.overlay.prev[node as usize];
            let edge = ctx.overlay.prev_edge[node as usize];
            ctx.chain.push((prev, node, oracle.overlay_edge_kind(edge)));
            node = prev;
            hops += 1;
            if hops > oracle.boundary_count() {
                return Err(ServeError::Internal("overlay walk does not terminate"));
            }
        }
        ctx.chain.reverse();
        let exit = oracle.overlay_node(node);
        let entry = oracle.overlay_node(best_entry);
        let boundary_hops = ctx.chain.len();

        // Recombine: origin -> exit boundary (phase A tree), the overlay
        // chain (cross edges verbatim, clique edges re-expanded by a
        // fresh restricted search), then entry boundary -> destination
        // (phase B successor tree).
        let mut path = Vec::new();
        append_tree_path(&ctx.fwd, exit, s, true, &mut path)?;
        for &(from_idx, to_idx, kind) in &ctx.chain {
            let hop_from = oracle.overlay_node(from_idx);
            let hop_to = oracle.overlay_node(to_idx);
            match kind {
                EdgeKind::Cross => path.push(SegmentId(hop_to)),
                EdgeKind::Clique => {
                    let cell = labels[hop_from as usize];
                    ctx.expand.reset();
                    ctx.expand.seed(hop_from, 0.0);
                    settled += run_forward(g, labels, cell, hop_to, &mut ctx.expand);
                    append_tree_path(&ctx.expand, hop_to, hop_from, false, &mut path)?;
                }
            }
        }
        let mut node = entry;
        let mut hops = 0usize;
        while node != t {
            let next = ctx.bwd.prev[node as usize];
            if next == NONE {
                return Err(ServeError::Internal("backward successor chain broken"));
            }
            path.push(SegmentId(next));
            node = next;
            hops += 1;
            if hops > n {
                return Err(ServeError::Internal("backward walk does not terminate"));
            }
        }

        let cost = g.path_cost(&path);
        Ok(QueryResponse {
            cost,
            path,
            version,
            epoch,
            settled,
            boundary_hops,
            used_overlay: true,
        })
    }

    /// Executes a batch on the thread pool: contiguous chunks of the
    /// batch, one per worker, each with its own [`QueryContext`] and its
    /// own pinned serving state. No-route outcomes are counted, not
    /// errors; any other failure aborts the batch.
    ///
    /// # Errors
    /// The first [`ServeError`] other than `NoRoute` any query hits.
    pub fn run_batch(&self, batch: &QueryBatch) -> Result<BatchReport, ServeError> {
        let started = Instant::now();
        let total = batch.pairs.len();
        let chunk = total.div_ceil(self.pool.threads().max(1)).max(1);
        let ranges = roadpart_linalg::par::chunk_ranges(total, chunk);
        let pairs = &batch.pairs;
        let chunks: Vec<Result<Vec<QueryStat>, ServeError>> =
            self.pool.map_tasks(ranges, |_, range| {
                let mut ctx = QueryContext::new();
                let oracle = self.serving();
                let mut stats = Vec::with_capacity(range.len());
                for &(from, to) in &pairs[range] {
                    let q0 = Instant::now();
                    let outcome = self.query_with(&oracle, from, to, &mut ctx);
                    let latency_us = q0.elapsed().as_secs_f64() * 1e6;
                    match outcome {
                        Ok(resp) => stats.push(QueryStat {
                            from,
                            to,
                            cost: Some(resp.cost),
                            latency_us,
                            settled: resp.settled,
                            version: resp.version,
                        }),
                        Err(ServeError::NoRoute { .. }) => stats.push(QueryStat {
                            from,
                            to,
                            cost: None,
                            latency_us,
                            settled: 0,
                            version: oracle.version(),
                        }),
                        Err(e) => return Err(e),
                    }
                }
                Ok(stats)
            });

        let mut per_query = Vec::with_capacity(total);
        for result in chunks {
            per_query.extend(result?);
        }
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(summarize(per_query, wall_ms))
    }
}

/// Folds per-query stats (already in batch order) into a report.
fn summarize(per_query: Vec<QueryStat>, wall_ms: f64) -> BatchReport {
    let queries = per_query.len();
    let mut ok = 0usize;
    let mut no_route = 0usize;
    let mut total_cost = 0.0;
    let mut settled_sum = 0usize;
    let mut version_lo = u64::MAX;
    let mut version_hi = 0u64;
    let mut latencies: Vec<f64> = Vec::with_capacity(queries);
    for stat in &per_query {
        match stat.cost {
            Some(c) => {
                ok += 1;
                total_cost += c;
            }
            None => no_route += 1,
        }
        settled_sum += stat.settled;
        version_lo = version_lo.min(stat.version);
        version_hi = version_hi.max(stat.version);
        latencies.push(stat.latency_us);
    }
    if queries == 0 {
        version_lo = 0;
    }
    roadpart_linalg::sort_f64(&mut latencies);
    let percentile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    BatchReport {
        queries,
        ok,
        no_route,
        wall_ms,
        qps: if wall_ms > 0.0 {
            queries as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
        max_us: latencies.last().copied().unwrap_or(0.0),
        mean_settled: if queries > 0 {
            settled_sum as f64 / queries as f64
        } else {
            0.0
        },
        version_lo,
        version_hi,
        total_cost,
        per_query,
    }
}

/// Appends the tree path `start .. end` (following `prev` links from
/// `end`) to `out` in travel order; `include_start` controls whether the
/// chain's first node is appended too.
fn append_tree_path(
    scratch: &DijkstraScratch,
    end: u32,
    start: u32,
    include_start: bool,
    out: &mut Vec<SegmentId>,
) -> Result<(), ServeError> {
    let mark = out.len();
    let mut node = end;
    let mut hops = 0usize;
    loop {
        if node == start {
            if include_start {
                out.push(SegmentId(node));
            }
            break;
        }
        out.push(SegmentId(node));
        let prev = scratch.prev[node as usize];
        if prev == NONE {
            return Err(ServeError::Internal("forward predecessor chain broken"));
        }
        node = prev;
        hops += 1;
        if hops > scratch.prev.len() {
            return Err(ServeError::Internal("predecessor walk does not terminate"));
        }
    }
    out[mark..].reverse();
    Ok(())
}

/// Whole-network reference router: plain Dijkstra with no partition
/// structure, returning the canonical route cost and path. The
/// differential suites pin the partition-aware engine against this.
///
/// # Errors
/// [`ServeError::NoRoute`] when unreachable, [`ServeError::InvalidQuery`]
/// for out-of-range segments, [`ServeError::Internal`] on a broken
/// predecessor chain.
pub fn exact_route(
    g: &SegmentGraph,
    from: SegmentId,
    to: SegmentId,
    ctx: &mut QueryContext,
) -> Result<(f64, Vec<SegmentId>), ServeError> {
    let n = g.len();
    for seg in [from, to] {
        if seg.index() >= n {
            return Err(ServeError::InvalidQuery {
                segment: seg,
                segments: n,
            });
        }
    }
    if from == to {
        return Ok((g.cost(from.0), vec![from]));
    }
    ctx.ensure(n, 0);
    ctx.fwd.reset();
    ctx.fwd.seed(from.0, 0.0);
    run_forward(g, &[], UNRESTRICTED, to.0, &mut ctx.fwd);
    if !ctx.fwd.distance(to.0).is_finite() {
        return Err(ServeError::NoRoute { from, to });
    }
    let mut path = Vec::new();
    append_tree_path(&ctx.fwd, to.0, from.0, true, &mut path)?;
    Ok((g.path_cost(&path), path))
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::graph::CostModel;
    use roadpart_net::{Intersection, IntersectionId, RoadNetwork, RoadSegment};

    /// Two-way chain over `n` intersections with integer lengths.
    fn two_way_chain(n: u32) -> RoadNetwork {
        let ints = (0..n)
            .map(|i| Intersection {
                x: f64::from(i) * 100.0,
                y: 0.0,
            })
            .collect();
        let seg = |from: u32, to: u32, len: f64| RoadSegment {
            from: IntersectionId(from),
            to: IntersectionId(to),
            length_m: len,
            free_speed_mps: 10.0,
            density: 0.0,
        };
        let mut segs = Vec::new();
        for i in 0..n - 1 {
            segs.push(seg(i, i + 1, f64::from(i + 1)));
            segs.push(seg(i + 1, i, f64::from(i + 2)));
        }
        RoadNetwork::new(ints, segs).unwrap()
    }

    fn engine_over(labels: Vec<usize>, net: &RoadNetwork) -> QueryEngine {
        let g = SegmentGraph::from_network(net, CostModel::Distance).unwrap();
        let store = std::sync::Arc::new(PartitionStore::new(labels, 0));
        QueryEngine::new(g, store, ThreadPool::serial()).unwrap()
    }

    #[test]
    fn all_pairs_match_exact_router() {
        let net = two_way_chain(8);
        let n = net.segment_count();
        // Alternate partitions along the chain to force overlay hops.
        let labels: Vec<usize> = (0..n).map(|i| (i / 4) % 3).collect();
        let engine = engine_over(labels, &net);
        let mut ctx = QueryContext::new();
        let mut exact_ctx = QueryContext::new();
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                let (from, to) = (SegmentId(s), SegmentId(t));
                let got = engine.query(from, to, &mut ctx);
                let want = exact_route(engine.graph(), from, to, &mut exact_ctx);
                match (got, want) {
                    (Ok(a), Ok((cost, _))) => {
                        assert_eq!(a.cost, cost, "{s}->{t}");
                        assert_eq!(a.path.first(), Some(&from), "{s}->{t}");
                        assert_eq!(a.path.last(), Some(&to), "{s}->{t}");
                        assert_eq!(
                            engine.graph().path_cost(&a.path),
                            a.cost,
                            "path is consistent"
                        );
                    }
                    (Err(ServeError::NoRoute { .. }), Err(ServeError::NoRoute { .. })) => {}
                    (g, w) => panic!("{s}->{t}: engine {g:?} vs exact {w:?}"),
                }
            }
        }
    }

    #[test]
    fn unreachable_is_typed_no_route() {
        // One-way chain: 0 -> 1 -> 2; going backwards is impossible.
        let ints = vec![
            Intersection { x: 0.0, y: 0.0 },
            Intersection { x: 1.0, y: 0.0 },
            Intersection { x: 2.0, y: 0.0 },
        ];
        let seg = |from: u32, to: u32| RoadSegment {
            from: IntersectionId(from),
            to: IntersectionId(to),
            length_m: 5.0,
            free_speed_mps: 10.0,
            density: 0.0,
        };
        let net = RoadNetwork::new(ints, vec![seg(0, 1), seg(1, 2)]).unwrap();
        let engine = engine_over(vec![0, 1], &net);
        let mut ctx = QueryContext::new();
        let err = engine
            .query(SegmentId(1), SegmentId(0), &mut ctx)
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::NoRoute {
                from: SegmentId(1),
                to: SegmentId(0)
            }
        );
        // Out of range is its own class, not a panic.
        let err = engine
            .query(SegmentId(9), SegmentId(0), &mut ctx)
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidQuery { .. }));
    }

    #[test]
    fn refresh_follows_the_store() {
        let net = two_way_chain(6);
        let n = net.segment_count();
        let labels: Vec<usize> = (0..n).map(|i| usize::from(i >= n / 2)).collect();
        let engine = engine_over(labels, &net);
        assert_eq!(engine.serving().version(), 1);
        assert_eq!(engine.refresh().unwrap(), RefreshOutcome::Current);

        // Publish a different labeling; queries keep working across the
        // swap and the new serving state carries the new version.
        let flipped: Vec<usize> = (0..n).map(|i| usize::from(i < n / 2)).collect();
        engine.store().publish(flipped, 1);
        let mut ctx = QueryContext::new();
        let before = engine
            .query(SegmentId(0), SegmentId(n as u32 - 1), &mut ctx)
            .unwrap();
        assert_eq!(before.version, 1, "still serving the old epoch");
        assert_eq!(
            engine.refresh().unwrap(),
            RefreshOutcome::Rebuilt { version: 2 }
        );
        let after = engine
            .query(SegmentId(0), SegmentId(n as u32 - 1), &mut ctx)
            .unwrap();
        assert_eq!(after.version, 2);
        assert_eq!(after.cost, before.cost, "cost is partition-invariant");
    }

    #[test]
    fn batches_report_consistent_stats() {
        let net = two_way_chain(7);
        let n = net.segment_count() as u32;
        let labels: Vec<usize> = (0..n as usize).map(|i| i % 2).collect();
        let engine = engine_over(labels, &net);
        let mut pairs = Vec::new();
        for s in 0..n {
            pairs.push((SegmentId(s), SegmentId((s * 5 + 3) % n)));
        }
        let batch = QueryBatch::new(pairs);
        let report = engine.run_batch(&batch).unwrap();
        assert_eq!(report.queries, batch.len());
        assert_eq!(report.ok + report.no_route, report.queries);
        assert!(report.qps > 0.0);
        assert!(report.p50_us <= report.p99_us);
        assert!(report.p99_us <= report.max_us);
        assert_eq!(report.version_lo, 1);
        assert_eq!(report.version_hi, 1);
        assert_eq!(report.per_query.len(), report.queries);
        assert!(report.total_cost.is_finite());

        // The deterministic check value is pool-size invariant.
        let wide = QueryEngine::new(
            engine.graph().clone(),
            std::sync::Arc::clone(engine.store()),
            ThreadPool::new(4),
        )
        .unwrap();
        let report4 = wide.run_batch(&batch).unwrap();
        assert_eq!(report.total_cost.to_bits(), report4.total_cost.to_bits());
        assert_eq!(report.ok, report4.ok);
        // A multi-thread batch loses no query and keeps its stats finite.
        assert_eq!(report4.ok + report4.no_route, batch.len());
        assert!(report4.qps.is_finite() && report4.p50_us <= report4.p99_us);
    }

    #[test]
    fn empty_batch_is_fine() {
        let net = two_way_chain(3);
        let engine = engine_over(vec![0; net.segment_count()], &net);
        let report = engine.run_batch(&QueryBatch::default()).unwrap();
        assert_eq!(report.queries, 0);
        assert_eq!(report.version_lo, 0);
        assert_eq!(report.p99_us, 0.0);
    }
}
