//! The epoch-based online repartitioning engine.
//!
//! Lifecycle per epoch:
//!
//! 1. the caller [`ingest`](StreamEngine::ingest)s density updates as they
//!    arrive (any number per epoch, including zero), each checked by
//!    [`DensityAggregator::push`] — a bad snapshot is refused with
//!    [`StreamError::InvalidUpdate`] and never reaches the aggregate;
//! 2. [`run_epoch`](StreamEngine::run_epoch) reduces the feed to one
//!    aggregate density per segment, probes drift against the baseline
//!    captured at the last refresh, and acts:
//!    [`EpochAction::NoOp`] serves on, [`EpochAction::Regional`] refreshes
//!    each region on its own subgraph, [`EpochAction::Global`] rebuilds the
//!    whole partition with a warm-started spectral solve;
//! 3. any new partition is published to the [`PartitionStore`] — readers
//!    holding the store handle never block and never see a partial update.
//!
//! The epoch loop is *self-healing*: numerical solver failures are retried
//! at once with rotated seeds (the batch supervisor's retry predicate,
//! [`roadpart::RoadpartError::is_retryable`], and seed rotation,
//! [`roadpart::rotated_seed`]), and when the retry budget or the
//! per-epoch deadline ([`ResilienceConfig::epoch_budget_ms`]) is exhausted
//! the intended action degrades down the ladder Global → Regional → NoOp —
//! the engine keeps serving the last good snapshot rather than stalling the
//! readers. Every epoch reports whether that machinery had to engage
//! ([`EpochResilience::degraded`]).
//!
//! Warm starts make the expensive path cheap: the previous epoch's
//! eigenvectors seed the Lanczos iteration and its centroids seed the
//! eigenspace k-means ([`roadpart_cut::spectral_partition_warm_ws`]), so a
//! global rebuild after modest drift converges in a fraction of the cold
//! iteration count.

use crate::aggregate::{check_densities, AggregateKind, DensityAggregator};
use crate::drift::{DriftPolicy, DriftProbe, EpochAction};
use crate::error::{Result, StreamError};
use crate::health::{DeadlineMode, EpochAttempt, EpochResilience, ResilienceConfig};
use crate::report::EpochReport;
use crate::snapshot::PartitionStore;
use roadpart::pipeline::STRICT_INVARIANTS;
use roadpart::{error_chain, repartition_regions, rotated_seed, DistributedConfig};
use roadpart_cut::{
    gaussian_affinity_par, spectral_partition_warm_ws, CutKind, Partition, SpectralArtifacts,
    SpectralConfig,
};
use roadpart_eval::PartitionDrift;
use roadpart_linalg::{LinalgError, RecoveryLog, Workspace};
use roadpart_net::RoadGraph;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for [`StreamEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Target partition count for global rebuilds.
    pub k: usize,
    /// Spectral cut used by global rebuilds (α-Cut matches the paper).
    pub cut: CutKind,
    /// How the density feed is smoothed before each probe.
    pub aggregate: AggregateKind,
    /// Drift thresholds steering the per-epoch decision.
    pub policy: DriftPolicy,
    /// Spectral settings for global rebuilds.
    pub spectral: SpectralConfig,
    /// Settings for regional refreshes (`core::distributed`).
    pub regional: DistributedConfig,
    /// Self-healing knobs: deadlines and retries.
    pub resilience: ResilienceConfig,
}

impl EngineConfig {
    /// Defaults for a `k`-way engine: α-Cut, 3-snapshot window mean,
    /// default drift policy, default resilience posture (retries on, no
    /// deadline).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            cut: CutKind::Alpha,
            aggregate: AggregateKind::WindowMean(3),
            policy: DriftPolicy::default(),
            spectral: SpectralConfig::default(),
            regional: DistributedConfig::default(),
            resilience: ResilienceConfig::default(),
        }
    }

    /// Re-seeds the stochastic components.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.spectral = self.spectral.with_seed(seed);
        self.regional.framework = self.regional.framework.clone().with_seed(seed ^ 0x5747);
        self
    }

    /// Sets the thread pool used by global rebuilds and regional
    /// refreshes. Purely a performance knob: results are bit-identical at
    /// any pool size (see `roadpart_linalg::par`).
    pub fn with_pool(mut self, pool: roadpart_linalg::ThreadPool) -> Self {
        self.spectral = self.spectral.with_pool(pool);
        self.regional.framework = self.regional.framework.clone().with_pool(pool);
        self
    }
}

/// Long-lived online repartitioning engine over one road network.
#[derive(Debug)]
pub struct StreamEngine {
    cfg: EngineConfig,
    graph: RoadGraph,
    aggregator: DensityAggregator,
    store: Arc<PartitionStore>,
    /// Densities the live partition was last built/refreshed on — the
    /// reference point for divergence probes.
    baseline: Vec<f64>,
    /// Spectral state of the last global rebuild, fed back as a warm start.
    artifacts: Option<SpectralArtifacts>,
    /// Scratch-buffer pool threaded through every global rebuild's
    /// eigensolve; warmed by the initial build, so steady-state epochs run
    /// the spectral hot loops allocation-free.
    workspace: Workspace,
    epoch: u64,
    /// Snapshots ingested since the last epoch boundary.
    epoch_ingest: usize,
    /// Remaining solve attempts to fail with an injected `NotConverged`
    /// (test hook; see [`StreamEngine::arm_fault_injection`]).
    injected_faults: usize,
}

impl StreamEngine {
    /// Builds the engine and runs the initial (cold) global partition on
    /// the graph's current features, publishing it as version 1.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidConfig`] for `k == 0`, `k` above the
    /// segment count, inconsistent drift thresholds, or invalid resilience
    /// settings; [`StreamError::InvalidUpdate`] when the graph's features
    /// (the first baseline) hold a NaN, infinite or negative density — the
    /// check every ingested update passes; propagates initial partitioning
    /// failures.
    pub fn new(graph: RoadGraph, cfg: EngineConfig) -> Result<Self> {
        let n = graph.node_count();
        if cfg.k == 0 || cfg.k > n {
            return Err(StreamError::InvalidConfig(format!(
                "k = {} outside 1..={n}",
                cfg.k
            )));
        }
        cfg.policy.validate()?;
        cfg.resilience.validate()?;
        let aggregator = DensityAggregator::new(n, cfg.aggregate)?;
        check_densities(graph.features(), n)?;
        let baseline = graph.features().to_vec();
        let mut engine = Self {
            cfg,
            graph,
            aggregator,
            store: Arc::new(PartitionStore::new(vec![0; n], 0)),
            baseline,
            artifacts: None,
            workspace: Workspace::new(),
            epoch: 0,
            epoch_ingest: 0,
            injected_faults: 0,
        };
        let (densities, spectral) = (engine.baseline.clone(), engine.cfg.spectral.clone());
        let log = &mut RecoveryLog::new();
        let (partition, _) = engine.global_repartition(&densities, &spectral, log)?;
        engine.check_publishable(&partition)?;
        engine.store = Arc::new(PartitionStore::new(partition.labels().to_vec(), 0));
        Ok(engine)
    }

    /// Shared handle to the snapshot store for concurrent readers.
    pub fn store(&self) -> Arc<PartitionStore> {
        Arc::clone(&self.store)
    }

    /// Epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// The configured engine settings.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Arms the solve-fault injector: the next `n` solve attempts fail with
    /// a synthetic `NotConverged` before reaching the real solver. Test
    /// hook for exercising retry and degradation mid-stream.
    pub fn arm_fault_injection(&mut self, n: usize) {
        self.injected_faults = n;
    }

    /// Ingests one per-segment density snapshot.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidUpdate`] for a snapshot of the wrong
    /// length or holding a NaN, infinite or negative value, naming the
    /// first bad segment; nothing is ingested.
    pub fn ingest(&mut self, densities: &[f64]) -> Result<()> {
        self.aggregator.push(densities)?;
        self.epoch_ingest += 1;
        Ok(())
    }

    /// Closes the current epoch: aggregate, probe, act, publish.
    ///
    /// The intended action can *degrade* down the ladder Global → Regional
    /// → NoOp: each rung gets `1 + max_retries` attempts (retryable solver
    /// failures only, with seed rotation between attempts), and a blown
    /// epoch budget under [`DeadlineMode::Degrade`] skips straight to the
    /// next rung. The store is only touched by a fully validated
    /// partition; on every failure path readers keep the last good
    /// snapshot.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidUpdate`] when no densities were ever
    /// ingested; [`StreamError::DeadlineExceeded`] for a blown budget under
    /// [`DeadlineMode::Fail`]; propagates non-retryable repartitioning
    /// failures (the live snapshot is untouched on failure — the store only
    /// changes on success).
    pub fn run_epoch(&mut self) -> Result<EpochReport> {
        let t0 = Instant::now();
        let accepted = std::mem::take(&mut self.epoch_ingest);
        let Some(current) = self.aggregator.current() else {
            return Err(StreamError::InvalidUpdate(
                "epoch with no density updates ever ingested".into(),
            ));
        };
        self.epoch += 1;
        let live = self.store.read();
        let probe = DriftProbe::measure(live.labels(), &self.baseline, &current)?;
        let intended = self.cfg.policy.decide(&probe);

        let mut resilience = EpochResilience {
            budget_ms: self.cfg.resilience.epoch_budget_ms,
            accepted,
            ..EpochResilience::default()
        };

        let ladder: &[EpochAction] = match intended {
            EpochAction::Global => &[
                EpochAction::Global,
                EpochAction::Regional,
                EpochAction::NoOp,
            ],
            EpochAction::Regional => &[EpochAction::Regional, EpochAction::NoOp],
            EpochAction::NoOp => &[EpochAction::NoOp],
        };

        let mut executed = EpochAction::NoOp;
        let mut drift = None;
        let mut warm_started = false;
        'ladder: for &rung in ladder {
            if rung == EpochAction::NoOp {
                executed = EpochAction::NoOp;
                break;
            }
            let max_attempts = self.cfg.resilience.max_retries + 1;
            for attempt in 0..max_attempts {
                // Deadline gate: checked before the first attempt of each
                // rung and again before every retry.
                if let Some(budget) = self.cfg.resilience.epoch_budget_ms {
                    let elapsed = t0.elapsed().as_secs_f64() * 1e3;
                    if elapsed > budget {
                        resilience.deadline_blown = true;
                        match self.cfg.resilience.deadline_mode {
                            DeadlineMode::Fail => {
                                return Err(StreamError::DeadlineExceeded {
                                    budget_ms: budget,
                                    elapsed_ms: elapsed,
                                });
                            }
                            DeadlineMode::Degrade => continue 'ladder,
                        }
                    }
                }
                let seed = self.attempt_seed(rung, attempt);
                let mut recoveries = RecoveryLog::new();
                let outcome =
                    self.attempt_action(rung, &current, attempt, live.labels(), &mut recoveries);
                match outcome {
                    Ok((labels, attempt_drift, warm)) => {
                        resilience.attempts.push(EpochAttempt {
                            action: rung,
                            attempt,
                            seed,
                            succeeded: true,
                            error: None,
                        });
                        self.store.publish(labels, self.epoch);
                        drift = Some(attempt_drift);
                        warm_started = warm;
                        resilience.recoveries = recoveries;
                        executed = rung;
                        break 'ladder;
                    }
                    Err(e) => {
                        let retryable = e.is_retryable();
                        resilience.attempts.push(EpochAttempt {
                            action: rung,
                            attempt,
                            seed,
                            succeeded: false,
                            error: Some(error_chain(&e)),
                        });
                        if !retryable {
                            // Structural failure: another seed or a cheaper
                            // rung cannot fix a bug — propagate. The store
                            // is untouched.
                            return Err(e);
                        }
                        if attempt + 1 == max_attempts {
                            // Retry budget exhausted: degrade to the next
                            // rung of the ladder.
                            continue 'ladder;
                        }
                    }
                }
            }
        }

        // A refresh makes the aggregate the new baseline; a no-op (intended
        // or fully degraded) keeps the old one.
        if executed != EpochAction::NoOp {
            self.baseline = current;
        }

        resilience.degraded = executed != intended;

        let after = self.store.read();
        Ok(EpochReport {
            epoch: self.epoch,
            action: executed,
            intended,
            probe,
            version: after.version,
            k: after.k,
            drift,
            warm_started,
            elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
            resilience,
        })
    }

    /// The seed a given rung/attempt pair runs under (attempt 0 is the
    /// configured seed; retries rotate it with [`rotated_seed`]).
    fn attempt_seed(&self, rung: EpochAction, attempt: usize) -> u64 {
        let base = match rung {
            EpochAction::Global => self.cfg.spectral.kmeans.seed,
            _ => self.cfg.regional.framework.mining.seed,
        };
        rotated_seed(base, attempt)
    }

    /// Executes one ladder rung once (solves logged to `log`), returning the
    /// labels to publish, the old-vs-new drift, and whether a warm start was
    /// applied. Validates the partition, so a success here is publishable.
    fn attempt_action(
        &mut self,
        rung: EpochAction,
        current: &[f64],
        attempt: usize,
        live_labels: &[usize],
        log: &mut RecoveryLog,
    ) -> Result<(Vec<usize>, PartitionDrift, bool)> {
        self.injected_fault()?;
        match rung {
            EpochAction::Global => {
                let mut spectral = self.cfg.spectral.clone();
                if attempt > 0 {
                    spectral = spectral.with_seed(self.attempt_seed(rung, attempt));
                }
                let (partition, warm) = self.global_repartition(current, &spectral, log)?;
                self.check_publishable(&partition)?;
                let drift = PartitionDrift::between(live_labels, partition.labels());
                Ok((partition.labels().to_vec(), drift, warm))
            }
            EpochAction::Regional => {
                self.graph.set_features(current.to_vec())?;
                let prev = Partition::from_labels(live_labels);
                let regional = if attempt == 0 {
                    self.cfg.regional.clone()
                } else {
                    let mut r = self.cfg.regional.clone();
                    r.framework = r.framework.with_seed(self.attempt_seed(rung, attempt));
                    r
                };
                let out = repartition_regions(&self.graph, &prev, &regional)?;
                log.absorb(out.recovery);
                self.check_publishable(&out.partition)?;
                Ok((out.partition.labels().to_vec(), out.drift, false))
            }
            // Defensive: the epoch loop never dispatches NoOp here, but a
            // panic is not an acceptable failure mode on the serve path.
            EpochAction::NoOp => Err(StreamError::InvalidConfig(
                "internal: NoOp is not a solve rung".into(),
            )),
        }
    }

    /// Consumes one armed injected fault, if any (test hook).
    fn injected_fault(&mut self) -> Result<()> {
        if self.injected_faults > 0 {
            self.injected_faults -= 1;
            return Err(StreamError::Framework(roadpart::RoadpartError::Linalg(
                LinalgError::NotConverged {
                    iterations: 0,
                    context: "injected epoch fault",
                },
            )));
        }
        Ok(())
    }

    /// Epoch-boundary invariant gate (active under `debug_assertions` or
    /// the `strict-invariants` feature): a partition must be structurally
    /// valid and cover every segment before it may reach the store.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidUpdate`] naming the violated invariant.
    fn check_publishable(&self, partition: &Partition) -> Result<()> {
        if !STRICT_INVARIANTS {
            return Ok(());
        }
        partition.validate().map_err(|e| {
            StreamError::InvalidUpdate(format!("epoch invariant violated before publish: {e}"))
        })?;
        if partition.len() != self.graph.node_count() {
            return Err(StreamError::InvalidUpdate(format!(
                "epoch invariant violated before publish: partition covers {} segments \
                 but the graph has {}",
                partition.len(),
                self.graph.node_count()
            )));
        }
        Ok(())
    }

    /// Full spectral rebuild on `densities` under `spectral` (retries pass a
    /// seed-rotated clone), warm-started from (then replacing) the cached
    /// artifacts of the previous rebuild, solves logged to `log`. Returns the
    /// partition and whether a warm start was applied (not on the first).
    fn global_repartition(
        &mut self,
        densities: &[f64],
        spectral: &SpectralConfig,
        log: &mut RecoveryLog,
    ) -> Result<(Partition, bool)> {
        self.graph.set_features(densities.to_vec())?;
        let affinity = gaussian_affinity_par(
            self.graph.adjacency(),
            self.graph.features(),
            &spectral.pool(),
        )?;
        let warm_used = self.artifacts.is_some();
        let (partition, artifacts) = spectral_partition_warm_ws(
            &affinity,
            self.cfg.k.min(self.graph.node_count()),
            self.cfg.cut,
            spectral,
            self.artifacts.as_ref(),
            log,
            &mut self.workspace,
        )?;
        self.artifacts = Some(artifacts);
        Ok((partition, warm_used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_linalg::CsrMatrix;

    /// Path of `plateaus` density plateaus, 8 segments each.
    fn plateau_graph(plateaus: usize) -> RoadGraph {
        let n = plateaus * 8;
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let adj = CsrMatrix::from_undirected_edges(n, &edges).unwrap();
        let feats: Vec<f64> = (0..n).map(|i| (i / 8) as f64 * 0.4 + 0.05).collect();
        RoadGraph::from_parts(adj, feats, vec![]).unwrap()
    }

    /// Fine stripes across the plateaus: forces a global rebuild.
    fn flipped(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if i % 2 == 0 { 0.05 } else { 0.9 })
            .collect()
    }

    #[test]
    fn initial_partition_is_published_as_version_one() {
        let engine = StreamEngine::new(plateau_graph(3), EngineConfig::new(3)).unwrap();
        let snap = engine.store().read();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.len(), 24);
        assert_eq!(snap.k, 3);
    }

    #[test]
    fn stable_feed_yields_noop_epochs_without_version_bumps() {
        let graph = plateau_graph(3);
        let baseline = graph.features().to_vec();
        let mut engine = StreamEngine::new(graph, EngineConfig::new(3)).unwrap();
        for _ in 0..3 {
            engine.ingest(&baseline).unwrap();
            let report = engine.run_epoch().unwrap();
            assert_eq!(report.action, EpochAction::NoOp);
            assert_eq!(report.intended, EpochAction::NoOp);
            assert_eq!(report.version, 1, "no-op must not republish");
            assert!(report.drift.is_none());
            assert!(!report.resilience.degraded);
            assert!(report.resilience.attempts.is_empty());
            assert_eq!(report.resilience.accepted, 1);
        }
        assert_eq!(engine.epochs(), 3);
    }

    #[test]
    fn inverted_densities_force_a_warm_global_rebuild() {
        let graph = plateau_graph(3);
        let n = graph.node_count();
        let mut engine = StreamEngine::new(graph, EngineConfig::new(3)).unwrap();
        let feed = flipped(n);
        for _ in 0..3 {
            engine.ingest(&feed).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.action, EpochAction::Global);
        assert!(report.warm_started, "artifacts from the initial build");
        assert_eq!(report.version, 2);
        assert!(report.drift.is_some());
        assert_eq!(report.resilience.attempts.len(), 1);
        assert!(report.resilience.attempts[0].succeeded);
    }

    #[test]
    fn epochs_report_the_solves_of_the_attempt_that_published() {
        let graph = plateau_graph(3);
        let baseline = graph.features().to_vec();
        let mut cfg = EngineConfig::new(3);
        cfg.spectral.fallback.inject_failures = 1;
        let mut engine = StreamEngine::new(graph, cfg).unwrap();
        engine.ingest(&baseline).unwrap();
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.action, EpochAction::NoOp);
        assert!(report.resilience.recoveries.events.is_empty());

        // The first attempt fails before any solve; the retry's main
        // embedding is the one rescued solve (refinement runs clean).
        engine.arm_fault_injection(1);
        for _ in 0..3 {
            engine.ingest(&flipped(baseline.len())).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.action, EpochAction::Global);
        assert_eq!(report.resilience.attempts.len(), 2);
        let recoveries = &report.resilience.recoveries;
        assert_eq!(recoveries.failures(), 1, "{recoveries:?}");
        assert!(recoveries.events.last().unwrap().succeeded);
    }

    #[test]
    fn regional_epoch_reports_each_rescued_region() {
        let graph = plateau_graph(3);
        let n = graph.node_count();
        let mut cfg = EngineConfig::new(3);
        // Thresholds no probe meets on either side: every epoch is regional.
        cfg.policy = DriftPolicy {
            noop_divergence: 0.0,
            noop_retention: 1e9,
            global_divergence: 1e9,
            global_retention: 0.0,
        };
        cfg.regional.framework.spectral.fallback.inject_failures = 1;
        let mut engine = StreamEngine::new(graph, cfg).unwrap();
        // Regions of 4+ segments (above k_per_region = 2) are solved.
        let live = Partition::from_labels(engine.store().read().labels());
        let solved = live.groups().iter().filter(|g| g.len() >= 4).count();
        assert!(solved > 1, "the plateaus give several solvable regions");
        for _ in 0..3 {
            engine.ingest(&flipped(n)).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.action, EpochAction::Regional);
        let events = &report.resilience.recoveries.events;
        let ok: Vec<bool> = events.iter().map(|e| e.succeeded).collect();
        assert_eq!(ok.iter().filter(|&&s| !s).count(), solved, "{ok:?}");
        // Region by region, each failure is followed by its rescue.
        assert!(ok.windows(2).all(|w| w[0] || w[1]) && ok[ok.len() - 1]);
    }

    #[test]
    fn warm_global_rebuilds_recycle_the_workspace() {
        let graph = plateau_graph(3);
        let mut cfg = EngineConfig::new(3);
        // Force the iterative solver (24 nodes is far below the default
        // dense cutoff) so the workspace actually carries the hot loops.
        cfg.spectral.eigen.dense_cutoff = 4;
        let n = graph.node_count();
        let mut engine = StreamEngine::new(graph, cfg).unwrap();
        let flipped = flipped(n);
        // Two warm solves on the same densities let the buffer working set
        // stabilize; the third must then be served entirely from the pool.
        let (spectral, log) = (engine.cfg.spectral.clone(), &mut RecoveryLog::new());
        let _ = engine.global_repartition(&flipped, &spectral, log).unwrap();
        let _ = engine.global_repartition(&flipped, &spectral, log).unwrap();
        let warm_fresh = engine.workspace.fresh_allocations();
        let _ = engine.global_repartition(&flipped, &spectral, log).unwrap();
        assert_eq!(
            engine.workspace.fresh_allocations(),
            warm_fresh,
            "steady-state global rebuild must not allocate workspace buffers"
        );
        assert!(engine.workspace.takes() > 0, "workspace is actually in use");
    }

    #[test]
    fn epoch_without_any_ingest_is_an_error() {
        let mut engine = StreamEngine::new(plateau_graph(2), EngineConfig::new(2)).unwrap();
        assert!(engine.run_epoch().is_err());
    }

    #[test]
    fn bad_config_is_rejected() {
        assert!(StreamEngine::new(plateau_graph(2), EngineConfig::new(0)).is_err());
        assert!(StreamEngine::new(plateau_graph(2), EngineConfig::new(1000)).is_err());
        let mut cfg = EngineConfig::new(2);
        cfg.policy.noop_divergence = 2.0; // above global_divergence
        assert!(StreamEngine::new(plateau_graph(2), cfg).is_err());
        let mut cfg = EngineConfig::new(2);
        cfg.resilience.epoch_budget_ms = Some(-1.0);
        assert!(StreamEngine::new(plateau_graph(2), cfg).is_err());
    }

    /// The message of a [`StreamError::InvalidUpdate`]; panics on anything
    /// else.
    fn invalid_update<T: std::fmt::Debug>(result: Result<T>) -> String {
        match result {
            Err(StreamError::InvalidUpdate(m)) => m,
            other => panic!("expected InvalidUpdate, got {other:?}"),
        }
    }

    #[test]
    fn anomalous_densities_are_rejected_where_they_enter() {
        let graph = plateau_graph(2);
        let (adj, mut feed) = (graph.adjacency().clone(), graph.features().to_vec());
        feed[3] = -0.1;
        let mut engine = StreamEngine::new(graph, EngineConfig::new(2)).unwrap();
        for _ in 0..3 {
            assert_eq!(
                invalid_update(engine.ingest(&feed)),
                "density[3] is negative"
            );
        }
        // The graph's features are the first baseline: the same check.
        for (bad, kind) in [(-0.1, "negative"), (f64::NAN, "NaN")] {
            feed[3] = bad;
            let graph = RoadGraph::from_parts(adj.clone(), feed.clone(), vec![]).unwrap();
            let msg = invalid_update(StreamEngine::new(graph, EngineConfig::new(2)));
            assert_eq!(msg, format!("density[3] is {kind}"));
        }
    }

    #[test]
    fn injected_fault_is_retried_and_recovers_on_the_same_rung() {
        let graph = plateau_graph(3);
        let n = graph.node_count();
        let mut engine = StreamEngine::new(graph, EngineConfig::new(3)).unwrap();
        engine.arm_fault_injection(1);
        for _ in 0..3 {
            engine.ingest(&flipped(n)).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.action, EpochAction::Global, "retry, not degrade");
        assert!(!report.resilience.degraded);
        assert_eq!(report.resilience.attempts.len(), 2);
        assert!(!report.resilience.attempts[0].succeeded);
        assert!(report.resilience.attempts[0]
            .error
            .as_deref()
            .unwrap()
            .contains("injected epoch fault"));
        assert!(report.resilience.attempts[1].succeeded);
        assert_ne!(
            report.resilience.attempts[0].seed, report.resilience.attempts[1].seed,
            "retries must rotate the seed"
        );
        assert!(!report.resilience.degraded, "recovered in-rung");
    }

    #[test]
    fn exhausted_retries_degrade_down_the_ladder() {
        let graph = plateau_graph(3);
        let n = graph.node_count();
        let mut cfg = EngineConfig::new(3);
        cfg.resilience.max_retries = 1;
        let mut engine = StreamEngine::new(graph, cfg).unwrap();
        // Enough faults to exhaust Global (2 attempts) and Regional (2).
        engine.arm_fault_injection(4);
        for _ in 0..3 {
            engine.ingest(&flipped(n)).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.intended, EpochAction::Global);
        assert_eq!(report.action, EpochAction::NoOp, "fully degraded");
        assert!(report.resilience.degraded);
        assert_eq!(report.resilience.attempts.len(), 4);
        assert_eq!(report.version, 1, "no publish on a degraded no-op");
        // The next epoch (faults exhausted) recovers on its own.
        for _ in 0..3 {
            engine.ingest(&flipped(n)).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.action, EpochAction::Global);
        assert!(!report.resilience.degraded);
        assert_eq!(report.version, 2);
    }

    #[test]
    fn zero_budget_degrades_or_fails_by_mode() {
        let graph = plateau_graph(3);
        let n = graph.node_count();
        let mut cfg = EngineConfig::new(3);
        cfg.resilience.epoch_budget_ms = Some(0.0);
        let mut engine = StreamEngine::new(graph, cfg).unwrap();
        for _ in 0..3 {
            engine.ingest(&flipped(n)).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.intended, EpochAction::Global);
        assert_eq!(report.action, EpochAction::NoOp);
        assert!(report.resilience.deadline_blown);
        assert!(report.resilience.degraded);

        let graph = plateau_graph(3);
        let mut cfg = EngineConfig::new(3);
        cfg.resilience.epoch_budget_ms = Some(0.0);
        cfg.resilience.deadline_mode = DeadlineMode::Fail;
        let mut engine = StreamEngine::new(graph, cfg).unwrap();
        for _ in 0..3 {
            engine.ingest(&flipped(n)).unwrap();
        }
        match engine.run_epoch() {
            Err(StreamError::DeadlineExceeded { budget_ms, .. }) => {
                assert_eq!(budget_ms, 0.0);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
}
