//! # roadbench
//!
//! One paper-scale benchmark for the roadpart workspace. Four workloads
//! exercise the layers differently (see `README.md` for why each exists):
//!
//! | workload    | unit of work                                      |
//! |-------------|---------------------------------------------------|
//! | `asg-m3`    | one `partition_network` call, ASG, k = 8, on M3   |
//! | `ag-m1`     | one `partition_network` call, AG, k = 8, on M1    |
//! | `stream-m1` | one `StreamEngine::run_epoch` on an M1 trace      |
//! | `serve-m3`  | one exact `QueryEngine::query` on M3              |
//!
//! Every workload reports the same end-to-end metrics ([`END_TO_END`]);
//! a traced run (`--trace`) reports the per-layer metrics
//! ([`PER_LAYER`]) instead, with zero for layers the workload never calls.

pub mod checks;
pub mod compare;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod partition;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod trace;

use serde_json::{json, Map, Value};
use std::time::Instant;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (0 for per-layer metrics, which
    /// carry no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        lower_is_better: lower,
        bound: 0.0,
    }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them (`op` is the workload's unit of work).
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("peak_rss_mb", "MB", true, 0.20),
    e2e("p50_ms", "ms", true, 0.25),
    e2e("ops_per_s", "1/s", false, 0.25),
    e2e("ans_mean", "ratio", true, 0.10),
    e2e("k_ratio", "ratio", true, 0.15),
];

/// Per-layer metrics of a traced run, named after the crates.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("net.road_graph_ms", "ms", true),
    layer("core.mine_ms", "ms", true),
    layer("core.supergraph_order", "count", true),
    layer("core.condensation", "ratio", true),
    layer("core.kappa_shortlisted", "count", true),
    layer("cut.affinity_ms", "ms", true),
    layer("cut.spectral_ms", "ms", true),
    layer("cut.fine_partitions", "count", true),
    layer("cut.refine_ms", "ms", true),
    layer("linalg.eigensolve_ms", "ms", true),
    layer("linalg.matvecs", "count", true),
    layer("linalg.matvec_ms", "ms", true),
    layer("linalg.non_matvec_ms", "ms", true),
    layer("linalg.fallback_rungs", "count", true),
    layer("cluster.kmeans_ms", "ms", true),
    layer("cluster.components_ms", "ms", true),
    layer("eval.gdbi_mean", "ratio", true),
    layer("serve.oracle_build_ms", "ms", true),
    layer("serve.refresh_ms", "ms", true),
    layer("serve.boundary_nodes", "count", true),
    layer("serve.overlay_edges", "count", true),
    layer("serve.settled_per_query", "count", true),
    layer("serve.overlay_frac", "ratio", true),
    layer("serve.no_route_frac", "ratio", true),
    layer("serve.query_p99_us", "us", true),
    layer("stream.global_epochs", "count", true),
    layer("stream.regional_epochs", "count", true),
    layer("stream.noop_epochs", "count", false),
    layer("stream.global_ms_p50", "ms", true),
    layer("stream.regional_ms_p50", "ms", true),
    layer("stream.noop_ms_p50", "ms", true),
    layer("stream.epoch_p90_ms", "ms", true),
    layer("stream.ingest_us_p50", "us", true),
    layer("stream.retries", "count", true),
    layer("stream.cold_build_ms", "ms", true),
    layer("trace_overhead_frac", "ratio", true),
];

/// Looks up a declared metric (end-to-end or per-layer) by name.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ASG partitions of the M3 network.
    AsgM3,
    /// AG partitions of the M1 network.
    AgM1,
    /// Online repartitioning epochs on M1.
    StreamM1,
    /// Exact shortest-path queries on M3 beside oracle rebuilds.
    ServeM3,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::AsgM3,
        Workload::AgM1,
        Workload::StreamM1,
        Workload::ServeM3,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AsgM3 => "asg-m3",
            Workload::AgM1 => "ag-m1",
            Workload::StreamM1 => "stream-m1",
            Workload::ServeM3 => "serve-m3",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed the inputs are drawn from.
    pub seed: u64,
    /// Minimum measured time; the run repeats whole cycles until it is
    /// reached.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Thread-pool width (and querier count for serving).
    pub threads: usize,
    /// Shrink networks and cycles to a self-test size.
    pub smoke: bool,
    /// Time origin of the run's spans.
    pub epoch: Instant,
}

impl RunConfig {
    /// Network scale: 1.0 is the paper's size, smoke runs use 5%.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            0.05
        } else {
            1.0
        }
    }

    /// How many times to repeat a set-up step (its median is `setup_s`):
    /// `full` in a real run, once in a smoke run.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// True once a run that started at `start` and has finished `cycles`
    /// whole cycles should stop: the run ends at the whole number of
    /// cycles nearest to `seconds`, and after at least one. Rounding to
    /// the nearest cycle, rather than stopping at the first past
    /// `seconds`, keeps the cycle count from flipping between runs when a
    /// cycle takes about `seconds`.
    pub fn done(&self, start: Instant, cycles: usize) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        self.smoke || elapsed + 0.5 * elapsed / cycles.max(1) as f64 >= self.seconds
    }

    /// The thread pool every parallel kernel of the run uses.
    pub fn pool(&self) -> roadpart_linalg::ThreadPool {
        roadpart_linalg::ThreadPool::new(self.threads)
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (partitions, epochs or queries).
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-layer metrics of a traced run, by name.
    pub layers: Vec<(&'static str, f64)>,
    /// Context: cycles, sizes, counts.
    pub info: Map,
}

impl Report {
    /// Records a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what.into());
        }
    }

    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Records a piece of context.
    pub fn note(&mut self, key: &str, value: Value) {
        self.info.insert(key.to_string(), value);
    }

    /// The report as the JSON line a workload child prints. Per-layer
    /// metrics the workload did not measure are filled with zero, so every
    /// traced run names every declared per-layer metric.
    pub fn to_json(&self, cfg: &RunConfig) -> Value {
        let metrics: Map = self
            .metrics
            .iter()
            .map(|&(name, value)| (name.to_string(), metric_json(name, value)))
            .collect();
        let layers: Map = if cfg.trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    let value = self
                        .layers
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .map_or(0.0, |&(_, v)| v);
                    (m.name.to_string(), metric_json(m.name, value))
                })
                .collect()
        } else {
            Map::new()
        };
        json!({
            "workload": cfg.workload.name(),
            "seed": cfg.seed,
            "trace": cfg.trace,
            "threads": cfg.threads,
            "smoke": cfg.smoke,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": Value::Object(metrics),
            "layers": Value::Object(layers),
            "info": Value::Object(self.info.clone()),
        })
    }
}

/// `{"value": v, "unit": u}` for a declared metric.
pub fn metric_json(name: &str, value: f64) -> Value {
    let unit = spec(name).map_or("", |m| m.unit);
    json!({ "value": value, "unit": unit })
}

/// Runs one workload in this process. An error that stops the workload
/// early counts as one more failed operation.
pub fn run_workload(cfg: &RunConfig) -> Report {
    let mut rep = Report::default();
    let ran = match cfg.workload {
        Workload::AsgM3 | Workload::AgM1 => partition::run(cfg, &mut rep),
        Workload::StreamM1 => stream::run(cfg, &mut rep),
        Workload::ServeM3 => serve::run(cfg, &mut rep),
    };
    if let Err(e) = ran {
        rep.attempted += 1;
        rep.fail(e);
    }
    if !cfg.trace {
        rep.metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    }
    rep
}

/// Directory for result files and span dumps:
/// `benchmark/target/roadbench/`.
pub fn output_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("roadbench")
}

/// Writes a traced run's spans to
/// `benchmark/target/roadbench/spans-<workload>-seed<seed>.json`.
/// A write failure is reported on stderr; it does not fail the run.
pub fn write_spans(cfg: &RunConfig, tracer: &trace::Tracer) {
    let dir = output_dir();
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    let text = serde_json::to_string(&tracer.to_json(cfg.workload.name())).unwrap_or_default();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("roadbench: cannot write {}: {e}", path.display());
    }
}
