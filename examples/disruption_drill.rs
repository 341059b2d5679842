//! Disruption drill: a mid-stream blockade plus injected faults against
//! the self-healing epoch loop.
//!
//! Overlays the standard blockade scenario on the D1 microsim trace, feeds
//! it to the stream engine alongside a roadside sensor that goes bad
//! halfway through, and injects a burst of solver faults at the height of
//! the disruption. Watch the density gate refuse the bad sensor's
//! snapshots, the engine retry the faulted solves with rotated seeds,
//! degrade down the ladder when the retries run out, and recover on its
//! own — all while the served partition stays valid and versioned.
//!
//! ```text
//! cargo run --release --example disruption_drill [scale] [seed]
//! ```

use roadpart_net::RoadGraph;
use roadpart_stream::{EngineConfig, EpochAction, StreamEngine, StreamError};
use roadpart_traffic::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.3);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(23);

    let dataset = roadpart::datasets::d1(scale, seed)?;
    let suite = Scenario::standard_suite(&dataset.network);
    let blockade = suite
        .iter()
        .find(|s| s.name == "blockade")
        .expect("standard suite has a blockade");
    let disrupted = blockade.apply_history(&dataset.network, &dataset.history);
    let steps = disrupted.len();
    println!(
        "D1 surrogate: {} segments, {steps} steps, scenario '{}'",
        dataset.network.segment_count(),
        blockade.name
    );

    let mut graph = RoadGraph::from_network(&dataset.network)?;
    graph.set_features(disrupted.at(0).to_vec())?;
    let mut cfg = EngineConfig::new(4).with_seed(seed);
    cfg.resilience.max_retries = 1;
    let mut engine = StreamEngine::new(graph, cfg)?;
    let store = engine.store();
    println!(
        "initial partition: version {} | k = {}\n",
        store.read().version,
        store.read().k
    );

    let epochs = 12usize;
    let per_epoch = (steps - 1).div_ceil(epochs).max(1);
    let mut t = 1usize;
    let mut faulted = false;
    let mut total_refused = 0usize;
    while t < steps {
        let end = (t + per_epoch).min(steps);
        let mid = t as f64 / (steps - 1) as f64;
        // A burst of solver faults right as the blockade peaks.
        if !faulted && mid > 0.5 {
            engine.arm_fault_injection(3);
            faulted = true;
            println!("  !! injecting 3 solver faults");
        }
        let mut refused = 0usize;
        for s in t..end {
            // The trunk feed stays clean; the roadside sensor goes bad in
            // the second half of the drill and starts reporting NaNs, which
            // the gate refuses before they reach the aggregate.
            engine.ingest(disrupted.at(s))?;
            if mid > 0.45 {
                let garbage = vec![f64::NAN; dataset.network.segment_count()];
                match engine.ingest(&garbage) {
                    Err(StreamError::InvalidUpdate(_)) => refused += 1,
                    Ok(()) => return Err("a NaN snapshot got past the density gate".into()),
                    Err(e) => return Err(e.into()),
                }
            } else {
                engine.ingest(disrupted.at(s))?;
            }
        }
        total_refused += refused;
        t = end;
        let r = engine.run_epoch()?;
        let action = match r.action {
            EpochAction::NoOp => "no-op",
            EpochAction::Regional => "regional",
            EpochAction::Global => "global",
        };
        let mut notes = String::new();
        if r.resilience.degraded {
            notes.push_str(" degraded!");
        }
        if r.resilience.attempts.len() > 1 {
            notes.push_str(&format!(" ({} attempts)", r.resilience.attempts.len()));
        }
        if refused > 0 {
            notes.push_str(&format!(" ({refused} refused)"));
        }
        println!(
            "epoch {:>2}: {action:<8} divergence {:.3} | v{} | {:.1} ms{notes}",
            r.epoch, r.probe.max_divergence, r.version, r.elapsed_ms
        );
    }

    println!(
        "\nfinal: version {} | {total_refused} snapshots refused",
        store.read().version
    );
    Ok(())
}
