//! Reduced-size passes of every workload: each emits every metric that
//! BENCHMARK.json names, fails nothing, and keeps its simulated digest
//! whether traced or not; a store that corrupts one checkpoint makes
//! `ckpt-recover` count a failure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dynmo_resilience::{Checkpoint, CheckpointError, CheckpointStore};
use perfbench::metrics::{end_to_end, per_layer, Layers, Metric};
use perfbench::{ckpt, peak_rss_mb, pool, train, Pass, Size, Workload};
use serde::Value;

/// Metric names listed under `section` of BENCHMARK.json.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let root = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let field = |entries: &[(String, Value)], key: &str| -> Value {
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing {key}"))
    };
    field(root.as_map().expect("an object"), section)
        .as_seq()
        .expect("a list")
        .iter()
        .map(|m| match field(m.as_map().expect("an object"), "name") {
            Value::Str(name) => name,
            other => panic!("metric name {other:?}"),
        })
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.to_string()).collect()
}

fn smoke(workload: Workload, traced: bool) -> Pass {
    workload.pass(&pool(workload.threads()), Size::Smoke, 5, traced)
}

#[test]
fn every_workload_emits_every_named_metric_and_fails_nothing() {
    let end_to_end_names = listed("end_to_end");
    let per_layer_names = listed("per_layer");
    for workload in Workload::ALL {
        let untraced = vec![smoke(workload, false), smoke(workload, false)];
        let traced = vec![smoke(workload, true)];
        for pass in untraced.iter().chain(&traced) {
            assert!(pass.attempted > 0, "{}", workload.name());
            assert_eq!(pass.failed, 0, "{} failed an op", workload.name());
            assert_eq!(
                pass.digest,
                untraced[0].digest,
                "{}: tracing or repetition changed the simulation",
                workload.name()
            );
        }
        let e2e = end_to_end(&untraced, peak_rss_mb());
        assert_eq!(names(&e2e), end_to_end_names, "{}", workload.name());
        for m in &e2e {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let layers: Vec<Layers> = traced.iter().map(Layers::of).collect();
        let layer_metrics = per_layer(&untraced, &traced, &layers);
        assert_eq!(
            names(&layer_metrics),
            per_layer_names,
            "{}",
            workload.name()
        );
        let value = |name: &str| {
            layer_metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("named metric")
        };
        assert!(layer_metrics.iter().all(|m| m.value.is_finite()));
        match workload {
            Workload::TrainFig3 => {
                assert_eq!(value("trainer.calls"), traced[0].ops.count as f64);
                assert!(value("pipeline.simulate_calls") > 0.0);
                assert!(value("balancer.calls") > 0.0);
                assert!(value("dynamics.calls") > 0.0);
                assert_eq!(value("ckpt.save.calls"), 0.0);
                assert_eq!(value("json.parse.bytes"), 0.0);
                assert_eq!(value("serve.steps"), 0.0);
            }
            Workload::ServeFleet => {
                assert!(value("serve.steps") >= traced[0].ops.count as f64);
                assert!(value("serve.requests") > 0.0);
                assert_eq!(value("fleet.runs"), 3.0);
                assert!(value("fleet.ticks") > 0.0);
                assert_eq!(value("trainer.calls"), 0.0);
                assert_eq!(value("ckpt.save.calls"), 0.0);
            }
            Workload::CkptRecover => {
                assert!(value("ckpt.save.calls") > 0.0);
                assert!(value("ckpt.save.bytes") > 0.0);
                assert_eq!(value("ckpt.load.calls"), traced[0].ops.count as f64);
                assert!(value("telemetry.events") > 0.0);
                assert!(value("json.render.bytes") > 0.0);
                assert_eq!(value("json.render.bytes"), value("json.parse.bytes"));
                assert_eq!(value("serve.steps"), 0.0);
            }
        }
    }
}

#[test]
fn train_digest_is_the_same_on_one_and_two_threads() {
    let one = train::pass(&pool(1), Size::Smoke, 9, false);
    let two = train::pass(&pool(2), Size::Smoke, 9, true);
    assert_eq!((one.failed, two.failed), (0, 0));
    assert_eq!(one.digest, two.digest);
    let other_seed = train::pass(&pool(2), Size::Smoke, 10, false);
    assert_ne!(
        one.digest, other_seed.digest,
        "the seed must reach the engines"
    );
}

/// Serves the newest checkpoint with one digit of its JSON text changed, the
/// first time any store built by the same factory is asked for it.
struct FlipOneByte {
    inner: Box<dyn CheckpointStore + Send>,
    armed: Arc<AtomicBool>,
}

impl CheckpointStore for FlipOneByte {
    fn save(&mut self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        self.inner.save(checkpoint)
    }

    fn load(&self, iteration: u64) -> Result<Checkpoint, CheckpointError> {
        self.inner.load(iteration)
    }

    fn latest(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        let Some(checkpoint) = self.inner.latest()? else {
            return Ok(None);
        };
        if !self.armed.swap(false, Ordering::SeqCst) {
            return Ok(Some(checkpoint));
        }
        let mut bytes = checkpoint.to_json()?.into_bytes();
        let at = (bytes.len() / 2..bytes.len())
            .find(|&i| bytes[i].is_ascii_digit())
            .expect("a checkpoint holds digits");
        bytes[at] = b'0' + (bytes[at] - b'0' + 1) % 10;
        let text = String::from_utf8(bytes).expect("still UTF-8");
        let corrupted = Checkpoint::from_json(&text)?;
        corrupted.verify()?;
        Ok(Some(corrupted))
    }

    fn iterations(&self) -> Vec<u64> {
        self.inner.iterations()
    }

    fn retain_last(&mut self, keep: usize) -> usize {
        self.inner.retain_last(keep)
    }
}

#[test]
fn one_flipped_checkpoint_byte_fails_exactly_one_recovery() {
    let armed = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&armed);
    let factory = move || -> Box<dyn CheckpointStore + Send> {
        Box::new(FlipOneByte {
            inner: ckpt::memory_store(),
            armed: Arc::clone(&flag),
        })
    };
    let pass = ckpt::pass(&pool(1), Size::Smoke, 5, false, &factory);
    assert!(!armed.load(Ordering::SeqCst), "the corruption was served");
    assert_eq!(pass.failed, 1);
    assert!(pass.failed as f64 / pass.attempted as f64 > 0.0);

    let clean = ckpt::pass(&pool(1), Size::Smoke, 5, false, &ckpt::memory_store);
    assert_eq!(clean.failed, 0);
}
