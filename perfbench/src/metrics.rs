//! Turning passes into the named end-to-end and per-layer metrics.

use std::collections::BTreeMap;

use crate::probe::{self_ns, Span};
use crate::Pass;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as BENCHMARK.json lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The passes whose timings count: all but the first (a warm-up that fills
/// caches and grows the heap) when there is more than one.
pub fn measured(passes: &[Pass]) -> &[Pass] {
    if passes.len() > 1 {
        &passes[1..]
    } else {
        passes
    }
}

/// End-to-end metrics of untraced passes.  Set-up is the median over every
/// pass; every other figure is the median over the measured passes of the
/// pass's own figure.  Host times are in calibrated reference time (see
/// [`crate::calib`]).
pub fn end_to_end(passes: &[Pass], peak_rss_mb: f64) -> Vec<Metric> {
    let timed = measured(passes);
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let wall: Vec<f64> = timed.iter().map(|p| p.wall_s).collect();
    let med = |f: fn(&Pass) -> f64| median(&timed.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("setup_s", median(&setup), "s"),
        metric("wall_s", median(&wall), "s"),
        metric("op_us.p50", med(|p| p.ops.p50_ns * 1e-3), "us"),
        metric("op_us.p90", med(|p| p.ops.p90_ns * 1e-3), "us"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("sim.speedup", med(|p| p.sim.speedup), "x"),
        metric("sim.slo_attainment", med(|p| p.sim.slo_attainment), "ratio"),
        metric("sim.train_kept_pct", med(|p| p.sim.train_kept_pct), "%"),
    ]
}

/// Per-layer figures of one traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Exact counts (calls, bytes, simulated ops, ...).
    pub counts: BTreeMap<&'static str, u64>,
    /// Host seconds per layer.
    pub seconds: BTreeMap<&'static str, f64>,
    /// Serving step durations, ns.
    pub step_ns: Vec<f64>,
}

impl Layers {
    /// Aggregate the spans and outside counts of one traced pass.
    pub fn of(pass: &Pass) -> Self {
        let mut layers = Layers {
            counts: pass.counts.clone(),
            ..Layers::default()
        };
        let own = self_ns(&pass.spans);
        for (span, &self_time) in pass.spans.iter().zip(&own) {
            layers.add(span, self_time);
        }
        layers
    }

    fn add(&mut self, span: &Span, self_time: u64) {
        let (layer, ns) = match span.name {
            "trainer.run" | "trainer.resume" => ("trainer", self_time),
            "serve.step" => {
                self.step_ns.push(span.ns() as f64);
                ("serve.step", span.ns())
            }
            name if name.starts_with("fleet.") => ("fleet.run", span.ns()),
            name => (name, span.ns()),
        };
        *self.counts.entry(layer).or_default() += 1;
        *self.seconds.entry(layer).or_default() += ns as f64 * 1e-9;
        if span.bytes > 0 {
            let key = match layer {
                "ckpt.save" => "ckpt.save.bytes",
                "ckpt.load" => "ckpt.load.bytes",
                "json.render" => "json.render.bytes",
                "json.parse" => "json.parse.bytes",
                _ => return,
            };
            *self.counts.entry(key).or_default() += span.bytes;
        }
    }

    fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    fn secs(&self, key: &str) -> f64 {
        self.seconds.get(key).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The counts that must repeat exactly between traced passes of one seed.
pub const EXACT_COUNTS: [&str; 6] = [
    "pipeline.simulate_calls",
    "pipeline.ops",
    "balancer",
    "dynamics",
    "serve.step",
    "fleet.ticks",
];

/// Per-layer metrics: counts from the last traced pass, times as medians
/// over the traced passes, tracing overhead against the untraced passes.
pub fn per_layer(untraced: &[Pass], traced: &[Pass], layers: &[Layers]) -> Vec<Metric> {
    let last = layers.last().cloned().unwrap_or_default();
    let med = |f: &dyn Fn(&Layers, &Pass) -> f64| -> f64 {
        let values: Vec<f64> = layers.iter().zip(traced).map(|(l, p)| f(l, p)).collect();
        median(&values)
    };
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_host_wall = median(&traced.iter().map(|p| p.host_wall_s).collect::<Vec<_>>());
    let untraced_wall = median(
        &measured(untraced)
            .iter()
            .map(|p| p.wall_s)
            .collect::<Vec<_>>(),
    );
    let threads = traced.last().map_or(1, |p| p.threads) as f64;
    let busy = |p: &Pass| p.ops.busy_ns * 1e-9;
    let c = |key: &str| last.count(key) as f64;
    let steps_ns = |l: &Layers, q: f64| quantile(&l.step_ns, q);
    vec![
        metric("trainer.calls", c("trainer"), "count"),
        metric("trainer.self_s", med(&|l, _| l.secs("trainer")), "s"),
        metric(
            "trainer.self_ns_per_op",
            med(&|l, _| ratio(l.secs("trainer") * 1e9, l.count("pipeline.ops") as f64)),
            "ns",
        ),
        metric(
            "pipeline.simulate_calls",
            c("pipeline.simulate_calls"),
            "count",
        ),
        metric("pipeline.ops", c("pipeline.ops"), "count"),
        metric("proc.sys_s", med(&|_, p| p.proc.sys_s), "s"),
        metric(
            "proc.minor_faults",
            med(&|_, p| p.proc.minor_faults as f64),
            "count",
        ),
        metric("balancer.calls", c("balancer"), "count"),
        metric("balancer.s", med(&|l, _| l.secs("balancer")), "s"),
        metric(
            "balancer.ns_per_call",
            med(&|l, _| ratio(l.secs("balancer") * 1e9, l.count("balancer") as f64)),
            "ns",
        ),
        metric("dynamics.calls", c("dynamics"), "count"),
        metric("dynamics.s", med(&|l, _| l.secs("dynamics")), "s"),
        metric("ckpt.save.calls", c("ckpt.save"), "count"),
        metric("ckpt.save.s", med(&|l, _| l.secs("ckpt.save")), "s"),
        metric("ckpt.save.bytes", c("ckpt.save.bytes"), "B"),
        metric("ckpt.load.calls", c("ckpt.load"), "count"),
        metric("ckpt.load.s", med(&|l, _| l.secs("ckpt.load")), "s"),
        metric("ckpt.load.bytes", c("ckpt.load.bytes"), "B"),
        metric("telemetry.events", c("telemetry.events"), "count"),
        metric("json.render.bytes", c("json.render.bytes"), "B"),
        metric(
            "json.render.ns_per_byte",
            med(&|l, _| {
                ratio(
                    l.secs("json.render") * 1e9,
                    l.count("json.render.bytes") as f64,
                )
            }),
            "ns/B",
        ),
        metric("json.parse.bytes", c("json.parse.bytes"), "B"),
        metric(
            "json.parse.ns_per_byte",
            med(&|l, _| {
                ratio(
                    l.secs("json.parse") * 1e9,
                    l.count("json.parse.bytes") as f64,
                )
            }),
            "ns/B",
        ),
        metric("serve.steps", c("serve.step"), "count"),
        metric("serve.step_s", med(&|l, _| l.secs("serve.step")), "s"),
        metric("serve.step_ns.p50", med(&|l, _| steps_ns(l, 0.5)), "ns"),
        metric("serve.step_ns.p99", med(&|l, _| steps_ns(l, 0.99)), "ns"),
        metric("serve.requests", c("serve.requests"), "count"),
        metric(
            "serve.steps_per_request",
            ratio(c("serve.step"), c("serve.requests")),
            "ratio",
        ),
        metric("fleet.runs", c("fleet.run"), "count"),
        metric("fleet.run_s", med(&|l, _| l.secs("fleet.run")), "s"),
        metric("fleet.ticks", c("fleet.ticks"), "count"),
        metric("fleet.actions", c("fleet.actions"), "count"),
        metric("pool.threads", threads, "count"),
        metric("pool.busy_s", med(&|_, p| busy(p)), "s"),
        metric(
            "pool.idle_share",
            med(&|_, p| 1.0 - ratio(busy(p), threads * p.wall_s)),
            "ratio",
        ),
        metric("trace.wall_s", traced_host_wall, "s"),
        metric(
            "host.calibration_us",
            median(
                &untraced
                    .iter()
                    .chain(traced)
                    .map(|p| p.calibration_ns * 1e-3)
                    .collect::<Vec<_>>(),
            ),
            "us",
        ),
        metric(
            "trace.overhead_share",
            ratio(traced_wall - untraced_wall, untraced_wall),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
