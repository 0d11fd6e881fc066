//! Experiment scales: paper-faithful, default (compressed), and smoke.

use dynmo_dynamics::{FreezingPolicy, PruningSchedule};
use dynmo_model::ClusterConfig;
use serde::{Deserialize, Serialize};

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// Seconds-long sanity run (CI / criterion benches).
    Smoke,
    /// The default: paper cluster shapes, schedules compressed into a few
    /// hundred iterations.
    Default,
    /// The paper's full 10,000-iteration schedules.
    Paper,
}

impl ExperimentScale {
    /// Parse from a CLI argument (`smoke` / `default` / `paper`).
    pub fn parse(arg: &str) -> Option<Self> {
        match arg.to_ascii_lowercase().as_str() {
            "smoke" => Some(ExperimentScale::Smoke),
            "default" => Some(ExperimentScale::Default),
            "paper" => Some(ExperimentScale::Paper),
            _ => None,
        }
    }

    /// Read the scale from a binary's CLI arguments (`--scale X`).  Without
    /// a `--scale` flag this is [`ExperimentScale::Default`]; an unknown
    /// value is an error rather than a silent fall-back to the (slow)
    /// default grid.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        match args.iter().position(|arg| arg == "--scale") {
            None => Ok(ExperimentScale::Default),
            Some(i) => {
                let value = args.get(i + 1).map_or("", String::as_str);
                Self::parse(value).ok_or_else(|| {
                    format!("unknown --scale value {value:?}; expected smoke|default|paper")
                })
            }
        }
    }

    /// Read the scale straight from the process arguments (`--scale X` in
    /// `std::env::args`) — the one shared entry point every figure binary
    /// uses instead of collecting the arguments itself.  Prints the error
    /// and exits with status 2 on an unknown scale.
    pub fn from_process_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_args(&args).unwrap_or_else(|error| {
            eprintln!("error: {error}");
            std::process::exit(2)
        })
    }

    /// Number of training iterations simulated per configuration.
    pub fn iterations(&self) -> u64 {
        match self {
            ExperimentScale::Smoke => 60,
            ExperimentScale::Default => 400,
            ExperimentScale::Paper => 10_000,
        }
    }

    /// The pipeline-parallel degree used for the non-MoE GPT experiments
    /// (the paper's 24-way pipeline on 720 GPUs).
    pub fn gpt_cluster(&self) -> ClusterConfig {
        match self {
            ExperimentScale::Smoke => ClusterConfig {
                pipeline_stages: 4,
                data_parallel: 1,
                ..ClusterConfig::paper_720_h100()
            },
            ExperimentScale::Default => ClusterConfig {
                pipeline_stages: 12,
                data_parallel: 4,
                ..ClusterConfig::paper_720_h100()
            },
            ExperimentScale::Paper => ClusterConfig::paper_720_h100(),
        }
    }

    /// The pipeline-parallel degree used for the MoE/MoD experiments
    /// (the paper's 16-way pipeline on 128 GPUs).
    pub fn moe_cluster(&self) -> ClusterConfig {
        match self {
            ExperimentScale::Smoke => ClusterConfig {
                pipeline_stages: 4,
                data_parallel: 1,
                ..ClusterConfig::paper_128_h100()
            },
            ExperimentScale::Default => ClusterConfig {
                pipeline_stages: 8,
                data_parallel: 2,
                ..ClusterConfig::paper_128_h100()
            },
            ExperimentScale::Paper => ClusterConfig::paper_128_h100(),
        }
    }

    /// Schedules for dynamism mechanisms whose behaviour is tied to the
    /// iteration count, compressed proportionally to the chosen scale.
    pub fn schedules(&self) -> ScaledSchedules {
        let iterations = self.iterations();
        ScaledSchedules {
            pruning: PruningSchedule {
                initial_sparsity: 0.0,
                final_sparsity: 0.9,
                start_iteration: (iterations as f64 * 0.3) as u64,
                frequency: ((iterations as f64 * 0.1) as u64).max(1),
                num_steps: 4,
            },
            freezing: FreezingPolicy {
                check_interval: (iterations / 20).max(1),
                first_freeze_iteration: (iterations as f64 * 0.1) as u64,
                stagger_per_layer: ((iterations as f64 * 0.6 / 48.0) as u64).max(1),
                never_freeze_fraction: 0.25,
                jitter: 0.15,
            },
        }
    }
}

/// Iteration-scaled dynamism schedules for the mechanisms that need them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaledSchedules {
    /// Gradual-pruning schedule (Zhu–Gupta cubic), compressed to the scale.
    pub pruning: PruningSchedule,
    /// Layer-freezing policy, compressed to the scale.
    pub freezing: FreezingPolicy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_from_args() {
        assert_eq!(
            ExperimentScale::parse("paper"),
            Some(ExperimentScale::Paper)
        );
        assert_eq!(
            ExperimentScale::parse("SMOKE"),
            Some(ExperimentScale::Smoke)
        );
        assert_eq!(ExperimentScale::parse("bogus"), None);
        let args = vec!["--scale".to_string(), "smoke".to_string()];
        assert_eq!(
            ExperimentScale::from_args(&args),
            Ok(ExperimentScale::Smoke)
        );
        assert_eq!(
            ExperimentScale::from_args(&["--other".to_string()]),
            Ok(ExperimentScale::Default)
        );
        for bad in [&["--scale", "smok"][..], &["--scale"][..]] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let error = ExperimentScale::from_args(&args).unwrap_err();
            assert!(error.contains("smoke|default|paper"), "{error}");
        }
    }

    #[test]
    fn paper_scale_matches_the_evaluation_setup() {
        let scale = ExperimentScale::Paper;
        assert_eq!(scale.iterations(), 10_000);
        assert_eq!(scale.gpt_cluster().total_gpus(), 720);
        assert_eq!(scale.moe_cluster().total_gpus(), 128);
        let schedules = scale.schedules();
        assert_eq!(schedules.pruning.start_iteration, 3_000);
        assert_eq!(schedules.pruning.frequency, 1_000);
        assert!((schedules.pruning.final_sparsity - 0.9).abs() < 1e-12);
    }

    #[test]
    fn smaller_scales_compress_but_preserve_structure() {
        for scale in [ExperimentScale::Smoke, ExperimentScale::Default] {
            let iters = scale.iterations();
            let schedules = scale.schedules();
            assert!(schedules.pruning.start_iteration < iters);
            assert!(
                schedules.pruning.start_iteration
                    + schedules.pruning.num_steps * schedules.pruning.frequency
                    <= iters + schedules.pruning.frequency
            );
            assert!(schedules.freezing.first_freeze_iteration < iters);
            assert!(scale.gpt_cluster().validate().is_ok());
            assert!(scale.moe_cluster().validate().is_ok());
        }
    }
}
