//! Device and cluster descriptions.
//!
//! The paper's testbed: compute nodes with 2× AMD EPYC 9654 CPUs and 4×
//! NVIDIA H100 SXM5 80 GB GPUs, NVLink/NVSwitch within a node, 4× 200 Gbps
//! InfiniBand NDR200 across nodes.  Multi-node experiments use up to 720
//! GPUs (90 nodes) as 30-way data parallel × 24-way pipeline parallel, and
//! 128 GPUs (16 nodes) as 8-way data parallel × 16-way pipeline for MoE/MoD.
//!
//! The [`DeviceSpec`] converts FLOPs into seconds and the [`ClusterConfig`]
//! describes the parallel decomposition; both are consumed by the pipeline
//! simulator's cost model.

use serde::{Deserialize, Serialize};

/// Description of a single accelerator (worker) and its links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Sustained matrix-engine throughput in FLOP/s used to convert layer
    /// FLOPs into execution time.  This is deliberately a *sustained* (not
    /// peak) number so simulated times resemble measured ones.
    pub sustained_flops: f64,
    /// Device memory capacity in bytes.
    pub memory_capacity: u64,
    /// Intra-node (NVLink/NVSwitch) bandwidth in bytes/s.
    pub intra_node_bandwidth: f64,
    /// Inter-node (InfiniBand) bandwidth in bytes/s.
    pub inter_node_bandwidth: f64,
    /// Per-message link latency in seconds.
    pub link_latency: f64,
    /// Fixed per-kernel launch overhead in seconds, added to every layer
    /// invocation (prevents zero-cost layers when sparsity → 1).
    pub kernel_launch_overhead: f64,
}

impl DeviceSpec {
    /// An H100 SXM5 80 GB-like device: ~600 TFLOP/s sustained bf16 with
    /// 900 GB/s NVLink and 4×200 Gbps (≈100 GB/s) node-level InfiniBand.
    pub fn h100_sxm5() -> Self {
        DeviceSpec {
            sustained_flops: 6.0e14,
            memory_capacity: 80 * 1024 * 1024 * 1024,
            intra_node_bandwidth: 900.0e9,
            inter_node_bandwidth: 100.0e9,
            link_latency: 5.0e-6,
            kernel_launch_overhead: 8.0e-6,
        }
    }

    /// An A100 80 GB-like device (the paper's MoE panel mentions A100s for
    /// one configuration): ~300 TFLOP/s sustained bf16, 600 GB/s NVLink.
    pub fn a100_sxm4() -> Self {
        DeviceSpec {
            sustained_flops: 3.0e14,
            memory_capacity: 80 * 1024 * 1024 * 1024,
            intra_node_bandwidth: 600.0e9,
            inter_node_bandwidth: 100.0e9,
            link_latency: 5.0e-6,
            kernel_launch_overhead: 8.0e-6,
        }
    }

    /// A V100 SXM2 32 GB-like device, the oldest generation the
    /// heterogeneous presets mix in: ~120 TFLOP/s sustained fp16,
    /// 300 GB/s NVLink, 100 Gbps (≈12.5 GB/s) node-level InfiniBand.
    pub fn v100_sxm2() -> Self {
        DeviceSpec {
            sustained_flops: 1.2e14,
            memory_capacity: 32 * 1024 * 1024 * 1024,
            intra_node_bandwidth: 300.0e9,
            inter_node_bandwidth: 12.5e9,
            link_latency: 5.0e-6,
            kernel_launch_overhead: 10.0e-6,
        }
    }

    /// A deliberately tiny device useful in tests: makes memory-capacity
    /// constraints bite at small model sizes.
    pub fn test_device(memory_capacity: u64) -> Self {
        DeviceSpec {
            sustained_flops: 1.0e12,
            memory_capacity,
            intra_node_bandwidth: 50.0e9,
            inter_node_bandwidth: 10.0e9,
            link_latency: 1.0e-6,
            kernel_launch_overhead: 1.0e-6,
        }
    }

    /// Time in seconds to execute `flops` floating-point operations.
    pub fn compute_time(&self, flops: f64) -> f64 {
        if flops <= 0.0 {
            return 0.0;
        }
        self.kernel_launch_overhead + flops / self.sustained_flops
    }

    /// Time in seconds to move `bytes` over a link of the given kind.
    pub fn transfer_time(&self, bytes: f64, intra_node: bool) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let bandwidth = if intra_node {
            self.intra_node_bandwidth
        } else {
            self.inter_node_bandwidth
        };
        self.link_latency + bytes / bandwidth
    }
}

/// The parallel decomposition of a training job across a cluster.
///
/// Homogeneous clusters carry one [`DeviceSpec`] shared by every worker
/// (`devices: None` — the historical fast path, bit-identical to the
/// pre-heterogeneity behavior).  Mixed-generation clusters additionally
/// carry one spec per *pipeline stage* in `devices`; every consumer that
/// asks per-stage questions goes through [`ClusterConfig::device_of`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of GPUs per node (4 in the paper's H100 system, 8 for the
    /// re-packing experiments of Figure 4).
    pub gpus_per_node: usize,
    /// Pipeline-parallel degree (number of pipeline stages).
    pub pipeline_stages: usize,
    /// Data-parallel degree (number of pipeline replicas).
    pub data_parallel: usize,
    /// Reference device: the spec shared by all workers on a homogeneous
    /// cluster, and the normalization baseline (speed 1.0) when `devices`
    /// is present.
    pub device: DeviceSpec,
    /// Per-pipeline-stage device specs for mixed-generation clusters
    /// (`None` = homogeneous; every stage runs `device`).
    pub devices: Option<Vec<DeviceSpec>>,
    /// Model inter-node links as one shared NIC per direction instead of
    /// independent α–β edges: concurrent pipeline streams divide the
    /// bandwidth (see [`ClusterConfig::inter_contention_factor`]).
    pub shared_link_contention: bool,
}

impl ClusterConfig {
    /// A homogeneous cluster: every worker is `device`.
    pub fn homogeneous(
        gpus_per_node: usize,
        pipeline_stages: usize,
        data_parallel: usize,
        device: DeviceSpec,
    ) -> Self {
        ClusterConfig {
            gpus_per_node,
            pipeline_stages,
            data_parallel,
            device,
            devices: None,
            shared_link_contention: false,
        }
    }

    /// The paper's large multi-node setting: 720 H100s as 30-way data
    /// parallel × 24-way pipeline parallel (90 nodes × 8 slots equivalent).
    pub fn paper_720_h100() -> Self {
        Self::homogeneous(8, 24, 30, DeviceSpec::h100_sxm5())
    }

    /// The paper's MoE/MoD setting: 128 H100s as 8-way data parallel ×
    /// 16-way pipeline parallel (16 nodes with 4× H100 each → re-grouped).
    pub fn paper_128_h100() -> Self {
        Self::homogeneous(8, 16, 8, DeviceSpec::h100_sxm5())
    }

    /// A single node with `gpus` GPUs, all used as pipeline stages (the
    /// paper's single-node and re-packing experiments start from 8).
    pub fn single_node(gpus: usize) -> Self {
        Self::homogeneous(gpus, gpus, 1, DeviceSpec::h100_sxm5())
    }

    /// A two-generation cluster: the first half of the pipeline runs H100s,
    /// the second half A100s (upgrade-in-progress fleets look like this).
    pub fn hetero_two_gen(
        gpus_per_node: usize,
        pipeline_stages: usize,
        data_parallel: usize,
    ) -> Self {
        let devices: Vec<DeviceSpec> = (0..pipeline_stages)
            .map(|s| {
                if s < pipeline_stages / 2 {
                    DeviceSpec::h100_sxm5()
                } else {
                    DeviceSpec::a100_sxm4()
                }
            })
            .collect();
        Self::homogeneous(
            gpus_per_node,
            pipeline_stages,
            data_parallel,
            DeviceSpec::h100_sxm5(),
        )
        .with_devices(devices)
    }

    /// A three-generation cluster: thirds of the pipeline on H100, A100 and
    /// V100 respectively (oldest generation last, where the paper's dynamism
    /// already concentrates load).
    pub fn hetero_three_gen(
        gpus_per_node: usize,
        pipeline_stages: usize,
        data_parallel: usize,
    ) -> Self {
        let devices: Vec<DeviceSpec> = (0..pipeline_stages)
            .map(|s| match 3 * s / pipeline_stages.max(1) {
                0 => DeviceSpec::h100_sxm5(),
                1 => DeviceSpec::a100_sxm4(),
                _ => DeviceSpec::v100_sxm2(),
            })
            .collect();
        Self::homogeneous(
            gpus_per_node,
            pipeline_stages,
            data_parallel,
            DeviceSpec::h100_sxm5(),
        )
        .with_devices(devices)
    }

    /// Attach per-stage device specs (panics unless one spec per stage).
    pub fn with_devices(mut self, devices: Vec<DeviceSpec>) -> Self {
        assert_eq!(
            devices.len(),
            self.pipeline_stages,
            "need exactly one DeviceSpec per pipeline stage"
        );
        self.devices = Some(devices);
        self
    }

    /// Enable the shared-NIC contention model on inter-node links.
    pub fn with_shared_link_contention(mut self, on: bool) -> Self {
        self.shared_link_contention = on;
        self
    }

    /// The device backing pipeline stage `stage`.
    pub fn device_of(&self, stage: usize) -> &DeviceSpec {
        match &self.devices {
            Some(devices) => &devices[stage.min(devices.len().saturating_sub(1))],
            None => &self.device,
        }
    }

    /// Whether any stage differs from the reference device.
    pub fn is_heterogeneous(&self) -> bool {
        match &self.devices {
            Some(devices) => devices.iter().any(|d| d != &self.device),
            None => false,
        }
    }

    /// Per-stage effective speeds relative to the reference device, one per
    /// pipeline stage.  A uniform cluster gets exactly 1.0 everywhere, and
    /// every consumer's speed arithmetic (`x / 1.0`, `x * 1.0`) is exact
    /// there, so it needs no separate homogeneous path.
    pub fn stage_speeds(&self) -> Vec<f64> {
        (0..self.pipeline_stages)
            .map(|s| self.device_of(s).sustained_flops / self.device.sustained_flops)
            .collect()
    }

    /// Per-stage memory capacities in bytes, one per pipeline stage (the
    /// reference device's capacity everywhere on a uniform cluster).
    pub fn stage_capacities(&self) -> Vec<u64> {
        (0..self.pipeline_stages)
            .map(|s| self.device_of(s).memory_capacity)
            .collect()
    }

    /// How many concurrent streams share an inter-node NIC when
    /// `shared_link_contention` is on: forward activations and backward
    /// gradients always overlap (2), plus the data-parallel allreduce
    /// stream when there are replicas.
    pub fn inter_contention_factor(&self) -> f64 {
        if !self.shared_link_contention {
            return 1.0;
        }
        let mut streams = 2.0;
        if self.data_parallel > 1 {
            streams += 1.0;
        }
        streams
    }

    /// Total number of GPUs in the job.
    pub fn total_gpus(&self) -> usize {
        self.pipeline_stages * self.data_parallel
    }

    /// Whether two pipeline stages are on the same node, assuming stages are
    /// laid out consecutively across nodes (Megatron-style placement).
    pub fn same_node(&self, stage_a: usize, stage_b: usize) -> bool {
        stage_a / self.gpus_per_node == stage_b / self.gpus_per_node
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.gpus_per_node == 0 {
            return Err("gpus_per_node must be positive".into());
        }
        if self.pipeline_stages == 0 {
            return Err("pipeline_stages must be positive".into());
        }
        if self.data_parallel == 0 {
            return Err("data_parallel must be positive".into());
        }
        if let Some(devices) = &self.devices {
            if devices.len() != self.pipeline_stages {
                return Err(format!(
                    "devices has {} specs for {} pipeline stages",
                    devices.len(),
                    self.pipeline_stages
                ));
            }
            if devices
                .iter()
                .any(|d| d.sustained_flops <= 0.0 || d.memory_capacity == 0)
            {
                return Err("every device needs positive flops and memory".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h100_spec_is_plausible() {
        let d = DeviceSpec::h100_sxm5();
        assert!(d.sustained_flops > 1.0e14);
        assert_eq!(d.memory_capacity, 80 * 1024 * 1024 * 1024);
        assert!(d.intra_node_bandwidth > d.inter_node_bandwidth);
    }

    #[test]
    fn compute_time_scales_linearly_with_flops() {
        let d = DeviceSpec::h100_sxm5();
        let t1 = d.compute_time(1.0e12);
        let t2 = d.compute_time(2.0e12);
        // Subtract the fixed launch overhead before comparing ratios.
        let o = d.kernel_launch_overhead;
        assert!(((t2 - o) / (t1 - o) - 2.0).abs() < 1e-9);
        assert_eq!(d.compute_time(0.0), 0.0);
        assert_eq!(d.compute_time(-5.0), 0.0);
    }

    #[test]
    fn transfer_time_prefers_intra_node_links() {
        let d = DeviceSpec::h100_sxm5();
        let bytes = 1.0e9;
        assert!(d.transfer_time(bytes, true) < d.transfer_time(bytes, false));
        assert_eq!(d.transfer_time(0.0, true), 0.0);
    }

    #[test]
    fn paper_cluster_shapes_match_the_evaluation_section() {
        let big = ClusterConfig::paper_720_h100();
        assert_eq!(big.total_gpus(), 720);
        assert_eq!(big.pipeline_stages, 24);
        assert_eq!(big.data_parallel, 30);
        big.validate().unwrap();

        let moe = ClusterConfig::paper_128_h100();
        assert_eq!(moe.total_gpus(), 128);
        assert_eq!(moe.pipeline_stages, 16);
        assert_eq!(moe.data_parallel, 8);
        moe.validate().unwrap();
    }

    #[test]
    fn single_node_uses_all_gpus_as_stages() {
        let c = ClusterConfig::single_node(8);
        assert_eq!(c.total_gpus(), 8);
        assert_eq!(c.pipeline_stages, 8);
        assert_eq!(c.data_parallel, 1);
    }

    #[test]
    fn same_node_follows_consecutive_layout() {
        let c = ClusterConfig::homogeneous(4, 8, 1, DeviceSpec::h100_sxm5());
        assert!(c.same_node(0, 3));
        assert!(!c.same_node(3, 4));
        assert!(c.same_node(4, 7));
    }

    #[test]
    fn homogeneous_cluster_reports_no_heterogeneity() {
        let c = ClusterConfig::single_node(8);
        assert!(!c.is_heterogeneous());
        assert_eq!(c.stage_speeds(), vec![1.0; 8]);
        assert_eq!(c.stage_capacities(), vec![c.device.memory_capacity; 8]);
        assert_eq!(c.device_of(3), &c.device);
        assert_eq!(c.inter_contention_factor(), 1.0);
    }

    #[test]
    fn two_generation_cluster_splits_the_pipeline_in_half() {
        let c = ClusterConfig::hetero_two_gen(4, 8, 1);
        c.validate().unwrap();
        assert!(c.is_heterogeneous());
        assert_eq!(c.device_of(0), &DeviceSpec::h100_sxm5());
        assert_eq!(c.device_of(3), &DeviceSpec::h100_sxm5());
        assert_eq!(c.device_of(4), &DeviceSpec::a100_sxm4());
        assert_eq!(c.device_of(7), &DeviceSpec::a100_sxm4());
        let speeds = c.stage_speeds();
        assert_eq!(speeds[0], 1.0);
        assert!((speeds[7] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn three_generation_cluster_covers_all_generations() {
        let c = ClusterConfig::hetero_three_gen(4, 12, 1);
        c.validate().unwrap();
        assert_eq!(c.device_of(0), &DeviceSpec::h100_sxm5());
        assert_eq!(c.device_of(5), &DeviceSpec::a100_sxm4());
        assert_eq!(c.device_of(11), &DeviceSpec::v100_sxm2());
        // The oldest generation bounds the memory floor.
        assert_eq!(
            c.stage_capacities().into_iter().min(),
            Some(DeviceSpec::v100_sxm2().memory_capacity)
        );
        let speeds = c.stage_speeds();
        assert!(speeds[11] < speeds[5] && speeds[5] < speeds[0]);
    }

    #[test]
    fn all_equal_devices_count_as_heterogeneous_never() {
        let c = ClusterConfig::single_node(4).with_devices(vec![DeviceSpec::h100_sxm5(); 4]);
        assert!(!c.is_heterogeneous());
        // And the per-stage views match an implicit uniform cluster's.
        assert_eq!(c.stage_speeds(), vec![1.0; 4]);
        assert_eq!(
            c.stage_capacities(),
            ClusterConfig::single_node(4).stage_capacities()
        );
    }

    #[test]
    fn shared_link_contention_adds_streams() {
        let pipe_only = ClusterConfig::single_node(4).with_shared_link_contention(true);
        assert_eq!(pipe_only.inter_contention_factor(), 2.0);
        let with_dp = ClusterConfig::homogeneous(4, 4, 2, DeviceSpec::h100_sxm5())
            .with_shared_link_contention(true);
        assert_eq!(with_dp.inter_contention_factor(), 3.0);
    }

    #[test]
    fn validation_rejects_wrong_device_count() {
        let mut c = ClusterConfig::hetero_two_gen(4, 8, 1);
        c.devices.as_mut().unwrap().pop();
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_degrees() {
        let mut c = ClusterConfig::single_node(4);
        c.data_parallel = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::single_node(4);
        c.pipeline_stages = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::single_node(4);
        c.gpus_per_node = 0;
        assert!(c.validate().is_err());
    }
}
