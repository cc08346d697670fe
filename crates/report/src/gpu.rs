//! The calibrated NVIDIA Tesla V100 GPU baseline (Sec. III / Fig. 1). The
//! process-on-base-die (PonB) baseline (Sec. VII-C1) is not a separate
//! model: it is any `MachineConfig` with `placement: Placement::BaseDie`,
//! identical to iPIM in every other respect.
//!
//! The GPU is *modeled*, not simulated: the paper's own profiling shows the
//! workloads are DRAM-bandwidth-bound on the V100 (57.55 % average DRAM
//! utilization at 518 GB/s, 3.43 % ALU utilization), so a roofline
//! parameterized with the per-benchmark utilizations reproduces exactly the
//! measured behaviour the paper compares against. iPIM itself is always
//! cycle-accurately simulated.

use ipim_core::Workload;

/// Fixed V100 hardware parameters (NVIDIA whitepaper / Sec. VII-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Peak HBM2 bandwidth in bytes/s (4 stacks).
    pub peak_bw: f64,
    /// Peak FP32 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Board power under these workloads in watts (measured via
    /// nvidia-smi in the paper; image kernels run well under TDP).
    pub power_w: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        Self { peak_bw: 900e9, peak_flops: 14e12, power_w: 250.0 }
    }
}

/// Per-benchmark utilization profile — the quantities the paper measures in
/// Fig. 1 with nvprof.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuProfile {
    /// Fraction of peak DRAM bandwidth achieved (Fig. 1(a)).
    pub dram_util: f64,
    /// ALU (FP32 + INT32) utilization (Fig. 1(a)).
    pub alu_util: f64,
    /// Share of ALU work that is index calculation (Fig. 1(b)).
    pub index_fraction: f64,
}

/// The Fig. 1 profile of one Table II benchmark.
///
/// Values are calibrated to the paper's reported aggregates: 57.55 % mean
/// DRAM utilization (58.80 % single-stage, 55.73 % multi-stage), 3.43 %
/// mean ALU utilization (2.85 % → 4.53 % single → multi), 58.71 % mean
/// index-calculation share with 5 benchmarks above 60 %, and Histogram
/// anomalously low on both axes (value-dependent atomics defeat the GPU
/// schedule).
pub fn gpu_profile(name: &str) -> GpuProfile {
    match name {
        "Brighten" => GpuProfile { dram_util: 0.68, alu_util: 0.018, index_fraction: 0.58 },
        "Blur" => GpuProfile { dram_util: 0.64, alu_util: 0.035, index_fraction: 0.66 },
        "Downsample" => GpuProfile { dram_util: 0.62, alu_util: 0.028, index_fraction: 0.55 },
        "Upsample" => GpuProfile { dram_util: 0.63, alu_util: 0.026, index_fraction: 0.52 },
        "Shift" => GpuProfile { dram_util: 0.68, alu_util: 0.015, index_fraction: 0.72 },
        "Histogram" => GpuProfile { dram_util: 0.12, alu_util: 0.012, index_fraction: 0.65 },
        "BilateralGrid" => GpuProfile { dram_util: 0.56, alu_util: 0.041, index_fraction: 0.63 },
        "Interpolate" => GpuProfile { dram_util: 0.58, alu_util: 0.043, index_fraction: 0.48 },
        "LocalLaplacian" => GpuProfile { dram_util: 0.57, alu_util: 0.052, index_fraction: 0.50 },
        "StencilChain" => GpuProfile { dram_util: 0.60, alu_util: 0.045, index_fraction: 0.61 },
        _ => GpuProfile { dram_util: 0.5755, alu_util: 0.0343, index_fraction: 0.5871 },
    }
}

/// Modeled GPU execution of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuResult {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Energy in joules.
    pub energy_j: f64,
    /// Achieved DRAM bandwidth in bytes/s.
    pub achieved_bw: f64,
    /// Throughput in output pixels per second.
    pub pixels_per_second: f64,
}

/// Runs the roofline model for `workload`.
///
/// Runtime is the max of the bandwidth time (effective DRAM traffic over
/// achieved bandwidth) and the compute time (FLOPs over utilized ALU
/// throughput) — for these kernels the bandwidth term dominates, exactly as
/// Fig. 1 shows.
pub fn run_gpu(model: &GpuModel, workload: &Workload) -> GpuResult {
    let profile = gpu_profile(workload.name);
    let bytes = workload.gpu_bytes_per_pixel * workload.output_pixels as f64;
    let achieved_bw = model.peak_bw * profile.dram_util;
    let t_mem = bytes / achieved_bw;
    // Index calculation inflates ALU work (Fig. 1(b)): algorithm FLOPs are
    // (1 - index_fraction) of total ALU ops.
    let alu_ops = workload.flops_per_pixel * workload.output_pixels as f64
        / (1.0 - profile.index_fraction).max(0.25);
    let t_alu = alu_ops / (model.peak_flops * profile.alu_util.max(1e-3));
    let seconds = t_mem.max(t_alu);
    GpuResult {
        seconds,
        energy_j: seconds * model.power_w,
        achieved_bw: bytes / seconds,
        pixels_per_second: workload.output_pixels as f64 / seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipim_core::{all_workloads, workload_by_name, WorkloadScale};

    #[test]
    fn aggregate_utilizations_match_fig1() {
        let names = [
            "Brighten",
            "Blur",
            "Downsample",
            "Upsample",
            "Shift",
            "Histogram",
            "BilateralGrid",
            "Interpolate",
            "LocalLaplacian",
            "StencilChain",
        ];
        let mean_dram: f64 =
            names.iter().map(|n| gpu_profile(n).dram_util).sum::<f64>() / names.len() as f64;
        let mean_alu: f64 =
            names.iter().map(|n| gpu_profile(n).alu_util).sum::<f64>() / names.len() as f64;
        let mean_idx: f64 =
            names.iter().map(|n| gpu_profile(n).index_fraction).sum::<f64>() / names.len() as f64;
        assert!((mean_dram - 0.5755).abs() < 0.02, "mean dram {mean_dram}");
        assert!((mean_alu - 0.0343).abs() < 0.008, "mean alu {mean_alu}");
        assert!((mean_idx - 0.5871).abs() < 0.03, "mean index {mean_idx}");
        let above_60 = names.iter().filter(|n| gpu_profile(n).index_fraction > 0.6).count();
        assert_eq!(above_60, 5, "five benchmarks dominated by index calc");
    }

    #[test]
    fn workloads_are_bandwidth_bound() {
        let model = GpuModel::default();
        for w in all_workloads(WorkloadScale::tiny()) {
            let profile = gpu_profile(w.name);
            let r = run_gpu(&model, &w);
            // Achieved bandwidth ≈ utilization × peak (memory-bound).
            let util = r.achieved_bw / model.peak_bw;
            assert!(
                (util - profile.dram_util).abs() < 0.05 || util < profile.dram_util,
                "{}: util {util} vs profile {}",
                w.name,
                profile.dram_util
            );
        }
    }

    #[test]
    fn histogram_is_anomalously_slow() {
        let model = GpuModel::default();
        let ws = all_workloads(WorkloadScale::tiny());
        let time = |n: &str| {
            run_gpu(&model, ws.iter().find(|w| w.name == n).unwrap()).seconds
                / ws.iter().find(|w| w.name == n).unwrap().output_pixels as f64
        };
        assert!(time("Histogram") > 4.0 * time("Brighten"));
    }

    #[test]
    fn runtime_scales_with_pixels() {
        let model = GpuModel::default();
        let small = run_gpu(&model, &workload_by_name("blur", WorkloadScale::tiny()).unwrap());
        let big = run_gpu(&model, &workload_by_name("blur", WorkloadScale::default()).unwrap());
        let ratio = big.seconds / small.seconds;
        assert!((ratio - 16.0).abs() < 0.5, "ratio {ratio}");
    }
}
