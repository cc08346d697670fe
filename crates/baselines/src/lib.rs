//! Baselines: the calibrated NVIDIA Tesla V100 GPU model (Sec. III /
//! Fig. 1). The process-on-base-die (PonB) baseline (Sec. VII-C1) is not
//! a separate model: it is any `MachineConfig` with
//! `placement: Placement::BaseDie`, identical to iPIM in every other
//! respect.
//!
//! The GPU is *modeled*, not simulated: the paper's own profiling shows the
//! workloads are DRAM-bandwidth-bound on the V100 (57.55 % average DRAM
//! utilization at 518 GB/s, 3.43 % ALU utilization), so a roofline
//! parameterized with the per-benchmark utilizations reproduces exactly the
//! measured behaviour the paper compares against. iPIM itself is always
//! cycle-accurately simulated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gpu;

pub use gpu::{gpu_profile, run_gpu, GpuModel, GpuProfile, GpuResult};
