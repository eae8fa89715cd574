// Per-step time composition for the throughput figures (Figs 8, 10, 11) and
// the breakdown figures (Figs 9, 12).
//
// A training step is a three-stage pipeline that overlaps across batches:
//   IO stage     — read the sample's bytes-at-rest from wherever the dataset
//                  resides (DRAM / NVMe / PFS, shared across the node's GPUs),
//   host stage   — CPU-side work (baseline preprocessing, gunzip, or CPU
//                  plugin decode), fanned across the worker threads feeding
//                  each GPU,
//   device stage — H2D transfer (pageable-bandwidth curve) + on-GPU decode
//                  (for the GPU plugin) + model compute + gradient allreduce.
// Steady-state per-sample time is the maximum of the three stages; the
// breakdown records each component so the Fig 9/12 stacked profiles fall out
// of the same model.
//
// Host work is *measured* on the build host (see apps/measure) and rescaled
// by the platform's CPU factor. GPU decode is charged from the per-sample
// SimGpu counts by PlatformModel::gpu_kernel_seconds, so it is exact and the
// same on every host. Transfers and residency come from Table I. See
// DESIGN.md §5.
#pragma once

#include <algorithm>

#include "sciprep/sim/memhier.hpp"
#include "sciprep/sim/platform.hpp"
#include "sciprep/sim/simgpu.hpp"

namespace sciprep::sim {

/// Per-sample workload characterization (measured on the build host).
struct WorkloadProfile {
  std::uint64_t bytes_at_rest = 0;     // stored size per sample
  std::uint64_t bytes_to_device = 0;   // H2D payload per sample
  double host_seconds = 0;             // CPU work per sample on the build host
  KernelStats gpu_decode_stats;        // SimGpu counts per sample (0 = no GPU decode)
  double model_train_flops = 0;        // fwd+bwd FLOPs per sample
  /// Achieved fraction of the GPU's effective mixed-precision throughput
  /// (the geometric mean of its FP32 and tensor-core peaks — small-batch
  /// mixed-precision training lands between the two, and the resulting
  /// A100/V100 ratio ~1.8x matches the paper's observed "up to 2.2x").
  double model_flop_efficiency = 0.22;
};

struct StepScenario {
  PlatformModel platform;
  std::uint64_t samples_per_node = 0;
  bool staged = false;
  int batch_size = 4;            // per GPU
  int cpu_workers_per_gpu = 4;   // decode threads feeding each GPU
  double allreduce_base_seconds = 8e-3;  // per step, uncontended
  /// Per-batch framework/device launch overhead (kernel launches, Python
  /// dispatch). Benches set this per platform; §IX.A observes a much larger
  /// per-step overhead for the PyTorch stack on Summit's ppc64le.
  double device_overhead_per_batch_seconds = 4e-3;
};

struct StepBreakdown {
  Residency residency = Residency::kHostMem;
  // All values are seconds per *sample* (per-GPU stream).
  double io_read = 0;
  double host_work = 0;
  double h2d = 0;
  double gpu_decode = 0;
  double gpu_compute = 0;
  double allreduce = 0;

  [[nodiscard]] double device_stage() const {
    return h2d + gpu_decode + gpu_compute + allreduce;
  }
  /// Steady-state per-sample seconds under pipelining.
  [[nodiscard]] double step_seconds() const {
    return std::max({io_read, host_work, device_stage()});
  }
};

/// Compose the per-sample step time for one (platform, dataset, workload).
StepBreakdown model_step(const StepScenario& scenario,
                         const WorkloadProfile& workload);

/// Node throughput (samples/s) implied by a breakdown.
double node_samples_per_second(const StepScenario& scenario,
                               const StepBreakdown& breakdown);

}  // namespace sciprep::sim
