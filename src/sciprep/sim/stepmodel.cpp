#include "sciprep/sim/stepmodel.hpp"

#include <algorithm>
#include <cmath>

#include "sciprep/common/error.hpp"

namespace sciprep::sim {

StepBreakdown model_step(const StepScenario& scenario,
                         const WorkloadProfile& workload) {
  SCIPREP_ASSERT(scenario.batch_size >= 1);
  SCIPREP_ASSERT(scenario.cpu_workers_per_gpu >= 1);
  const PlatformModel& plat = scenario.platform;

  StepBreakdown b;

  // --- IO stage: where does the dataset live in steady state? -------------
  DatasetSpec dataset;
  dataset.bytes_per_sample = workload.bytes_at_rest;
  dataset.samples_per_node = scenario.samples_per_node;
  dataset.staged = scenario.staged;
  b.residency = steady_residency(plat, dataset);
  b.io_read = sample_read_seconds(plat, b.residency, workload.bytes_at_rest,
                                  plat.gpus_per_node);

  // --- Host stage: CPU work fanned across the GPU's worker threads. -------
  b.host_work = plat.scale_cpu_seconds(workload.host_seconds) /
                static_cast<double>(scenario.cpu_workers_per_gpu);

  // --- Device stage --------------------------------------------------------
  // H2D moves the whole batch in one pageable copy; larger batches ride the
  // bandwidth curve (Figure 8's "performance generally improves with batch
  // size" for the baseline). GPUs on the same PCIe switch share the link.
  const std::uint64_t batch_bytes =
      workload.bytes_to_device * static_cast<std::uint64_t>(scenario.batch_size);
  b.h2d = plat.transfer_seconds(Link::kHostToDevice, batch_bytes) *
          plat.h2d_share / static_cast<double>(scenario.batch_size);

  b.gpu_decode = plat.gpu_kernel_seconds(workload.gpu_decode_stats);

  // Effective mixed-precision throughput: geometric mean of FP32 and
  // tensor-core peaks (see WorkloadProfile::model_flop_efficiency).
  const double peak_flops =
      std::sqrt(plat.gpu.fp32_tflops * plat.gpu.tensorcore_tflops) * 1e12;
  b.gpu_compute = workload.model_train_flops /
                      (peak_flops * workload.model_flop_efficiency) +
                  scenario.device_overhead_per_batch_seconds /
                      static_cast<double>(scenario.batch_size);

  // Allreduce: a per-step synchronization whose effective cost grows when the
  // host is saturated (Fig 9: the plugin "reduc[es] the fluctuations captured
  // during the model synchronization allreduce"). Contention multiplies the
  // base cost by how much the host stage overruns the device stage.
  const double device_core = b.h2d + b.gpu_decode + b.gpu_compute;
  const double contention =
      device_core > 0 ? std::min(2.0, std::max(0.0, b.host_work / device_core - 1.0))
                      : 0.0;
  b.allreduce = scenario.allreduce_base_seconds * (1.0 + contention) /
                static_cast<double>(scenario.batch_size);
  return b;
}

double node_samples_per_second(const StepScenario& scenario,
                               const StepBreakdown& breakdown) {
  const double per_sample = breakdown.step_seconds();
  SCIPREP_ASSERT(per_sample > 0);
  return scenario.platform.gpus_per_node / per_sample;
}

}  // namespace sciprep::sim
