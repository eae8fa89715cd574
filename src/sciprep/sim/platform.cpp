#include "sciprep/sim/platform.hpp"

#include <algorithm>
#include <cmath>

#include "sciprep/sim/simgpu.hpp"

namespace sciprep::sim {

namespace {
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// Peak pageable-path bandwidth by link kind (GiB/s), from §IX.A: V100 node
/// measured 12.4 GB/s peak pinned but 4-8 GiB/s pageable for sample-sized
/// transfers; A100 node 24.7 peak, 6-8 pageable; Summit NVLink ~3x PCIe3.
struct H2dCurve {
  double floor_gibps;   // tiny transfers (latency bound)
  double plateau_gibps; // 4-64 MiB pageable transfers
  double peak_gibps;    // very large / pinned-like transfers
};

H2dCurve curve_for(HostLink link) {
  switch (link) {
    case HostLink::kPcie3:
      return {1.5, 6.0, 8.0};
    case HostLink::kPcie4:
      return {2.0, 7.0, 9.0};
    case HostLink::kNvlink:
      return {4.0, 18.0, 22.0};
  }
  return {1.0, 4.0, 6.0};
}
}  // namespace

double PlatformModel::h2d_bandwidth_gibps(std::size_t bytes) const {
  const H2dCurve c = curve_for(host_link);
  const double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
  if (mib <= 1.0) return c.floor_gibps;
  if (mib <= 4.0) {
    // Ramp from floor to plateau across 1-4 MiB.
    const double t = (mib - 1.0) / 3.0;
    return c.floor_gibps + t * (c.plateau_gibps - c.floor_gibps);
  }
  if (mib <= 64.0) return c.plateau_gibps;
  // Pageable copies amortize pinning overheads beyond 64 MiB.
  const double t = std::min(1.0, (mib - 64.0) / 192.0);
  return c.plateau_gibps + t * (c.peak_gibps - c.plateau_gibps);
}

double PlatformModel::transfer_seconds(Link link, std::size_t bytes) const {
  constexpr double kLatency = 20e-6;  // per-transfer software latency
  double gibps = 1.0;
  switch (link) {
    case Link::kPfsToNode:
      gibps = pfs_read_gibps;
      break;
    case Link::kNvmeToHost:
      gibps = nvme_read_gibps;
      break;
    case Link::kHostToDevice:
      gibps = h2d_bandwidth_gibps(bytes);
      break;
    case Link::kDeviceMemory:
      gibps = gpu.mem_bandwidth_tbps * 1000.0 / 1.073741824;  // TB/s -> GiB/s
      break;
  }
  return kLatency + static_cast<double>(bytes) / (gibps * kGiB);
}

double PlatformModel::gpu_kernel_seconds(const KernelStats& stats) const {
  const double memory = static_cast<double>(stats.bytes_total()) /
                        (gpu.mem_bandwidth_tbps * 1e12);
  const double lane_ops =
      static_cast<double>(stats.lockstep_ops + stats.divergent_branches) *
      Warp::kLanes;
  return std::max(memory, lane_ops / (gpu.fp32_tflops * 1e12));
}

double PlatformModel::scale_cpu_seconds(double host_seconds) const {
  return host_seconds / cpu_perf_factor;
}

PlatformModel summit() {
  PlatformModel p;
  p.name = "Summit";
  p.cpu_name = "IBM P9";
  p.cpu_freq_ghz = 3.1;
  p.host_memory_gb = 512;
  p.host_link = HostLink::kNvlink;
  p.gpu = {"V100", 80, 16, 0.9, 15.7, 120, 6};
  p.gpus_per_node = 6;
  p.nvme_capacity_tb = 1.0;  // Table I lists 1.0 TB for Summit's burst buffer
  p.nvme_read_gibps = 5.5;
  p.pfs_read_gibps = 0.8;  // effective per-node GPFS streaming for sample files
  p.h2d_share = 1;  // NVLink is per-GPU
  // §IX.A: "the ability of host processor to process the software stack ...
  // appears to be lower for Summit as compared with CoriGPU"; the 42 P9
  // cores per 6 GPUs partly compensate via more loader workers (benches set
  // cpu_workers_per_gpu accordingly).
  p.cpu_perf_factor = 0.85;
  return p;
}

PlatformModel cori_v100() {
  PlatformModel p;
  p.name = "Cori-V100";
  p.cpu_name = "Intel Xeon Gold 6148";
  p.cpu_freq_ghz = 2.4;
  p.host_memory_gb = 384;
  p.host_link = HostLink::kPcie3;
  p.gpu = {"V100", 80, 16, 0.9, 15.7, 120, 6};
  p.gpus_per_node = 8;
  p.nvme_capacity_tb = 1.6;
  p.nvme_read_gibps = 3.2;
  p.pfs_read_gibps = 0.5;  // effective per-node Lustre streaming for sample files
  p.cpu_perf_factor = 1.0;
  return p;
}

PlatformModel cori_a100() {
  PlatformModel p;
  p.name = "Cori-A100";
  p.cpu_name = "AMD EPYC 7742";
  p.cpu_freq_ghz = 2.25;
  p.host_memory_gb = 1056;
  p.host_link = HostLink::kPcie4;
  p.gpu = {"A100", 104, 40, 1.6, 19.5, 312, 40};
  p.gpus_per_node = 8;
  p.nvme_capacity_tb = 15.4;
  p.nvme_read_gibps = 24.3;
  p.pfs_read_gibps = 0.5;  // effective per-node Lustre streaming for sample files
  p.cpu_perf_factor = 1.1;
  return p;
}

std::vector<PlatformModel> all_platforms() {
  return {summit(), cori_v100(), cori_a100()};
}

}  // namespace sciprep::sim
