// Platform models for the three evaluation systems (paper Table I).
//
// The paper's speedups are governed by where bytes sit and which link they
// must cross. Each PlatformModel carries the Table I hardware parameters plus
// the measured pageable-PCIe bandwidth curve quoted in §IX.A, and converts
// (bytes, link) into seconds. A GPU kernel is charged from its SimGpu counts
// by a roofline over Table I; CPU preprocessing times measured live on the
// build host are rescaled by the platform's relative CPU factor, so benches
// reproduce cross-platform *shape* rather than absolute testbed numbers (see
// DESIGN.md §2, §5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sciprep::sim {

struct KernelStats;  // simgpu.hpp

/// Which link a transfer crosses (Figure 1's numbered hops).
enum class Link {
  kPfsToNode,    // parallel file system -> node (unstaged streaming)
  kNvmeToHost,   // node-local NVMe -> host DRAM (staged)
  kHostToDevice, // PCIe or NVLink host -> GPU
  kDeviceMemory, // GPU HBM (on-device)
};

/// Host <-> device interconnect kind.
enum class HostLink { kPcie3, kPcie4, kNvlink };

struct GpuSpec {
  std::string name;              // "V100" / "A100"
  int sm_count = 80;
  double mem_capacity_gb = 16;
  double mem_bandwidth_tbps = 0.9;   // HBM TB/s
  double fp32_tflops = 15.7;
  double tensorcore_tflops = 120;
  double l2_cache_mb = 6;
};

/// One node of an evaluated system (Table I column).
struct PlatformModel {
  std::string name;
  std::string cpu_name;
  double cpu_freq_ghz = 2.4;
  double host_memory_gb = 384;
  HostLink host_link = HostLink::kPcie3;
  GpuSpec gpu;
  int gpus_per_node = 8;
  double nvme_capacity_tb = 1.6;
  double nvme_read_gibps = 3.2;   // shared across the node's GPUs
  double pfs_read_gibps = 2.0;    // shared filesystem streaming bandwidth
  /// GPUs sharing one host-link (PCIe switch) — concurrent feeding divides
  /// the pageable bandwidth (§II: "Feeding four GPUs concurrently makes the
  /// cost for moving a byte across the PCIe bus 224x"). NVLink links are
  /// per-GPU (share 1).
  int h2d_share = 4;
  /// Relative host-CPU throughput for preprocessing work (build host = 1.0
  /// reference; Summit's P9 runs the Python-era stack slower per §IX.A).
  double cpu_perf_factor = 1.0;

  /// Effective host->device bandwidth in GiB/s for a transfer of `bytes`
  /// using pageable memory (deep-learning frameworks use pageable buffers,
  /// §IX.A footnote). Reproduces the measured 4-8 GiB/s (V100 node) and
  /// 6-8 GiB/s (A100 node) plateau for 4-64 MiB transfers, and NVLink's ~3x
  /// PCIe3 bandwidth on Summit.
  [[nodiscard]] double h2d_bandwidth_gibps(std::size_t bytes) const;

  /// Seconds to move `bytes` across `link` (single stream; callers divide
  /// shared-link bandwidth across concurrent GPUs where applicable).
  [[nodiscard]] double transfer_seconds(Link link, std::size_t bytes) const;

  /// Seconds this GPU spends on a kernel with `stats`' counts: a roofline,
  /// the larger of the bytes moved at HBM bandwidth and the lane ops at
  /// FP32 throughput. Each divergent branch serializes one more lockstep op
  /// of 32 lanes. `stats.wall_seconds` is ignored.
  [[nodiscard]] double gpu_kernel_seconds(const KernelStats& stats) const;

  /// Scale a CPU duration measured on the build host to this platform.
  [[nodiscard]] double scale_cpu_seconds(double host_seconds) const;
};

/// Table I presets.
PlatformModel summit();
PlatformModel cori_v100();
PlatformModel cori_a100();
std::vector<PlatformModel> all_platforms();

}  // namespace sciprep::sim
