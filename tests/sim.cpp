// Tests for the platform / memory-hierarchy / SimGpu substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "sciprep/common/error.hpp"
#include "sciprep/sim/memhier.hpp"
#include "sciprep/sim/platform.hpp"
#include "sciprep/sim/simgpu.hpp"

namespace sciprep::sim {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr std::uint64_t kGiB = 1024ull * kMiB;

TEST(Platform, TableOneValues) {
  const PlatformModel s = summit();
  EXPECT_EQ(s.gpus_per_node, 6);
  EXPECT_EQ(s.gpu.name, "V100");
  EXPECT_DOUBLE_EQ(s.gpu.fp32_tflops, 15.7);
  EXPECT_EQ(s.host_link, HostLink::kNvlink);

  const PlatformModel v = cori_v100();
  EXPECT_EQ(v.gpus_per_node, 8);
  EXPECT_DOUBLE_EQ(v.nvme_read_gibps, 3.2);
  EXPECT_EQ(v.host_link, HostLink::kPcie3);

  const PlatformModel a = cori_a100();
  EXPECT_EQ(a.gpu.name, "A100");
  EXPECT_EQ(a.gpu.sm_count, 104);
  EXPECT_DOUBLE_EQ(a.gpu.mem_bandwidth_tbps, 1.6);
  EXPECT_DOUBLE_EQ(a.host_memory_gb, 1056);
  EXPECT_EQ(all_platforms().size(), 3u);
}

// §IX.A: "For the range of transfer sizes of 4 to 64 MB ... the bandwidth
// range is 4-8 GB/s for the V100 node and 6-8 GB/s for the A100 node.
// Effectively, both nodes have close bandwidths" — the A100's PCIe4 must NOT
// double the effective sample-transfer bandwidth.
TEST(Platform, PageableBandwidthPlateauMatchesPaper) {
  const PlatformModel v = cori_v100();
  const PlatformModel a = cori_a100();
  for (const std::size_t mib : {4, 16, 64}) {
    const double bv = v.h2d_bandwidth_gibps(mib * kMiB);
    const double ba = a.h2d_bandwidth_gibps(mib * kMiB);
    EXPECT_GE(bv, 4.0);
    EXPECT_LE(bv, 8.0);
    EXPECT_GE(ba, 6.0);
    EXPECT_LE(ba, 8.5);
    EXPECT_LT(ba / bv, 1.5) << "A100 and V100 nodes must be close";
  }
  // Summit's NVLink is ~3x PCIe3 (§IX.B).
  const double bs = summit().h2d_bandwidth_gibps(16 * kMiB);
  EXPECT_GT(bs / v.h2d_bandwidth_gibps(16 * kMiB), 2.0);
}

TEST(Platform, TransferSecondsScalesWithBytes) {
  const PlatformModel v = cori_v100();
  const double t1 = v.transfer_seconds(Link::kHostToDevice, 16 * kMiB);
  const double t2 = v.transfer_seconds(Link::kHostToDevice, 32 * kMiB);
  EXPECT_GT(t2, t1 * 1.8);
  EXPECT_LT(t2, t1 * 2.2);
  // HBM is orders of magnitude faster than NVMe.
  EXPECT_LT(v.transfer_seconds(Link::kDeviceMemory, 64 * kMiB) * 50,
            v.transfer_seconds(Link::kNvmeToHost, 64 * kMiB));
}

KernelStats kernel(std::uint64_t bytes, std::uint64_t ops,
                   std::uint64_t divergences) {
  KernelStats s;
  s.bytes_read = bytes / 2;
  s.bytes_written = bytes - bytes / 2;
  s.lockstep_ops = ops;
  s.divergent_branches = divergences;
  s.wall_seconds = 123.0;  // host wall time must not enter the model
  return s;
}

TEST(Platform, GpuRooflineBytesOnlyScalesWithHbmBandwidth) {
  const KernelStats s = kernel(40'000'000, 0, 0);
  const double v100 = cori_v100().gpu_kernel_seconds(s);
  EXPECT_DOUBLE_EQ(v100, 40e6 / 0.9e12);
  EXPECT_DOUBLE_EQ(v100 / cori_a100().gpu_kernel_seconds(s), 1.6 / 0.9);
  EXPECT_EQ(summit().gpu_kernel_seconds(s), v100) << "both are V100s";
}

TEST(Platform, GpuRooflineOpsOnlyScalesWithFp32Throughput) {
  const KernelStats s = kernel(0, 500'000, 0);
  const double v100 = cori_v100().gpu_kernel_seconds(s);
  EXPECT_DOUBLE_EQ(v100, 500'000.0 * 32 / 15.7e12);
  EXPECT_DOUBLE_EQ(v100 / cori_a100().gpu_kernel_seconds(s), 19.5 / 15.7);
}

TEST(Platform, GpuRooflineChargesDivergenceAsLockstepOps) {
  for (const PlatformModel& p : all_platforms()) {
    EXPECT_EQ(p.gpu_kernel_seconds(kernel(0, 1000, 70)),
              p.gpu_kernel_seconds(kernel(0, 1070, 0)))
        << p.name;
    EXPECT_EQ(p.gpu_kernel_seconds(kernel(0, 0, 7)),
              p.gpu_kernel_seconds(kernel(0, 7, 0)))
        << p.name;
  }
}

TEST(Platform, GpuRooflineZeroCountsCostNothing) {
  for (const PlatformModel& p : all_platforms()) {
    EXPECT_EQ(p.gpu_kernel_seconds(kernel(0, 0, 0)), 0.0) << p.name;
  }
}

TEST(Platform, GpuRooflineTakesTheLargerTerm) {
  // On a V100 one lockstep op (32 lane ops) costs as long as moving
  // 32 * 0.9 / 15.7 = 1.83 bytes, so a kernel is bandwidth-bound unless it
  // moves less than that per op.
  const PlatformModel v = cori_v100();
  const double bw = v.gpu_kernel_seconds(kernel(1024, 0, 0));
  const double ops = v.gpu_kernel_seconds(kernel(0, 1000, 0));
  EXPECT_EQ(v.gpu_kernel_seconds(kernel(1024, 1, 0)), bw);
  EXPECT_EQ(v.gpu_kernel_seconds(kernel(64, 1000, 0)), ops);
  EXPECT_EQ(v.gpu_kernel_seconds(kernel(1024, 1000, 0)), std::max(bw, ops));
}

TEST(Platform, SummitCpuIsSlower) {
  // §IX.A: the Summit software stack processes host work slower per core.
  const double host = 1.0;
  EXPECT_GT(summit().scale_cpu_seconds(host),
            cori_v100().scale_cpu_seconds(host) * 1.05);
}

TEST(MemHier, SmallDatasetLivesInDram) {
  // DeepCAM small set: 1536 samples x ~56.6 MiB ~ 85 GiB < 70% of 384 GB.
  DatasetSpec d;
  d.bytes_per_sample = 57 * kMiB;
  d.samples_per_node = 1536;
  d.staged = true;
  EXPECT_EQ(steady_residency(cori_v100(), d), Residency::kHostMem);
}

TEST(MemHier, LargeDatasetFallsToNvmeWhenStaged) {
  // DeepCAM large set: 12288 samples ~ 680 GiB > DRAM, < 1.6 TB NVMe.
  DatasetSpec d;
  d.bytes_per_sample = 57 * kMiB;
  d.samples_per_node = 12288;
  d.staged = true;
  EXPECT_EQ(steady_residency(cori_v100(), d), Residency::kNvme);
  d.staged = false;
  EXPECT_EQ(steady_residency(cori_v100(), d), Residency::kPfs);
}

// The paper's core mechanism: encoding shrinks the large dataset back into
// DRAM.
TEST(MemHier, CompressionPromotesResidency) {
  DatasetSpec raw;
  raw.bytes_per_sample = 57 * kMiB;
  raw.samples_per_node = 12288;
  raw.staged = true;
  ASSERT_EQ(steady_residency(cori_v100(), raw), Residency::kNvme);
  DatasetSpec encoded = raw;
  encoded.bytes_per_sample = raw.bytes_per_sample / 4;  // ~4x codec
  EXPECT_EQ(steady_residency(cori_v100(), encoded), Residency::kHostMem);
}

TEST(MemHier, ReadCostOrdering) {
  const PlatformModel v = cori_v100();
  const std::uint64_t bytes = 16 * kMiB;
  const double dram = sample_read_seconds(v, Residency::kHostMem, bytes, 8);
  const double nvme = sample_read_seconds(v, Residency::kNvme, bytes, 8);
  const double pfs = sample_read_seconds(v, Residency::kPfs, bytes, 8);
  EXPECT_LT(dram, nvme);
  EXPECT_LT(nvme, pfs);
  // NVMe bandwidth is shared: more concurrent readers -> slower each.
  EXPECT_GT(sample_read_seconds(v, Residency::kNvme, bytes, 8),
            sample_read_seconds(v, Residency::kNvme, bytes, 1) * 4);
}

TEST(MemHier, StagingCostOnlyWhenStaged) {
  DatasetSpec d;
  d.bytes_per_sample = 10 * kMiB;
  d.samples_per_node = 100;
  d.staged = false;
  EXPECT_EQ(staging_seconds(cori_v100(), d), 0.0);
  d.staged = true;
  EXPECT_GT(staging_seconds(cori_v100(), d), 0.0);
}

TEST(SimGpu, ExecutesAllWarps) {
  ThreadPool pool(2);
  SimGpu gpu({.sm_count = 4, .warps_per_sm = 2}, &pool);
  std::vector<std::atomic<int>> hits(1000);
  const KernelStats stats = gpu.launch(hits.size(), [&](Warp& warp) {
    hits[warp.id()].fetch_add(1);
    warp.count_read(64);
  });
  for (auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
  EXPECT_EQ(stats.warps, 1000u);
  EXPECT_EQ(stats.bytes_read, 64000u);
  EXPECT_GE(stats.wall_seconds, 0.0);
}

TEST(SimGpu, LanesRunLockstep) {
  SimGpu gpu({.sm_count = 1, .warps_per_sm = 1});
  std::vector<int> order;
  gpu.launch(1, [&](Warp& warp) {
    warp.lanes([&](int lane) { order.push_back(lane); });
  });
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimGpu, CountersAggregate) {
  SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  const KernelStats stats = gpu.launch(10, [](Warp& warp) {
    warp.lanes([](int) {});
    warp.count_write(128);
    warp.note_divergence();
  });
  EXPECT_EQ(stats.lockstep_ops, 10u);
  EXPECT_EQ(stats.bytes_written, 1280u);
  EXPECT_EQ(stats.divergent_branches, 10u);
  EXPECT_EQ(gpu.lifetime_stats().warps, 10u);
}

TEST(SimGpu, KernelExceptionsPropagate) {
  SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  EXPECT_THROW(gpu.launch(8,
                          [](Warp& warp) {
                            if (warp.id() == 5) throw Error("kernel fault");
                          }),
               Error);
  // Engine survives for subsequent launches.
  const KernelStats stats = gpu.launch(4, [](Warp&) {});
  EXPECT_EQ(stats.warps, 4u);
}

TEST(SimGpu, ZeroWarpLaunchIsNoop) {
  SimGpu gpu({.sm_count = 1, .warps_per_sm = 1});
  const KernelStats stats = gpu.launch(0, [](Warp&) { FAIL(); });
  EXPECT_EQ(stats.warps, 0u);
}

}  // namespace
}  // namespace sciprep::sim
