// Pins the SimGpu cost accounting of both codecs' decode_gpu. PlatformModel::
// gpu_kernel_seconds turns these counters into the modeled GPU-plugin
// numbers of Figs 8-12, so a change to how a kernel is scheduled or charged
// must show up here, not silently in a figure. The
// samples are small and hand-built so that every CAM line mode (constant,
// raw16, delta with several segments) and every Cosmo stream kind (raw keys
// of width 1 and 2, run-length blocks) is charged.
#include <gtest/gtest.h>

#include <cstring>

#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/sim/platform.hpp"
#include "sciprep/sim/simgpu.hpp"

namespace sciprep::codec {
namespace {

/// 3 channels x 6 rows x 70 columns (not a multiple of the warp width). Per
/// channel: row 0 constant, row 1 spikes every third column (mostly stored
/// raw), rows 2-5 smooth ramps with a step that opens a second delta segment.
io::CamSample cam_sample() {
  io::CamSample s;
  s.channels = 3;
  s.height = 6;
  s.width = 70;
  s.image.resize(s.value_count());
  s.labels.resize(s.pixel_count());
  Rng rng(7);
  for (int c = 0; c < s.channels; ++c) {
    for (int y = 0; y < s.height; ++y) {
      for (int x = 0; x < s.width; ++x) {
        float v = 0;
        if (y == 0) {
          v = 10.0F * static_cast<float>(c + 1);
        } else if (y == 1) {
          v = (x % 3 == 0 ? 65536.0F : 0.5F) * (1.0F + rng.next_float());
        } else {
          v = static_cast<float>(c) + 0.25F * static_cast<float>(x * y) +
              (x >= 20 + 7 * y ? 300.0F : 0.0F);
        }
        s.image[(static_cast<std::size_t>(c) * s.height + y) * s.width + x] = v;
      }
    }
  }
  for (std::size_t i = 0; i < s.labels.size(); ++i) {
    s.labels[i] = static_cast<std::uint8_t>(i % io::CamSample::kClasses);
  }
  return s;
}

/// dim 8 (512 voxels): the first 192 voxels are empty space, the rest draw
/// each count from [0, `spread`).
io::CosmoSample cosmo_sample(std::uint32_t spread) {
  io::CosmoSample s;
  s.dim = 8;
  s.counts.assign(s.value_count(), 0);
  s.params = {0.3F, 0.8F, 0.9F, 0.7F};
  Rng rng(11);
  for (std::size_t v = 192; v < s.voxel_count(); ++v) {
    for (int r = 0; r < io::CosmoSample::kRedshifts; ++r) {
      s.counts[v * io::CosmoSample::kRedshifts + static_cast<std::size_t>(r)] =
          static_cast<std::int32_t>(rng.next_below(spread));
    }
  }
  return s;
}

struct Pinned {
  std::uint64_t warps;
  std::uint64_t bytes_read;
  std::uint64_t bytes_written;
  std::uint64_t lockstep_ops;
  std::uint64_t divergent_branches;
};

/// Decode on a fresh engine, check it against decode_cpu, and compare the
/// launch totals with the pinned values.
void expect_stats(const SampleCodec& codec, const Bytes& encoded,
                  const Pinned& pinned) {
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  const TensorF16 on_gpu = codec.decode_gpu(encoded, gpu);
  const TensorF16 on_cpu = codec.decode_cpu(encoded);
  ASSERT_EQ(on_gpu.shape, on_cpu.shape);
  ASSERT_EQ(on_gpu.values.size(), on_cpu.values.size());
  EXPECT_EQ(0, std::memcmp(on_gpu.values.data(), on_cpu.values.data(),
                           on_cpu.values.size() * sizeof(Half)));
  const sim::KernelStats& s = gpu.lifetime_stats();
  EXPECT_EQ(s.warps, pinned.warps);
  EXPECT_EQ(s.bytes_read, pinned.bytes_read);
  EXPECT_EQ(s.bytes_written, pinned.bytes_written);
  EXPECT_EQ(s.lockstep_ops, pinned.lockstep_ops);
  EXPECT_EQ(s.divergent_branches, pinned.divergent_branches);
}

TEST(SimGpuAccounting, CamSampleCoversEveryLineMode) {
  const CamEncodedInfo info =
      CamCodec::inspect(CamCodec().encode_sample(cam_sample()));
  EXPECT_GT(info.constant_lines, 0u);
  EXPECT_GT(info.raw_lines, 0u);
  EXPECT_GT(info.delta_lines, 0u);
  EXPECT_GT(info.segments, info.delta_lines);
}

TEST(SimGpuAccounting, CamChw) {
  const CamCodec codec;
  expect_stats(codec, codec.encode_sample(cam_sample()),
               {.warps = 18,
                .bytes_read = 1403,
                .bytes_written = 2520,
                .lockstep_ops = 69,
                .divergent_branches = 25});
}

// The modeled decode seconds of the pinned CHW sample, in closed form over
// Table I: 3923 bytes on HBM outweigh 69 + 25 lockstep ops of 32 lanes.
TEST(SimGpuAccounting, CamChwModeledSecondsAreClosedForm) {
  const CamCodec codec;
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  (void)codec.decode_gpu(codec.encode_sample(cam_sample()), gpu);
  const sim::KernelStats& s = gpu.lifetime_stats();
  EXPECT_DOUBLE_EQ(sim::cori_v100().gpu_kernel_seconds(s),
                   (1403.0 + 2520.0) / 0.9e12);
  EXPECT_DOUBLE_EQ(sim::cori_a100().gpu_kernel_seconds(s),
                   (1403.0 + 2520.0) / 1.6e12);
}

TEST(SimGpuAccounting, CamHwc) {
  const CamCodec codec({}, {.layout = CamLayout::kHWC});
  expect_stats(codec, codec.encode_sample(cam_sample()),
               {.warps = 18,
                .bytes_read = 1403,
                .bytes_written = 2520,
                .lockstep_ops = 69,
                .divergent_branches = 79});
}

TEST(SimGpuAccounting, CosmoWideKeysRaw) {
  const CosmoCodec codec;
  const Bytes encoded = codec.encode_sample(cosmo_sample(20));
  const CosmoEncodedInfo info = CosmoCodec::inspect(encoded);
  ASSERT_EQ(info.block_count, 1u);
  ASSERT_GT(info.total_groups, 256u);  // 2-byte keys
  ASSERT_EQ(info.rle_blocks, 0u);
  expect_stats(codec, encoded,
               {.warps = 57,
                .bytes_read = 10368,
                .bytes_written = 6720,
                .lockstep_ops = 57,
                .divergent_branches = 0});
}

TEST(SimGpuAccounting, CosmoSmallBlocksRawAndRle) {
  const CosmoCodec codec({.max_groups_per_block = 24});
  const Bytes encoded = codec.encode_sample(cosmo_sample(3));
  const CosmoEncodedInfo info = CosmoCodec::inspect(encoded);
  ASSERT_GT(info.rle_blocks, 0u);
  ASSERT_LT(info.rle_blocks, info.block_count);  // some blocks stay raw
  expect_stats(codec, encoded,
               {.warps = 77,
                .bytes_read = 7392,
                .bytes_written = 6728,
                .lockstep_ops = 82,
                .divergent_branches = 32});
}

}  // namespace
}  // namespace sciprep::codec
