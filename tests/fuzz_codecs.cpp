// Fuzz-ish robustness tests: bit-flipped and truncated codec payloads fed
// through the CPU and SimGpu decode paths must surface as typed sciprep
// errors — never UB, crashes, or unbounded allocations — and the two paths
// must agree on every payload (same tensor, or the same Error subclass).
// The suite is run under the asan-ubsan preset (ctest -L fault) to back the
// "no asan findings" half of that claim.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <typeinfo>

#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/data/cosmo_gen.hpp"
#include "sciprep/sim/simgpu.hpp"

namespace sciprep::codec {
namespace {

constexpr int kFlipTrials = 150;

Bytes encoded_cosmo() {
  data::CosmoGenConfig cfg;
  cfg.dim = 8;
  cfg.seed = 31;
  const data::CosmoGenerator gen(cfg);
  return CosmoCodec().encode_sample(gen.generate(0));
}

Bytes encoded_cam() {
  data::CamGenConfig cfg;
  cfg.height = 16;
  cfg.width = 24;
  cfg.channels = 2;
  cfg.seed = 32;
  const data::CamGenerator gen(cfg);
  return CamCodec().encode_sample(gen.generate(0));
}

/// Flip 1–4 random bits of `clean` (deterministic per trial).
Bytes flipped(const Bytes& clean, int trial) {
  Rng rng(static_cast<std::uint64_t>(trial) * 0x9E3779B9u + 1);
  Bytes bad = clean;
  const int flips = 1 + static_cast<int>(rng.next_below(4));
  for (int f = 0; f < flips; ++f) {
    const std::size_t at = static_cast<std::size_t>(rng.next_below(bad.size()));
    bad[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
  }
  return bad;
}

/// What one decode produced: the tensor, or the dynamic type and message of
/// the typed sciprep::Error it threw. Any other exception escapes and fails
/// the test run, as does a crash or an asan report.
struct Outcome {
  std::optional<TensorF16> tensor;
  std::string error_type;
  std::string message;
};

template <class Decode>
Outcome run_decode(Decode&& decode, const Bytes& payload) {
  try {
    return {decode(ByteSpan(payload)), {}, {}};
  } catch (const Error& e) {
    return {std::nullopt, typeid(e).name(), e.what()};
  }
}

/// The CPU and SimGpu drivers run the same decode body, so on any payload
/// they must agree: both succeed with the same tensor, or both reject it
/// with the same Error subclass. Messages are not compared: SimGpu decodes
/// on the pool and the first failing warp wins, so which bad key or line
/// its message names can vary between runs.
void expect_same_outcome(const Outcome& cpu, const Outcome& gpu,
                         const std::string& what) {
  ASSERT_EQ(cpu.tensor.has_value(), gpu.tensor.has_value())
      << what << ": cpu '" << cpu.message << "' vs gpu '" << gpu.message
      << "'";
  if (!cpu.tensor) {
    EXPECT_EQ(cpu.error_type, gpu.error_type)
        << what << ": cpu '" << cpu.message << "' vs gpu '" << gpu.message
        << "'";
    return;
  }
  const TensorF16& a = *cpu.tensor;
  const TensorF16& b = *gpu.tensor;
  // On success the decode honored some header: the output must be sized
  // self-consistently, not garbage-length.
  EXPECT_FALSE(a.values.empty()) << what;
  EXPECT_EQ(a.shape, b.shape) << what;
  ASSERT_EQ(a.values.size(), b.values.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.values.data(), b.values.data(),
                           a.values.size() * sizeof(Half)))
      << what;
  ASSERT_EQ(a.float_labels.size(), b.float_labels.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.float_labels.data(), b.float_labels.data(),
                           a.float_labels.size() * sizeof(float)))
      << what;  // bitwise: a flipped label may be NaN
  EXPECT_EQ(a.byte_labels, b.byte_labels) << what;
}

/// Bit-flipped payloads through both drivers.
void check_flips(const SampleCodec& codec, const Bytes& clean,
                 const char* name) {
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  for (int trial = 0; trial < kFlipTrials; ++trial) {
    const Bytes bad = flipped(clean, trial);
    expect_same_outcome(
        run_decode([&](ByteSpan p) { return codec.decode_cpu(p); }, bad),
        run_decode([&](ByteSpan p) { return codec.decode_gpu(p, gpu); }, bad),
        fmt("{} flip trial {}", name, trial));
  }
}

/// Every (sampled) strict prefix through both drivers: each is rejected.
void check_prefixes(const SampleCodec& codec, const Bytes& clean,
                    const char* name) {
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  for (std::size_t len = 0; len < clean.size();
       len += 1 + len / 16) {  // denser near the header, sparser in the body
    const Bytes cut(clean.begin(),
                    clean.begin() + static_cast<std::ptrdiff_t>(len));
    const Outcome on_cpu =
        run_decode([&](ByteSpan p) { return codec.decode_cpu(p); }, cut);
    EXPECT_FALSE(on_cpu.tensor.has_value()) << name << " prefix " << len;
    expect_same_outcome(
        on_cpu,
        run_decode([&](ByteSpan p) { return codec.decode_gpu(p, gpu); }, cut),
        fmt("{} prefix length {}", name, len));
  }
}

TEST(FuzzCosmo, BitFlipsAreContainedOnCpuAndGpu) {
  check_flips(CosmoCodec(), encoded_cosmo(), "cosmo");
}

TEST(FuzzCosmo, EveryStrictPrefixIsRejected) {
  check_prefixes(CosmoCodec(), encoded_cosmo(), "cosmo");
}

TEST(FuzzCam, BitFlipsAreContainedOnCpuAndGpu) {
  check_flips(CamCodec(), encoded_cam(), "cam");
}

TEST(FuzzCam, EveryStrictPrefixIsRejected) {
  check_prefixes(CamCodec(), encoded_cam(), "cam");
}

/// A raw key stream naming a table entry past the block's table: both
/// drivers must reject it through the same key check.
TEST(FuzzCosmo, OutOfTableKeyIsRejectedAlikeOnCpuAndGpu) {
  io::CosmoSample sample;
  sample.dim = 8;
  sample.counts.resize(sample.value_count());
  for (std::size_t i = 0; i < sample.counts.size(); ++i) {
    sample.counts[i] = static_cast<std::int32_t>((i * 7 + i / 5) % 3);
  }
  Bytes bad = CosmoCodec({.rle = false}).encode_sample(sample);
  const CosmoEncodedInfo info = CosmoCodec::inspect(bad);
  ASSERT_EQ(info.block_count, 1u);
  ASSERT_EQ(info.rle_blocks, 0u);
  ASSERT_LT(info.total_groups, 255u);               // 1-byte keys
  ASSERT_EQ(info.key_bytes, sample.voxel_count());  // the payload's tail
  bad[bad.size() - 40] = 0xFF;                      // key 255 >= group_count

  const CosmoCodec codec;
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  for (const bool on_gpu : {false, true}) {
    try {
      (void)(on_gpu ? codec.decode_gpu(bad, gpu) : codec.decode_cpu(bad));
      ADD_FAILURE() << (on_gpu ? "gpu" : "cpu") << " accepted key 255";
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("out of table range"),
                std::string::npos)
          << (on_gpu ? "gpu: " : "cpu: ") << e.what();
    }
  }
}

}  // namespace
}  // namespace sciprep::codec
