// Fuzz-ish robustness tests: bit-flipped and truncated codec payloads fed
// through the CPU and SimGpu decode paths must surface as typed sciprep
// errors — never UB, crashes, or unbounded allocations — and the two paths
// must agree on every payload (same tensor, or the same Error subclass).
// The CAM decode is also checked against a scalar oracle (one std::ldexp and
// one Half conversion per value) over the same corpus and over hand-built
// hostile delta lines: same bits, or the same error and message.
// The suite is run under the asan-ubsan preset (ctest -L fault) to back the
// "no asan findings" half of that claim.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/compress/deflate.hpp"
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
  // Bitwise, since a flipped label may be NaN; CAM tensors carry none, and
  // memcmp must not see their null data pointers.
  EXPECT_TRUE(a.float_labels.empty() ||
              std::memcmp(a.float_labels.data(), b.float_labels.data(),
                          a.float_labels.size() * sizeof(float)) == 0)
      << what;
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

// ---------------------------------------------------------------------------
// CAM scalar oracle: the container parse and the per-value delta decode as
// they stood before the decode moved to a per-segment exponent table and
// bulk FP16 emit, kept here verbatim in behaviour (checks, messages, order).
// ---------------------------------------------------------------------------
namespace oracle {

struct Stats {
  float mean = 0;
  float inv_std = 1;
};

struct Line {
  std::uint8_t mode = 0;
  ByteSpan body;
};

struct Parsed {
  int channels = 0;
  int height = 0;
  int width = 0;
  bool normalize = false;
  std::vector<Stats> stats;
  Bytes labels;
  std::vector<Line> lines;
};

Parsed parse(ByteSpan encoded) {
  ByteReader in(encoded);
  if (in.get<std::uint32_t>() != 0x31454143u) {
    throw_format("cam codec: bad magic");
  }
  const auto version = in.get<std::uint8_t>();
  if (version != 1) {
    throw_format("cam codec: unsupported version {}", version);
  }
  Parsed p;
  p.normalize = (in.get<std::uint8_t>() & 0x01) != 0;
  p.channels = in.get<std::uint16_t>();
  p.height = static_cast<int>(in.get<std::uint32_t>());
  p.width = static_cast<int>(in.get<std::uint32_t>());
  if (p.channels <= 0 || p.height <= 0 || p.width <= 1) {
    throw_format("cam codec: degenerate dims {}x{}x{}", p.channels, p.height,
                 p.width);
  }
  const std::uint64_t pixel_count = static_cast<std::uint64_t>(p.height) *
                                    static_cast<std::uint64_t>(p.width);
  if (static_cast<std::uint64_t>(p.channels) * pixel_count >
      (std::uint64_t{1} << 28)) {
    throw_format("cam codec: implausible dims {}x{}x{}", p.channels, p.height,
                 p.width);
  }
  p.stats.resize(static_cast<std::size_t>(p.channels));
  for (auto& s : p.stats) {
    s.mean = in.get<float>();
    s.inv_std = in.get<float>();
  }
  const auto labels_raw = in.get<std::uint32_t>();
  const auto labels_comp = in.get<std::uint32_t>();
  if (labels_raw != pixel_count) {
    throw_format("cam codec: {} label bytes for a {}x{} image", labels_raw,
                 p.height, p.width);
  }
  p.labels = compress::inflate(in.get_bytes(labels_comp), labels_raw);
  if (p.labels.size() != labels_raw) {
    throw_format("cam codec: labels decompressed to {} bytes, expected {}",
                 p.labels.size(), labels_raw);
  }
  const auto line_count = in.get<std::uint32_t>();
  if (line_count != static_cast<std::uint64_t>(p.channels) *
                        static_cast<std::uint64_t>(p.height)) {
    throw_format("cam codec: {} lines for {}x{} image", line_count, p.channels,
                 p.height);
  }
  if (in.remaining() / 4 < static_cast<std::uint64_t>(line_count) + 1) {
    throw_format("cam codec: stream too short for {} line offsets",
                 line_count);
  }
  std::vector<std::uint32_t> offsets(line_count + 1);
  for (auto& o : offsets) o = in.get<std::uint32_t>();
  const ByteSpan payload = in.get_bytes(offsets.back());
  if (!in.done()) {
    throw_format("cam codec: {} trailing bytes", in.remaining());
  }
  p.lines.resize(line_count);
  for (std::uint32_t i = 0; i < line_count; ++i) {
    if (offsets[i + 1] < offsets[i] || offsets[i + 1] > payload.size()) {
      throw_format("cam codec: line {} offsets out of order", i);
    }
    const ByteSpan body =
        payload.subspan(offsets[i], offsets[i + 1] - offsets[i]);
    if (body.empty()) {
      throw_format("cam codec: empty line {}", i);
    }
    p.lines[i] = {body[0], body.subspan(1)};
  }
  return p;
}

float unpack_delta(std::uint8_t byte, int emin) {
  if (byte == 0x00) return 0.0F;
  const float magnitude = (1.0F + static_cast<float>(byte & 0x0F) / 16.0F) *
                          std::ldexp(1.0F, emin + ((byte >> 4) & 0x07));
  return (byte & 0x80) != 0 ? -magnitude : magnitude;
}

Half emit(float raw, const Stats& s, bool normalize) {
  return Half(normalize ? (raw - s.mean) * s.inv_std : raw);
}

struct Segment {
  std::uint16_t count = 0;
  float pivot = 0;
  int emin = 0;
  std::size_t delta_offset = 0;
};

template <class Out>
void decode_line(const Line& line, int width, const Stats& stats,
                 bool normalize, Out&& out) {
  switch (line.mode) {
    case 0: {
      ByteReader in(line.body);
      const Half h = emit(in.get<float>(), stats, normalize);
      for (int x = 0; x < width; ++x) out(x, h);
      break;
    }
    case 1: {
      if (line.body.size() != static_cast<std::size_t>(width) * 2) {
        throw_format("cam codec: raw line has {} bytes for width {}",
                     line.body.size(), width);
      }
      for (int x = 0; x < width; ++x) {
        std::uint16_t bits;
        std::memcpy(&bits, line.body.data() + static_cast<std::size_t>(x) * 2,
                    2);
        out(x, Half::from_bits(bits));
      }
      break;
    }
    case 2: {
      ByteReader in(line.body);
      std::vector<Segment> segs(in.get<std::uint16_t>());
      std::size_t covered = 0;
      std::size_t delta_total = 0;
      for (auto& s : segs) {
        s.count = in.get<std::uint16_t>();
        s.pivot = in.get<float>();
        s.emin = in.get<std::int16_t>();
        if (s.count == 0) {
          throw_format("cam codec: empty segment");
        }
        s.delta_offset = delta_total;
        covered += s.count;
        delta_total += s.count - 1u;
      }
      if (covered != static_cast<std::size_t>(width)) {
        throw_format("cam codec: segments cover {} of {} values", covered,
                     width);
      }
      const ByteSpan deltas = in.get_bytes(delta_total);
      if (!in.done()) {
        throw_format("cam codec: trailing bytes in delta line");
      }
      int x = 0;
      for (const Segment& s : segs) {
        float recon = s.pivot;
        out(x++, emit(recon, stats, normalize));
        for (std::uint16_t i = 0; i + 1 < s.count; ++i) {
          recon += unpack_delta(deltas[s.delta_offset + i], s.emin);
          out(x++, emit(recon, stats, normalize));
        }
      }
      break;
    }
    default:
      throw_format("cam codec: bad line mode {}", line.mode);
  }
}

TensorF16 decode(ByteSpan encoded, CamLayout layout) {
  const Parsed p = parse(encoded);
  const bool chw = layout == CamLayout::kCHW;
  const auto c64 = static_cast<std::uint64_t>(p.channels);
  const auto h64 = static_cast<std::uint64_t>(p.height);
  const auto w64 = static_cast<std::uint64_t>(p.width);
  TensorF16 out;
  out.shape = chw ? std::vector<std::uint64_t>{c64, h64, w64}
                  : std::vector<std::uint64_t>{h64, w64, c64};
  out.values.resize(c64 * h64 * w64);
  out.byte_labels = p.labels;
  for (std::size_t id = 0; id < p.lines.size(); ++id) {
    const std::size_t c = id / h64;
    const std::size_t y = id % h64;
    decode_line(p.lines[id], p.width, p.stats[c], p.normalize,
                [&](int x, Half h) {
                  const auto xs = static_cast<std::size_t>(x);
                  out.values[chw ? id * w64 + xs : (y * w64 + xs) * c64 + c] =
                      h;
                });
  }
  return out;
}

}  // namespace oracle

/// The codec's CAM decode against the oracle: the same tensor bits, or the
/// same Error subclass with the same message.
void expect_oracle_outcome(const Bytes& payload, CamLayout layout,
                           const std::string& what) {
  const Outcome want = run_decode(
      [&](ByteSpan p) { return oracle::decode(p, layout); }, payload);
  const Outcome got = run_decode(
      [&](ByteSpan p) { return CamCodec({}, {layout}).decode_cpu(p); },
      payload);
  ASSERT_EQ(got.tensor.has_value(), want.tensor.has_value())
      << what << ": codec '" << got.message << "' vs oracle '" << want.message
      << "'";
  if (!want.tensor) {
    EXPECT_EQ(got.error_type, want.error_type) << what;
    EXPECT_EQ(got.message, want.message) << what;
    return;
  }
  EXPECT_EQ(got.tensor->shape, want.tensor->shape) << what;
  ASSERT_EQ(got.tensor->values.size(), want.tensor->values.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.tensor->values.data(),
                           want.tensor->values.data(),
                           want.tensor->values.size() * sizeof(Half)))
      << what;  // bitwise: NaN payloads and signed zeros included
  EXPECT_EQ(got.tensor->byte_labels, want.tensor->byte_labels) << what;
}

void expect_oracle_outcome_both_layouts(const Bytes& payload,
                                        const std::string& what) {
  expect_oracle_outcome(payload, CamLayout::kCHW, what + " (chw)");
  expect_oracle_outcome(payload, CamLayout::kHWC, what + " (hwc)");
}

TEST(FuzzCam, BitFlipsDecodeLikeTheScalarOracle) {
  const Bytes clean = encoded_cam();
  for (int trial = 0; trial < kFlipTrials; ++trial) {
    expect_oracle_outcome_both_layouts(flipped(clean, trial),
                                       fmt("cam flip trial {}", trial));
  }
}

TEST(FuzzCam, PrefixesFailLikeTheScalarOracle) {
  const Bytes clean = encoded_cam();
  for (std::size_t len = 0; len < clean.size(); len += 1 + len / 16) {
    expect_oracle_outcome_both_layouts(
        Bytes(clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(len)),
        fmt("cam prefix length {}", len));
  }
}

struct SegHeader {
  std::uint16_t count;
  float pivot;
  std::int16_t emin;
};

/// A delta line body (mode byte first) declaring `seg_count` segments, of
/// which `segs` are written, followed by `deltas` verbatim.
Bytes delta_line(std::uint16_t seg_count, const std::vector<SegHeader>& segs,
                 const Bytes& deltas) {
  ByteWriter out;
  out.put<std::uint8_t>(2);
  out.put<std::uint16_t>(seg_count);
  for (const SegHeader& s : segs) {
    out.put<std::uint16_t>(s.count);
    out.put<float>(s.pivot);
    out.put<std::int16_t>(s.emin);
  }
  out.put_bytes(deltas);
  return std::move(out).take();
}

/// A one-channel CAM stream of `width`-value lines: a constant line, then
/// `line`, behind valid statistics, labels and offsets.
Bytes cam_stream(int width, const Bytes& line, bool normalize) {
  ByteWriter constant;
  constant.put<std::uint8_t>(0);
  constant.put<float>(3.5F);
  const std::vector<Bytes> lines = {std::move(constant).take(), line};
  ByteWriter out;
  out.put<std::uint32_t>(0x31454143u);  // "CAE1"
  out.put<std::uint8_t>(1);
  out.put<std::uint8_t>(normalize ? 1 : 0);
  out.put<std::uint16_t>(1);
  out.put<std::uint32_t>(static_cast<std::uint32_t>(lines.size()));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(width));
  out.put<float>(0.75F);  // mean
  out.put<float>(3.0F);   // 1 / std
  const Bytes labels(lines.size() * static_cast<std::size_t>(width), 1);
  const Bytes packed = compress::deflate(ByteSpan(labels));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(labels.size()));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(packed.size()));
  out.put_bytes(packed);
  out.put<std::uint32_t>(static_cast<std::uint32_t>(lines.size()));
  std::uint32_t offset = 0;
  out.put<std::uint32_t>(offset);
  for (const Bytes& l : lines) {
    offset += static_cast<std::uint32_t>(l.size());
    out.put<std::uint32_t>(offset);
  }
  for (const Bytes& l : lines) out.put_bytes(l);
  return std::move(out).take();
}

/// `n` delta bytes covering every sign, exponent offset and mantissa.
Bytes delta_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (std::uint8_t& b : out) {
    b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return out;
}

TEST(FuzzCam, HostileDeltaLinesDecodeLikeTheScalarOracle) {
  constexpr int kWidth = 12;
  const Bytes d11 = delta_bytes(11, 1);
  struct Case {
    const char* name;
    int width;
    Bytes line;
    bool valid;
  };
  const std::vector<Case> cases = {
      // 2^(32767 + off) overflows to Inf; opposite signs then sum to NaN.
      {"emin +32767", kWidth, delta_line(1, {{12, 1.0F, 32767}}, d11),
       true},
      // 2^(-32768 + off) underflows to 0; negative codes give -0.
      {"emin -32768", kWidth, delta_line(1, {{12, -0.0F, -32768}}, d11),
       true},
      {"emin -32767", kWidth, delta_line(1, {{12, 0.0F, -32767}}, d11),
       true},
      // Segments straddling the largest and the denormal float exponents.
      {"emin at the float edges", kWidth,
       delta_line(3, {{4, 1.0F, 124}, {4, -2.0F, -150}, {4, 0.0F, -130}},
                  delta_bytes(9, 2)),
       true},
      {"count 0", kWidth,
       delta_line(2, {{0, 1.0F, 0}, {12, 1.0F, 0}}, d11),
       false},
      {"coverage short", kWidth,
       delta_line(2, {{5, 1.0F, 0}, {5, 1.0F, 0}}, delta_bytes(8, 3)),
       false},
      {"coverage long", kWidth,
       delta_line(2, {{5, 1.0F, 0}, {9, 1.0F, 0}}, delta_bytes(12, 3)),
       false},
      {"seg_count beyond the body", kWidth,
       delta_line(60000, {{12, 1.0F, 0}}, d11),
       false},
      {"deltas missing", kWidth,
       delta_line(1, {{12, 1.0F, 0}}, delta_bytes(10, 4)),
       false},
      {"trailing bytes", kWidth,
       delta_line(1, {{12, 1.0F, 0}}, delta_bytes(12, 5)),
       false},
      {"no segments", kWidth, delta_line(0, {}, {}),
       false},
      // Segments longer than one emit chunk and boundaries inside chunks.
      {"wide", 600,
       delta_line(4, {{256, 5.0F, -6}, {255, -3.0F, -9}, {1, 0.5F, 0},
                      {88, 100.0F, 2}},
                  delta_bytes(596, 6)),
       true},
  };
  for (const Case& c : cases) {
    for (const bool normalize : {false, true}) {
      const Bytes stream = cam_stream(c.width, c.line, normalize);
      expect_oracle_outcome_both_layouts(
          stream, fmt("{}{}", c.name, normalize ? " normalized" : ""));
      const Outcome got = run_decode(
          [](ByteSpan p) { return CamCodec().decode_cpu(p); }, stream);
      EXPECT_EQ(got.tensor.has_value(), c.valid) << c.name << ": " << got.message;
    }
  }
  // The hostile overflow line really exercises non-finite output.
  const TensorF16 inf_line =
      CamCodec().decode_cpu(cam_stream(kWidth, cases[0].line, false));
  bool non_finite = false;
  for (std::size_t x = kWidth; x < 2 * kWidth; ++x) {
    non_finite |= inf_line.values[x].is_inf() || inf_line.values[x].is_nan();
  }
  EXPECT_TRUE(non_finite);
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
