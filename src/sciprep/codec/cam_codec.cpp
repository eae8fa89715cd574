#include "sciprep/codec/cam_codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "sciprep/common/error.hpp"
#include "sciprep/compress/deflate.hpp"
#include "sciprep/guard/cancel.hpp"
#include "sciprep/obs/obs.hpp"

namespace sciprep::codec {

namespace {

constexpr std::uint32_t kMagic = 0x31454143u;  // "CAE1"
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagNormalize = 0x01;

constexpr std::uint8_t kModeConstant = 0;
constexpr std::uint8_t kModeRaw16 = 1;
constexpr std::uint8_t kModeDelta = 2;

/// One quantized difference: sign, intrinsic exponent, 4-bit mantissa.
/// The encoded byte stores the exponent as an offset from the segment's
/// minimum exponent (3 bits), so the intrinsic exponent is what segmentation
/// reasons about.
struct QDelta {
  bool zero = true;
  bool negative = false;
  int exponent = 0;       // intrinsic: |d| = (1 + mant/16) * 2^exponent
  std::uint8_t mant = 0;  // 0..15

  [[nodiscard]] float value() const {
    if (zero) return 0.0F;
    const float magnitude =
        (1.0F + static_cast<float>(mant) / 16.0F) *
        std::ldexp(1.0F, exponent);
    return negative ? -magnitude : magnitude;
  }
};

/// Quantize a difference to the 8-bit delta representation.
QDelta quantize(float d) {
  QDelta q;
  if (d == 0.0F || !std::isfinite(d)) {
    return q;  // zero code; non-finite inputs fall back to raw lines upstream
  }
  q.zero = false;
  q.negative = std::signbit(d);
  const float a = std::abs(d);
  int exp = 0;
  const float frac = std::frexp(a, &exp);  // a = frac * 2^exp, frac in [0.5,1)
  q.exponent = exp - 1;                     // a = (2*frac) * 2^(exp-1)
  const float m = 2.0F * frac;              // in [1, 2)
  int mant = static_cast<int>(std::lround((m - 1.0F) * 16.0F));
  if (mant == 16) {  // rounded up to the next binade
    mant = 0;
    ++q.exponent;
  }
  q.mant = static_cast<std::uint8_t>(mant);
  return q;
}

std::uint8_t pack_delta(const QDelta& q, int emin) {
  if (q.zero) return 0x00;
  const int off = q.exponent - emin;
  SCIPREP_ASSERT(off >= 0 && off <= 7);
  std::uint8_t byte = static_cast<std::uint8_t>(
      (q.negative ? 0x80 : 0x00) | (off << 4) | q.mant);
  if (byte == 0x00) {
    // +1.0 * 2^emin collides with the zero code; nudge the mantissa one step
    // (a bounded 1/16 relative overestimate on one delta).
    byte = 0x01;
  }
  return byte;
}

/// A segment under construction: pivot plus quantized deltas.
struct Segment {
  std::uint16_t count = 0;  // values covered, including the pivot
  float pivot = 0;
  int emin = 0;
};

struct LinePlan {
  std::uint8_t mode = kModeDelta;
  float constant = 0;
  std::vector<Segment> segments;
  std::vector<std::uint8_t> deltas;  // concatenated segment delta bytes
};

/// Build the delta plan for one line. Returns nullopt-like flag via
/// plan.mode: stays kModeDelta on success.
LinePlan plan_line(std::span<const float> line, const CamEncodeOptions& opt) {
  LinePlan plan;

  // Constant line?
  bool constant = true;
  for (const float v : line) {
    if (v != line[0]) {
      constant = false;
      break;
    }
  }
  if (constant && std::isfinite(line[0])) {
    plan.mode = kModeConstant;
    plan.constant = line[0];
    return plan;
  }

  bool finite = true;
  for (const float v : line) {
    if (!std::isfinite(v)) {
      finite = false;
      break;
    }
  }
  if (!finite) {
    plan.mode = kModeRaw16;  // NaN/Inf lines cannot be differenced safely
    return plan;
  }

  // Scale for judging reconstruction quality: errors far below the line's
  // RMS are sensor noise the codec is allowed to remove.
  double rms = 0;
  for (const float v : line) {
    rms += static_cast<double>(v) * v;
  }
  rms = std::sqrt(rms / static_cast<double>(line.size()));
  const double abs_floor = 1e-3 * rms;

  // Differential scan with exponent-window segmentation.
  std::vector<QDelta> pending;  // deltas of the open segment
  std::size_t seg_start = 0;
  float recon = line[0];
  int min_e = 0;
  int max_e = 0;
  bool have_e = false;
  std::size_t significant_errors = 0;

  auto close_segment = [&](std::size_t end) {
    Segment seg;
    seg.count = static_cast<std::uint16_t>(end - seg_start);
    seg.pivot = line[seg_start];
    seg.emin = have_e ? min_e : 0;
    for (const QDelta& q : pending) {
      plan.deltas.push_back(pack_delta(q, seg.emin));
    }
    plan.segments.push_back(seg);
    pending.clear();
    have_e = false;
  };

  for (std::size_t i = 1; i < line.size(); ++i) {
    const float d = line[i] - recon;
    QDelta q = quantize(d);
    bool open_new = false;
    if (!q.zero) {
      if (!have_e) {
        min_e = max_e = q.exponent;
        have_e = true;
      } else if (q.exponent > max_e) {
        if (q.exponent - min_e > 7) {
          open_new = true;  // jump too large for this segment's window
        } else {
          max_e = q.exponent;
        }
      } else if (q.exponent < min_e) {
        if (max_e - q.exponent > 7) {
          // Below the segment's noise floor: the paper's lossy smoothing —
          // encode as "no change" and let the residual re-enter the next
          // delta (self-correcting drift).
          q = QDelta{};
        } else {
          min_e = q.exponent;
        }
      }
    }
    if (!open_new &&
        i - seg_start >= static_cast<std::size_t>(opt.max_segment_length)) {
      open_new = true;
    }
    if (open_new) {
      close_segment(i);
      seg_start = i;
      recon = line[i];  // new pivot: reconstruction resets exactly
      continue;
    }
    pending.push_back(q);
    recon += q.value();
    // Quality gate bookkeeping: a value the reconstruction misses by more
    // than 10% relative AND more than the noise floor is a real loss.
    const double err = std::abs(static_cast<double>(recon) - line[i]);
    if (err > 0.10 * std::abs(static_cast<double>(line[i])) &&
        err > abs_floor) {
      ++significant_errors;
    }
  }
  close_segment(line.size());

  // Abrupt-line fallback (paper §V.A: "lines with abrupt transitions or
  // where the number of segments is large, we do not compress"): too many
  // segments, meaningful reconstruction error, or no size win over raw FP16.
  const std::size_t delta_bytes =
      2 + plan.segments.size() * 8 + plan.deltas.size();
  const std::size_t raw_bytes = line.size() * 2;
  const bool too_fragmented =
      plan.segments.size() >
      line.size() / static_cast<std::size_t>(opt.max_segment_ratio);
  const bool too_lossy = significant_errors > line.size() / 50;  // > 2%
  if (too_fragmented || too_lossy || delta_bytes >= raw_bytes) {
    plan.mode = kModeRaw16;
    plan.segments.clear();
    plan.deltas.clear();
  }
  return plan;
}

struct ChannelStats {
  float mean = 0;
  float inv_std = 1;
};

/// Mean and 1/stddev of one channel plane: the statistics the encoder stores
/// for the fused normalization and the baseline path recomputes.
ChannelStats plane_stats(const float* plane, std::size_t n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += plane[i];
  const double mean = sum / static_cast<double>(n);
  double var = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = plane[i] - mean;
    var += d * d;
  }
  var /= static_cast<double>(n);
  const double stddev = std::sqrt(std::max(var, 1e-12));
  return {static_cast<float>(mean), static_cast<float>(1.0 / stddev)};
}

/// The fused preprocessing applied before every FP16 emit.
inline Half emit(float raw, const ChannelStats& s, bool normalize) {
  return Half(normalize ? (raw - s.mean) * s.inv_std : raw);
}

// ---------------------------------------------------------------------------
// Parsed encoded form
// ---------------------------------------------------------------------------

struct ParsedLine {
  std::uint8_t mode = 0;
  ByteSpan body;  // mode-specific payload
};

struct ParsedCam {
  int channels = 0;
  int height = 0;
  int width = 0;
  bool normalize = false;
  std::vector<ChannelStats> stats;
  Bytes labels;                // decompressed
  std::vector<ParsedLine> lines;
};

ParsedCam parse_cam(ByteSpan encoded) {
  ByteReader in(encoded);
  if (in.get<std::uint32_t>() != kMagic) {
    throw_format("cam codec: bad magic");
  }
  const auto version = in.get<std::uint8_t>();
  if (version != kVersion) {
    throw_format("cam codec: unsupported version {}", version);
  }
  ParsedCam p;
  p.normalize = (in.get<std::uint8_t>() & kFlagNormalize) != 0;
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
  // One u8 label per pixel — validate before inflate so a bit-rotted size
  // field cannot demand an arbitrarily large decompression buffer.
  if (labels_raw != pixel_count) {
    throw_format("cam codec: {} label bytes for a {}x{} image", labels_raw,
                 p.height, p.width);
  }
  const ByteSpan comp = in.get_bytes(labels_comp);
  p.labels = compress::inflate(comp, labels_raw);
  if (p.labels.size() != labels_raw) {
    throw_format("cam codec: labels decompressed to {} bytes, expected {}",
                 p.labels.size(), labels_raw);
  }

  const auto line_count = in.get<std::uint32_t>();
  const std::uint64_t expect_lines =
      static_cast<std::uint64_t>(p.channels) * static_cast<std::uint64_t>(p.height);
  if (line_count != expect_lines) {
    throw_format("cam codec: {} lines for {}x{} image", line_count, p.channels,
                 p.height);
  }
  if (in.remaining() / 4 < static_cast<std::uint64_t>(line_count) + 1) {
    throw_format("cam codec: stream too short for {} line offsets",
                 line_count);
  }
  std::vector<std::uint32_t> offsets(line_count + 1);
  for (auto& o : offsets) {
    o = in.get<std::uint32_t>();
  }
  const ByteSpan payload = in.get_bytes(offsets.back());
  if (!in.done()) {
    throw_format("cam codec: {} trailing bytes", in.remaining());
  }
  p.lines.resize(line_count);
  for (std::uint32_t i = 0; i < line_count; ++i) {
    if (offsets[i + 1] < offsets[i] || offsets[i + 1] > payload.size()) {
      throw_format("cam codec: line {} offsets out of order", i);
    }
    ByteSpan body = payload.subspan(offsets[i], offsets[i + 1] - offsets[i]);
    if (body.empty()) {
      throw_format("cam codec: empty line {}", i);
    }
    p.lines[i] = {body[0], body.subspan(1)};
  }
  return p;
}

/// Reconstructed FP32 values are normalized and converted in blocks of this
/// many: a fixed stack buffer, never sized by the (untrusted) line width.
constexpr std::size_t kEmitChunk = 256;

/// Where one decoded line lands: value x goes to `dst[x * stride]`.
struct LineOut {
  Half* dst = nullptr;
  std::size_t stride = 1;  // 1 in CHW, the channel count in HWC
};

/// Normalize `n` reconstructed values in place and emit them as FP16 to line
/// positions [x0, x0 + n). The subtract and the multiply stay two roundings,
/// as in `emit`, so the bits match a per-value emit.
void emit_chunk(float* vals, std::size_t n, std::size_t x0,
                const ChannelStats& s, bool normalize, const LineOut& out) {
  if (normalize) {
    for (std::size_t i = 0; i < n; ++i) {
      vals[i] = (vals[i] - s.mean) * s.inv_std;
    }
  }
  std::uint16_t bits[kEmitChunk];
  fp32_to_fp16_n(vals, bits, n);
  if (out.stride == 1) {
    std::memcpy(out.dst + x0, bits, n * sizeof(Half));
    return;
  }
  Half* dst = out.dst + x0 * out.stride;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i * out.stride] = Half::from_bits(bits[i]);
  }
}

/// 1 + mant/16 for the 16 mantissa codes; every entry is exact in FP32.
constexpr std::array<float, 16> kMantissa = [] {
  std::array<float, 16> t{};
  for (int m = 0; m < 16; ++m) t[m] = 1.0F + static_cast<float>(m) / 16.0F;
  return t;
}();

/// One delta byte under its segment's signed exponent table `spow2[s << 3 |
/// off] = (s ? -1 : +1) * 2^(emin + off)`: the value QDelta::value encoded,
/// (1 + mant/16) * 2^(emin + off) with the byte's sign. Taking the sign from
/// the table gives the same bits as negating the product (round-to-nearest
/// is symmetric; an overflow gives -Inf, an underflow -0), and byte 0x00 is
/// masked to +0.0F without a branch: the signs of deltas are unpredictable.
inline float delta_value(std::uint8_t byte, const float* spow2) {
  const float v = kMantissa[byte & 0x0F] * spow2[byte >> 4];
  const std::uint32_t keep = 0u - static_cast<std::uint32_t>(byte != 0);
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) & keep);
}

/// Decode one delta line. The segment headers are read twice straight from
/// the body: once to validate them and size the delta bytes, so a hostile
/// line is rejected before anything is written, then to walk the segments.
/// The running FP32 sum is scalar, in stream order.
void decode_delta_line(ByteSpan body, std::size_t width,
                       const ChannelStats& stats, bool normalize,
                       const LineOut& out) {
  ByteReader in(body);
  const auto seg_count = in.get<std::uint16_t>();
  std::size_t covered = 0;
  for (std::uint16_t s = 0; s < seg_count; ++s) {
    const auto count = in.get<std::uint16_t>();
    (void)in.get<float>();         // pivot
    (void)in.get<std::int16_t>();  // emin
    if (count == 0) {
      throw_format("cam codec: empty segment");
    }
    covered += count;
  }
  if (covered != width) {
    throw_format("cam codec: segments cover {} of {} values", covered, width);
  }
  const ByteSpan deltas = in.get_bytes(covered - seg_count);
  if (!in.done()) {
    throw_format("cam codec: trailing bytes in delta line");
  }

  ByteReader headers(body.subspan(sizeof(std::uint16_t)));
  const std::uint8_t* next = deltas.data();
  float chunk[kEmitChunk];
  std::size_t n = 0;
  std::size_t x0 = 0;
  for (std::uint16_t s = 0; s < seg_count; ++s) {
    const auto count = headers.get<std::uint16_t>();
    float recon = headers.get<float>();  // FP32 reconstruction (paper §V.A)
    const int emin = headers.get<std::int16_t>();
    float spow2[16];
    for (int off = 0; off < 8; ++off) {
      spow2[off] = std::ldexp(1.0F, emin + off);
      spow2[8 + off] = -spow2[off];
    }
    for (std::uint16_t i = 0; i < count; ++i) {
      if (i > 0) recon += delta_value(*next++, spow2);
      chunk[n++] = recon;
      if (n == kEmitChunk) {
        emit_chunk(chunk, n, x0, stats, normalize, out);
        x0 += n;
        n = 0;
      }
    }
  }
  emit_chunk(chunk, n, x0, stats, normalize, out);
}

/// Decode one line of `width` values into `out`.
void decode_line(const ParsedLine& line, std::size_t width,
                 const ChannelStats& stats, bool normalize,
                 const LineOut& out) {
  switch (line.mode) {
    case kModeConstant: {
      ByteReader in(line.body);
      const Half h = emit(in.get<float>(), stats, normalize);
      for (std::size_t x = 0; x < width; ++x) {
        out.dst[x * out.stride] = h;
      }
      break;
    }
    case kModeRaw16: {
      if (line.body.size() != width * 2) {
        throw_format("cam codec: raw line has {} bytes for width {}",
                     line.body.size(), width);
      }
      // Already normalized at encode time: copy the FP16 bits through.
      if (out.stride == 1) {
        std::memcpy(out.dst, line.body.data(), width * 2);
        break;
      }
      for (std::size_t x = 0; x < width; ++x) {
        std::uint16_t bits;
        std::memcpy(&bits, line.body.data() + x * 2, 2);
        out.dst[x * out.stride] = Half::from_bits(bits);
      }
      break;
    }
    case kModeDelta:
      decode_delta_line(line.body, width, stats, normalize, out);
      break;
    default:
      throw_format("cam codec: bad line mode {}", line.mode);
  }
}

/// An unfilled image tensor in the requested layout (labels left empty).
TensorF16 allocate_output(int channels, int height, int width, bool chw) {
  TensorF16 out;
  const auto c64 = static_cast<std::uint64_t>(channels);
  const auto h64 = static_cast<std::uint64_t>(height);
  const auto w64 = static_cast<std::uint64_t>(width);
  out.shape = chw ? std::vector<std::uint64_t>{c64, h64, w64}
                  : std::vector<std::uint64_t>{h64, w64, c64};
  out.values.resize(c64 * h64 * w64);
  return out;
}

/// Decode line `line_id` (= c * height + y) straight into its place in
/// `values`: the per-line body both decode drivers run, with the layout
/// transpose fused into the write index.
void decode_line_into(const ParsedCam& p, std::size_t line_id, Half* values,
                      bool chw) {
  const auto height = static_cast<std::size_t>(p.height);
  const auto width = static_cast<std::size_t>(p.width);
  const std::size_t c = line_id / height;
  const auto channels = static_cast<std::size_t>(p.channels);
  const LineOut out =
      chw ? LineOut{values + line_id * width, 1}
          : LineOut{values + (line_id % height) * width * channels + c,
                    channels};
  decode_line(p.lines[line_id], width, p.stats[c], p.normalize, out);
}

/// SimGpu cost of one line decoded by one warp, charged by arithmetic, not
/// lane by lane: a constant broadcast or raw16 copy is one lockstep op per
/// 32 values; the serial delta walk diverges once per segment (hidden, in
/// the paper's hierarchical scheme, by other lines' resident warps); the
/// flush is one op per 32 values, plus one divergence each for the strided
/// HWC store. Call only after decode_line_into succeeded on the line.
void charge_line(sim::Warp& warp, const ParsedLine& line, std::uint64_t width,
                 bool chw) {
  const std::uint64_t waves =
      (width + sim::Warp::kLanes - 1) / sim::Warp::kLanes;
  switch (line.mode) {
    case kModeConstant:
      warp.count_lockstep(waves);
      warp.count_read(sizeof(float));
      break;
    case kModeRaw16:
      warp.count_lockstep(waves);
      warp.count_read(width * 2);
      break;
    default:  // kModeDelta; decode_line rejected every other mode
      warp.note_divergence(ByteReader(line.body).get<std::uint16_t>());
      warp.count_read(line.body.size());
  }
  warp.count_lockstep(waves);
  if (!chw) warp.note_divergence(waves);
  warp.count_write(width * sizeof(Half));
}

}  // namespace

CamCodec::CamCodec(CamEncodeOptions encode_options,
                   CamDecodeOptions decode_options)
    : encode_options_(encode_options), decode_options_(decode_options) {
  if (encode_options_.max_segment_ratio < 2 ||
      encode_options_.max_segment_length < 2 ||
      encode_options_.max_segment_length > 65535) {
    throw ConfigError("cam codec: invalid segmentation options");
  }
}

Bytes CamCodec::encode_sample(const io::CamSample& sample) const {
  SCIPREP_ASSERT(sample.image.size() == sample.value_count());
  SCIPREP_ASSERT(sample.labels.size() == sample.pixel_count());
  if (sample.width < 2) {
    throw ConfigError("cam codec: width must be >= 2");
  }

  // Per-channel statistics for the fused normalization.
  std::vector<ChannelStats> stats(static_cast<std::size_t>(sample.channels));
  for (int c = 0; c < sample.channels; ++c) {
    stats[static_cast<std::size_t>(c)] = plane_stats(
        sample.image.data() + static_cast<std::size_t>(c) * sample.pixel_count(),
        sample.pixel_count());
  }

  ByteWriter out;
  out.put<std::uint32_t>(kMagic);
  out.put<std::uint8_t>(kVersion);
  out.put<std::uint8_t>(encode_options_.normalize ? kFlagNormalize : 0);
  out.put<std::uint16_t>(static_cast<std::uint16_t>(sample.channels));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(sample.height));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(sample.width));
  for (const ChannelStats& s : stats) {
    out.put<float>(s.mean);
    out.put<float>(s.inv_std);
  }

  // Labels: lossless DEFLATE.
  const Bytes packed_labels =
      compress::deflate(ByteSpan(sample.labels), compress::DeflateLevel::kFast);
  out.put<std::uint32_t>(static_cast<std::uint32_t>(sample.labels.size()));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(packed_labels.size()));
  out.put_bytes(packed_labels);

  // Lines.
  const std::size_t line_count =
      static_cast<std::size_t>(sample.channels) *
      static_cast<std::size_t>(sample.height);
  out.put<std::uint32_t>(static_cast<std::uint32_t>(line_count));

  std::vector<std::uint32_t> offsets;
  offsets.reserve(line_count + 1);
  ByteWriter payload;
  for (int c = 0; c < sample.channels; ++c) {
    const ChannelStats& cs = stats[static_cast<std::size_t>(c)];
    for (int y = 0; y < sample.height; ++y) {
      offsets.push_back(static_cast<std::uint32_t>(payload.size()));
      const std::span<const float> line = sample.line(c, y);
      const LinePlan plan = plan_line(line, encode_options_);
      payload.put<std::uint8_t>(plan.mode);
      switch (plan.mode) {
        case kModeConstant:
          payload.put<float>(plan.constant);
          break;
        case kModeRaw16:
          for (const float v : line) {
            payload.put<std::uint16_t>(
                emit(v, cs, encode_options_.normalize).bits());
          }
          break;
        case kModeDelta:
          payload.put<std::uint16_t>(
              static_cast<std::uint16_t>(plan.segments.size()));
          for (const Segment& s : plan.segments) {
            payload.put<std::uint16_t>(s.count);
            payload.put<float>(s.pivot);
            payload.put<std::int16_t>(static_cast<std::int16_t>(s.emin));
          }
          payload.put_bytes(plan.deltas);
          break;
        default:
          SCIPREP_ASSERT(false);
      }
    }
  }
  offsets.push_back(static_cast<std::uint32_t>(payload.size()));
  for (const auto o : offsets) {
    out.put<std::uint32_t>(o);
  }
  out.put_bytes(payload.bytes());
  return std::move(out).take();
}

CamEncodedInfo CamCodec::inspect(ByteSpan encoded) {
  const ParsedCam p = parse_cam(encoded);
  CamEncodedInfo info;
  info.label_bytes = p.labels.size();
  for (const ParsedLine& line : p.lines) {
    info.payload_bytes += line.body.size() + 1;
    switch (line.mode) {
      case kModeConstant:
        ++info.constant_lines;
        break;
      case kModeRaw16:
        ++info.raw_lines;
        break;
      case kModeDelta: {
        ++info.delta_lines;
        ByteReader in(line.body);
        info.segments += in.get<std::uint16_t>();
        break;
      }
      default:
        throw_format("cam codec: bad line mode {}", line.mode);
    }
  }
  return info;
}

TensorF16 CamCodec::reference_preprocess_sample(const io::CamSample& sample,
                                                bool normalize,
                                                CamLayout layout) {
  const bool chw = layout == CamLayout::kCHW;
  TensorF16 out =
      allocate_output(sample.channels, sample.height, sample.width, chw);
  out.byte_labels = sample.labels;

  for (int c = 0; c < sample.channels; ++c) {
    const float* plane =
        sample.image.data() + static_cast<std::size_t>(c) * sample.pixel_count();
    const ChannelStats cs =
        normalize ? plane_stats(plane, sample.pixel_count()) : ChannelStats{};
    for (int y = 0; y < sample.height; ++y) {
      for (int x = 0; x < sample.width; ++x) {
        const float v = plane[static_cast<std::size_t>(y) * sample.width + x];
        const Half h = emit(v, cs, normalize);
        const std::size_t idx =
            chw ? (static_cast<std::size_t>(c) * sample.height + y) *
                          sample.width +
                      x
                : (static_cast<std::size_t>(y) * sample.width + x) *
                          sample.channels +
                      c;
        out.values[idx] = h;
      }
    }
  }
  return out;
}

Bytes CamCodec::encode(ByteSpan raw_sample) const {
  SCIPREP_OBS_SPAN("codec.cam.encode", "codec");
  SCIPREP_OBS_COUNT("codec.cam.encode_bytes_in_total", raw_sample.size());
  Bytes out = encode_sample(io::CamSample::parse(raw_sample));
  SCIPREP_OBS_COUNT("codec.cam.encode_bytes_out_total", out.size());
  return out;
}

TensorF16 CamCodec::decode_cpu(ByteSpan encoded) const {
  SCIPREP_OBS_SPAN("codec.cam.decode_cpu", "codec");
  SCIPREP_OBS_COUNT("codec.cam.decode_bytes_in_total", encoded.size());
  const ParsedCam p = parse_cam(encoded);
  const bool chw = decode_options_.layout == CamLayout::kCHW;
  TensorF16 out = allocate_output(p.channels, p.height, p.width, chw);
  out.byte_labels = p.labels;
  const auto height = static_cast<std::size_t>(p.height);
  for (std::size_t line_id = 0; line_id < p.lines.size(); ++line_id) {
    if (line_id % height == 0) {
      guard::poll_cancellation();  // cancellation point per channel
    }
    decode_line_into(p, line_id, out.values.data(), chw);
  }
  return out;
}

TensorF16 CamCodec::decode_gpu(ByteSpan encoded, sim::SimGpu& gpu) const {
  SCIPREP_OBS_SPAN("codec.cam.decode_gpu", "codec");
  SCIPREP_OBS_COUNT("codec.cam.decode_bytes_in_total", encoded.size());
  const ParsedCam p = parse_cam(encoded);
  const bool chw = decode_options_.layout == CamLayout::kCHW;
  TensorF16 out = allocate_output(p.channels, p.height, p.width, chw);
  out.byte_labels = p.labels;
  // Hierarchical warp assignment (paper §VI): each line decodes in its own
  // warp — lines are fully independent thanks to the offset table. The warp
  // runs the same per-line body as the CPU driver, then charges what the
  // lockstep schedule of that line would cost.
  gpu.launch(p.lines.size(), [&](sim::Warp& warp) {
    decode_line_into(p, warp.id(), out.values.data(), chw);
    charge_line(warp, p.lines[warp.id()], p.width, chw);
  });
  return out;
}

TensorF16 CamCodec::reference_preprocess(ByteSpan raw_sample) const {
  SCIPREP_OBS_SPAN("codec.cam.reference_preprocess", "codec");
  SCIPREP_OBS_COUNT("codec.cam.reference_bytes_in_total", raw_sample.size());
  return reference_preprocess_sample(io::CamSample::parse(raw_sample),
                                     encode_options_.normalize,
                                     decode_options_.layout);
}

}  // namespace sciprep::codec
