// Unit and property tests for the binary16 implementation: the scalar
// conversions, and the bulk converter's agreement with them on every input.
#include "sciprep/common/fp16.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "sciprep/common/rng.hpp"

namespace sciprep {
namespace {

TEST(Fp16, ZeroRoundTrips) {
  EXPECT_EQ(fp32_to_fp16_bits(0.0F), 0x0000u);
  EXPECT_EQ(fp32_to_fp16_bits(-0.0F), 0x8000u);
  EXPECT_EQ(fp16_bits_to_fp32(0x0000u), 0.0F);
  EXPECT_EQ(fp16_bits_to_fp32(0x8000u), -0.0F);
  EXPECT_TRUE(std::signbit(fp16_bits_to_fp32(0x8000u)));
}

TEST(Fp16, KnownValues) {
  EXPECT_EQ(fp32_to_fp16_bits(1.0F), 0x3C00u);
  EXPECT_EQ(fp32_to_fp16_bits(-2.0F), 0xC000u);
  EXPECT_EQ(fp32_to_fp16_bits(65504.0F), 0x7BFFu);  // max half
  EXPECT_EQ(fp32_to_fp16_bits(0.5F), 0x3800u);
  EXPECT_EQ(fp16_bits_to_fp32(0x3C00u), 1.0F);
  EXPECT_EQ(fp16_bits_to_fp32(0x7BFFu), 65504.0F);
  // Smallest positive denormal: 2^-24.
  EXPECT_EQ(fp16_bits_to_fp32(0x0001u), 5.9604644775390625e-08F);
}

TEST(Fp16, InfinityAndOverflow) {
  EXPECT_EQ(fp32_to_fp16_bits(std::numeric_limits<float>::infinity()), 0x7C00u);
  EXPECT_EQ(fp32_to_fp16_bits(-std::numeric_limits<float>::infinity()),
            0xFC00u);
  EXPECT_EQ(fp32_to_fp16_bits(1.0e30F), 0x7C00u);  // overflow -> inf
  EXPECT_EQ(fp32_to_fp16_bits(65536.0F), 0x7C00u);
  // 65520 is exactly halfway between 65504 and 65536 -> rounds to even (inf).
  EXPECT_EQ(fp32_to_fp16_bits(65520.0F), 0x7C00u);
  // Just below halfway stays at max finite.
  EXPECT_EQ(fp32_to_fp16_bits(65519.996F), 0x7BFFu);
}

TEST(Fp16, NanPropagates) {
  const std::uint16_t bits =
      fp32_to_fp16_bits(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(Half::from_bits(bits).is_nan());
  EXPECT_TRUE(std::isnan(fp16_bits_to_fp32(bits)));
}

TEST(Fp16, RoundToNearestEven) {
  // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half value
  // 1.0009765625; ties-to-even keeps 1.0 (even significand).
  const float halfway = 1.0F + 0x1.0p-11F;
  EXPECT_EQ(fp32_to_fp16_bits(halfway), 0x3C00u);
  // Halfway between 1.0009765625 (odd significand) and 1.001953125 rounds up.
  const float halfway_odd = 1.0009765625F + 0x1.0p-11F;
  EXPECT_EQ(fp32_to_fp16_bits(halfway_odd), 0x3C02u);
}

TEST(Fp16, DenormalsRoundTrip) {
  for (std::uint16_t bits = 1; bits < 0x0400u; ++bits) {
    const float f = fp16_bits_to_fp32(bits);
    EXPECT_EQ(fp32_to_fp16_bits(f), bits) << "denormal bits " << bits;
  }
}

TEST(Fp16, UnderflowToZero) {
  EXPECT_EQ(fp32_to_fp16_bits(1.0e-10F), 0x0000u);
  EXPECT_EQ(fp32_to_fp16_bits(-1.0e-10F), 0x8000u);
  // Exactly half the smallest denormal rounds to even -> zero.
  EXPECT_EQ(fp32_to_fp16_bits(0x1.0p-25F), 0x0000u);
  // Just above half the smallest denormal rounds up to it.
  EXPECT_EQ(fp32_to_fp16_bits(0x1.000002p-25F), 0x0001u);
}

// Property: every half value round-trips exactly through float. This is the
// invariant the decoders rely on when emitting FP16 samples.
TEST(Fp16Property, AllFiniteHalvesRoundTrip) {
  for (std::uint32_t b = 0; b <= 0xFFFFu; ++b) {
    const auto bits = static_cast<std::uint16_t>(b);
    const Half h = Half::from_bits(bits);
    if (h.is_nan()) continue;
    EXPECT_EQ(fp32_to_fp16_bits(fp16_bits_to_fp32(bits)), bits)
        << "half bits " << bits;
  }
}

// Property: conversion error for random normal-range floats is bounded by the
// documented relative epsilon.
TEST(Fp16Property, RelativeErrorBounded) {
  Rng rng(2024);
  for (int i = 0; i < 100000; ++i) {
    const float x =
        static_cast<float>(rng.uniform(-60000.0, 60000.0));
    if (std::abs(x) < kHalfMinNormal) continue;
    const float back = fp16_bits_to_fp32(fp32_to_fp16_bits(x));
    EXPECT_LE(std::abs(back - x), std::abs(x) * kHalfRelativeEps)
        << "x=" << x;
  }
}

// Property: conversion agrees with the reference rounding computed through
// long-double arithmetic for a grid of values spanning denormals to overflow.
TEST(Fp16Property, MonotoneOverPositiveRange) {
  // fp16(x) must be monotone non-decreasing in x.
  Rng rng(7);
  float prev_x = 0.0F;
  std::uint16_t prev_bits = 0;
  for (int i = 0; i < 20000; ++i) {
    const float x = std::exp(static_cast<float>(rng.uniform(-18.0, 11.0)));
    const std::uint16_t bits = fp32_to_fp16_bits(x);
    if (x >= prev_x) {
      EXPECT_GE(bits, prev_bits) << "x=" << x << " prev=" << prev_x;
    } else {
      EXPECT_LE(bits, prev_bits) << "x=" << x << " prev=" << prev_x;
    }
    prev_x = x;
    prev_bits = bits;
  }
}

/// Mismatches of the bulk converter against fp32_to_fp16_bits over the bit
/// patterns [first, first + count), and the first one seen.
struct BulkScan {
  std::uint64_t mismatches = 0;
  std::uint32_t first_bad = 0;
};

BulkScan scan_bulk(std::uint64_t first, std::uint64_t count) {
  constexpr std::size_t kBlock = 4096;
  std::array<float, kBlock> src;
  std::array<std::uint16_t, kBlock> dst;
  BulkScan scan;
  for (std::uint64_t base = first; base < first + count; base += kBlock) {
    for (std::size_t i = 0; i < kBlock; ++i) {
      src[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
    }
    fp32_to_fp16_n(src.data(), dst.data(), kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) {
      if (dst[i] != fp32_to_fp16_bits(src[i])) {
        if (scan.mismatches++ == 0) {
          scan.first_bad = static_cast<std::uint32_t>(base + i);
        }
      }
    }
  }
  return scan;
}

// Exhaustive: the bulk converter (F16C where the host has it) produces the
// scalar reference's bits for all 2^32 binary32 inputs, NaN payloads,
// denormals, ties and overflow included. Split over a few threads so it
// stays well under a minute.
TEST(Fp16Bulk, MatchesScalarOnEveryFloat) {
  constexpr std::uint64_t kAll = std::uint64_t{1} << 32;
  constexpr unsigned kThreads = 4;
  std::array<BulkScan, kThreads> scans;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&scans, t] {
      scans[t] = scan_bulk(kAll / kThreads * t, kAll / kThreads);
    });
  }
  for (std::thread& w : workers) w.join();
  for (const BulkScan& scan : scans) {
    EXPECT_EQ(scan.mismatches, 0u)
        << "first mismatch at f32 bits 0x" << std::hex << scan.first_bad;
  }
}

// Short and odd lengths take the vector loop's tail; both the dispatched
// converter and the scalar fallback (called directly, whatever this host
// supports) must write exactly n values and match the per-value reference.
TEST(Fp16Bulk, EveryLengthAndTheScalarFallbackAgree) {
  Rng rng(16);
  std::vector<float> src(300);
  for (float& v : src) {
    v = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64()));
  }
  src[0] = 65520.0F;  // a tie that rounds up to Inf
  src[1] = std::numeric_limits<float>::quiet_NaN();
  src[2] = 0x1.0p-25F;  // a tie that rounds to zero
  constexpr std::uint16_t kGuard = 0xDEAD;
  for (const std::size_t n : {0, 1, 7, 8, 9, 257}) {
    for (const bool scalar : {false, true}) {
      std::vector<std::uint16_t> dst(n + 1, kGuard);
      if (scalar) {
        detail::fp32_to_fp16_n_scalar(src.data(), dst.data(), n);
      } else {
        fp32_to_fp16_n(src.data(), dst.data(), n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[i], fp32_to_fp16_bits(src[i]))
            << "n=" << n << " i=" << i << (scalar ? " scalar" : " dispatched");
      }
      EXPECT_EQ(dst[n], kGuard) << "n=" << n << " wrote past the end";
    }
  }
}

TEST(Half, ArithmeticThroughFloat) {
  const Half a(1.5F);
  const Half b(2.25F);
  EXPECT_EQ(static_cast<float>(a + b), 3.75F);
  EXPECT_EQ(static_cast<float>(a * b), 3.375F);
  EXPECT_EQ(static_cast<float>(b - a), 0.75F);
}

TEST(Half, Classification) {
  EXPECT_TRUE(Half::from_bits(0x7C01u).is_nan());
  EXPECT_TRUE(Half::from_bits(0x7C00u).is_inf());
  EXPECT_TRUE(Half::from_bits(0x0001u).is_denormal());
  EXPECT_TRUE(Half::from_bits(0x8000u).is_zero());
  EXPECT_TRUE(Half::from_bits(0x8000u).signbit());
  EXPECT_EQ(Half::from_bits(0x0000u), Half::from_bits(0x8000u));
}

}  // namespace
}  // namespace sciprep
