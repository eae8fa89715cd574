// SimGpu — a warp-lockstep execution engine for GPU-style decode kernels.
//
// The build host has no CUDA device, but the paper's GPU decoder design is
// about *structure*: warps of 32 lanes execute in lockstep, control
// divergence serializes, and memory efficiency comes from coalesced
// per-lane accesses. SimGpu lets kernels be written against exactly those
// constraints — a kernel is a function over a Warp, lanes are iterated in
// lockstep order, and the engine accounts bytes moved, lane operations and
// divergent branches — while actually executing on host threads. A kernel
// may also do a warp's work in one host call and charge the lockstep
// schedule that work would take (count_lockstep / note_divergence), as the
// codec decoders do: they run the CPU decode body per warp.
//
// Cost: the engine counts, per launch, the bytes read and written, the
// lockstep ops and the divergent branches. The counts depend only on the
// kernel and its input, never on the host, and PlatformModel::
// gpu_kernel_seconds() charges them on a Table I GPU; that is the modeled
// GPU decode of Figs 8-12. Divergence is counted separately, mirroring the
// paper's §VI discussion of hierarchical warp assignment for the
// differential decoder. Host wall time is recorded too, as a measurement of
// this engine, not of any GPU.
#pragma once

#include <cstdint>
#include <functional>

#include "sciprep/common/threadpool.hpp"

namespace sciprep::sim {

/// Execution context handed to a kernel, one per scheduled warp.
class Warp {
 public:
  static constexpr int kLanes = 32;

  explicit Warp(std::size_t id) : id_(id) {}

  [[nodiscard]] std::size_t id() const noexcept { return id_; }

  /// Run `f(lane)` for each of the 32 lanes in lockstep order. This is the
  /// shape of a non-divergent warp-wide operation (copy, table lookup,
  /// broadcast).
  template <class F>
  void lanes(F&& f) {
    for (int lane = 0; lane < kLanes; ++lane) {
      f(lane);
    }
    ++lockstep_ops_;
  }

  /// Charge `n` lockstep ops, each one `lanes()` worth of 32-lane work,
  /// without running them lane by lane.
  void count_lockstep(std::uint64_t n) noexcept { lockstep_ops_ += n; }

  /// Mark `n` data-dependent branches that split the warp: on real hardware
  /// the two paths serialize. Kernels call this when they take per-segment
  /// or per-line special cases so the stats expose divergence pressure.
  void note_divergence(std::uint64_t n = 1) noexcept {
    divergent_branches_ += n;
  }

  /// Account device-memory traffic attributed to this warp.
  void count_read(std::uint64_t bytes) noexcept { bytes_read_ += bytes; }
  void count_write(std::uint64_t bytes) noexcept { bytes_written_ += bytes; }

  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_;
  }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t lockstep_ops() const noexcept {
    return lockstep_ops_;
  }
  [[nodiscard]] std::uint64_t divergent_branches() const noexcept {
    return divergent_branches_;
  }

 private:
  std::size_t id_;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t lockstep_ops_ = 0;
  std::uint64_t divergent_branches_ = 0;
};

/// Aggregate accounting for one kernel launch.
struct KernelStats {
  double wall_seconds = 0;
  std::uint64_t warps = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t lockstep_ops = 0;
  std::uint64_t divergent_branches = 0;

  [[nodiscard]] std::uint64_t bytes_total() const noexcept {
    return bytes_read + bytes_written;
  }
  void merge(const KernelStats& other) noexcept;
};

/// The engine. SM count bounds the number of concurrently resident warps
/// (occupancy); the actual host parallelism comes from the thread pool.
class SimGpu {
 public:
  struct Config {
    int sm_count = 80;
    int warps_per_sm = 8;  // scheduling granularity, not a hardware limit
  };

  explicit SimGpu(Config config, ThreadPool* pool = nullptr);

  /// Launch `warp_count` warps of `kernel` and block until completion.
  KernelStats launch(std::size_t warp_count,
                     const std::function<void(Warp&)>& kernel);

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Cumulative stats across all launches on this engine.
  [[nodiscard]] const KernelStats& lifetime_stats() const noexcept {
    return lifetime_;
  }

 private:
  Config config_;
  ThreadPool* pool_;
  KernelStats lifetime_;
};

}  // namespace sciprep::sim
