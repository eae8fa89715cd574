// Host-side measurement harness: runs the real codecs / baseline paths on
// synthesized samples and produces the WorkloadProfile numbers the step-time
// model consumes (DESIGN.md §5). The host cost of the baseline, gzip and
// CPU-plugin paths in Figures 8-12 is timed from *this repository's code* on
// the build host. The GPU plugin's decode is not timed: its profile carries
// the SimGpu counts of the real decode kernels, which the platform charges
// through Table I, as it does transfers and model compute.
#pragma once

#include <cstdint>
#include <string>

#include "sciprep/sim/stepmodel.hpp"

namespace sciprep::apps {

/// Which data-loading configuration a profile describes (the bars of
/// Figs 8/10/11).
enum class LoaderConfig {
  kBaseline,   // raw samples, CPU preprocessing, FP32 to device
  kGzip,       // gzip-compressed samples, CPU gunzip+preprocess (CosmoFlow)
  kCpuPlugin,  // codec decode on the CPU, FP16 to device
  kGpuPlugin,  // encoded bytes to device, codec decode on the GPU
};

const char* loader_config_name(LoaderConfig config);

/// Measured per-sample characterization of one workload under one loader.
struct MeasuredWorkload {
  sim::WorkloadProfile profile;
  // Extra reporting fields:
  std::uint64_t raw_bytes = 0;       // uncompressed stored size
  double compression_ratio = 1.0;    // raw / stored
};

/// Measure the CosmoFlow workload at full benchmark scale (dim = 128 by
/// default; smaller dims measure proportionally and are scaled up by value
/// count). `repeat` samples are generated and averaged.
MeasuredWorkload measure_cosmo(LoaderConfig config, int dim = 128,
                               int repeat = 2, std::uint64_t seed = 404);

/// Measure the DeepCAM workload (full 1152x768x16 by default).
MeasuredWorkload measure_cam(LoaderConfig config, int height = 768,
                             int width = 1152, int channels = 16,
                             int repeat = 2, std::uint64_t seed = 405);

}  // namespace sciprep::apps
