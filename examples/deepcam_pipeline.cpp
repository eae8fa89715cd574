// DeepCAM pipeline walkthrough: climate dataset -> differential codec ->
// pipeline with augmentation ops, comparing CPU- vs GPU-placed decode and
// printing the per-line encoding census and device-engine statistics.
//
// Usage: deepcam_pipeline [samples=8] [height=192] [width=288]
#include <cstdio>

#include "sciprep/common/stats.hpp"
#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/codec.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/pipeline/pipeline.hpp"
#include "sciprep/sim/platform.hpp"

int main(int argc, char** argv) {
  using namespace sciprep;
  const int nsamples = argc > 1 ? std::atoi(argv[1]) : 8;
  const int height = argc > 2 ? std::atoi(argv[2]) : 192;
  const int width = argc > 3 ? std::atoi(argv[3]) : 288;

  data::CamGenConfig gen_cfg;
  gen_cfg.height = height;
  gen_cfg.width = width;
  gen_cfg.channels = 16;
  gen_cfg.seed = 33;
  const data::CamGenerator generator(gen_cfg);
  const codec::CamCodec codec;

  // Inspect one encoded sample: the per-line mode census of §V.A.
  const io::CamSample first = generator.generate(0);
  const Bytes encoded = codec.encode_sample(first);
  const auto info = codec::CamCodec::inspect(encoded);
  std::printf("encoding census (sample 0, %dx%dx16):\n", height, width);
  std::printf("  %llu delta lines (%.2f segments/line), %llu raw lines, "
              "%llu constant lines\n",
              static_cast<unsigned long long>(info.delta_lines),
              static_cast<double>(info.segments) /
                  std::max<std::uint64_t>(1, info.delta_lines),
              static_cast<unsigned long long>(info.raw_lines),
              static_cast<unsigned long long>(info.constant_lines));
  std::printf("  %zu -> %zu bytes (%.2fx); labels %llu bytes (lossless)\n\n",
              first.byte_size(), encoded.size(),
              static_cast<double>(first.byte_size()) / encoded.size(),
              static_cast<unsigned long long>(info.label_bytes));

  const auto dataset = pipeline::InMemoryDataset::make_cam(
      generator, static_cast<std::size_t>(nsamples),
      pipeline::StorageFormat::kEncoded, &codec);

  // CPU-placed decode with the DeepCAM augmentations.
  pipeline::PipelineConfig cpu_cfg;
  cpu_cfg.batch_size = 2;
  cpu_cfg.seed = 3;
  cpu_cfg.worker_threads = 2;
  cpu_cfg.ops = {std::make_shared<pipeline::RandomFlipX>(0.5),
                 std::make_shared<pipeline::RandomFlipY>(0.25)};
  pipeline::DataPipeline cpu_pipe(dataset, codec, cpu_cfg);
  pipeline::Batch batch;
  std::size_t labelled_pixels = 0;
  std::size_t total_pixels = 0;
  while (cpu_pipe.next_batch(batch)) {
    for (const auto& sample : batch.samples) {
      for (const auto label : sample.byte_labels) {
        labelled_pixels += (label != 0);
      }
      total_pixels += sample.byte_labels.size();
    }
  }
  std::printf("cpu pipeline: %llu samples, decode %.1f ms total, "
              "extreme-weather pixels %.2f%%\n",
              static_cast<unsigned long long>(cpu_pipe.stats().samples),
              cpu_pipe.stats().decode_cpu_seconds * 1e3,
              100.0 * static_cast<double>(labelled_pixels) /
                  static_cast<double>(total_pixels));

  // GPU-placed decode: same samples through the warp engine.
  sim::SimGpu gpu({.sm_count = 80, .warps_per_sm = 8});
  pipeline::PipelineConfig gpu_cfg = cpu_cfg;
  gpu_cfg.ops.clear();
  gpu_cfg.decode_placement = codec::Placement::kGpu;
  pipeline::DataPipeline gpu_pipe(dataset, codec, gpu_cfg, &gpu);
  while (gpu_pipe.next_batch(batch)) {
  }
  const auto& gs = gpu_pipe.stats().gpu;
  std::printf("gpu pipeline: %llu samples, %llu warps (one per line), "
              "%llu divergent branches (delta segments + tails), %s moved\n",
              static_cast<unsigned long long>(gpu_pipe.stats().samples),
              static_cast<unsigned long long>(gs.warps),
              static_cast<unsigned long long>(gs.divergent_branches),
              format_bytes(gs.bytes_total()).c_str());
  std::printf("modeled V100 decode (Table I roofline over these counts): "
              "%.2f us for the run\n",
              sim::cori_v100().gpu_kernel_seconds(gs) * 1e6);
  return 0;
}
