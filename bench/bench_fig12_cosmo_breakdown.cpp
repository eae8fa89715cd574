// Figure 12 reproduction — CosmoFlow per-sample time breakdown (small set,
// batch 4) on Summit and Cori-V100 for base, gzip, and the plugin.
//
// Paper shape: the baseline is dominated by host CPU preprocessing, leaving
// the GPU underutilized; gzip decompression is cheaper on Cori but still
// slows the end-to-end run; the plugin removes the host bottleneck and
// reveals the raw V100/A100 performance; Summit's NVLink shrinks the
// baseline's H2D cost relative to Cori's PCIe 3.0.
#include <cstdio>

#include "bench_util.hpp"
#include "sciprep/apps/measure.hpp"

int main(int argc, char** argv) {
  using namespace sciprep;
  using apps::LoaderConfig;
  const auto args = benchutil::parse_bench_args(argc, argv);
  perfscope::BenchReporter reporter("fig12_cosmo_breakdown");
  reporter.set_config("small-set batch=4");

  benchutil::print_header(
      "Figure 12 — CosmoFlow time breakdown (ms/sample), small set, batch 4");
  std::printf("measuring codec paths on this host...\n\n");
  const auto base = apps::measure_cosmo(LoaderConfig::kBaseline);
  const auto gz = apps::measure_cosmo(LoaderConfig::kGzip);
  const auto plug = apps::measure_cosmo(LoaderConfig::kGpuPlugin);

  std::printf("%-10s %-8s | %-9s %-9s | %-7s %-9s %-9s %-9s | %-9s\n",
              "platform", "config", "io", "hostPrep", "h2d", "gpuDecode",
              "gpuModel", "allreduce", "step");
  for (const auto& platform : {sim::summit(), sim::cori_v100()}) {
    const std::uint64_t samples_per_node =
        128ull * static_cast<std::uint64_t>(platform.gpus_per_node);
    const auto scenario = benchutil::make_scenario(platform, samples_per_node,
                                                   true, 4, /*deepcam=*/false);
    struct Named {
      const char* name;
      const sim::WorkloadProfile* profile;
    };
    for (const Named& cfg :
         {Named{"base", &base.profile}, Named{"gzip", &gz.profile},
          Named{"plugin", &plug.profile}}) {
      const auto b = sim::model_step(scenario, *cfg.profile);
      std::printf(
          "%-10s %-8s | %-9.2f %-9.2f | %-7.2f %-9.3f %-9.2f %-9.2f | "
          "%-9.2f\n",
          platform.name.c_str(), cfg.name, b.io_read * 1e3, b.host_work * 1e3,
          b.h2d * 1e3, b.gpu_decode * 1e3, b.gpu_compute * 1e3,
          b.allreduce * 1e3, b.step_seconds() * 1e3);
    }
    std::printf("\n");
  }

  const auto v100 = benchutil::make_scenario(
      sim::cori_v100(),
      128ull * static_cast<std::uint64_t>(sim::cori_v100().gpus_per_node),
      true, 4, /*deepcam=*/false);
  const auto b_base = sim::model_step(v100, base.profile);
  const auto b_plug = sim::model_step(v100, plug.profile);
  const double decode_fraction = b_plug.gpu_decode / b_plug.step_seconds();
  std::printf(
      "paper: decode overhead < 1%% of per-sample processing for CosmoFlow;\n"
      "modeled Cori-V100 plugin: gpuDecode is %.2f%% of the step.\n",
      100.0 * decode_fraction);

  reporter.add_metric("step_seconds.cori_v100.baseline",
                      b_base.step_seconds(), "seconds", "modeled",
                      /*better_higher=*/false);
  reporter.add_metric("step_seconds.cori_v100.plugin", b_plug.step_seconds(),
                      "seconds", "modeled", /*better_higher=*/false);
  reporter.add_metric("decode_fraction.plugin", decode_fraction, "fraction",
                      "modeled", /*better_higher=*/false);
  reporter.charge_sim_seconds(b_base.step_seconds() + b_plug.step_seconds());
  benchutil::finish(args, reporter);
  return 0;
}
