// Regenerates Figure 14: global load balancer permanently off / on versus
// spECK's automatic decision, over matrices ordered by product count.
// The paper: the automatic decision stays within ~2% of the best choice and
// roughly doubles small-matrix performance versus always-on.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "speck/speck.h"

using namespace speck;
using namespace speck::bench;

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  const auto corpus = gen::evaluation_collection();
  const sim::DeviceSpec device = sim::DeviceSpec::titan_v();
  const sim::CostModel model;

  struct Bucket {
    double off = 0.0, on = 0.0, automatic = 0.0, best = 0.0;
    int count = 0;
  };
  std::map<int, Bucket> buckets;

  double total_auto_slowdown = 0.0;
  int matrices = 0;
  for (const auto& entry : corpus) {
    double seconds[3] = {0, 0, 0};
    const GlobalLbMode modes[3] = {GlobalLbMode::kAlwaysOff, GlobalLbMode::kAlwaysOn,
                                   GlobalLbMode::kAuto};
    bool ok = true;
    for (int v = 0; v < 3; ++v) {
      SpeckConfig config;
      config.thresholds = reduced_scale_thresholds();
      Speck speck(device, model, config);
      speck.config().features.set_global_lb(modes[v]);
      const SpGemmResult result = speck.multiply(entry.a, entry.b);
      ok = ok && result.ok();
      if (!ok) break;
      seconds[v] = result.seconds;
    }
    if (!ok) continue;
    const double best = std::min({seconds[0], seconds[1], seconds[2]});
    const int bucket = static_cast<int>(
        std::floor(std::log10(std::max<double>(
            static_cast<double>(entry.products()), 100.0))));
    Bucket& b = buckets[bucket];
    b.off += seconds[0] / best;
    b.on += seconds[1] / best;
    b.automatic += seconds[2] / best;
    ++b.count;
    total_auto_slowdown += seconds[2] / std::min(seconds[0], seconds[1]);
    ++matrices;
  }

  std::printf("Figure 14: global load balancer off/on/automatic "
              "(mean slowdown to fastest, by products)\n\n");
  const std::vector<int> widths{13, 8, 11, 10, 10, 7};
  print_row({"products>=", "#mat", "always off", "always on", "automatic", ""},
            widths);
  for (const auto& [bucket, b] : buckets) {
    print_row({format_double(std::pow(10.0, bucket), 0), std::to_string(b.count),
               format_double(b.off / b.count), format_double(b.on / b.count),
               format_double(b.automatic / b.count), ""},
              widths);
  }
  std::printf("\naverage slowdown of the automatic decision vs best of on/off:"
              " %.1f%% (paper: <2%%)\n",
              100.0 * (total_auto_slowdown / std::max(matrices, 1) - 1.0));
  return 0;
}
