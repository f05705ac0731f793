// Diagnostic companion to Table 3: prints, for every matrix in the
// evaluation collection, which algorithm was fastest and spECK's distance
// to it. Not a paper artifact, but the quickest way to see where each
// algorithm family wins.
#include <cstdio>
#include <map>
#include "bench_common.h"
using namespace speck; using namespace speck::bench;
int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  auto corpus = gen::evaluation_collection();
  auto algos = baselines::make_all_algorithms(sim::DeviceSpec::titan_v(), sim::CostModel{});
  auto ms = run_suite(corpus, algos, false);
  std::map<std::string, std::pair<std::string,double>> best;
  std::map<std::string, double> speck_t;
  for (auto& m : ms){
    if (m.status != SpGemmStatus::kOk) continue;
    auto it = best.find(m.matrix);
    if (it==best.end() || m.seconds < it->second.second) best[m.matrix]={m.algorithm,m.seconds};
    if (m.algorithm=="speck") speck_t[m.matrix]=m.seconds;
  }
  for (auto& [mat, w] : best)
    std::printf("%-28s %-10s speck/best=%.2f\n", mat.c_str(), w.first.c_str(), speck_t[mat]/w.second);
}
