// EXP-NOC — per-link NoC traffic of the MNIST applications.
//
// The paper characterizes the two NoCs in aggregate (area share, inter-chip
// I/O energy); this bench drills into the per-link accounting the noc
// subsystem adds: which links carry partial sums vs spikes, how evenly the
// mapper spreads traffic over the mesh, how many wire toggles the payloads
// cause, and — the cross-check that anchors the power model — that the
// traffic *measured* by the cycle simulator on inter-chip links equals the
// static per-timestep census of the compiled schedule.
//
// Prints the roll-up, the ten busiest links, and a congestion heatmap of
// the tile grid. SHENJING_FAST=1 shrinks the workloads. Exits 1 when any
// app's measured inter-chip traffic disagrees with the census.
#include <algorithm>

#include "bench_util.h"
#include "harness/pipeline.h"
#include "power/power.h"

using namespace sj;
using harness::App;

namespace {

/// Prints one app's report; returns whether the measured inter-chip traffic
/// matches the census.
bool report_app(const harness::AppResult& r) {
  // Topology only: counters come from the sim run, no router state needed.
  const noc::NocTopology topo = map::make_topology(r.mapped);
  const noc::TrafficReport rep = noc::TrafficReport::build(
      topo, r.sim_stats.noc, r.sim_stats.cycles, r.sim_stats.iterations, r.name);

  std::printf("\n--- %s: %lld cores, %zu links, %llu cycles observed ---\n",
              r.name.c_str(), static_cast<long long>(r.cores), topo.num_links(),
              static_cast<unsigned long long>(r.sim_stats.cycles));
  bench::print_traffic_summary(rep);

  // Measured inter-chip traffic vs the static schedule census (power-model
  // anchor: both must describe the same boundary crossings per timestep).
  const power::OpCensus census = power::OpCensus::from(r.mapped);
  const i64 it = r.sim_stats.iterations;
  const i64 meas_ps = it > 0 ? rep.interchip_ps_bits / it : 0;
  const i64 meas_spk = it > 0 ? rep.interchip_spike_bits / it : 0;
  const bool agree =
      meas_ps == census.interchip_ps_bits && meas_spk == census.interchip_spike_bits;
  std::printf("  inter-chip bits/timestep: measured %lld+%lld vs census %lld+%lld (%s)\n",
              static_cast<long long>(meas_ps), static_cast<long long>(meas_spk),
              static_cast<long long>(census.interchip_ps_bits),
              static_cast<long long>(census.interchip_spike_bits),
              agree ? "MATCH" : "MISMATCH");

  // Busiest links.
  std::vector<const noc::LinkUse*> busy;
  for (const noc::LinkUse& u : rep.links) {
    if (!u.traffic.idle()) busy.push_back(&u);
  }
  std::sort(busy.begin(), busy.end(), [](const noc::LinkUse* a, const noc::LinkUse* b) {
    return a->traffic.total_bits() > b->traffic.total_bits();
  });
  std::vector<std::vector<std::string>> t;
  t.push_back({"link", "dir", "ps flits", "ps toggles", "spike flits", "util", "interchip"});
  for (usize i = 0; i < std::min<usize>(busy.size(), 10); ++i) {
    const noc::LinkUse& u = *busy[i];
    t.push_back({to_string(u.link.src_pos) + "->" + to_string(u.link.dst_pos),
                 dir_name(u.link.dir), std::to_string(u.traffic.ps_flits),
                 std::to_string(u.traffic.ps_toggles),
                 std::to_string(u.traffic.spike_flits),
                 bench::pct(u.ps_utilization + u.spike_utilization),
                 u.link.interchip ? "yes" : "no"});
  }
  bench::print_table(t);

  std::printf("traffic heatmap (payload bits per tile, ' '=idle '@'=peak):\n%s",
              rep.ascii_heatmap().c_str());
  return agree;
}

}  // namespace

int main() {
  bench::heading("EXP-NOC — per-link partial-sum & spike NoC traffic",
                 "per-link accounting, busiest links, congestion heatmap");

  const App apps[2] = {App::MnistMlp, App::MnistCnn};
  bool all_match = true;
  for (const App a : apps) {
    std::printf("[running %s ...]\n", harness::app_name(a));
    std::fflush(stdout);
    all_match = report_app(harness::run_app(harness::AppConfig::paper_default(a))) && all_match;
  }
  return all_match ? 0 : 1;
}
