#include "fault/schedule.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>

#include "fault/degrade.h"

namespace polarstar::fault {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kLinkDown:
      return "link-down";
    case EventKind::kLinkUp:
      return "link-up";
    case EventKind::kRouterDown:
      return "router-down";
    case EventKind::kRouterUp:
      return "router-up";
  }
  return "?";
}

void check_event(const topo::Topology& topo, const FaultEvent& ev) {
  const graph::Vertex n = topo.num_routers();
  const bool link = ev.kind == EventKind::kLinkDown ||
                    ev.kind == EventKind::kLinkUp;
  const char* problem = nullptr;
  if (ev.a >= n || (link && ev.b >= n)) {
    problem = "router id out of range";
  } else if (link && !topo.g.has_edge(ev.a, ev.b)) {
    problem = "routers are not adjacent";
  }
  if (problem == nullptr) return;
  std::string what = std::string("fault event ") + to_string(ev.kind) + " " +
                     std::to_string(ev.a);
  if (link) what += "-" + std::to_string(ev.b);
  throw std::invalid_argument(what + " at cycle " + std::to_string(ev.cycle) +
                              ": " + problem + " (" + std::to_string(n) +
                              " routers)");
}

FaultSchedule FaultSchedule::from_events(std::vector<FaultEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.cycle < y.cycle;
                   });
  FaultSchedule s;
  s.events_ = std::move(events);
  return s;
}

FaultSchedule FaultSchedule::random(const topo::Topology& topo,
                                    const ScheduleSpec& spec,
                                    std::uint64_t seed) {
  if (!(spec.link_fail_fraction >= 0.0 && spec.link_fail_fraction <= 1.0)) {
    throw std::invalid_argument(
        "FaultSchedule::random: link_fail_fraction " +
        std::to_string(spec.link_fail_fraction) + " is not in [0, 1]");
  }
  std::vector<FaultEvent> events;

  // Strike cycle of the i-th of k failures, evenly spaced over the window.
  const auto strike = [&spec](std::size_t i, std::size_t k) {
    if (spec.end_cycle <= spec.begin_cycle || k == 0) return spec.begin_cycle;
    const std::uint64_t span = spec.end_cycle - spec.begin_cycle;
    return spec.begin_cycle + span * i / k;
  };
  const auto add = [&](EventKind down, EventKind up, graph::Vertex a,
                       graph::Vertex b, std::uint64_t cycle) {
    events.push_back({cycle, down, a, b});
    if (spec.repair_after > 0) {
      events.push_back({cycle + spec.repair_after, up, a, b});
    }
  };

  const auto order = shuffled_edges(topo.g, seed);
  const std::size_t k = static_cast<std::size_t>(
      spec.link_fail_fraction * static_cast<double>(order.size()));
  for (std::size_t i = 0; i < k && i < order.size(); ++i) {
    add(EventKind::kLinkDown, EventKind::kLinkUp, order[i].first,
        order[i].second, strike(i, k));
  }

  if (spec.router_failures > 0) {
    // A distinct RNG stream so adding router failures never reorders the
    // link failure prefix; carriers first so losses are actually exercised.
    std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
    std::vector<graph::Vertex> routers(topo.num_routers());
    std::iota(routers.begin(), routers.end(), 0u);
    std::shuffle(routers.begin(), routers.end(), rng);
    std::stable_partition(routers.begin(), routers.end(),
                          [&topo](graph::Vertex r) { return topo.conc[r] > 0; });
    const std::size_t rk =
        std::min<std::size_t>(spec.router_failures, routers.size());
    for (std::size_t i = 0; i < rk; ++i) {
      add(EventKind::kRouterDown, EventKind::kRouterUp, routers[i], 0,
          strike(i, rk));
    }
  }
  return from_events(std::move(events));
}

}  // namespace polarstar::fault
