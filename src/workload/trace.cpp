#include "workload/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "sim/network.h"
#include "sim/simulation.h"

namespace polarstar::workload {

namespace {

constexpr const char* kHeader = "# polarstar workload trace v1";

[[noreturn]] void parse_error(std::size_t line, const std::string& what) {
  throw std::runtime_error("workload trace line " + std::to_string(line) +
                           ": " + what);
}

/// The whitespace-separated tokens of one line.
std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t at = 0;
  while (true) {
    at = line.find_first_not_of(" \t\r", at);
    if (at == std::string_view::npos) return out;
    const std::size_t end = std::min(line.find_first_of(" \t\r", at),
                                     line.size());
    out.push_back(line.substr(at, end - at));
    at = end;
  }
}

/// An unsigned decimal token. Unlike `>>` into an unsigned, this rejects a
/// sign (which `>>` wraps) and values past 2^64 - 1.
bool to_uint(std::string_view tok, std::uint64_t& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void write_trace(std::ostream& os, const Trace& trace) {
  os << kHeader << '\n';
  os << "endpoints " << trace.num_endpoints << '\n';
  os << "packet_flits " << trace.packet_flits << '\n';
  os << "events " << trace.events.size() << '\n';
  for (const TraceEvent& e : trace.events) {
    os << e.cycle << ' ' << e.src << ' ' << e.dst << ' ' << e.flits << '\n';
  }
}

void write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  write_trace(os, trace);
  if (!os) throw std::runtime_error("write failed: " + path);
}

Trace read_trace(std::istream& is) {
  Trace trace;
  std::string line;
  std::size_t lineno = 0;

  auto next_line = [&]() {
    if (!std::getline(is, line)) parse_error(lineno + 1, "unexpected EOF");
    ++lineno;
  };

  next_line();
  if (line != kHeader) parse_error(lineno, "bad header (expected v1)");

  std::uint64_t expected_events = 0;
  for (const char* key : {"endpoints", "packet_flits", "events"}) {
    next_line();
    const auto tok = split(line);
    std::uint64_t value = 0;
    if (tok.size() != 2 || tok[0] != key || !to_uint(tok[1], value)) {
      parse_error(lineno, std::string("expected \"") + key + " <n>\"");
    }
    if (tok[0] == "endpoints") trace.num_endpoints = value;
    if (tok[0] == "packet_flits") {
      if (value == 0 || value > UINT32_MAX) {
        parse_error(lineno, "packet_flits out of range");
      }
      trace.packet_flits = static_cast<std::uint32_t>(value);
    }
    if (tok[0] == "events") expected_events = value;
  }

  // The count is untrusted: reserve at most a bounded prefix, and let a
  // short file end in "unexpected EOF" rather than an allocation failure.
  constexpr std::uint64_t kMaxReserve = 1 << 16;
  trace.events.reserve(std::min(expected_events, kMaxReserve));
  std::uint64_t last_cycle = 0;
  for (std::uint64_t i = 0; i < expected_events; ++i) {
    next_line();
    const auto tok = split(line);
    TraceEvent e;
    std::uint64_t flits = 0;
    if (tok.size() != 4 || !to_uint(tok[0], e.cycle) ||
        !to_uint(tok[1], e.src) || !to_uint(tok[2], e.dst) ||
        !to_uint(tok[3], flits) || flits > UINT32_MAX) {
      parse_error(lineno, "expected \"<cycle> <src> <dst> <flits>\"");
    }
    e.flits = static_cast<std::uint32_t>(flits);
    if (e.cycle < last_cycle) parse_error(lineno, "cycles not monotone");
    if (e.src >= trace.num_endpoints || e.dst >= trace.num_endpoints) {
      parse_error(lineno, "endpoint out of range");
    }
    last_cycle = e.cycle;
    trace.events.push_back(e);
  }
  return trace;
}

Trace read_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  return read_trace(is);
}

void TraceRecorder::on_run_begin(const sim::Network& net,
                                 const sim::SimParams& prm,
                                 std::uint64_t /*measure_begin*/,
                                 std::uint64_t /*measure_end*/) {
  trace_ = Trace{};
  trace_.num_endpoints = net.topology().num_endpoints();
  trace_.packet_flits = prm.packet_flits;
}

void TraceRecorder::on_packet_injected(const sim::PacketRecord& pkt,
                                       std::uint64_t cycle) {
  trace_.events.push_back(
      TraceEvent{cycle, pkt.src_endpoint, pkt.dst_endpoint, pkt.flits});
}

namespace {

/// Cursor replay: each tick injects, in recorded order, every event whose
/// cycle has arrived. The simulator ticks sources once per cycle starting
/// at cycle 0, so `event.cycle <= sim.cycle()` reproduces the original
/// injection cycles exactly (and drains any pre-warmup backlog if a trace
/// is replayed into a later-starting window).
class TraceSource final : public sim::TrafficSource {
 public:
  explicit TraceSource(const Trace* trace) : trace_(trace) {}

  void tick(sim::Simulation& sim) override {
    const auto& ev = trace_->events;
    while (cursor_ < ev.size() && ev[cursor_].cycle <= sim.cycle()) {
      sim.enqueue_packet(ev[cursor_].src, ev[cursor_].dst);
      ++cursor_;
    }
  }

  bool finished(const sim::Simulation& sim) const override {
    return cursor_ >= trace_->events.size() &&
           sim.outstanding_packets() == 0;
  }

 private:
  const Trace* trace_;  // owned by the TraceReplay workload
  std::size_t cursor_ = 0;
};

}  // namespace

TraceReplay::TraceReplay(Trace trace) : trace_(std::move(trace)) {}

std::string TraceReplay::describe() const {
  std::ostringstream os;
  os << trace_.events.size() << " events, " << trace_.num_endpoints
     << " endpoints, " << trace_.packet_flits << " flits/packet";
  return os.str();
}

std::unique_ptr<sim::TrafficSource> TraceReplay::instantiate(
    const Context& ctx) const {
  if (ctx.topo == nullptr || ctx.topo->num_endpoints() < trace_.num_endpoints) {
    throw std::invalid_argument("trace replay: topology too small for trace");
  }
  if (ctx.packet_flits != trace_.packet_flits) {
    throw std::invalid_argument(
        "trace replay: packet_flits mismatch (trace " +
        std::to_string(trace_.packet_flits) + ", params " +
        std::to_string(ctx.packet_flits) + ")");
  }
  for (const TraceEvent& e : trace_.events) {
    if (e.flits != trace_.packet_flits) {
      throw std::invalid_argument(
          "trace replay: non-uniform packet size in trace (simulator "
          "injects SimParams::packet_flits for every packet)");
    }
  }
  return std::make_unique<TraceSource>(&trace_);
}

}  // namespace polarstar::workload
