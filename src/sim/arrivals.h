// Open-loop Bernoulli arrivals in O(injections) per cycle.
//
// Each endpoint injects a packet in each cycle independently with
// probability p. Instead of drawing one coin per endpoint per cycle, every
// endpoint draws the geometric gap to its next arrival and waits in a
// cycle-indexed bucket until then -- the same Bernoulli process, at a cost
// per arrival instead of per endpoint-cycle.
//
// Randomness is counter-based (Philox4x32-10; Salmon, Moraes, Dror and
// Shaw, "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11): the draws of
// endpoint e's k-th arrival are a pure function of (seed, e, k), so no
// endpoint's stream depends on the order in which other endpoints are
// visited.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace polarstar::sim {

/// Philox4x32-10: 128-bit counter, 64-bit key, ten rounds.
inline std::array<std::uint32_t, 4> philox4x32(
    std::array<std::uint32_t, 4> ctr, std::array<std::uint32_t, 2> key) {
  constexpr std::uint64_t kM0 = 0xD2511F53u, kM1 = 0xCD9E8D57u;
  for (int round = 0; round < 10; ++round) {
    if (round > 0) {
      key[0] += 0x9E3779B9u;
      key[1] += 0xBB67AE85u;
    }
    const std::uint64_t p0 = kM0 * ctr[0], p1 = kM1 * ctr[2];
    ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
           static_cast<std::uint32_t>(p1),
           static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
           static_cast<std::uint32_t>(p0)};
  }
  return ctr;
}

/// The 64-bit draws of one (stream, event) pair: words 0-1 then 2-3 of
/// Philox block (event, stream, lane 0), then lane 1, and so on. Satisfies
/// UniformRandomBitGenerator.
class EventDraws {
 public:
  using result_type = std::uint64_t;
  EventDraws(std::array<std::uint32_t, 2> key, std::uint32_t stream,
             std::uint64_t event)
      : key_(key), stream_(stream), event_(event) {}

  std::uint64_t operator()() {
    if ((next_ & 1u) == 0) {
      block_ = philox4x32({static_cast<std::uint32_t>(event_),
                           static_cast<std::uint32_t>(event_ >> 32), stream_,
                           next_ >> 1},
                          key_);
    }
    const std::uint32_t w = (next_++ & 1u) * 2;
    return static_cast<std::uint64_t>(block_[w]) << 32 | block_[w + 1];
  }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ull; }

 private:
  std::array<std::uint32_t, 2> key_;
  std::uint32_t stream_;
  std::uint64_t event_;
  std::uint32_t next_ = 0;
  std::array<std::uint32_t, 4> block_{};
};

/// Per-endpoint Bernoulli(p) arrival clocks over a bucket wheel.
class BernoulliArrivals {
 public:
  /// Streams 0..endpoints-1 belong to the endpoints; stream `endpoints` is
  /// left for setup draws (see setup_draws()).
  BernoulliArrivals(std::uint64_t endpoints, double probability,
                    std::uint64_t seed);

  /// Draws for one-time setup (permutations, hot spots), disjoint from
  /// every endpoint's stream.
  EventDraws setup_draws() const {
    return {key_, static_cast<std::uint32_t>(event_.size()), 0};
  }

  /// The draws of endpoint e's next event, without scheduling anything
  /// (destination probes outside a run).
  EventDraws next_draws(std::uint64_t e) {
    return {key_, static_cast<std::uint32_t>(e), ++event_[e]};
  }

  /// Arms the clock of every endpoint `may_send(e)` accepts; the first
  /// arrivals fall at `cycle` or later. Call once, before fire().
  template <class MaySend>
  void start(std::uint64_t cycle, MaySend&& may_send) {
    if (!(probability_ > 0.0)) return;
    for (std::uint64_t e = 0; e < event_.size(); ++e) {
      if (!may_send(e)) continue;
      EventDraws d(key_, static_cast<std::uint32_t>(e), 0);
      schedule(e, cycle - 1 + gap(d()));
    }
  }

  /// Calls on_arrival(e, draws) for every endpoint arriving at `cycle`
  /// (cycles must be fired in order, each once), then re-arms its clock.
  /// The first draw of each event goes to the gap; `draws` continues the
  /// same event's stream for the caller.
  template <class OnArrival>
  void fire(std::uint64_t cycle, OnArrival&& on_arrival) {
    std::vector<std::uint32_t>& bucket = wheel_[cycle & wheel_mask_];
    if (bucket.empty()) return;
    firing_.swap(bucket);
    for (const std::uint32_t e : firing_) {
      if (due_[e] != cycle) {  // a later lap of the wheel
        wheel_[cycle & wheel_mask_].push_back(e);
        continue;
      }
      EventDraws d = next_draws(e);
      const std::uint64_t next = cycle + gap(d());
      on_arrival(static_cast<std::uint64_t>(e), d);
      schedule(e, next);
    }
    firing_.clear();
  }

 private:
  /// Geometric(p) on {1, 2, ...} by inversion of one 64-bit draw.
  std::uint64_t gap(std::uint64_t bits) const;
  void schedule(std::uint64_t e, std::uint64_t cycle) {
    due_[e] = cycle;
    wheel_[cycle & wheel_mask_].push_back(static_cast<std::uint32_t>(e));
  }

  std::array<std::uint32_t, 2> key_;
  double probability_;
  double inv_log_q_ = 0.0;  // 1 / ln(1 - p); 0 when p >= 1
  std::vector<std::uint64_t> event_;  // per endpoint: events drawn so far
  std::vector<std::uint64_t> due_;    // per endpoint: next arrival cycle
  std::vector<std::vector<std::uint32_t>> wheel_;
  std::uint64_t wheel_mask_ = 0;
  std::vector<std::uint32_t> firing_;  // the bucket being fired
};

}  // namespace polarstar::sim
