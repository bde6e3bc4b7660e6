#include "sim/arrivals.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace polarstar::sim {

BernoulliArrivals::BernoulliArrivals(std::uint64_t endpoints,
                                     double probability, std::uint64_t seed)
    : key_{static_cast<std::uint32_t>(seed),
           static_cast<std::uint32_t>(seed >> 32)},
      probability_(probability),
      event_(endpoints, 0),
      due_(endpoints, 0) {
  if (endpoints >= 0xFFFFFFFFull) {
    throw std::invalid_argument("BernoulliArrivals: too many endpoints");
  }
  if (probability_ < 1.0) inv_log_q_ = 1.0 / std::log1p(-probability_);
  // About four mean gaps per lap of the wheel, so an armed clock is seldom
  // passed over more than once before it fires.
  const double mean_gap =
      probability_ > 0.0 ? 1.0 / std::min(probability_, 1.0) : 1.0;
  const auto slots = static_cast<std::uint64_t>(
      std::clamp(4.0 * mean_gap, 16.0, 65536.0));
  wheel_.resize(std::bit_ceil(slots));
  wheel_mask_ = wheel_.size() - 1;
}

std::uint64_t BernoulliArrivals::gap(std::uint64_t bits) const {
  // u in (0, 1]: P(gap > k) = P(u <= (1-p)^k) = (1-p)^k.
  const double u = static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;
  const double g = std::floor(std::log(u) * inv_log_q_);
  return 1 + static_cast<std::uint64_t>(std::min(g, 0x1.0p62));
}

}  // namespace polarstar::sim
