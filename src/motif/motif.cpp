#include "motif/motif.h"

#include <stdexcept>

namespace polarstar::motif {

StepProgram::StepProgram(std::uint32_t ranks, std::uint32_t packets_per_message)
    : ranks_(ranks),
      ppm_(packets_per_message),
      program_(ranks),
      current_step_(ranks, 0),
      sends_outstanding_(ranks, 0),
      sends_issued_(ranks, 0),
      recv_packets_(ranks) {
  if (ranks == 0 || packets_per_message == 0) {
    throw std::invalid_argument("StepProgram: ranks and message size > 0");
  }
}

void StepProgram::set_program(std::uint32_t rank, std::vector<Step> steps) {
  if (steps_len_ == 0) steps_len_ = steps.size();
  if (steps.size() != steps_len_) {
    throw std::invalid_argument(
        "StepProgram: all ranks must have the same step count (pad with "
        "empty steps)");
  }
  program_.at(rank) = std::move(steps);
  recv_packets_[rank].assign(steps_len_, 0);
}

void StepProgram::issue_step(sim::Simulation& sim, std::uint32_t rank) {
  const std::uint32_t step = current_step_[rank];
  const auto& st = program_[rank][step];
  sends_issued_[rank] = 1;
  for (std::uint32_t dst : st.send_to) {
    // Tag encodes (sender, step) so delivery can credit both sides.
    const std::uint64_t tag =
        1 + static_cast<std::uint64_t>(rank) * steps_len_ + step;
    for (std::uint32_t p = 0; p < ppm_; ++p) {
      sim.enqueue_packet(rank, dst, tag);
    }
    sends_outstanding_[rank] += ppm_;
    ++messages_sent_;
  }
}

void StepProgram::try_advance(sim::Simulation& sim, std::uint32_t rank) {
  while (current_step_[rank] < program_[rank].size()) {
    const std::uint32_t step = current_step_[rank];
    const auto& st = program_[rank][step];
    const bool recvs_done =
        recv_packets_[rank][step] >=
        static_cast<std::uint64_t>(st.recv_messages) * ppm_;
    if (!sends_issued_[rank]) {
      // Wavefront steps hold their sends until the receives land.
      if (st.send_after_recv && !recvs_done) return;
      issue_step(sim, rank);
    }
    if (sends_outstanding_[rank] != 0 || !recvs_done) return;
    ++current_step_[rank];
    sends_issued_[rank] = 0;
    // Loop back: the next step issues its sends per its own policy.
  }
}

void StepProgram::tick(sim::Simulation& sim) {
  if (started_) return;
  // Rank i is endpoint i, and enqueue_packet does not check its endpoints.
  if (ranks_ > sim.network().topology().num_endpoints()) {
    throw std::invalid_argument(
        "StepProgram: more ranks than the topology has endpoints");
  }
  started_ = true;
  // try_advance issues each rank's first sends (immediately for exchange
  // steps, after receives for wavefront steps) and skips empty steps.
  for (std::uint32_t r = 0; r < ranks_; ++r) try_advance(sim, r);
}

void StepProgram::on_delivered(sim::Simulation& sim,
                               const sim::PacketRecord& pkt) {
  const std::uint64_t tag = pkt.tag - 1;
  const std::uint32_t receiver = static_cast<std::uint32_t>(pkt.dst_endpoint);
  // Sender and step are recoverable because all ranks share a step count.
  const std::uint32_t sender = static_cast<std::uint32_t>(tag / steps_len_);
  const std::uint32_t step = static_cast<std::uint32_t>(tag % steps_len_);
  --sends_outstanding_[sender];
  if (step < recv_packets_[receiver].size()) {
    ++recv_packets_[receiver][step];
  }
  try_advance(sim, sender);
  try_advance(sim, receiver);
}

bool StepProgram::finished(const sim::Simulation&) const {
  if (!started_) return false;
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    if (current_step_[r] < program_[r].size()) return false;
  }
  return true;
}

}  // namespace polarstar::motif
