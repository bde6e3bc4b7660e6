// Dependency-driven communication-motif engine -- the SST/Ember substitute
// behind Fig 11.
//
// A motif is a per-rank program of steps. In each step a rank sends one
// message to each listed peer and waits for a given number of messages
// (from the same global step index); it advances when all its sends have
// drained into the destinations and all expected receives arrived. Step
// indices are globally aligned (iteration-major), so early arrivals from
// faster neighbors are buffered by counting them toward their step.
//
// Ranks map linearly onto endpoints (rank i = endpoint i), matching the
// paper's setup; tick() throws std::invalid_argument when there are more
// ranks than the topology has endpoints. Messages are split into packets of the simulator's packet
// size; message size is expressed in packets per message.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulation.h"

namespace polarstar::motif {

class StepProgram : public sim::TrafficSource {
 public:
  struct Step {
    std::vector<std::uint32_t> send_to;  // destination ranks
    std::uint32_t recv_messages = 0;     // messages expected in this step
    /// false: sends go out on entering the step (concurrent exchange, as in
    /// allreduce). true: sends wait for the step's receives first
    /// (wavefront dependency, as in Sweep3D).
    bool send_after_recv = false;
  };

  /// All ranks share the same number of steps (pad with empty steps).
  StepProgram(std::uint32_t ranks, std::uint32_t packets_per_message);

  void set_program(std::uint32_t rank, std::vector<Step> steps);

  std::uint32_t num_ranks() const { return ranks_; }
  std::uint32_t packets_per_message() const { return ppm_; }

  // sim::TrafficSource:
  void tick(sim::Simulation& sim) override;
  void on_delivered(sim::Simulation& sim,
                    const sim::PacketRecord& pkt) override;
  bool finished(const sim::Simulation& sim) const override;

  /// Total messages injected (sanity/statistics).
  std::uint64_t messages_sent() const { return messages_sent_; }

 private:
  void issue_step(sim::Simulation& sim, std::uint32_t rank);
  void try_advance(sim::Simulation& sim, std::uint32_t rank);

  std::uint32_t ranks_;
  std::uint32_t ppm_;
  std::size_t steps_len_ = 0;  // uniform step count across ranks
  std::vector<std::vector<Step>> program_;       // per rank
  std::vector<std::uint32_t> current_step_;      // per rank
  std::vector<std::uint64_t> sends_outstanding_; // packets in flight per rank
  std::vector<std::uint8_t> sends_issued_;       // current step's sends out?
  // recv_packets_[rank][step]: packets received for that step so far.
  std::vector<std::vector<std::uint64_t>> recv_packets_;
  std::uint64_t messages_sent_ = 0;
  bool started_ = false;
};

}  // namespace polarstar::motif
