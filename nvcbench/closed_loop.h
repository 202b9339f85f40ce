// Closed-loop load for one Database: the next epoch is handed to
// ExecuteEpoch as soon as the previous call returns, and each epoch is timed
// from that call to its durable callback.
//
// Epochs are generated in chunks outside the timed region: the first chunk
// during set-up, later ones while the clock is stopped, after WaitIdle has
// drained the persistence tail so that generation never overlaps engine
// work. Set-up cost therefore stays bounded however fast the engine runs.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "nvcbench/bench_util.h"
#include "nvcbench/report.h"

namespace nvcbench {

using EpochMaker = std::function<TxnBatch()>;

struct SegmentResult {
  std::size_t epochs = 0;
  Outcomes outcomes;
  double wall_seconds = 0;  // timed region only (generation excluded)
  double cpu_seconds = 0;   // process CPU over the timed region
  std::vector<EpochSample> samples;  // durable epochs, in order
  std::vector<double> call_ms;     // ExecuteEpoch call -> return
  std::vector<double> lag_ms;      // ExecuteEpoch return -> durable callback
  nvc::sim::NvmCounters nvm;       // device ledger over the timed region
  EngineCounters engine;
  bool crashed = false;            // an epoch or tail crashed unexpectedly
};

EndToEnd ToEndToEnd(const SegmentResult& segment);
LayerInputs ToLayerInputs(const SegmentResult& segment);

class ClosedLoop {
 public:
  ClosedLoop(nvc::core::Database& db, nvc::sim::NvmDevice& device, Tracer& tracer,
             EpochMaker make, std::size_t chunk_epochs);
  ~ClosedLoop();
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  // Generates one chunk of epochs ahead of time.
  void Prefetch();

  // Runs epochs until `seconds` of timed work have passed or, when
  // max_epochs is non-zero, max_epochs epochs have run.
  SegmentResult Run(double seconds, std::size_t max_epochs);

  // Epochs and transactions executed so far (the reference replays as many).
  std::size_t epochs_run() const { return epochs_run_; }
  std::uint64_t generated_txns() const { return generated_txns_; }
  double total_gen_seconds() const { return total_gen_seconds_; }

 private:
  nvc::core::Database& db_;
  nvc::sim::NvmDevice& device_;
  Tracer& tracer_;
  EpochMaker make_;
  std::size_t chunk_epochs_;
  DurableLog durable_;
  std::deque<TxnBatch> ready_;
  std::size_t epochs_run_ = 0;
  std::size_t generated_epochs_ = 0;
  std::uint64_t generated_txns_ = 0;
  double total_gen_seconds_ = 0;
};

}  // namespace nvcbench
