// The benchmark's workloads. Each runs in one process, builds its inputs
// from the run's seed, checks its outputs, and fills a Record with either
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "record.h"

namespace perfbench {

/// A candidate-bounded Table-1 / Table-6 search against the expert alpha
/// alpha_D_0, which is both the initial parent and the cutoff set.
struct MiningSpec {
  int num_stocks = 150;
  int num_days = 560;
  int population_size = 100;
  int tournament_size = 10;
  int batch_size = 8;
  int eval_threads = 2;
  int pipeline_depth = 1;
  bool use_pruning = true;
  int64_t max_candidates = 1000;
  /// Set-ups timed per run (setup_s is their median).
  int setups = 5;
  /// Searches per round, each with its own seed; rounds repeat while
  /// --seconds allows, and every repetition must match the first.
  int searches = 4;
};

/// An in-process AlphaService with an on-disk checkpoint directory running
/// a batch of candidate-bounded search jobs under an open-loop read stream,
/// then backtest + stress on every finished job.
struct ServiceSpec {
  int num_stocks = 60;
  int num_days = 300;
  int eval_threads = 2;
  int job_workers = 1;
  int op_workers = 1;
  int jobs = 80;
  int64_t job_candidates = 320;
  int population_size = 64;
  int tournament_size = 8;
  int batch_size = 8;
  int checkpoint_every_batches = 4;
  int setups = 25;
  double read_rate = 300.0;
};

/// Seed of search `i` of a run, derived from the run's --seed.
inline uint64_t SearchSeed(uint64_t seed, int i) {
  return 1000003 * seed + 7919 * static_cast<uint64_t>(i) + 101;
}

void RunMining(const MiningSpec& spec, const Options& options, Record& record);
void RunService(const ServiceSpec& spec, const Options& options,
                Record& record);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
