// Instruments the benchmark wraps around the library's public API: an
// open-loop request generator, a timing CandidateScorer and CheckpointSink
// for traced searches, and the replay that splits one evaluation's time
// across the layers it passes through. Nothing here lives inside the
// library; every timed call is a public entry point.
#ifndef PERFBENCH_DRIVER_LAYERS_H_
#define PERFBENCH_DRIVER_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/evaluator.h"
#include "core/evolution.h"
#include "core/mutator.h"
#include "core/program.h"
#include "market/dataset.h"
#include "record.h"

namespace perfbench {

namespace core = alphaevolve::core;
namespace market = alphaevolve::market;

/// Open-loop schedule: request k is due at start + k / rate and is issued
/// then, whether or not earlier requests finished; a stalled issuer makes
/// later requests late, and that lateness is part of their latency. The
/// generator's own lateness (issue time minus due time) is kept separately.
class OpenLoop {
 public:
  using IssueFn = std::function<void(int64_t k, Clock::time_point due)>;
  OpenLoop(double rate, IssueFn issue);
  /// Stops and joins.
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Stops issuing and joins the generator. Idempotent.
  void Stop();
  int64_t issued() const { return issued_.load(); }
  /// Generator lateness per request, seconds (valid after Stop).
  const std::vector<double>& lag_s() const { return lag_s_; }

 private:
  void Loop();

  double rate_;
  IssueFn issue_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> issued_{0};
  std::vector<double> lag_s_;
  std::thread thread_;  // last: started after everything it reads
};

/// One full evaluation the search paid for, as the scorer saw it.
struct ScoredEval {
  core::AlphaProgram program;
  uint64_t seed = 0;
  bool valid = false;
  double ic_valid = 0.0;
  double eval_s = 0.0;    ///< Evaluator::Evaluate
  double cutoff_s = 0.0;  ///< the PortfolioCorrelation cutoff loop
};

/// Reproduces the default scoring exactly (Evaluator::Evaluate without test
/// metrics, then the correlation cutoff) and times both halves.
class TimingScorer : public core::CandidateScorer {
 public:
  core::ScoreOutcome Score(
      core::Evaluator& evaluator, const core::AlphaProgram& program,
      uint64_t seed,
      const std::vector<std::vector<double>>& accepted_valid_returns,
      double correlation_cutoff) override;

  std::vector<ScoredEval> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(evals_);
  }

 private:
  std::mutex mu_;
  std::vector<ScoredEval> evals_;
};

/// Wraps ckpt::CheckpointWriter (synchronous publish) and times each
/// snapshot. Snapshots once, at the barrier after batch `last_batch`.
class TimingSink : public core::CheckpointSink {
 public:
  TimingSink(const std::string& dir, const std::string& stem,
             int64_t last_batch);
  bool WantCheckpoint(int64_t batches_committed) override;
  void WriteCheckpoint(const core::EvolutionCheckpoint& checkpoint) override;

  int64_t snapshots() const { return snapshots_; }
  int64_t write_failures() const { return writer_.write_failures(); }
  const std::vector<double>& write_ms() const { return write_ms_; }
  const std::vector<double>& bytes() const { return bytes_; }

 private:
  alphaevolve::ckpt::CheckpointWriter writer_;
  int64_t last_batch_;
  int64_t snapshots_ = 0;
  std::vector<double> write_ms_;
  std::vector<double> bytes_;
};

/// Instruction executions by op class, summed over task-dates, plus the
/// task-dates themselves, as scheduled: a run that goes non-finite stops
/// early, so these count the work a run is given, not the work it finishes.
struct WorkCounts {
  int64_t evals = 0;
  int64_t task_dates = 0;
  int64_t scalar = 0;
  int64_t vector = 0;
  int64_t matrix = 0;
  int64_t relation = 0;

  /// The instruction counts under their record names.
  std::map<std::string, int64_t> ByClass() const {
    return {{"executor.instr_task_dates.scalar", scalar},
            {"executor.instr_task_dates.vector", vector},
            {"executor.instr_task_dates.matrix", matrix},
            {"executor.instr_task_dates.relation", relation}};
  }
};

/// Task-dates one Executor::Run is scheduled for.
int64_t RunTaskDates(const market::Dataset& dataset, bool include_test);
/// Task-dates one Evaluator::ProbeFingerprint is scheduled for (its default
/// 10 train + 4 validation dates).
int64_t ProbeTaskDates(const market::Dataset& dataset);
/// Adds one full Executor::Run of `program` to `counts`.
void AddRunWork(const core::AlphaProgram& program,
                const market::Dataset& dataset, bool include_test,
                WorkCounts* counts);

/// Per-call times of each layer, from replaying (program, seed) pairs
/// through the layer's public entry point one at a time.
struct ReplayTimes {
  std::vector<double> run_ms;          ///< Executor::Run (no test side)
  std::vector<double> ic_backtest_us;  ///< IC + backtest + Sharpe, valid side
  std::vector<double> prune_fp_us;     ///< PruneRedundant + Fingerprint
  std::vector<double> mutate_us;       ///< Mutator::Mutate
  std::vector<double> probe_us;        ///< Evaluator::ProbeFingerprint
  double run_s_total = 0.0;            ///< valid runs only
  int64_t run_task_dates = 0;          ///< valid runs only
  int64_t ic_mismatches = 0;  ///< replayed IC != the recorded one, bitwise
};

/// Replays `pairs` (at most `max_pairs`, evenly spaced). A replayed IC that
/// differs bitwise from the pair's recorded `ic_valid` counts as a mismatch.
ReplayTimes Replay(const market::Dataset& dataset,
                   const core::EvaluatorConfig& eval_config,
                   const core::MutatorConfig& mutator_config,
                   const std::vector<ScoredEval>& pairs, size_t max_pairs,
                   uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LAYERS_H_
