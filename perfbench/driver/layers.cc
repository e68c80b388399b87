#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/executor.h"
#include "core/opcode.h"
#include "core/pruning.h"
#include "eval/metrics.h"
#include "eval/portfolio.h"
#include "util/rng.h"

namespace perfbench {

namespace eval = alphaevolve::eval;

OpenLoop::OpenLoop(double rate, IssueFn issue)
    : rate_(rate), issue_(std::move(issue)), thread_([this] { Loop(); }) {}

OpenLoop::~OpenLoop() { Stop(); }

void OpenLoop::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void OpenLoop::Loop() {
  const auto start = Clock::now();
  const auto period = std::chrono::duration<double>(1.0 / rate_);
  for (int64_t k = 0; !stop_.load(); ++k) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(period * k);
    // Spin rather than sleep: on virtual machines a timer wake-up alone
    // takes ~80 us at the median and milliseconds at the 99th percentile,
    // which would swamp the latency being measured.
    while (Clock::now() < due && !stop_.load()) {
    }
    if (stop_.load()) break;
    lag_s_.push_back(SecondsBetween(due, Clock::now()));
    issue_(k, due);
    issued_.fetch_add(1);
  }
}

core::ScoreOutcome TimingScorer::Score(
    core::Evaluator& evaluator, const core::AlphaProgram& program,
    uint64_t seed,
    const std::vector<std::vector<double>>& accepted_valid_returns,
    double correlation_cutoff) {
  const auto t0 = Clock::now();
  core::ScoreOutcome out;
  out.baseline = evaluator.Evaluate(program, seed, /*include_test=*/false);
  const auto t1 = Clock::now();
  out.fitness =
      out.baseline.valid ? out.baseline.ic_valid : core::kInvalidFitness;
  if (out.baseline.valid) {
    for (const auto& accepted : accepted_valid_returns) {
      const double corr = eval::PortfolioCorrelation(
          out.baseline.valid_portfolio_returns, accepted);
      if (std::abs(corr) > correlation_cutoff) {
        out.cutoff_discarded = true;
        out.fitness = core::kInvalidFitness;
        break;
      }
    }
  }
  const auto t2 = Clock::now();
  ScoredEval rec;
  rec.program = program;
  rec.seed = seed;
  rec.valid = out.baseline.valid;
  rec.ic_valid = out.baseline.ic_valid;
  rec.eval_s = SecondsBetween(t0, t1);
  rec.cutoff_s = SecondsBetween(t1, t2);
  std::lock_guard<std::mutex> lock(mu_);
  evals_.push_back(std::move(rec));
  return out;
}

namespace {

alphaevolve::ckpt::WriterOptions SyncWriterOptions() {
  alphaevolve::ckpt::WriterOptions options;
  options.every_batches = 0;  // the sink decides when
  options.background = false;  // time the whole publish at the barrier
  return options;
}

}  // namespace

TimingSink::TimingSink(const std::string& dir, const std::string& stem,
                       int64_t last_batch)
    : writer_(dir, stem, SyncWriterOptions()), last_batch_(last_batch) {}

bool TimingSink::WantCheckpoint(int64_t batches_committed) {
  return batches_committed == last_batch_;
}

void TimingSink::WriteCheckpoint(const core::EvolutionCheckpoint& checkpoint) {
  const auto t0 = Clock::now();
  writer_.WriteCheckpoint(checkpoint);
  write_ms_.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  bytes_.push_back(static_cast<double>(writer_.last_snapshot_bytes()));
  ++snapshots_;
}

int64_t RunTaskDates(const market::Dataset& dataset, bool include_test) {
  int64_t dates =
      static_cast<int64_t>(dataset.dates(market::Split::kTrain).size()) +
      static_cast<int64_t>(dataset.dates(market::Split::kValid).size());
  if (include_test) {
    dates += static_cast<int64_t>(dataset.dates(market::Split::kTest).size());
  }
  return dates * dataset.num_tasks();
}

int64_t ProbeTaskDates(const market::Dataset& dataset) {
  const int64_t train = std::min<int64_t>(
      10, static_cast<int64_t>(dataset.dates(market::Split::kTrain).size()));
  const int64_t valid = std::min<int64_t>(
      4, static_cast<int64_t>(dataset.dates(market::Split::kValid).size()));
  return (train + valid) * dataset.num_tasks();
}

void AddRunWork(const core::AlphaProgram& program,
                const market::Dataset& dataset, bool include_test,
                WorkCounts* counts) {
  const int64_t tasks = dataset.num_tasks();
  const int64_t train =
      static_cast<int64_t>(dataset.dates(market::Split::kTrain).size());
  int64_t predict_dates =
      train + static_cast<int64_t>(dataset.dates(market::Split::kValid).size());
  if (include_test) {
    predict_dates +=
        static_cast<int64_t>(dataset.dates(market::Split::kTest).size());
  }
  const auto add = [&](const std::vector<core::Instruction>& instrs,
                       int64_t dates) {
    for (const core::Instruction& ins : instrs) {
      const core::OpInfo& info = core::GetOpInfo(ins.op);
      int64_t* slot = nullptr;
      if (info.is_relation) {
        slot = &counts->relation;
      } else if (info.out == core::OperandType::kScalar) {
        slot = &counts->scalar;
      } else if (info.out == core::OperandType::kVector) {
        slot = &counts->vector;
      } else if (info.out == core::OperandType::kMatrix) {
        slot = &counts->matrix;
      }
      if (slot != nullptr) *slot += dates * tasks;
    }
  };
  add(program.setup, 1);
  add(program.predict, predict_dates);
  add(program.update, train);
  counts->evals += 1;
  counts->task_dates += RunTaskDates(dataset, include_test);
}

ReplayTimes Replay(const market::Dataset& dataset,
                   const core::EvaluatorConfig& eval_config,
                   const core::MutatorConfig& mutator_config,
                   const std::vector<ScoredEval>& pairs, size_t max_pairs,
                   uint64_t seed) {
  ReplayTimes out;
  if (pairs.empty() || max_pairs == 0) return out;
  core::Executor executor(dataset, eval_config.executor);
  core::Evaluator probe_evaluator(dataset, eval_config);
  core::Mutator mutator(mutator_config);
  alphaevolve::Rng rng(seed);
  const auto& valid_dates = dataset.dates(market::Split::kValid);
  const size_t n = std::min(max_pairs, pairs.size());
  for (size_t i = 0; i < n; ++i) {
    const ScoredEval& p = pairs[i * pairs.size() / n];

    auto t0 = Clock::now();
    const core::ExecutionResult r =
        executor.Run(p.program, p.seed, /*include_test=*/false);
    const double run_s = SecondsBetween(t0, Clock::now());
    out.run_ms.push_back(run_s * 1e3);

    if (r.valid) {
      out.run_s_total += run_s;
      out.run_task_dates += RunTaskDates(dataset, false);
      t0 = Clock::now();
      const double ic =
          eval::InformationCoefficient(dataset, valid_dates, r.valid_preds);
      const eval::Backtest bt =
          eval::RunBacktest(dataset, valid_dates, r.valid_preds,
                            eval_config.portfolio, eval_config.costs);
      eval::SharpeRatio(bt.gross);
      out.ic_backtest_us.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
      if (std::memcmp(&ic, &p.ic_valid, sizeof(ic)) != 0) ++out.ic_mismatches;
    } else if (p.valid) {
      ++out.ic_mismatches;
    }

    t0 = Clock::now();
    core::Fingerprint(
        core::PruneRedundant(p.program, mutator_config.limits).pruned);
    out.prune_fp_us.push_back(SecondsBetween(t0, Clock::now()) * 1e6);

    t0 = Clock::now();
    mutator.Mutate(p.program, rng);
    out.mutate_us.push_back(SecondsBetween(t0, Clock::now()) * 1e6);

    t0 = Clock::now();
    probe_evaluator.ProbeFingerprint(p.program, p.seed);
    out.probe_us.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
  }
  return out;
}

}  // namespace perfbench
