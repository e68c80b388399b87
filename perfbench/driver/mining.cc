// Mining workloads (table1_125, table1_1k, table6_functional): one process
// sets up the market, the evaluator pool and the expert alpha, then runs
// the workload's candidate-bounded searches, one seed each, and repeats
// them while --seconds allows.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>

#include "core/evaluator_pool.h"
#include "core/generators.h"
#include "core/mining.h"
#include "core/pruning.h"
#include "eval/metrics.h"
#include "layers.h"
#include "market/types.h"
#include "obs/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The paper benches' calibrated synthetic market (signal strengths put
/// evolved ICs in the paper's 0.01-0.07 band), with a 65/20/15 split so a
/// 560-day calendar leaves ~100 validation dates.
market::Dataset SimulateMarket(int num_stocks, int num_days, uint64_t seed) {
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = num_stocks;
  mc.num_days = num_days;
  mc.seed = seed;
  mc.mean_reversion_strength = 0.03;
  mc.momentum_strength = 0.05;
  mc.relation_break_fraction = 0.6;
  market::DatasetConfig dc;
  dc.train_fraction = 0.65;
  dc.valid_fraction = 0.20;
  return market::Dataset::Simulate(mc, dc);
}

core::EvolutionConfig SearchConfig(const MiningSpec& spec) {
  core::EvolutionConfig cfg;
  cfg.population_size = spec.population_size;
  cfg.tournament_size = spec.tournament_size;
  cfg.max_candidates = spec.max_candidates;
  cfg.time_budget_seconds = 0.0;
  cfg.use_pruning = spec.use_pruning;
  cfg.correlation_cutoff = 0.15;
  cfg.num_threads = spec.eval_threads;
  cfg.batch_size = spec.batch_size;
  cfg.pipeline_depth = spec.pipeline_depth;
  return cfg;
}

/// Everything set-up builds; member order is destruction-safe (the pool
/// and miner reference the dataset).
struct World {
  std::unique_ptr<market::Dataset> dataset;
  std::unique_ptr<core::EvaluatorPool> pool;
  std::unique_ptr<core::WeaklyCorrelatedMiner> miner;
  core::AlphaProgram expert;
  core::AlphaMetrics expert_metrics;
  double simulate_s = 0.0;
};

std::unique_ptr<World> SetUp(const MiningSpec& spec, uint64_t market_seed) {
  auto world = std::make_unique<World>();
  const auto t0 = Clock::now();
  world->dataset = std::make_unique<market::Dataset>(
      SimulateMarket(spec.num_stocks, spec.num_days, market_seed));
  world->simulate_s = SecondsBetween(t0, Clock::now());
  world->pool = std::make_unique<core::EvaluatorPool>(
      *world->dataset, core::EvaluatorConfig{}, spec.eval_threads);
  world->expert = core::MakeExpertAlpha(world->dataset->window());
  // One evaluation per worker creates every leased evaluator up front, so
  // the first timed search does not pay for executor allocation.
  std::vector<core::EvaluatorPool::EvalRequest> warm(
      static_cast<size_t>(spec.eval_threads),
      {&world->expert, /*seed=*/1, /*include_test=*/true});
  world->expert_metrics = world->pool->EvaluateBatch(warm).front();
  if (!spec.use_pruning) world->pool->ProbeFingerprintBatch(warm);
  world->miner = std::make_unique<core::WeaklyCorrelatedMiner>(
      *world->pool, SearchConfig(spec));
  world->miner->Accept("alpha_D_0", world->expert, world->expert_metrics);
  return world;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameMetrics(const core::AlphaMetrics& a, const core::AlphaMetrics& b) {
  return a.valid == b.valid && SameBits(a.ic_valid, b.ic_valid) &&
         SameBits(a.ic_test, b.ic_test) &&
         SameBits(a.sharpe_valid, b.sharpe_valid) &&
         SameBits(a.sharpe_test, b.sharpe_test) &&
         SameBits(a.valid_portfolio_returns, b.valid_portfolio_returns) &&
         SameBits(a.test_portfolio_returns, b.test_portfolio_returns);
}

std::string ResultDigest(const core::EvolutionResult& r) {
  Digest d;
  d.Add(static_cast<int64_t>(r.has_alpha));
  d.Add(r.best.ToString());
  d.Add(r.best_fitness);
  d.Add(r.best_metrics.ic_valid);
  d.Add(r.best_metrics.ic_test);
  d.Add(r.best_metrics.sharpe_valid);
  d.Add(r.best_metrics.sharpe_test);
  d.Add(r.best_metrics.valid_portfolio_returns);
  d.Add(r.best_metrics.test_portfolio_returns);
  d.Add(r.stats.candidates);
  d.Add(r.stats.evaluated);
  d.Add(r.stats.pruned_redundant);
  d.Add(r.stats.cache_hits);
  d.Add(r.stats.cutoff_discarded);
  for (const auto& [cands, fitness] : r.trajectory) {
    d.Add(cands);
    d.Add(fitness);
  }
  return d.Hex();
}

/// One search plus its output checks.
struct Rep {
  core::EvolutionResult result;
  std::string digest;
  double search_s = 0.0;
  double heavy_ms = 0.0;
  int64_t ckpt_snapshots = 0;
  std::vector<double> ckpt_write_ms;
  std::vector<double> ckpt_bytes;
};

Rep RunRep(World& w, const MiningSpec& spec, uint64_t search_seed,
           Record& record, core::CheckpointSink* sink) {
  Rep rep;
  const auto t0 = Clock::now();
  rep.result = w.miner->RunSearch(w.expert, search_seed, sink);
  rep.search_s = SecondsBetween(t0, Clock::now());
  rep.digest = ResultDigest(rep.result);

  const core::EvolutionResult& r = rep.result;
  const core::EvolutionStats& s = r.stats;
  record.Check(s.candidates == spec.max_candidates,
               "search stopped before its candidate budget");
  record.Check(s.candidates == s.pruned_redundant + s.cache_hits + s.evaluated,
               "candidates != pruned_redundant + cache_hits + evaluated");
  if (!record.Check(r.has_alpha, "search kept no valid alpha")) return rep;
  // A kept alpha can go non-finite on the test dates, which the search never
  // sees; its full metrics are then invalid and carry no return series.
  if (r.best_metrics.valid) {
    const double corr = w.miner->CorrelationWithAccepted(r.best_metrics);
    record.Check(std::abs(corr) <= 0.15,
                 "kept alpha's |corr| with alpha_D_0 exceeds 0.15");
  }

  // The heavy operation: a full re-evaluation (test side included) of the
  // kept alpha in the form and with the seed the search scored it.
  const core::AlphaProgram scored =
      spec.use_pruning
          ? core::PruneRedundant(r.best, SearchConfig(spec).mutator.limits)
                .pruned
          : r.best;
  const uint64_t seed = spec.use_pruning
                            ? core::Fingerprint(scored)
                            : core::HashString(scored.ToString());
  const auto t1 = Clock::now();
  core::AlphaMetrics again;
  {
    core::EvaluatorPool::Lease lease(*w.pool);
    again = lease->Evaluate(scored, seed, /*include_test=*/true);
  }
  rep.heavy_ms = SecondsBetween(t1, Clock::now()) * 1e3;
  record.Check(SameMetrics(again, r.best_metrics),
               "re-evaluating the kept alpha does not reproduce best_metrics");
  return rep;
}

/// Exact counts every record carries; they must repeat across searches.
std::map<std::string, int64_t> ExactCounts(const World& w,
                                           const MiningSpec& spec,
                                           const core::EvolutionStats& s) {
  const int64_t probes = spec.use_pruning ? 0 : s.candidates;
  std::map<std::string, int64_t> c;
  c["search.candidates"] = s.candidates;
  c["search.evaluated"] = s.evaluated;
  c["search.pruned_redundant"] = s.pruned_redundant;
  c["search.cache_hits"] = s.cache_hits;
  c["search.cutoff_discarded"] = s.cutoff_discarded;
  c["evaluator.probes"] = probes;
  // Scheduled executor work: every evaluation, every probe, and the final
  // test-side re-evaluation of the kept alpha.
  c["executor.task_dates"] = s.evaluated * RunTaskDates(*w.dataset, false) +
                             probes * ProbeTaskDates(*w.dataset) +
                             RunTaskDates(*w.dataset, true);
  return c;
}

/// Searches [first, first + count) of a run, each with its own seed.
struct Round {
  std::vector<Rep> reps;
  std::vector<int> indices;
};

Round RunRound(World& w, const MiningSpec& spec, const Options& options,
               int first, int count, Record& record,
               const std::string& sink_dir) {
  Round round;
  const int64_t last_batch =
      (spec.max_candidates + spec.batch_size - 1) / spec.batch_size;
  for (int i = first; i < first + count; ++i) {
    std::unique_ptr<TimingSink> sink;
    if (!sink_dir.empty()) {
      // Traced searches snapshot once, at their final barrier, so the
      // checkpoint writer is measured without changing the search's cadence.
      sink = std::make_unique<TimingSink>(
          sink_dir, "search" + std::to_string(i), last_batch);
    }
    round.reps.push_back(
        RunRep(w, spec, SearchSeed(options.seed, i), record, sink.get()));
    round.indices.push_back(i);
    if (sink) {
      Rep& rep = round.reps.back();
      rep.ckpt_snapshots = sink->snapshots();
      rep.ckpt_write_ms = sink->write_ms();
      rep.ckpt_bytes = sink->bytes();
      record.Check(sink->write_failures() == 0, "checkpoint write failed");
    }
  }
  return round;
}

/// Exact counts and digest of a round, in search order.
void Summarize(const World& w, const MiningSpec& spec, const Round& round,
               std::map<std::string, int64_t>* counts, Digest* digest) {
  for (const Rep& rep : round.reps) {
    for (const auto& [k, v] : ExactCounts(w, spec, rep.result.stats)) {
      (*counts)[k] += v;
    }
    digest->Add(rep.digest);
  }
}

/// Every repetition of a search must reproduce the first bit for bit.
void CheckSame(const World& w, const MiningSpec& spec, const Round& a,
               const Round& b, Record& record) {
  for (size_t i = 0; i < a.reps.size() && i < b.reps.size(); ++i) {
    record.Check(a.reps[i].digest == b.reps[i].digest,
                 "result digest differs between repetitions");
    record.Check(ExactCounts(w, spec, a.reps[i].result.stats) ==
                     ExactCounts(w, spec, b.reps[i].result.stats),
                 "exact counts differ between repetitions");
  }
}

/// Alpha quality is deterministic in the seeds, so the record carries it
/// (with the digest) for exact comparison rather than as a bounded metric:
/// across seeds it moves far more than any usable bound.
void RecordQuality(const Round& round, Record& record) {
  std::vector<double> ic_valid, ic_test, sharpe_test;
  for (const Rep& rep : round.reps) {
    ic_valid.push_back(rep.result.best_metrics.ic_valid);
    ic_test.push_back(rep.result.best_metrics.ic_test);
    sharpe_test.push_back(rep.result.best_metrics.sharpe_test);
  }
  record.Param("quality.best_ic_valid_median", Median(ic_valid));
  record.Param("quality.best_ic_test_median", Median(ic_test));
  record.Param("quality.best_sharpe_test_median", Median(sharpe_test));
}

void Untraced(World& w, const MiningSpec& spec, const Options& options,
              Record& record, const std::vector<double>& setup_s) {
  std::vector<Round> rounds;
  std::vector<double> round_s;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    rounds.push_back(
        RunRound(w, spec, options, 0, spec.searches, record, ""));
    round_s.push_back(SecondsBetween(t0, Clock::now()));
  } while (SecondsBetween(start, Clock::now()) + Median(round_s) <=
           options.seconds);
  std::map<std::string, int64_t> counts;
  Digest digest;
  Summarize(w, spec, rounds.front(), &counts, &digest);
  for (const Round& round : rounds) {
    CheckSame(w, spec, rounds.front(), round, record);
  }
  for (const auto& [k, v] : counts) record.Count(k, v);
  record.SetDigest(digest.Hex());
  RecordQuality(rounds.front(), record);

  // Search time is heavy-tailed across seeds (a few searches evolve much
  // larger programs), so the run reports the median search: per search its
  // median over the rounds, then the median over searches.
  std::vector<double> per_search_s, heavy_ms;
  for (size_t i = 0; i < rounds.front().reps.size(); ++i) {
    std::vector<double> times;
    for (const Round& round : rounds) times.push_back(round.reps[i].search_s);
    per_search_s.push_back(Median(times));
  }
  for (const Round& round : rounds) {
    for (const Rep& rep : round.reps) heavy_ms.push_back(rep.heavy_ms);
  }
  const double search_s = Median(per_search_s);
  record.Param("searches.run_s_p10", Quantile(per_search_s, 0.1));
  record.Param("searches.run_s_p90", Quantile(per_search_s, 0.9));
  record.Param("heavy.ms_p10", Quantile(heavy_ms, 0.1));
  record.Param("heavy.ms_p90", Quantile(heavy_ms, 0.9));
  record.Param("samples.rounds", static_cast<double>(rounds.size()));
  record.Param("samples.searches", static_cast<double>(per_search_s.size()));
  record.Param("samples.heavy_ops", static_cast<double>(heavy_ms.size()));
  record.Metric("s_per_1k_cands",
                search_s / static_cast<double>(spec.max_candidates) * 1e3,
                "s");
  record.Metric("setup_s", Median(setup_s), "s");
  record.Metric("peak_rss_mb", PeakRssMb(), "MB");
  record.Metric("jobs_per_s", 1.0 / search_s, "1/s");
  record.Param("heavy_op_p50_ms", Median(heavy_ms));
  record.Metric("op_ok_pct", record.OkPct(), "%");
}

/// Per-layer metrics the mining workloads have no work for.
void ZeroServiceLayers(Record& record) {
  for (const char* op :
       {"job_status", "signals", "query_alphas", "backtest", "stress"}) {
    const std::string base = std::string("service.op_us.") + op;
    record.Metric(base + ".p50", 0.0, "us");
    record.Metric(base + ".p99", 0.0, "us");
    record.Metric(base + ".count", 0.0, "count");
  }
  record.Metric("service.queue_depth_max", 0.0, "count");
  record.Metric("service.rejected", 0.0, "count");
  record.Metric("service.gen_lag_ms", 0.0, "ms");
  record.Metric("job_supervisor.job_s.p50", 0.0, "s");
  record.Metric("job_supervisor.job_s.max", 0.0, "s");
  record.Metric("job_supervisor.job_s.count", 0.0, "count");
  record.Metric("job_supervisor.retries", 0.0, "count");
  record.Metric("scenario.stress_ms", 0.0, "ms");
}

/// The traced run: half the searches untraced, then the same searches with
/// a timing scorer and checkpoint sink installed and metrics on. The pair
/// must agree bit for bit; their time ratio is the tracing overhead.
void Traced(World& w, const MiningSpec& spec, const Options& options,
            Record& record) {
  namespace obs = alphaevolve::obs;
  const int half = std::max(1, spec.searches / 2);
  const Round plain = RunRound(w, spec, options, 0, half, record, "");

  const std::string sink_dir = options.scratch + "/ckpt";
  std::filesystem::remove_all(sink_dir);
  std::filesystem::create_directories(sink_dir);
  obs::MetricsRegistry::Default().Reset();
  obs::TelemetryConfig on;
  on.enabled = true;
  obs::Configure(on);
  TimingScorer scorer;
  w.miner->UseCandidateScorer(&scorer);
  const Round traced = RunRound(w, spec, options, 0, half, record, sink_dir);
  w.miner->UseCandidateScorer(nullptr);
  obs::Configure(obs::TelemetryConfig{});
  std::filesystem::remove_all(sink_dir);

  CheckSame(w, spec, plain, traced, record);
  std::map<std::string, int64_t> counts;
  Digest digest;
  Summarize(w, spec, traced, &counts, &digest);
  for (const auto& [k, v] : counts) record.Count(k, v);
  record.SetDigest(digest.Hex());
  RecordQuality(traced, record);
  record.Check(obs::MetricsRegistry::Default()
                       .GetCounter("evolution.candidates")
                       .Value() == counts["search.candidates"],
               "evolution.candidates counter disagrees with the searches");

  // Executor work by op class, from every evaluation the scorer saw plus
  // each search's final test-side re-evaluation of its kept alpha.
  std::vector<ScoredEval> evals = scorer.Take();
  std::sort(evals.begin(), evals.end(),
            [](const ScoredEval& a, const ScoredEval& b) {
              return a.seed != b.seed ? a.seed < b.seed
                                      : a.program.ToString() <
                                            b.program.ToString();
            });
  WorkCounts work;
  double eval_s = 0.0;
  std::vector<double> cutoff_us;
  for (const ScoredEval& e : evals) {
    AddRunWork(e.program, *w.dataset, false, &work);
    eval_s += e.eval_s;
    cutoff_us.push_back(e.cutoff_s * 1e6);
  }
  const core::ProgramLimits limits = SearchConfig(spec).mutator.limits;
  double traced_s = 0.0;
  int64_t snapshots = 0;
  std::vector<double> write_ms, bytes, overhead;
  for (size_t i = 0; i < traced.reps.size(); ++i) {
    const Rep& rep = traced.reps[i];
    if (rep.result.has_alpha) {
      const core::AlphaProgram& best = rep.result.best;
      AddRunWork(
          spec.use_pruning ? core::PruneRedundant(best, limits).pruned : best,
          *w.dataset, true, &work);
    }
    traced_s += rep.search_s;
    snapshots += rep.ckpt_snapshots;
    write_ms.insert(write_ms.end(), rep.ckpt_write_ms.begin(),
                    rep.ckpt_write_ms.end());
    bytes.insert(bytes.end(), rep.ckpt_bytes.begin(), rep.ckpt_bytes.end());
    overhead.push_back(rep.search_s / plain.reps[i].search_s);
  }
  const int64_t probes = counts["evaluator.probes"];
  work.task_dates += probes * ProbeTaskDates(*w.dataset);
  record.Check(work.evals == counts["search.evaluated"] +
                                 static_cast<int64_t>(traced.reps.size()),
               "scorer saw a different number of evaluations than the "
               "searches counted");
  record.Check(work.task_dates == counts["executor.task_dates"],
               "executor task-dates disagree between scorer and counts");

  const ReplayTimes replay =
      Replay(*w.dataset, w.pool->config(), SearchConfig(spec).mutator, evals,
             /*max_pairs=*/32, options.seed);
  record.Check(replay.ic_mismatches == 0,
               "replayed evaluation differs from the search's");

  const double threads = spec.eval_threads;
  const double candidates = static_cast<double>(counts["search.candidates"]);
  const double mutate_us = Median(replay.mutate_us);
  const double prune_fp_us = Median(replay.prune_fp_us);
  double probe_mean_us = 0.0;
  for (double v : replay.probe_us) probe_mean_us += v / replay.probe_us.size();
  double cutoff_total_us = 0.0;
  for (double v : cutoff_us) cutoff_total_us += v;
  const double driver_us =
      candidates * (mutate_us + (spec.use_pruning ? prune_fp_us : 0.0));
  const double covered_us = eval_s * 1e6 + cutoff_total_us + driver_us +
                            static_cast<double>(probes) * probe_mean_us;

  record.Param("samples.searches", static_cast<double>(traced.reps.size()));
  record.Param("samples.replayed", static_cast<double>(replay.run_ms.size()));
  record.Metric("mutator.mutate_us", mutate_us, "us");
  record.Metric("pruning.prune_fp_us", prune_fp_us, "us");
  record.Metric("pruning.redundant_ratio",
                counts["search.pruned_redundant"] / candidates, "ratio");
  record.Metric("fingerprint_cache.hit_ratio",
                counts["search.cache_hits"] /
                    (candidates - counts["search.pruned_redundant"]),
                "ratio");
  record.Metric("evaluator.probes", static_cast<double>(probes), "count");
  record.Metric("evaluator.probe_us.p50", Quantile(replay.probe_us, 0.5), "us");
  record.Metric("evaluator.probe_us.p99", Quantile(replay.probe_us, 0.99),
                "us");
  record.Metric("evaluator.probe_share_pct",
                100.0 * probes * probe_mean_us / (threads * traced_s * 1e6),
                "%");
  record.Metric("executor.evals", static_cast<double>(work.evals), "count");
  record.Metric("executor.task_dates", static_cast<double>(work.task_dates),
                "count");
  for (const auto& [k, v] : work.ByClass()) {
    record.Metric(k, static_cast<double>(v), "count");
    record.Count(k, v);
  }
  record.Metric("executor.run_ms.p50", Quantile(replay.run_ms, 0.5), "ms");
  record.Metric("executor.run_ms.p99", Quantile(replay.run_ms, 0.99), "ms");
  record.Metric("executor.ns_per_task_date",
                replay.run_task_dates > 0
                    ? replay.run_s_total * 1e9 / replay.run_task_dates
                    : 0.0,
                "ns");
  record.Metric("eval.ic_backtest_us", Median(replay.ic_backtest_us), "us");
  record.Metric("eval.cutoff_us", Median(cutoff_us), "us");
  record.Metric("evaluator_pool.busy_pct",
                100.0 * eval_s / (threads * traced_s), "%");
  record.Metric("evolution.untimed_pct",
                100.0 * (1.0 - covered_us / ((threads + 1.0) * traced_s * 1e6)),
                "%");
  record.Metric("ckpt.snapshots", static_cast<double>(snapshots), "count");
  record.Metric("ckpt.snapshot_bytes", Median(bytes), "bytes");
  record.Metric("ckpt.write_ms", Median(write_ms), "ms");
  record.Metric("market.simulate_s", w.simulate_s, "s");
  record.Metric("trace_overhead_pct", 100.0 * (Median(overhead) - 1.0), "%");
  ZeroServiceLayers(record);
}

}  // namespace

void RunMining(const MiningSpec& spec, const Options& options,
               Record& record) {
  record.Param("stocks", spec.num_stocks);
  record.Param("days", spec.num_days);
  record.Param("population_size", spec.population_size);
  record.Param("tournament_size", spec.tournament_size);
  record.Param("batch_size", spec.batch_size);
  record.Param("eval_threads", spec.eval_threads);
  record.Param("pipeline_depth", spec.pipeline_depth);
  record.Param("use_pruning", spec.use_pruning ? 1 : 0);
  record.Param("max_candidates", static_cast<double>(spec.max_candidates));
  record.Param("correlation_cutoff", 0.15);
  record.Param("searches", spec.searches);

  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < spec.setups; ++i) {
    world.reset();
    const auto t0 = Clock::now();
    world = SetUp(spec, options.market_seed);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  record.Param("tasks", world->dataset->num_tasks());
  record.Param("train_dates",
               static_cast<double>(
                   world->dataset->dates(market::Split::kTrain).size()));
  record.Param("valid_dates",
               static_cast<double>(
                   world->dataset->dates(market::Split::kValid).size()));
  record.Param("test_dates",
               static_cast<double>(
                   world->dataset->dates(market::Split::kTest).size()));
  record.Check(world->expert_metrics.valid, "expert alpha is invalid");
  if (options.trace) {
    Traced(*world, spec, options, record);
  } else {
    Untraced(*world, spec, options, record, setup_s);
  }
}

}  // namespace perfbench
