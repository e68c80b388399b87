// service_mix: an in-process AlphaService with an on-disk checkpoint
// directory. A batch of candidate-bounded search jobs runs under an
// open-loop read stream; then every finished job is backtested and
// stress-tested. All traffic goes through AlphaService::Submit / Call.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/mutator.h"
#include "core/program.h"
#include "core/pruning.h"
#include "market/types.h"
#include "layers.h"
#include "obs/telemetry.h"
#include "service/alpha_service.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace service = alphaevolve::service;
namespace obs = alphaevolve::obs;
using alphaevolve::JsonValue;

service::ServiceOptions MakeOptions(const ServiceSpec& spec,
                                    const Options& options,
                                    const std::string& dir) {
  service::ServiceOptions so;
  so.num_stocks = spec.num_stocks;
  so.num_days = spec.num_days;
  so.data_seed = options.market_seed;
  so.eval_threads = spec.eval_threads;
  so.pipeline_depth = 1;
  so.queue_capacity = 1024;
  so.op_workers = spec.op_workers;
  so.supervisor.checkpoint_dir = dir;
  so.supervisor.worker_threads = spec.job_workers;
  so.supervisor.checkpoint_every_batches = spec.checkpoint_every_batches;
  return so;
}

std::string SubmitLine(const ServiceSpec& spec, uint64_t seed,
                       int64_t candidates, const std::string& id) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"op\":\"submit_search\",\"id\":\"%s\",\"params\":{"
                "\"seed\":%llu,\"max_candidates\":%lld,\"population_size\":%d,"
                "\"tournament_size\":%d,\"batch_size\":%d}}",
                id.c_str(), static_cast<unsigned long long>(seed),
                static_cast<long long>(candidates), spec.population_size,
                spec.tournament_size, spec.batch_size);
  return buf;
}

std::string JobOp(const char* op, const std::string& job,
                  const std::string& id, const std::string& extra = "") {
  return std::string("{\"op\":\"") + op + "\",\"id\":\"" + id +
         "\",\"params\":{\"job\":\"" + job + "\"" + extra + "}}";
}

/// Parses a response; null unless it is a well-formed ok response.
JsonValue OkResult(const std::string& response) {
  try {
    JsonValue v = JsonValue::Parse(response);
    if (v.is_object() && v.Contains("ok") && v.At("ok").AsBool() &&
        v.Contains("result")) {
      return v.At("result");
    }
  } catch (const std::exception&) {
  }
  return JsonValue();
}

/// One read of the open-loop stream: which op, when it was due, the answer.
struct ReadSample {
  int op = 0;  // index into kReadOps
  double latency_us = 0.0;
  bool ok = false;
};
constexpr const char* kReadOps[] = {"job_status", "signals", "query_alphas"};

/// Everything one service session measured.
struct Session {
  double setup_s = 0.0;
  std::vector<double> job_s;   ///< submit to DONE, per job
  std::vector<double> done_at;  ///< seconds into the phase, in DONE order
  std::vector<ReadSample> reads;
  std::vector<double> lag_s;
  std::vector<double> backtest_ms, stress_ms, heavy_ms;
  std::vector<std::string> results;  ///< job_result payloads, job order
  std::vector<service::JobStatus> statuses;
  JsonValue metrics;  ///< metrics-op snapshot (traced sessions)
  std::vector<ScoredEval> kept;  ///< pruned kept alphas, fingerprint seeds
  std::map<std::string, int64_t> counts;
  int64_t ops = 0, ops_failed = 0;

  /// Each job's run time: the gaps between successive DONE times (one
  /// search worker runs the jobs one after another).
  std::vector<double> JobRunSeconds() const {
    std::vector<double> out;
    double prev = 0.0;
    for (double t : done_at) {
      out.push_back(t - prev);
      prev = t;
    }
    return out;
  }
};

std::string Id(const char* prefix, int64_t k) {
  return std::string(prefix) + std::to_string(k);
}

/// Runs the job phase and the heavy phase on `svc`.
void Drive(service::AlphaService& svc, const ServiceSpec& spec,
           const Options& options, int num_jobs, Record& record, Session& s) {
  // Warm-up job: finished before the phase starts, so `signals` reads have
  // a DONE job to serve from the first request on.
  const JsonValue warm = OkResult(svc.Call(
      SubmitLine(spec, SearchSeed(options.seed, 1000), 240, "warm")));
  const std::string warm_job =
      warm.is_object() ? warm.At("job").AsString() : "";
  record.Check(!warm_job.empty(), "submit_search (warm-up) failed");
  while (true) {
    const auto st = svc.supervisor().Status(warm_job);
    if (!st.has_value() || (st->state != service::JobState::kPending &&
                            st->state != service::JobState::kRunning)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Job phase.
  std::vector<std::string> jobs;
  std::vector<Clock::time_point> submitted;
  std::mutex reads_mu;
  std::atomic<int64_t> answered{0};
  const auto t0 = Clock::now();
  for (int i = 0; i < num_jobs; ++i) {
    // The last job repeats the first one's spec: same seed, same result.
    const int seed_index = i == num_jobs - 1 ? 0 : i;
    submitted.push_back(Clock::now());
    const JsonValue r = OkResult(svc.Call(SubmitLine(
        spec, SearchSeed(options.seed, seed_index), spec.job_candidates,
        Id("s", i))));
    ++s.ops;
    if (!record.Check(r.is_object(), "submit_search failed")) {
      ++s.ops_failed;
      jobs.push_back("");
      continue;
    }
    jobs.push_back(r.At("job").AsString());
  }
  OpenLoop reader(spec.read_rate, [&](int64_t k, Clock::time_point due) {
    const int op = static_cast<int>(k % 3);
    std::string line;
    if (op == 0) {
      line = JobOp("job_status", jobs[static_cast<size_t>((k / 3) % num_jobs)],
                   Id("r", k));
    } else if (op == 1) {
      line = JobOp("signals", warm_job, Id("r", k),
                   ",\"date\":" + std::to_string((k / 3) % 16));
    } else {
      line = "{\"op\":\"query_alphas\",\"id\":\"" + Id("r", k) + "\"}";
    }
    svc.Submit(line, [&, op, due](const std::string& response) {
      ReadSample sample;
      sample.op = op;
      sample.latency_us = SecondsBetween(due, Clock::now()) * 1e6;
      // Runs on the op worker: a prefix check only, no parse, no copy.
      const size_t ok_at = response.find("\"ok\":true");
      sample.ok = ok_at != std::string::npos && ok_at < 64;
      {
        std::lock_guard<std::mutex> lock(reads_mu);
        s.reads.push_back(std::move(sample));
      }
      answered.fetch_add(1);
    });
  });
  s.job_s.assign(jobs.size(), -1.0);
  size_t done = 0;
  const auto give_up = t0 + std::chrono::seconds(150);
  while (done < jobs.size() && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (s.job_s[i] >= 0.0 || jobs[i].empty()) continue;
      const auto st = svc.supervisor().Status(jobs[i]);
      if (!st.has_value() || st->state == service::JobState::kPending ||
          st->state == service::JobState::kRunning) {
        continue;
      }
      s.job_s[i] = SecondsBetween(submitted[i], Clock::now());
      s.done_at.push_back(SecondsBetween(t0, Clock::now()));
      ++done;
    }
  }
  reader.Stop();
  while (answered.load() < reader.issued()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  s.lag_s = reader.lag_s();
  record.Check(done == jobs.size(), "jobs did not finish within 150 s");

  for (size_t i = 0; i < jobs.size(); ++i) {
    const auto st = svc.supervisor().Status(jobs[i]);
    if (st.has_value()) s.statuses.push_back(*st);
    record.Check(st.has_value() && st->state == service::JobState::kDone &&
                     st->attempts == 1,
                 "a job did not end DONE on its first attempt");
  }

  // Heavy phase: backtest, then stress, of every finished job.
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto t = Clock::now();
    const bool bt_ok =
        OkResult(svc.Call(JobOp("backtest", jobs[i], Id("b", i)))).is_object();
    const double bt = SecondsBetween(t, Clock::now()) * 1e3;
    t = Clock::now();
    const bool st_ok =
        OkResult(svc.Call(JobOp("stress", jobs[i], Id("x", i)))).is_object();
    const double st = SecondsBetween(t, Clock::now()) * 1e3;
    s.ops += 2;
    s.ops_failed += (bt_ok ? 0 : 1) + (st_ok ? 0 : 1);
    s.backtest_ms.push_back(bt);
    s.stress_ms.push_back(st);
    s.heavy_ms.push_back(bt + st);
  }

  for (size_t i = 0; i < jobs.size(); ++i) {
    const std::string raw = svc.Call(JobOp("job_result", jobs[i], Id("j", i)));
    const JsonValue r = OkResult(raw);
    ++s.ops;
    if (!r.is_object()) {
      ++s.ops_failed;
      s.results.push_back("");
      continue;
    }
    // The payload after the echoed request id: byte-stable per job spec.
    s.results.push_back(raw.substr(raw.find("\"result\":")));
    if (r.At("has_alpha").AsBool()) {
      ScoredEval e;
      const core::AlphaProgram best =
          core::AlphaProgram::FromString(r.At("program").AsString());
      e.program =
          core::PruneRedundant(best, core::MutatorConfig{}.limits).pruned;
      e.seed = core::Fingerprint(e.program);
      e.valid = r.At("metrics").At("valid").AsBool();
      e.ic_valid = r.At("metrics").At("ic_valid").AsDouble();
      s.kept.push_back(std::move(e));
    }
    const JsonValue& stats = r.At("stats");
    for (const char* key : {"candidates", "evaluated", "pruned_redundant",
                            "cache_hits", "cutoff_discarded"}) {
      s.counts[std::string("search.") + key] += stats.At(key).AsInt();
    }
  }
  record.Check(s.results.size() >= 2 && !s.results.front().empty() &&
                   s.results.front() == s.results.back(),
               "two jobs with the same spec returned different results");
}

std::unique_ptr<service::AlphaService> StartService(
    const ServiceSpec& spec, const Options& options, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return std::make_unique<service::AlphaService>(
      MakeOptions(spec, options, dir));
}

/// Set-up (timed `spec.setups` times, fresh checkpoint directory each),
/// then one session of `num_jobs` jobs on the last service.
Session RunSession(const ServiceSpec& spec, const Options& options,
                   int num_jobs, Record& record, const std::string& tag) {
  Session s;
  std::vector<double> setup_s;
  std::unique_ptr<service::AlphaService> svc;
  for (int i = 0; i < spec.setups; ++i) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = StartService(spec, options,
                       options.scratch + "/service_" + tag + std::to_string(i));
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  s.setup_s = Median(setup_s);
  Drive(*svc, spec, options, num_jobs, record, s);
  if (obs::Enabled()) {
    s.metrics = OkResult(svc->Call("{\"op\":\"metrics\",\"id\":\"m\"}"));
    record.Check(s.metrics.is_object(), "metrics op failed");
  }
  svc.reset();  // drains: running work finishes, threads join
  int64_t read_failed = 0;
  for (const ReadSample& r : s.reads) {
    if (!r.ok) ++read_failed;
  }
  s.ops += static_cast<int64_t>(s.reads.size());
  s.ops_failed += read_failed;
  return s;
}

std::vector<double> ReadLatencies(const Session& s, int op) {
  std::vector<double> out;
  for (const ReadSample& r : s.reads) {
    if (op < 0 || r.op == op) out.push_back(r.latency_us);
  }
  return out;
}

/// Serving figures every record carries (the read stream exists only in
/// this workload, so they are not end-to-end metrics of the benchmark).
void RecordServing(const Session& s, Record& record) {
  const std::vector<double> reads = ReadLatencies(s, -1);
  record.Param("serving.read_p50_us", Quantile(reads, 0.5));
  record.Param("serving.read_p99_us", Quantile(reads, 0.99));
  record.Param("serving.op_fail_pct",
               100.0 * static_cast<double>(s.ops_failed) /
                   static_cast<double>(std::max<int64_t>(1, s.ops)));
  record.Param("samples.reads", static_cast<double>(reads.size()));
  record.Param("samples.heavy_ops", static_cast<double>(s.heavy_ms.size()));
  record.Param("samples.jobs", static_cast<double>(s.done_at.size()));
  const std::vector<double> runs = s.JobRunSeconds();
  record.Param("jobs.run_s_p10", Quantile(runs, 0.1));
  record.Param("jobs.run_s_p50", Quantile(runs, 0.5));
  record.Param("jobs.run_s_p90", Quantile(runs, 0.9));
  record.Param("heavy.ms_p10", Quantile(s.heavy_ms, 0.1));
  record.Param("heavy.ms_p90", Quantile(s.heavy_ms, 0.9));
  record.Param("heavy.backtest_ms_p50", Quantile(s.backtest_ms, 0.5));
  record.Param("heavy.stress_ms_p50", Quantile(s.stress_ms, 0.5));
}

void RecordCounts(const Session& s, Record& record) {
  for (const auto& [k, v] : s.counts) record.Count(k, v);
  Digest digest;
  for (const std::string& r : s.results) digest.Add(r);
  record.SetDigest(digest.Hex());
}

double Counter(const JsonValue& metrics, const char* name) {
  if (!metrics.is_object() || !metrics.At("counters").Contains(name)) return 0;
  return metrics.At("counters").At(name).AsDouble();
}

/// Mean of a span histogram (nanoseconds), in milliseconds.
double SpanMeanMs(const JsonValue& metrics, const char* name) {
  if (!metrics.is_object() || !metrics.At("histograms").Contains(name)) {
    return 0.0;
  }
  const JsonValue& h = metrics.At("histograms").At(name);
  const double count = h.At("count").AsDouble();
  return count > 0 ? h.At("sum").AsDouble() / count / 1e6 : 0.0;
}

double SpanSumS(const JsonValue& metrics, const char* name) {
  if (!metrics.is_object() || !metrics.At("histograms").Contains(name)) {
    return 0.0;
  }
  return metrics.At("histograms").At(name).At("sum").AsDouble() / 1e9;
}

void Traced(const ServiceSpec& spec, const Options& options, Record& record) {
  const int half = std::max(2, spec.jobs / 2);
  const Session plain = RunSession(spec, options, half, record, "u");
  obs::MetricsRegistry::Default().Reset();
  obs::TelemetryConfig on;
  on.enabled = true;
  obs::Configure(on);
  const Session s = RunSession(spec, options, half, record, "t");
  obs::Configure(obs::TelemetryConfig{});
  record.Ops(plain.ops + s.ops, plain.ops_failed + s.ops_failed);
  record.Check(plain.results == s.results,
               "job results differ between the untraced and traced session");
  record.Check(plain.counts == s.counts,
               "exact counts differ between the untraced and traced session");
  RecordCounts(s, record);
  RecordServing(s, record);

  // The same panel the service simulates, for timing and the replay.
  market::MarketConfig mc;
  mc.num_stocks = spec.num_stocks;
  mc.num_days = spec.num_days;
  mc.seed = options.market_seed;
  auto t0 = Clock::now();
  const market::Dataset dataset =
      market::Dataset::Simulate(mc, market::DatasetConfig{});
  const double simulate_s = SecondsBetween(t0, Clock::now());
  const ReplayTimes replay =
      Replay(dataset, core::EvaluatorConfig{}, core::MutatorConfig{}, s.kept,
             /*max_pairs=*/32, options.seed);
  record.Check(replay.ic_mismatches == 0,
               "replayed kept alpha differs from the job's metrics");

  for (int op = 0; op < 3; ++op) {
    const std::vector<double> lat = ReadLatencies(s, op);
    const std::string base = std::string("service.op_us.") + kReadOps[op];
    record.Metric(base + ".p50", Quantile(lat, 0.5), "us");
    record.Metric(base + ".p99", Quantile(lat, 0.99), "us");
    record.Metric(base + ".count", static_cast<double>(lat.size()), "count");
  }
  const auto heavy = [&](const char* op, const std::vector<double>& ms) {
    std::vector<double> us;
    for (double v : ms) us.push_back(v * 1e3);
    const std::string base = std::string("service.op_us.") + op;
    record.Metric(base + ".p50", Quantile(us, 0.5), "us");
    record.Metric(base + ".p99", Quantile(us, 0.99), "us");
    record.Metric(base + ".count", static_cast<double>(us.size()), "count");
  };
  heavy("backtest", s.backtest_ms);
  heavy("stress", s.stress_ms);
  const JsonValue& m = s.metrics;
  const double depth_max =
      m.is_object() && m.At("gauges").Contains("service.queue_depth")
          ? m.At("gauges").At("service.queue_depth").At("max").AsDouble()
          : 0.0;
  record.Metric("service.queue_depth_max", depth_max, "count");
  record.Metric("service.rejected", Counter(m, "service.ops_rejected"),
                "count");
  record.Metric("service.gen_lag_ms", Quantile(s.lag_s, 0.99) * 1e3, "ms");
  int64_t retries = 0;
  for (const service::JobStatus& st : s.statuses) retries += st.attempts - 1;
  record.Metric("job_supervisor.job_s.p50", Quantile(s.job_s, 0.5), "s");
  record.Metric("job_supervisor.job_s.max", Quantile(s.job_s, 1.0), "s");
  record.Metric("job_supervisor.job_s.count",
                static_cast<double>(s.job_s.size()), "count");
  record.Metric("job_supervisor.retries", static_cast<double>(retries),
                "count");
  record.Metric("scenario.stress_ms", Median(s.stress_ms), "ms");
  const double writes = Counter(m, "ckpt.writes");
  record.Metric("ckpt.snapshots", writes, "count");
  record.Metric("ckpt.snapshot_bytes",
                writes > 0 ? Counter(m, "ckpt.bytes_written") / writes : 0.0,
                "bytes");
  record.Metric("ckpt.write_ms", SpanMeanMs(m, "span.checkpoint.write"), "ms");

  // Core layers: counts from the job results, times from the replay of the
  // kept alphas and from the program's own span histograms.
  const double candidates =
      static_cast<double>(s.counts.at("search.candidates"));
  const double pruned =
      static_cast<double>(s.counts.at("search.pruned_redundant"));
  const double phase_s = s.done_at.empty() ? 0.0 : s.done_at.back();
  const double threads = spec.eval_threads;
  const double eval_s = SpanSumS(m, "span.evolution.evaluate");
  const double generate_s = SpanSumS(m, "span.evolution.generate");
  record.Metric("mutator.mutate_us", Median(replay.mutate_us), "us");
  record.Metric("pruning.prune_fp_us", Median(replay.prune_fp_us), "us");
  record.Metric("pruning.redundant_ratio", pruned / candidates, "ratio");
  record.Metric("fingerprint_cache.hit_ratio",
                s.counts.at("search.cache_hits") / (candidates - pruned),
                "ratio");
  record.Metric("evaluator.probes", 0.0, "count");
  record.Metric("evaluator.probe_us.p50", Quantile(replay.probe_us, 0.5), "us");
  record.Metric("evaluator.probe_us.p99", Quantile(replay.probe_us, 0.99),
                "us");
  record.Metric("evaluator.probe_share_pct", 0.0, "%");
  const double evals = static_cast<double>(s.counts.at("search.evaluated"));
  record.Metric("executor.evals", evals, "count");
  record.Metric("executor.task_dates",
                evals * static_cast<double>(RunTaskDates(dataset, false)),
                "count");
  // Instruction mixes of the searches' candidates are not visible through
  // the service API; the kept alphas' mix is the best available proxy.
  WorkCounts work;
  for (const ScoredEval& e : s.kept) {
    AddRunWork(e.program, dataset, true, &work);
  }
  for (const auto& [k, v] : work.ByClass()) {
    record.Metric(k, static_cast<double>(v), "count");
  }
  record.Metric("executor.run_ms.p50", Quantile(replay.run_ms, 0.5), "ms");
  record.Metric("executor.run_ms.p99", Quantile(replay.run_ms, 0.99), "ms");
  record.Metric("executor.ns_per_task_date",
                replay.run_task_dates > 0
                    ? replay.run_s_total * 1e9 / replay.run_task_dates
                    : 0.0,
                "ns");
  record.Metric("eval.ic_backtest_us", Median(replay.ic_backtest_us), "us");
  record.Metric("eval.cutoff_us", 0.0, "us");
  record.Metric("evaluator_pool.busy_pct",
                phase_s > 0 ? 100.0 * eval_s / (threads * phase_s) : 0.0, "%");
  record.Metric("evolution.untimed_pct",
                phase_s > 0 ? 100.0 * (1.0 - (eval_s + generate_s) /
                                                 ((threads + 1.0) * phase_s))
                            : 0.0,
                "%");
  record.Metric("market.simulate_s", simulate_s, "s");
  const double p99_plain = Quantile(ReadLatencies(plain, -1), 0.99);
  const double p99_traced = Quantile(ReadLatencies(s, -1), 0.99);
  record.Metric("trace_overhead_pct", 100.0 * (p99_traced / p99_plain - 1.0),
                "%");
}

}  // namespace

void RunService(const ServiceSpec& spec, const Options& options,
                Record& record) {
  record.Param("stocks", spec.num_stocks);
  record.Param("days", spec.num_days);
  record.Param("eval_threads", spec.eval_threads);
  record.Param("job_workers", spec.job_workers);
  record.Param("op_workers", spec.op_workers);
  record.Param("jobs", spec.jobs);
  record.Param("job_candidates", static_cast<double>(spec.job_candidates));
  record.Param("population_size", spec.population_size);
  record.Param("tournament_size", spec.tournament_size);
  record.Param("batch_size", spec.batch_size);
  record.Param("checkpoint_every_batches", spec.checkpoint_every_batches);
  record.Param("read_rate_per_s", spec.read_rate);
  if (options.trace) {
    Traced(spec, options, record);
    return;
  }

  const Session s = RunSession(spec, options, spec.jobs, record, "u");
  record.Ops(s.ops, s.ops_failed);
  RecordCounts(s, record);
  RecordServing(s, record);
  // Job run time is heavy-tailed across seeds like search time, so the rate
  // figures come from the median job.
  const double job_s = Median(s.JobRunSeconds());
  record.Metric("s_per_1k_cands",
                job_s / static_cast<double>(spec.job_candidates) * 1e3, "s");
  record.Metric("setup_s", s.setup_s, "s");
  record.Metric("peak_rss_mb", PeakRssMb(), "MB");
  record.Metric("jobs_per_s", 1.0 / job_s, "1/s");
  record.Param("heavy_op_p50_ms", Median(s.heavy_ms));
  record.Metric("op_ok_pct", record.OkPct(), "%");
}

}  // namespace perfbench
