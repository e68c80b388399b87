// The benchmark's run record: options, timing helpers, and the JSON document
// one driver invocation prints (stamp, workload parameters, exact work
// counts, checks, metrics).
#ifndef PERFBENCH_DRIVER_RECORD_H_
#define PERFBENCH_DRIVER_RECORD_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one driver invocation.
struct Options {
  std::string workload;
  /// Drives every search seed of the run.
  uint64_t seed = 1;
  /// The simulated market. Fixed by default: market-to-market differences
  /// move search time and alpha quality by ~25%, more than any usable bound,
  /// so the benchmark varies the searches and keeps the market.
  uint64_t market_seed = 17;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the run may write into (checkpoints); created if missing.
  std::string scratch = ".bench_build/scratch";
};

/// Quantile with linear interpolation between closest ranks (q in [0, 1]).
/// Returns 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Order-sensitive 64-bit FNV-1a accumulator for result digests. Doubles are
/// folded in by bit pattern, so a digest matches only on bitwise-equal
/// results.
class Digest {
 public:
  void Add(const std::string& text);
  void Add(double value);
  void Add(int64_t value);
  void Add(const std::vector<double>& values);
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  void Bytes(const void* data, size_t n);
  uint64_t hash_ = 1469598103934665603ULL;
};

/// Everything one invocation reports. Metrics are either end-to-end (untraced
/// runs) or per-layer (traced runs); the driver fills whichever set the mode
/// asks for, plus the stamp, parameters and exact counts in both modes.
class Record {
 public:
  void Param(const std::string& key, double value) { params_[key] = value; }
  void Param(const std::string& key, const std::string& value) {
    string_params_[key] = value;
  }
  /// Exact, machine-independent work count (must repeat bit-for-bit).
  void Count(const std::string& name, int64_t value) { counts_[name] = value; }
  void Metric(const std::string& name, double value, const std::string& unit);
  /// One checked operation: counts as attempted, and as failed unless `ok`.
  /// The first few failure messages are kept for the record.
  bool Check(bool ok, const std::string& what);
  /// Operations that ran without a separate output check (e.g. reads that
  /// returned ok), counted as attempted and, when !ok, failed.
  void Ops(int64_t attempted, int64_t failed);
  void SetDigest(const std::string& digest) { digest_ = digest; }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  /// Share of attempted operations that succeeded, in percent.
  double OkPct() const {
    return 100.0 * static_cast<double>(attempted_ - failed_) /
           static_cast<double>(attempted_ > 0 ? attempted_ : 1);
  }
  const std::map<std::string, int64_t>& counts() const { return counts_; }

  /// The full record as one JSON line.
  std::string ToJson(const Options& options) const;

 private:
  struct MetricValue {
    double value;
    std::string unit;
  };
  std::map<std::string, double> params_;
  std::map<std::string, std::string> string_params_;
  std::map<std::string, int64_t> counts_;
  std::map<std::string, MetricValue> metrics_;
  std::vector<std::string> failures_;
  std::string digest_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_RECORD_H_
