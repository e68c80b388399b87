#include "record.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "core/dispatch.h"
#include "util/json.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Digest::Bytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ULL;
  }
}

void Digest::Add(const std::string& text) {
  Add(static_cast<int64_t>(text.size()));
  Bytes(text.data(), text.size());
}

void Digest::Add(double value) { Bytes(&value, sizeof(value)); }

void Digest::Add(int64_t value) { Bytes(&value, sizeof(value)); }

void Digest::Add(const std::vector<double>& values) {
  Add(static_cast<int64_t>(values.size()));
  for (double v : values) Add(v);
}

std::string Digest::Hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

void Record::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

bool Record::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(what);
  }
  return ok;
}

void Record::Ops(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && failures_.size() < 8) {
    failures_.push_back(std::to_string(failed) + " operation(s) failed");
  }
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string Record::ToJson(const Options& options) const {
  alphaevolve::JsonWriter w;
  w.BeginObject();
  w.Key("workload").Value(options.workload);
  w.Key("seed").Value(options.seed);
  w.Key("market_seed").Value(options.market_seed);
  w.Key("seconds").Value(options.seconds);
  w.Key("trace").Value(options.trace);

  w.Key("stamp").BeginObject();
  w.Key("cores").Value(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("online_cpus").Value(
      static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.Key("cpu_model").Value(CpuModel());
  w.Key("kernel_variant")
      .Value(alphaevolve::core::ResolveKernelTable("").name);
  w.Key("build_type").Value(PERFBENCH_BUILD_TYPE);
  w.Key("ae_native").Value(PERFBENCH_AE_NATIVE != 0);
  w.EndObject();

  w.Key("params").BeginObject();
  for (const auto& [k, v] : string_params_) w.Key(k).Value(v);
  for (const auto& [k, v] : params_) w.Key(k).Value(v);
  w.EndObject();

  w.Key("counts").BeginObject();
  for (const auto& [k, v] : counts_) w.Key(k).Value(v);
  w.EndObject();
  w.Key("digest").Value(digest_);
  w.Key("failures").BeginArray();
  for (const std::string& f : failures_) w.Value(f);
  w.EndArray();

  w.Key("correct").Value(failed_ == 0 && attempted_ > 0);
  w.Key("attempted").Value(attempted_);
  w.Key("failed").Value(failed_);
  w.Key("metrics").BeginObject();
  for (const auto& [name, m] : metrics_) {
    w.Key(name).BeginObject();
    w.Key("value").Value(m.value);
    w.Key("unit").Value(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace perfbench
