// Benchmark driver: runs one workload and prints its record as one JSON
// line. Usage:
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--market-seed N] [--scratch DIR]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "record.h"
#include "workloads.h"

namespace {

using perfbench::MiningSpec;
using perfbench::ServiceSpec;

/// The workloads and their fixed parameters; perfbench/README.md says why
/// each was chosen. Search counts are sized so one round takes ~18 s on a
/// 4-core x86 VM, inside a 20 s run.
bool Lookup(const std::string& name, MiningSpec* mining, ServiceSpec* service,
            bool* is_mining) {
  *is_mining = true;
  if (name == "table1_125") {
    mining->max_candidates = 200;
    mining->searches = 50;
    return true;
  }
  if (name == "table1_1k") {
    mining->num_stocks = 1140;
    mining->max_candidates = 64;
    mining->searches = 10;
    mining->setups = 3;
    return true;
  }
  if (name == "table6_functional") {
    mining->use_pruning = false;
    mining->max_candidates = 56;
    mining->searches = 70;
    return true;
  }
  if (name == "service_mix") {
    *is_mining = false;
    *service = ServiceSpec{};
    return true;
  }
  return false;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 [--market-seed N] "
               "[--scratch DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--market-seed") {
      options.market_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");

  MiningSpec mining;
  ServiceSpec service;
  bool is_mining = true;
  if (!Lookup(options.workload, &mining, &service, &is_mining)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  std::filesystem::create_directories(options.scratch);

  perfbench::Record record;
  try {
    if (is_mining) {
      perfbench::RunMining(mining, options, record);
    } else {
      perfbench::RunService(service, options, record);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", record.ToJson(options).c_str());
  return 0;
}
