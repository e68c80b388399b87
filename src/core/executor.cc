#include "core/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>

#include "core/opcode.h"
#include "util/check.h"

namespace alphaevolve::core {
namespace {

/// Auto block size for the fused path: a segment streams up to ~3 matrix
/// operands per op through each task, so size the block to keep those
/// resident in roughly half of a 32 KiB L1 while it runs the whole segment
/// (measured best on the paper's n = 13 shape; see BM_FusedSegment).
int AutoBlockSize(int n) {
  const int per_task_bytes = 3 * n * n * static_cast<int>(sizeof(double));
  const int block = 16 * 1024 / std::max(1, per_task_bytes);
  return std::clamp(block, 4, 256);
}

}  // namespace

/// Parks a persistent worker arena on the pool for the duration of one Run:
/// per-segment fan-out becomes an epoch bump on the arena barrier instead
/// of re-submitting pool tasks. Helpers are capped at the configured shard
/// fan-out; the driving thread is always the +1 lane.
struct RunArenaScope {
  explicit RunArenaScope(Executor& e) : executor(e) {
    if (e.num_shards_ > 1 && e.pool_ != nullptr) {
      const int helpers =
          std::min(e.config_.intra_candidate_threads, e.num_shards_) - 1;
      arena.emplace(e.pool_, helpers);
      e.arena_ = &*arena;
    }
  }
  ~RunArenaScope() { executor.arena_ = nullptr; }

  Executor& executor;
  std::optional<ShardArena> arena;
};

Executor::Executor(const market::Dataset& dataset, ExecutorConfig config,
                   ThreadPool* shared_pool)
    : dataset_(dataset),
      config_(config),
      num_tasks_(dataset.num_tasks()),
      n_(dataset.window()),
      num_scalars_(config.limits.num_scalars),
      num_vectors_(config.limits.num_vectors),
      num_matrices_(config.limits.num_matrices) {
  AE_CHECK(dataset.num_features() == dataset.window());
  AE_CHECK(num_scalars_ > 1 && num_vectors_ > 0 && num_matrices_ > 0);
  scalars_.resize(static_cast<size_t>(num_tasks_) * num_scalars_);
  vectors_.resize(static_cast<size_t>(num_tasks_) * num_vectors_ * n_);
  matrices_.resize(static_cast<size_t>(num_tasks_) * num_matrices_ * n_ * n_);
  history_.resize(static_cast<size_t>(num_tasks_) * kHistoryCap * num_scalars_);
  rel_in_.resize(static_cast<size_t>(num_tasks_));
  rel_out_.resize(static_cast<size_t>(num_tasks_));
  rel_order_.resize(static_cast<size_t>(num_tasks_));
  all_tasks_.resize(static_cast<size_t>(num_tasks_));
  std::iota(all_tasks_.begin(), all_tasks_.end(), 0);

  // Sector/industry groups partition the tasks, so prefix sums give each
  // group a disjoint rel_order_ slice for race-free group-parallel ranking.
  sector_order_offset_.resize(static_cast<size_t>(dataset.num_sector_groups()));
  int offset = 0;
  for (int g = 0; g < dataset.num_sector_groups(); ++g) {
    sector_order_offset_[static_cast<size_t>(g)] = offset;
    offset += static_cast<int>(dataset.sector_tasks(g).size());
  }
  industry_order_offset_.resize(
      static_cast<size_t>(dataset.num_industry_groups()));
  offset = 0;
  for (int g = 0; g < dataset.num_industry_groups(); ++g) {
    industry_order_offset_[static_cast<size_t>(g)] = offset;
    offset += static_cast<int>(dataset.industry_tasks(g).size());
  }

  // Pre-partitioned group views for the in-plan relation lowering: borrowed
  // pointers into the dataset's (stable) group vectors plus each group's
  // disjoint rank-order scratch slice. kRank ranks all tasks as one group.
  rel_groups_.global.push_back({all_tasks_.data(), num_tasks_, 0});
  rel_groups_.sector.reserve(
      static_cast<size_t>(dataset.num_sector_groups()));
  for (int g = 0; g < dataset.num_sector_groups(); ++g) {
    const auto& members = dataset.sector_tasks(g);
    rel_groups_.sector.push_back({members.data(),
                                  static_cast<int>(members.size()),
                                  sector_order_offset_[static_cast<size_t>(g)]});
  }
  rel_groups_.industry.reserve(
      static_cast<size_t>(dataset.num_industry_groups()));
  for (int g = 0; g < dataset.num_industry_groups(); ++g) {
    const auto& members = dataset.industry_tasks(g);
    rel_groups_.industry.push_back(
        {members.data(), static_cast<int>(members.size()),
         industry_order_offset_[static_cast<size_t>(g)]});
  }

  // Shard fan-out: `intra_candidate_threads` workers, each handling
  // `shard_size` tasks per ParallelFor round. With an external pool the
  // executor never spawns threads of its own; standalone it owns a pool of
  // workers - 1 threads (the caller participates in every loop).
  const int workers = std::max(1, config_.intra_candidate_threads);
  if (shared_pool != nullptr) {
    pool_ = shared_pool;
  } else if (workers > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(workers - 1);
    pool_ = owned_pool_.get();
  }
  if (pool_ != nullptr && num_tasks_ > 1 && workers > 1) {
    shard_size_ = config_.shard_size > 0
                      ? config_.shard_size
                      : (num_tasks_ + workers - 1) / workers;
    shard_size_ = std::max(1, shard_size_);
    num_shards_ = (num_tasks_ + shard_size_ - 1) / shard_size_;
  }
  if (num_shards_ <= 1) {
    num_shards_ = 1;
    shard_size_ = std::max(1, num_tasks_);
  }
  // One n*n temp per shard: a shard works through its tasks sequentially,
  // so tasks can share a slice while shards never do.
  mat_scratch_.resize(static_cast<size_t>(num_shards_) * n_ * n_);

  fuse_ = config_.fuse_segments;
  block_size_ = config_.block_size > 0 ? config_.block_size
                                       : AutoBlockSize(n_);
  // Resolve the per-ISA kernel table once: config override, then the
  // AE_KERNEL_VARIANT environment variable, then CPUID/HWCAP detection. The
  // interpreter always runs the scalar reference kernels.
  ktable_ = fuse_ ? &ResolveKernelTable(config_.kernel_variant)
                  : GetKernelTable(KernelVariant::kScalar);
}

void Executor::ZeroMemory() {
  std::fill(scalars_.begin(), scalars_.end(), 0.0);
  std::fill(vectors_.begin(), vectors_.end(), 0.0);
  std::fill(matrices_.begin(), matrices_.end(), 0.0);
  std::fill(history_.begin(), history_.end(), 0.0);
  hist_size_ = 0;
  hist_head_ = 0;
}

void Executor::ParallelForTasks(const std::function<void(int, int)>& fn) {
  if (num_shards_ <= 1 || pool_ == nullptr) {
    fn(0, num_tasks_);
    return;
  }
  ParallelForItems(num_shards_, [&](int s) {
    const int t0 = s * shard_size_;
    const int t1 = std::min(num_tasks_, t0 + shard_size_);
    fn(t0, t1);
  });
}

void Executor::ParallelForItems(int n, const std::function<void(int)>& fn) {
  // Inside a Run the arena's parked helpers take the round (one epoch bump);
  // outside one — or if the arena could not be set up — fall back to the
  // pool's queue-based ParallelFor. Identical results either way.
  if (arena_ != nullptr) {
    arena_->ParallelFor(n, fn);
  } else {
    pool_->ParallelFor(n, fn);
  }
}

void Executor::RefreshInputs(int date) {
  ParallelForTasks([&](int t0, int t1) {
    for (int k = t0; k < t1; ++k) {
      dataset_.FillInputMatrix(k, date, Mat(k, kInputMatrix));
    }
  });
}

// RecordHistory, PredictionsFinite and the relation gather/scatter copy a
// handful of doubles per task; a shard barrier costs more than the whole
// loop, so they stay serial (sharding them would be bit-identical anyway).
void Executor::RecordHistory() {
  for (int k = 0; k < num_tasks_; ++k) {
    double* slot = history_.data() +
                   (static_cast<size_t>(k) * kHistoryCap + hist_head_) *
                       num_scalars_;
    const double* s = Scalars(k);
    std::copy(s, s + num_scalars_, slot);
  }
  hist_head_ = (hist_head_ + 1) % kHistoryCap;
  hist_size_ = std::min(hist_size_ + 1, kHistoryCap);
}

bool Executor::PredictionsFinite() {
  for (int k = 0; k < num_tasks_; ++k) {
    if (!std::isfinite(Scalars(k)[kPredictionScalar])) return false;
  }
  return true;
}

void Executor::RankGroup(const int* members, int count, int* order) {
  const int g = count;
  if (g == 1) {
    rel_out_[static_cast<size_t>(members[0])] = 0.5;
    return;
  }
  // Rank members by value (ties broken by task id via stability). NaNs
  // sort after every finite value and are mutually equivalent — a raw
  // `<` on doubles containing NaN is not a strict weak ordering, which
  // std::stable_sort requires.
  for (int i = 0; i < g; ++i) order[i] = members[i];
  std::stable_sort(order, order + g, [&](int a, int b) {
    const double va = rel_in_[static_cast<size_t>(a)];
    const double vb = rel_in_[static_cast<size_t>(b)];
    const bool nan_a = std::isnan(va);
    const bool nan_b = std::isnan(vb);
    if (nan_a || nan_b) return !nan_a && nan_b;
    return va < vb;
  });
  // Average-tie fractional ranks normalized to [0, 1].
  int i = 0;
  while (i < g) {
    int j = i;
    while (j + 1 < g && rel_in_[static_cast<size_t>(order[j + 1])] ==
                            rel_in_[static_cast<size_t>(order[i])]) {
      ++j;
    }
    const double avg_rank = 0.5 * (i + j);  // 0-based average position
    const double normalized = avg_rank / static_cast<double>(g - 1);
    for (int q = i; q <= j; ++q) {
      rel_out_[static_cast<size_t>(order[q])] = normalized;
    }
    i = j + 1;
  }
}

void Executor::DemeanGroup(const int* members, int count) {
  double sum = 0.0;
  for (int i = 0; i < count; ++i) {
    sum += rel_in_[static_cast<size_t>(members[i])];
  }
  const double mean = sum / static_cast<double>(count);
  for (int i = 0; i < count; ++i) {
    const int t = members[i];
    rel_out_[static_cast<size_t>(t)] = rel_in_[static_cast<size_t>(t)] - mean;
  }
}

void Executor::ExecRelationPlan(const RelationPlan& plan) {
  // The whole op is one round over its pre-partitioned groups. Each
  // group's work item gathers its members' input scalar, ranks or demeans,
  // and scatters the result — the groups partition the task set, so
  // concurrent items touch disjoint rel_in_ / rel_out_ / rel_order_ slices
  // and disjoint task scalars by construction.
  const std::vector<RelationGroup>& groups = *plan.groups;
  const int num_groups = static_cast<int>(groups.size());
  auto run_group = [&](int gi) {
    const RelationGroup& group = groups[static_cast<size_t>(gi)];
    for (int i = 0; i < group.size; ++i) {
      const int t = group.members[i];
      rel_in_[static_cast<size_t>(t)] = Scalars(t)[plan.in1];
    }
    if (plan.op == Op::kRelationDemean) {
      DemeanGroup(group.members, group.size);
    } else {
      RankGroup(group.members, group.size,
                rel_order_.data() + group.order_offset);
    }
    for (int i = 0; i < group.size; ++i) {
      const int t = group.members[i];
      Scalars(t)[plan.out] = rel_out_[static_cast<size_t>(t)];
    }
  };
  // Per-group work is tiny next to a barrier on small universes (and kRank
  // is always one global group), so only large universes fan out.
  if (num_groups > 1 && num_shards_ > 1 && pool_ != nullptr &&
      num_tasks_ >= config_.group_parallel_min_tasks) {
    ParallelForItems(num_groups, run_group);
  } else {
    for (int gi = 0; gi < num_groups; ++gi) run_group(gi);
  }
}

MicroCtx Executor::MakeCtx(int t0) {
  MicroCtx ctx;
  ctx.scalars = scalars_.data();
  ctx.vectors = vectors_.data();
  ctx.matrices = matrices_.data();
  ctx.history = history_.data();
  ctx.scratch = Scratch(t0);
  ctx.scalar_stride = static_cast<size_t>(num_scalars_);
  ctx.vec_stride = static_cast<size_t>(num_vectors_) * n_;
  ctx.mat_stride = static_cast<size_t>(num_matrices_) * n_ * n_;
  ctx.hist_stride = static_cast<size_t>(kHistoryCap) * num_scalars_;
  ctx.num_scalars = num_scalars_;
  ctx.hist_cap = kHistoryCap;
  ctx.hist_size = hist_size_;
  ctx.hist_head = hist_head_;
  ctx.n = n_;
  ctx.run_seed = run_seed_;
  return ctx;
}

void Executor::ExecInterpretedSegment(const FusedSegment& segment) {
  ParallelForTasks([&](int t0, int t1) {
    const MicroCtx ctx = MakeCtx(t0);
    for (const MicroOp& op : segment.ops) {
      for (int k = t0; k < t1; ++k) op.fn(ctx, op, k, k + 1);
    }
  });
}

void Executor::ExecFusedSegment(const FusedSegment& segment,
                                int refresh_date) {
  ParallelForTasks([&](int t0, int t1) {
    const MicroCtx ctx = MakeCtx(t0);
    // Block-at-a-time: a cache-resident block of tasks runs the whole
    // segment before the next block is touched. A fused input refresh fills
    // the block's m0 matrices right before the segment consumes them —
    // still warm — instead of a separate whole-universe sweep per date.
    // The fill is fetched from the dispatched kernel table like every other
    // fused kernel (a pure float→double widening copy, bitwise exact on
    // any variant; the interpreter's RefreshInputs keeps
    // Dataset::FillInputMatrix as the reference).
    const int nf = dataset_.num_features();
    const int first_date = refresh_date - n_ + 1;
    for (int b0 = t0; b0 < t1; b0 += block_size_) {
      const int b1 = std::min(t1, b0 + block_size_);
      if (refresh_date >= 0) {
        for (int k = b0; k < b1; ++k) {
          ktable_->fill_input(dataset_.FeatureRow(k, first_date), nf, n_,
                              Mat(k, kInputMatrix));
        }
      }
      for (const MicroOp& op : segment.ops) op.fn(ctx, op, b0, b1);
    }
  });
}

void Executor::ExecCompiled(CompiledComponent& compiled, int refresh_date) {
  // The fused refresh needs a leading element-wise segment to ride on; a
  // component that is empty or opens with a relation op (which reads
  // scalars the refresh does not touch — but later segments read m0) gets
  // the standalone sweep instead, as does every interpreter run. Either way
  // every piece sees a fully refreshed m0.
  bool fuse_refresh = refresh_date >= 0;
  if (fuse_refresh && (!fuse_ || compiled.pieces.empty() ||
                       compiled.pieces.front().is_relation)) {
    RefreshInputs(refresh_date);
    fuse_refresh = false;
  }
  for (const CompiledComponent::Piece& piece : compiled.pieces) {
    if (piece.is_relation) {
      ExecRelationPlan(compiled.relations[static_cast<size_t>(piece.index)]);
      continue;
    }
    FusedSegment& segment = compiled.segments[static_cast<size_t>(piece.index)];
    // Draw ids are stamped serially on the driving thread, one per
    // random-op *execution* — so (seed, draw id) is identical whether the
    // segment then runs fused or interpreted, sharded or serial.
    for (const int idx : segment.random_ops) {
      segment.ops[static_cast<size_t>(idx)].draw_id = draw_counter_++;
    }
    if (fuse_) {
      ExecFusedSegment(segment, fuse_refresh ? refresh_date : -1);
      fuse_refresh = false;
    } else {
      ExecInterpretedSegment(segment);
    }
  }
}

ExecutionResult Executor::Run(const AlphaProgram& program, uint64_t seed,
                              bool include_test, int limit_train,
                              int limit_valid, double budget_seconds) {
  run_seed_ = seed;
  draw_counter_ = 0;
  ZeroMemory();

  // Evaluation watchdog (off at budget 0, the default): one steady_clock
  // read per date boundary against a fixed deadline.
  const bool budgeted = budget_seconds > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(budgeted ? budget_seconds : 0.0));
  const auto over_budget = [budgeted, deadline]() {
    return budgeted && std::chrono::steady_clock::now() >= deadline;
  };

  // The once-per-Run lowering that the date loop amortizes (it also
  // refuses out-of-range operands before anything runs), and persistent
  // shard workers for this Run (no-op when serial).
  for (int c = 0; c < kNumComponents; ++c) {
    CompileComponent(program.component(static_cast<ComponentId>(c)), n_,
                     kHistoryCap, config_.limits, *ktable_, rel_groups_,
                     &compiled_[c]);
  }
  RunArenaScope arena_scope(*this);

  ExecCompiled(compiled_[0]);

  ExecutionResult result;
  const auto& train_dates = dataset_.dates(market::Split::kTrain);
  const int num_train =
      limit_train < 0
          ? static_cast<int>(train_dates.size())
          : std::min<int>(limit_train, static_cast<int>(train_dates.size()));
  for (int epoch = 0; epoch < config_.train_epochs; ++epoch) {
    for (int di = 0; di < num_train; ++di) {
      if (over_budget()) {
        result.valid = false;
        result.timed_out = true;
        return result;
      }
      const int date = train_dates[static_cast<size_t>(di)];
      ExecCompiled(compiled_[1], date);  // m0 refresh + predict
      if (!PredictionsFinite()) {
        result.valid = false;
        return result;
      }
      for (int k = 0; k < num_tasks_; ++k) {
        Scalars(k)[kLabelScalar] = dataset_.Label(k, date);
      }
      ExecCompiled(compiled_[2]);
      RecordHistory();
    }
  }

  auto infer = [&](market::Split split, int limit,
                   std::vector<std::vector<double>>& out) -> bool {
    const auto& dates = dataset_.dates(split);
    const int num =
        limit < 0 ? static_cast<int>(dates.size())
                  : std::min<int>(limit, static_cast<int>(dates.size()));
    out.reserve(static_cast<size_t>(num));
    for (int di = 0; di < num; ++di) {
      if (over_budget()) {
        result.timed_out = true;
        return false;
      }
      const int date = dates[static_cast<size_t>(di)];
      ExecCompiled(compiled_[1], date);  // m0 refresh + predict
      if (!PredictionsFinite()) return false;
      std::vector<double> row(static_cast<size_t>(num_tasks_));
      for (int k = 0; k < num_tasks_; ++k) {
        row[static_cast<size_t>(k)] = Scalars(k)[kPredictionScalar];
      }
      out.push_back(std::move(row));
      RecordHistory();
    }
    return true;
  };

  if (!infer(market::Split::kValid, limit_valid, result.valid_preds)) {
    result.valid = false;
    return result;
  }
  if (include_test &&
      !infer(market::Split::kTest, -1, result.test_preds)) {
    result.valid = false;
    return result;
  }
  return result;
}

}  // namespace alphaevolve::core
