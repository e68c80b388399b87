// Bit-parity of the fused micro-op kernel path against the reference
// interpreter. Both run the same lowering; the fused path differs in loop
// order (block-at-a-time, persistent arena workers), kernel variant
// (dispatched SIMD vs scalar) and input refresh (fused fill vs standalone),
// never in any per-task FP sequence, so every configuration below must
// reproduce the interpreter's output bit-for-bit: across a program fuzz
// (whatever the mutator emits), across {1, 4, 8} threads x {1, 16, 257}
// shard sizes, across block sizes, with CounterRng random-init ops and with
// relation ops splitting segments.
// Every runnable variant's dense matmul/matvec/transpose kernels get the same
// treatment against naive loops. Per-op arithmetic, which both paths share,
// is pinned by ops_semantics_test.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/executor.h"
#include "core/generators.h"
#include "core/mutator.h"
#include "market/simulator.h"
#include "util/rng.h"

namespace alphaevolve::core {
namespace {

Instruction I(Op op, int out, int in1 = 0, int in2 = 0) {
  Instruction ins;
  ins.op = op;
  ins.out = static_cast<uint8_t>(out);
  ins.in1 = static_cast<uint8_t>(in1);
  ins.in2 = static_cast<uint8_t>(in2);
  return ins;
}

Instruction RandomInit(Op op, int out, double imm0, double imm1) {
  Instruction ins;
  ins.op = op;
  ins.out = static_cast<uint8_t>(out);
  ins.imm0 = imm0;
  ins.imm1 = imm1;
  return ins;
}

/// Exercises every lowering family: random init, matmul/matvec/transpose
/// (aliasing and not), extraction, ts-rank, and all three relation ops
/// splitting the predict component into multiple fused segments.
AlphaProgram MakeStressAlpha(int window) {
  AlphaProgram prog = MakeExpertAlpha(window);
  prog.setup.push_back(RandomInit(Op::kMatrixGaussian, 2, 0.0, 0.1));
  prog.setup.push_back(RandomInit(Op::kVectorUniform, 2, -0.5, 0.5));
  prog.predict.push_back(I(Op::kMatrixMatMul, 2, 2, 1));   // direct
  prog.predict.push_back(I(Op::kMatrixMatMul, 2, 2, 2));   // aliasing
  prog.predict.push_back(I(Op::kMatrixTranspose, 3, 2));   // direct
  prog.predict.push_back(I(Op::kMatrixTranspose, 3, 3));   // aliasing
  prog.predict.push_back(I(Op::kMatrixVectorProduct, 3, 2, 2));
  prog.predict.push_back(I(Op::kVectorMean, 6, 3));
  Instruction rank = I(Op::kRank, 6, 6);
  prog.predict.push_back(rank);
  Instruction rrank = I(Op::kRelationRank, 7, 6);
  rrank.idx0 = 1;  // industry
  prog.predict.push_back(rrank);
  Instruction demean = I(Op::kRelationDemean, 5, 7);
  demean.idx0 = 0;  // sector
  prog.predict.push_back(demean);
  Instruction ts = I(Op::kTsRank, 4, 5);
  ts.idx0 = 6;
  prog.predict.push_back(ts);
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 4, 5));
  return prog;
}

void ExpectBitIdentical(const ExecutionResult& a, const ExecutionResult& b) {
  ASSERT_EQ(a.valid, b.valid);
  // operator== on vector<double> is bitwise equality per element.
  EXPECT_EQ(a.valid_preds, b.valid_preds);
  EXPECT_EQ(a.test_preds, b.test_preds);
}

class FusedParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Large enough that shard size 257 still yields several shards with an
    // uneven tail, with real (uneven) sector/industry structure.
    market::MarketConfig mc = market::MarketConfig::BenchScale();
    mc.num_stocks = 300;
    mc.num_days = 120;
    mc.seed = 31;
    dataset_ = new market::Dataset(
        market::Dataset::Simulate(mc, market::DatasetConfig{}));
    ASSERT_GT(dataset_->num_tasks(), 257);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static ExecutorConfig Interp() {
    ExecutorConfig cfg;
    cfg.fuse_segments = false;
    return cfg;
  }
  static ExecutorConfig Fused(int threads, int shard_size,
                              int block_size = 0) {
    ExecutorConfig cfg;
    cfg.fuse_segments = true;
    cfg.intra_candidate_threads = threads;
    cfg.shard_size = shard_size;
    cfg.block_size = block_size;
    cfg.group_parallel_min_tasks = 1;  // force the concurrent group path
    return cfg;
  }

  static market::Dataset* dataset_;
};

market::Dataset* FusedParityTest::dataset_ = nullptr;

TEST_F(FusedParityTest, ProgramFuzzAcrossThreadsAndShardSizes) {
  // The acceptance matrix: interpreter reference vs fused kernels at
  // {1, 4, 8} threads x {1, 16, 257} shard sizes, over mutated programs.
  Mutator mutator{MutatorConfig{}};
  Rng rng(7);

  Executor reference(*dataset_, Interp());
  std::vector<std::pair<std::string, Executor>> fused;
  fused.emplace_back("fused serial", Executor(*dataset_, Fused(1, 0)));
  for (const int threads : {4, 8}) {
    for (const int shard_size : {1, 16, 257}) {
      fused.emplace_back(
          "fused t" + std::to_string(threads) + " s" +
              std::to_string(shard_size),
          Executor(*dataset_, Fused(threads, shard_size)));
    }
  }
  // The interpreter must also survive the arena (it shares the shard
  // fan-out machinery with the fused path).
  ExecutorConfig interp_sharded = Interp();
  interp_sharded.intra_candidate_threads = 4;
  interp_sharded.shard_size = 16;
  interp_sharded.group_parallel_min_tasks = 1;
  fused.emplace_back("interpreter t4 s16",
                     Executor(*dataset_, interp_sharded));

  AlphaProgram prog = MakeStressAlpha(dataset_->window());
  for (int i = 0; i < 12; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    const uint64_t seed = 4000 + static_cast<uint64_t>(i);
    const ExecutionResult expect = reference.Run(prog, seed);
    for (auto& [name, executor] : fused) {
      SCOPED_TRACE(name);
      ExpectBitIdentical(executor.Run(prog, seed), expect);
    }
    prog = mutator.Mutate(prog, rng);
  }
}

TEST_F(FusedParityTest, BlockSizeCannotChangeResults) {
  const AlphaProgram prog = MakeStressAlpha(dataset_->window());
  Executor reference(*dataset_, Interp());
  const ExecutionResult expect = reference.Run(prog, 55);
  ASSERT_TRUE(expect.valid);
  for (const int block : {1, 3, 64, 100000}) {
    SCOPED_TRACE("block_size=" + std::to_string(block));
    Executor fused(*dataset_, Fused(4, 16, block));
    ExpectBitIdentical(fused.Run(prog, 55), expect);
  }
}

TEST_F(FusedParityTest, CounterRngDrawsIdenticalAcrossPaths) {
  // A pure random program: the fused path stamps serial draw ids on its
  // micro-ops, the interpreter on its instructions — the streams must line
  // up draw for draw, at any thread count.
  AlphaProgram prog;
  prog.setup.push_back(RandomInit(Op::kMatrixGaussian, 1, 0.0, 1.0));
  prog.predict.push_back(RandomInit(Op::kVectorUniform, 2, -1.0, 1.0));
  prog.predict.push_back(RandomInit(Op::kVectorGaussian, 3, 0.0, 2.0));
  prog.predict.push_back(I(Op::kVectorMean, 3, 2));
  prog.predict.push_back(I(Op::kMatrixMean, 4, 1));
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 3, 4));
  prog.update.push_back(RandomInit(Op::kMatrixUniform, 1, -0.1, 0.1));

  Executor reference(*dataset_, Interp());
  const ExecutionResult expect = reference.Run(prog, 99);
  ASSERT_TRUE(expect.valid);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Executor fused(*dataset_, Fused(threads, 0));
    ExpectBitIdentical(fused.Run(prog, 99), expect);
  }
  Executor fused(*dataset_, Fused(8, 0));
  const ExecutionResult other_seed = fused.Run(prog, 100);
  ASSERT_TRUE(other_seed.valid);
  EXPECT_NE(other_seed.valid_preds, expect.valid_preds);
}

TEST_F(FusedParityTest, RelationBoundariesBetweenFusedSegments) {
  // Back-to-back relation ops (empty segments between them) and leading /
  // trailing relations: the compiled piece list must preserve program order
  // exactly.
  const int w = dataset_->window();
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  Instruction get;
  get.op = Op::kGetScalar;
  get.out = 3;
  get.idx0 = 0;
  get.idx1 = static_cast<uint8_t>(w - 1);
  prog.predict.push_back(get);
  prog.predict.push_back(I(Op::kRank, 4, 3));
  Instruction rr = I(Op::kRelationRank, 5, 4);
  rr.idx0 = 1;
  prog.predict.push_back(rr);  // relation directly after relation
  Instruction dm = I(Op::kRelationDemean, 6, 5);
  dm.idx0 = 0;
  prog.predict.push_back(dm);
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 6, 4));
  prog.predict.push_back(I(Op::kRank, kPredictionScalar, kPredictionScalar));
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor reference(*dataset_, Interp());
  Executor fused(*dataset_, Fused(4, 16));
  ExpectBitIdentical(fused.Run(prog, 11), reference.Run(prog, 11));
}

TEST_F(FusedParityTest, FusedInputRefreshBitIdentical) {
  // The per-date input-matrix fill is fused into the predict component's
  // first segment (one task-state sweep per date instead of two); the
  // interpreter keeps the standalone RefreshInputs as reference. All three
  // plan shapes must be bit-identical: a leading element-wise segment that
  // consumes m0 immediately (the fused fill), a predict that *opens* with a
  // relation op (standalone fill before the pieces), and an empty predict
  // whose m0 is only read by the update component.
  const int w = dataset_->window();

  AlphaProgram segment_first = MakeStressAlpha(w);  // starts by reading m0

  AlphaProgram relation_first;
  relation_first.predict.push_back(I(Op::kRank, 3, kPredictionScalar));
  Instruction get;
  get.op = Op::kGetScalar;
  get.out = 4;
  get.idx0 = 0;
  get.idx1 = static_cast<uint8_t>(w - 1);
  relation_first.predict.push_back(get);  // m0 read *after* the relation
  relation_first.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 3, 4));

  AlphaProgram empty_predict;
  empty_predict.update.push_back(get);  // only update consumes the refresh
  empty_predict.update.push_back(
      I(Op::kScalarAdd, kPredictionScalar, 4, kLabelScalar));

  int case_idx = 0;
  for (const AlphaProgram& prog :
       {segment_first, relation_first, empty_predict}) {
    SCOPED_TRACE("case " + std::to_string(case_idx++));
    Executor reference(*dataset_, Interp());
    const ExecutionResult expect = reference.Run(prog, 77);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Executor fused(*dataset_, Fused(threads, 16));
      ExpectBitIdentical(fused.Run(prog, 77), expect);
    }
  }
}

TEST_F(FusedParityTest, KernelVariantParityFuzz) {
  // Every kernel variant that was both compiled in and is runnable on this
  // host must reproduce the interpreter bit-for-bit on the mutated corpus —
  // the SIMD variants vectorize only across independent output elements, so
  // there is no tolerance, ever. Each variant runs the full {1, 4, 8}
  // threads x {1, 16, 257} shard matrix.
  Mutator mutator{MutatorConfig{}};
  Rng rng(17);

  Executor reference(*dataset_, Interp());
  std::vector<std::pair<std::string, Executor>> forced;
  for (const KernelVariant v : RunnableKernelVariants()) {
    const std::string vname = KernelVariantName(v);
    for (const int threads : {1, 4, 8}) {
      for (const int shard_size : {1, 16, 257}) {
        ExecutorConfig cfg = Fused(threads, shard_size);
        cfg.kernel_variant = vname;
        forced.emplace_back(vname + " t" + std::to_string(threads) + " s" +
                                std::to_string(shard_size),
                            Executor(*dataset_, cfg));
      }
    }
  }
  ASSERT_GE(forced.size(), 9u);  // scalar always compiles

  // MakeStressAlpha keeps all three relation ops in the corpus even when a
  // mutation step rewrites other instructions.
  AlphaProgram prog = MakeStressAlpha(dataset_->window());
  for (int i = 0; i < 5; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    const uint64_t seed = 6000 + static_cast<uint64_t>(i);
    const ExecutionResult expect = reference.Run(prog, seed);
    for (auto& [name, executor] : forced) {
      SCOPED_TRACE(name);
      ExpectBitIdentical(executor.Run(prog, seed), expect);
    }
    prog = mutator.Mutate(prog, rng);
  }
}

TEST_F(FusedParityTest, RelationHeavyProgramAcrossVariants) {
  // Relation-heavy shape: back-to-back relations, a relation opening the
  // predict component, and a trailing relation writing the prediction. The
  // group-parallel relation rounds must agree with the interpreter
  // bit-for-bit at every fan-out, for every runnable variant.
  AlphaProgram prog;
  prog.predict.push_back(I(Op::kRank, 3, kPredictionScalar));
  Instruction get;
  get.op = Op::kGetScalar;
  get.out = 4;
  get.idx0 = 0;
  get.idx1 = static_cast<uint8_t>(dataset_->window() - 1);
  prog.predict.push_back(get);
  Instruction rr = I(Op::kRelationRank, 5, 4);
  rr.idx0 = 1;
  prog.predict.push_back(rr);
  Instruction dm = I(Op::kRelationDemean, 6, 5);
  dm.idx0 = 0;
  prog.predict.push_back(dm);
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 6, 3));
  prog.predict.push_back(I(Op::kRank, kPredictionScalar, kPredictionScalar));

  Executor reference(*dataset_, Interp());
  const ExecutionResult expect = reference.Run(prog, 23);
  ASSERT_TRUE(expect.valid);
  for (const KernelVariant v : RunnableKernelVariants()) {
    for (const int threads : {1, 4, 8}) {
      SCOPED_TRACE(std::string(KernelVariantName(v)) + " threads=" +
                   std::to_string(threads));
      ExecutorConfig cfg = Fused(threads, 16);
      cfg.kernel_variant = KernelVariantName(v);
      Executor fused(*dataset_, cfg);
      ExpectBitIdentical(fused.Run(prog, 23), expect);
    }
  }
}

TEST_F(FusedParityTest, ScalarVariantIsDefaultTable) {
  // AE_KERNEL_VARIANT=scalar (here forced through the config, which takes
  // precedence over the env) must reproduce the auto-dispatched results
  // exactly — the variants differ in instruction selection, never in value.
  const AlphaProgram prog = MakeStressAlpha(dataset_->window());
  ExecutorConfig scalar_cfg = Fused(4, 16);
  scalar_cfg.kernel_variant = "scalar";
  Executor scalar_exec(*dataset_, scalar_cfg);
  EXPECT_STREQ(scalar_exec.kernel_variant_name(), "scalar");
  Executor auto_exec(*dataset_, Fused(4, 16));
  ExpectBitIdentical(scalar_exec.Run(prog, 63), auto_exec.Run(prog, 63));
}

TEST_F(FusedParityTest, EnvThreadCountCannotChangeResults) {
  // CI runs ctest under AE_BENCH_THREADS=1 and =4; this turns that into a
  // fused-vs-interpreter invariance check at the env-selected fan-out.
  int env_threads = 4;
  if (const char* env = std::getenv("AE_BENCH_THREADS")) {
    env_threads = std::max(1, std::atoi(env));
  }
  const AlphaProgram prog = MakeStressAlpha(dataset_->window());
  Executor reference(*dataset_, Interp());
  Executor fused(*dataset_, Fused(env_threads, 0));
  ExpectBitIdentical(fused.Run(prog, 42), reference.Run(prog, 42));
}

// ---- every runnable variant's dense kernels vs naive reference loops ----

/// True bitwise comparison (vector operator== fails NaN == NaN even when
/// the bit patterns agree, and the poisoned inputs below produce NaNs).
void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b, int n) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << "n=" << n;
}

TEST(BlockedKernelsTest, MatMulBitIdenticalToNaive) {
  Rng rng(3);
  for (const int n : {1, 2, 3, 4, 5, 7, 8, 13, 16, 31}) {
    std::vector<double> a(static_cast<size_t>(n) * n);
    std::vector<double> b(static_cast<size_t>(n) * n);
    for (double& x : a) x = rng.Gaussian();
    for (double& x : b) x = rng.Gaussian();
    // Poison a few entries: NaN/inf propagation must match too.
    if (n >= 4) {
      a[1] = std::numeric_limits<double>::quiet_NaN();
      b[2] = std::numeric_limits<double>::infinity();
      a[static_cast<size_t>(n)] = -0.0;
    }
    std::vector<double> naive(static_cast<size_t>(n) * n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int q = 0; q < n; ++q) acc += a[i * n + q] * b[q * n + j];
        naive[static_cast<size_t>(i) * n + j] = acc;
      }
    }
    for (const KernelVariant v : RunnableKernelVariants()) {
      SCOPED_TRACE(KernelVariantName(v));
      std::vector<double> out(static_cast<size_t>(n) * n);
      GetKernelTable(v)->matmul(a.data(), b.data(), out.data(), n);
      ExpectSameBits(out, naive, n);
    }
  }
}

TEST(BlockedKernelsTest, MatVecBitIdenticalToNaive) {
  Rng rng(5);
  for (const int n : {1, 3, 13, 32}) {
    std::vector<double> a(static_cast<size_t>(n) * n);
    std::vector<double> x(static_cast<size_t>(n));
    for (double& v : a) v = rng.Uniform(-2.0, 2.0);
    for (double& v : x) v = rng.Uniform(-2.0, 2.0);
    std::vector<double> naive(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      double acc = 0.0;
      for (int j = 0; j < n; ++j) acc += a[i * n + j] * x[j];
      naive[static_cast<size_t>(i)] = acc;
    }
    for (const KernelVariant v : RunnableKernelVariants()) {
      SCOPED_TRACE(KernelVariantName(v));
      std::vector<double> out(static_cast<size_t>(n));
      GetKernelTable(v)->matvec(a.data(), x.data(), out.data(), n);
      ExpectSameBits(out, naive, n);
    }
  }
}

TEST(BlockedKernelsTest, TransposeExact) {
  Rng rng(9);
  const int n = 13;
  std::vector<double> a(static_cast<size_t>(n) * n);
  for (double& v : a) v = rng.Gaussian();
  for (const KernelVariant v : RunnableKernelVariants()) {
    SCOPED_TRACE(KernelVariantName(v));
    std::vector<double> t(static_cast<size_t>(n) * n);
    GetKernelTable(v)->transpose(a.data(), t.data(), n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(t[static_cast<size_t>(j) * n + i],
                  a[static_cast<size_t>(i) * n + j]);
      }
    }
  }
}

}  // namespace
}  // namespace alphaevolve::core
