// Exhaustive per-op semantics table. Every op runs through a minimal
// predict program on both the reference interpreter and the fused path, and
// every element of its result is compared exactly against a value computed
// here, in the test, from the op's definition: plain in-order loops over the
// task's input matrix, std:: math, CounterRng draws, and a counting-based
// rank. Neither executor path can stand in for this check, because both run
// the same per-op kernel bodies; this table is what pins those bodies down.
//
// Results are observed through s1 (the only value an ExecutionResult
// exposes): scalars are copied into s1, vectors are broadcast into the rows
// of m0 and read back element by element with get_scalar, and matrices are
// transposed into m0 and read back the same way. Every op keeps at least one
// case; `EveryOpHasACase` fails when a new op arrives without one.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/program.h"
#include "test_util.h"
#include "util/check.h"
#include "util/rng.h"

namespace alphaevolve::core {
namespace {

using market::Split;

constexpr int kN = 13;  // window == feature count: X is kN x kN
constexpr uint64_t kSeed = 5;

using Values = std::vector<double>;  // one result's elements, row-major

Instruction I(Op op, int out, int in1 = 0, int in2 = 0) {
  Instruction ins;
  ins.op = op;
  ins.out = static_cast<uint8_t>(out);
  ins.in1 = static_cast<uint8_t>(in1);
  ins.in2 = static_cast<uint8_t>(in2);
  return ins;
}
Instruction Idx(Instruction ins, int idx0, int idx1 = 0) {
  ins.idx0 = static_cast<uint8_t>(idx0);
  ins.idx1 = static_cast<uint8_t>(idx1);
  return ins;
}
Instruction Imm(Instruction ins, double imm0, double imm1 = 0.0) {
  ins.imm0 = imm0;
  ins.imm1 = imm1;
  return ins;
}
Instruction SConst(int out, double v) {
  return Imm(I(Op::kScalarConst, out), v);
}
Instruction GetS(int out, int row, int col) {
  return Idx(I(Op::kGetScalar, out), row, col);
}
Instruction GetRow(int out, int row) { return Idx(I(Op::kGetRow, out), row); }
Instruction GetCol(int out, int col) {
  return Idx(I(Op::kGetColumn, out), col);
}

double At(const Values& m, int i, int j) {
  return m[static_cast<size_t>(i) * kN + j];
}
Values Row(const Values& m, int i) {
  return Values(m.begin() + static_cast<long>(i) * kN,
                m.begin() + static_cast<long>(i + 1) * kN);
}
Values Col(const Values& m, int j) {
  Values v(kN);
  for (int i = 0; i < kN; ++i) v[static_cast<size_t>(i)] = At(m, i, j);
  return v;
}
Values Transposed(const Values& m) {
  Values t(m.size());
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) t[static_cast<size_t>(j) * kN + i] = At(m, i, j);
  }
  return t;
}
Values Map1(const Values& a, const std::function<double(double)>& f) {
  Values o(a.size());
  for (size_t i = 0; i < a.size(); ++i) o[i] = f(a[i]);
  return o;
}
Values Map2(const Values& a, const Values& b,
            const std::function<double(double, double)>& f) {
  Values o(a.size());
  for (size_t i = 0; i < a.size(); ++i) o[i] = f(a[i], b[i]);
  return o;
}
double Sum(const Values& a) {
  double acc = 0.0;
  for (double x : a) acc += x;
  return acc;
}
double SumSq(const Values& a) {
  double acc = 0.0;
  for (double x : a) acc += x * x;
  return acc;
}
double Mean(const Values& a) { return Sum(a) / static_cast<int>(a.size()); }
double Std(const Values& a) {
  double mean = Sum(a);
  mean /= static_cast<int>(a.size());
  double ss = 0.0;
  for (double x : a) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<int>(a.size()));
}
Values MatMul(const Values& a, const Values& b) {
  Values o(a.size());
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      double acc = 0.0;
      for (int q = 0; q < kN; ++q) acc += At(a, i, q) * At(b, q, j);
      o[static_cast<size_t>(i) * kN + j] = acc;
    }
  }
  return o;
}
Values MatVec(const Values& a, const Values& x) {
  Values o(kN);
  for (int i = 0; i < kN; ++i) {
    double acc = 0.0;
    for (int j = 0; j < kN; ++j) acc += At(a, i, j) * x[static_cast<size_t>(j)];
    o[static_cast<size_t>(i)] = acc;
  }
  return o;
}
double Step(double x) { return x > 0.0 ? 1.0 : 0.0; }

/// Bit equality, so signed zeros must match too.
::testing::AssertionResult SameBits(double got, double want) {
  if (std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(want)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::setprecision(17) << got << " != expected " << want;
}

/// Fractional rank of `values[self]` among the `group` members (task ids in
/// task order), by counting rather than sorting: ties share the average of
/// their positions, NaNs order after every number and keep task order among
/// themselves (they never tie — NaN != NaN), and a lone member ranks 0.5.
double CountRank(const Values& values, const std::vector<int>& group,
                 int self) {
  const int g = static_cast<int>(group.size());
  if (g == 1) return 0.5;
  const double v = values[static_cast<size_t>(self)];
  double pos = 0.0;
  if (std::isnan(v)) {
    for (const int t : group) {
      const double u = values[static_cast<size_t>(t)];
      if (!std::isnan(u) || t < self) pos += 1.0;
    }
  } else {
    int less = 0, equal = 0;
    for (const int t : group) {
      const double u = values[static_cast<size_t>(t)];
      if (u < v) ++less;
      if (u == v) ++equal;
    }
    pos = less + 0.5 * (equal - 1);
  }
  return pos / static_cast<double>(g - 1);
}

/// What a case's expectation may look at: the executed dataset, the input
/// matrix every task saw on each train date and on the inspected (first
/// validation) date, and the run's random-draw key.
struct Env {
  const market::Dataset* ds = nullptr;
  int train_dates = 1;

  int tasks() const { return ds->num_tasks(); }
  Values XAt(int task, int date) const {
    Values x(static_cast<size_t>(kN) * kN);
    ds->FillInputMatrix(task, date, x.data());
    return x;
  }
  /// X of `task` on the inspected date.
  Values X(int task) const {
    return XAt(task, ds->dates(Split::kValid)[0]);
  }
  /// X of `task` on train date `i` (0 = oldest).
  Values XTrain(int task, int i) const {
    return XAt(task, ds->dates(Split::kTrain)[static_cast<size_t>(i)]);
  }
  /// The draw id of a case's single random op on the inspected date: one
  /// draw per predict execution, serially, from 0.
  CounterRng Draws() const {
    return CounterRng(kSeed, static_cast<uint64_t>(train_dates));
  }
  /// Members of `task`'s sector (axis 0) or industry (axis 1) group.
  std::vector<int> Group(int task, int axis) const {
    std::vector<int> members;
    for (int t = 0; t < tasks(); ++t) {
      const bool same = axis == 0 ? ds->sector_of(t) == ds->sector_of(task)
                                  : ds->industry_of(t) == ds->industry_of(task);
      if (same) members.push_back(t);
    }
    return members;
  }
  std::vector<int> All() const {
    std::vector<int> members(static_cast<size_t>(tasks()));
    for (int t = 0; t < tasks(); ++t) members[static_cast<size_t>(t)] = t;
    return members;
  }
};

/// Expected result elements for every task: [task][element].
using Expect = std::function<std::vector<Values>(const Env&)>;

/// Per-task expectation from that task's X alone.
Expect PerTask(std::function<Values(const Values& x, int task, const Env&)> f) {
  return [f](const Env& env) {
    std::vector<Values> out;
    for (int t = 0; t < env.tasks(); ++t) out.push_back(f(env.X(t), t, env));
    return out;
  };
}
Expect PerTaskX(std::function<Values(const Values& x)> f) {
  return PerTask([f](const Values& x, int, const Env&) { return f(x); });
}

struct Case {
  std::string label;
  Op op;  ///< the op this case covers
  std::vector<Instruction> predict;
  OperandType kind;  ///< where the result is left
  int addr;
  Expect expect;
  int train_dates = 1;
};

/// Predict-program tail that copies `element` of the result into s1.
std::vector<Instruction> Reader(const Case& c, int element) {
  switch (c.kind) {
    case OperandType::kScalar:
      EXPECT_EQ(c.addr, kPredictionScalar);  // scalar cases write s1
      return {};
    case OperandType::kVector:
      return {Idx(I(Op::kMatrixBroadcast, kInputMatrix, c.addr), 0),
              GetS(kPredictionScalar, 0, element)};
    case OperandType::kMatrix: {
      const int i = element / kN, j = element % kN;
      if (c.addr == kInputMatrix) return {GetS(kPredictionScalar, i, j)};
      return {I(Op::kMatrixTranspose, kInputMatrix, c.addr),
              GetS(kPredictionScalar, j, i)};
    }
    case OperandType::kNone:
      break;
  }
  ADD_FAILURE() << "case without a result";
  return {};
}

int NumElements(OperandType kind) {
  return kind == OperandType::kScalar   ? 1
         : kind == OperandType::kVector ? kN
                                        : kN * kN;
}

// ---- the cases -------------------------------------------------------------
//
// Per-task scalar inputs: p = X[11][12] (close on the latest window day) and
// q = X[4][6] (5-day volatility), both in (0, 1]; their difference has mixed
// signs across tasks. Vectors: v2 = X row 11, v3 = X row 4. Matrices:
// m0 = X, m1 = Xᵀ.

const std::vector<Instruction> kPQ = {GetS(2, 11, 12), GetS(3, 4, 6)};
double P(const Values& x) { return At(x, 11, 12); }
double Q(const Values& x) { return At(x, 4, 6); }

std::vector<Instruction> With(std::vector<Instruction> prefix,
                              std::initializer_list<Instruction> tail) {
  prefix.insert(prefix.end(), tail);
  return prefix;
}

Case ScalarUnary(const std::string& label, Op op,
                 std::function<double(double)> f) {
  return {label, op, With(kPQ, {I(op, 1, 2)}), OperandType::kScalar, 1,
          PerTaskX([f](const Values& x) { return Values{f(P(x))}; })};
}
Case ScalarBinary(const std::string& label, Op op,
                  std::function<double(double, double)> f) {
  return {label, op, With(kPQ, {I(op, 1, 2, 3)}), OperandType::kScalar, 1,
          PerTaskX([f](const Values& x) { return Values{f(P(x), Q(x))}; })};
}

const std::vector<Instruction> kV23 = {GetRow(2, 11), GetRow(3, 4)};

Case VectorUnary(const std::string& label, Op op,
                 std::function<double(double)> f) {
  // Input v4 = v2 - v3 has mixed signs.
  return {label, op, With(kV23, {I(Op::kVectorSub, 4, 2, 3), I(op, 5, 4)}),
          OperandType::kVector, 5, PerTaskX([f](const Values& x) {
            return Map1(Map2(Row(x, 11), Row(x, 4), std::minus<double>()), f);
          })};
}
Case VectorBinary(const std::string& label, Op op,
                  std::function<double(double, double)> f) {
  return {label, op, With(kV23, {I(op, 5, 2, 3)}), OperandType::kVector, 5,
          PerTaskX([f](const Values& x) {
            return Map2(Row(x, 11), Row(x, 4), f);
          })};
}
Case VectorToScalar(const std::string& label, Op op,
                    std::function<double(const Values&)> f) {
  return {label, op, With(kV23, {I(Op::kVectorSub, 4, 2, 3), I(op, 1, 4)}),
          OperandType::kScalar, 1, PerTaskX([f](const Values& x) {
            return Values{
                f(Map2(Row(x, 11), Row(x, 4), std::minus<double>()))};
          })};
}

const std::vector<Instruction> kM01 = {I(Op::kMatrixTranspose, 1, 0)};

Case MatrixUnary(const std::string& label, Op op,
                 std::function<double(double)> f) {
  // Input m2 = X - Xᵀ has mixed signs (and a zero diagonal).
  return {label, op, With(kM01, {I(Op::kMatrixSub, 2, 0, 1), I(op, 3, 2)}),
          OperandType::kMatrix, 3, PerTaskX([f](const Values& x) {
            return Map1(Map2(x, Transposed(x), std::minus<double>()), f);
          })};
}
Case MatrixBinary(const std::string& label, Op op,
                  std::function<double(double, double)> f) {
  return {label, op, With(kM01, {I(op, 2, 0, 1)}), OperandType::kMatrix, 2,
          PerTaskX([f](const Values& x) {
            return Map2(x, Transposed(x), f);
          })};
}
Case MatrixToScalar(const std::string& label, Op op,
                    std::function<double(const Values&)> f) {
  return {label, op, With(kM01, {I(Op::kMatrixSub, 2, 0, 1), I(op, 1, 2)}),
          OperandType::kScalar, 1, PerTaskX([f](const Values& x) {
            return Values{f(Map2(x, Transposed(x), std::minus<double>()))};
          })};
}

std::vector<Case> ElementwiseCases() {
  std::vector<Case> cases;
  const auto add = [&](Case c) { cases.push_back(std::move(c)); };
  using D = double;

  // -- scalar ---------------------------------------------------------------
  add({"s_const", Op::kScalarConst, {SConst(1, -2.75)}, OperandType::kScalar,
       1, PerTaskX([](const Values&) { return Values{-2.75}; })});
  add(ScalarBinary("s_add", Op::kScalarAdd, [](D a, D b) { return a + b; }));
  add(ScalarBinary("s_sub", Op::kScalarSub, [](D a, D b) { return a - b; }));
  add(ScalarBinary("s_mul", Op::kScalarMul, [](D a, D b) { return a * b; }));
  add(ScalarBinary("s_div", Op::kScalarDiv, [](D a, D b) { return a / b; }));
  add(ScalarBinary("s_min", Op::kScalarMin,
                   [](D a, D b) { return b < a ? b : a; }));
  add(ScalarBinary("s_max", Op::kScalarMax,
                   [](D a, D b) { return a < b ? b : a; }));
  // min/max of equal values return the first operand, as std::min/max do;
  // signed zeros make that visible.
  for (const auto& [a, b] : {std::pair{-0.0, 0.0}, std::pair{0.0, -0.0}}) {
    const std::string args =
        "(" + std::to_string(a) + ", " + std::to_string(b) + ")";
    add({"s_min" + args, Op::kScalarMin,
         {SConst(2, a), SConst(3, b), I(Op::kScalarMin, 1, 2, 3)},
         OperandType::kScalar, 1, PerTaskX([a, b](const Values&) {
           return Values{std::min(a, b)};
         })});
    add({"s_max" + args, Op::kScalarMax,
         {SConst(2, a), SConst(3, b), I(Op::kScalarMax, 1, 2, 3)},
         OperandType::kScalar, 1, PerTaskX([a, b](const Values&) {
           return Values{std::max(a, b)};
         })});
  }
  add({"s_abs of q - p", Op::kScalarAbs,
       With(kPQ, {I(Op::kScalarSub, 4, 3, 2), I(Op::kScalarAbs, 1, 4)}),
       OperandType::kScalar, 1, PerTaskX([](const Values& x) {
         return Values{std::abs(Q(x) - P(x))};
       })});
  add({"s_abs of a negative constant", Op::kScalarAbs,
       {SConst(4, -1.5), I(Op::kScalarAbs, 1, 4)}, OperandType::kScalar, 1,
       PerTaskX([](const Values&) { return Values{1.5}; })});
  add(ScalarUnary("s_recip", Op::kScalarReciprocal,
                  [](D a) { return 1.0 / a; }));
  add(ScalarUnary("s_sin", Op::kScalarSin, [](D a) { return std::sin(a); }));
  add(ScalarUnary("s_cos", Op::kScalarCos, [](D a) { return std::cos(a); }));
  add(ScalarUnary("s_tan", Op::kScalarTan, [](D a) { return std::tan(a); }));
  add(ScalarUnary("s_arcsin", Op::kScalarArcSin,
                  [](D a) { return std::asin(a); }));
  add(ScalarUnary("s_arccos", Op::kScalarArcCos,
                  [](D a) { return std::acos(a); }));
  add(ScalarUnary("s_arctan", Op::kScalarArcTan,
                  [](D a) { return std::atan(a); }));
  add(ScalarUnary("s_exp", Op::kScalarExp, [](D a) { return std::exp(a); }));
  add(ScalarUnary("s_log", Op::kScalarLog, [](D a) { return std::log(a); }));
  add({"s_heaviside of p - q", Op::kScalarHeaviside,
       With(kPQ, {I(Op::kScalarSub, 4, 2, 3), I(Op::kScalarHeaviside, 1, 4)}),
       OperandType::kScalar, 1,
       PerTaskX([](const Values& x) { return Values{Step(P(x) - Q(x))}; })});
  add({"s_heaviside of zero", Op::kScalarHeaviside,
       {SConst(4, 0.0), I(Op::kScalarHeaviside, 1, 4)}, OperandType::kScalar,
       1, PerTaskX([](const Values&) { return Values{0.0}; })});

  // -- vector ---------------------------------------------------------------
  add({"v_const", Op::kVectorConst, {Imm(I(Op::kVectorConst, 4), 0.375)},
       OperandType::kVector, 4,
       PerTaskX([](const Values&) { return Values(kN, 0.375); })});
  add({"v_scale", Op::kVectorScale,
       With(kPQ, {GetRow(5, 11), I(Op::kVectorScale, 4, 5, 3)}),
       OperandType::kVector, 4, PerTaskX([](const Values& x) {
         const double s = Q(x);
         return Map1(Row(x, 11), [s](D a) { return s * a; });
       })});
  add({"v_bcast", Op::kVectorBroadcast,
       With(kPQ, {I(Op::kVectorBroadcast, 4, 2)}), OperandType::kVector, 4,
       PerTaskX([](const Values& x) { return Values(kN, P(x)); })});
  add({"v_recip", Op::kVectorReciprocal,
       {GetRow(2, 11), I(Op::kVectorReciprocal, 4, 2)}, OperandType::kVector, 4,
       PerTaskX([](const Values& x) {
         return Map1(Row(x, 11), [](D a) { return 1.0 / a; });
       })});
  add(VectorUnary("v_abs", Op::kVectorAbs, [](D a) { return std::abs(a); }));
  add(VectorUnary("v_heaviside", Op::kVectorHeaviside, Step));
  add(VectorBinary("v_add", Op::kVectorAdd, [](D a, D b) { return a + b; }));
  add(VectorBinary("v_sub", Op::kVectorSub, [](D a, D b) { return a - b; }));
  add(VectorBinary("v_mul", Op::kVectorMul, [](D a, D b) { return a * b; }));
  add(VectorBinary("v_div", Op::kVectorDiv, [](D a, D b) { return a / b; }));
  add(VectorBinary("v_min", Op::kVectorMin,
                   [](D a, D b) { return b < a ? b : a; }));
  add(VectorBinary("v_max", Op::kVectorMax,
                   [](D a, D b) { return a < b ? b : a; }));
  add({"v_dot", Op::kVectorDot, With(kV23, {I(Op::kVectorDot, 1, 2, 3)}),
       OperandType::kScalar, 1, PerTaskX([](const Values& x) {
         double acc = 0.0;
         for (int i = 0; i < kN; ++i) acc += At(x, 11, i) * At(x, 4, i);
         return Values{acc};
       })});
  add({"v_outer", Op::kVectorOuter, With(kV23, {I(Op::kVectorOuter, 2, 2, 3)}),
       OperandType::kMatrix, 2, PerTaskX([](const Values& x) {
         Values o(static_cast<size_t>(kN) * kN);
         for (int i = 0; i < kN; ++i) {
           for (int j = 0; j < kN; ++j) {
             o[static_cast<size_t>(i) * kN + j] = At(x, 11, i) * At(x, 4, j);
           }
         }
         return o;
       })});
  add(VectorToScalar("v_norm", Op::kVectorNorm,
                     [](const Values& v) { return std::sqrt(SumSq(v)); }));
  add(VectorToScalar("v_mean", Op::kVectorMean, Mean));
  add(VectorToScalar("v_std", Op::kVectorStd, Std));
  add({"v_uniform", Op::kVectorUniform,
       {Imm(I(Op::kVectorUniform, 4), -0.5, 1.5)}, OperandType::kVector, 4,
       PerTask([](const Values&, int task, const Env& env) {
         Values o(kN);
         for (int i = 0; i < kN; ++i) {
           o[static_cast<size_t>(i)] = env.Draws().UniformAt(
               static_cast<uint64_t>(task) * kN + i, -0.5, 1.5);
         }
         return o;
       })});
  add({"v_gaussian", Op::kVectorGaussian,
       {Imm(I(Op::kVectorGaussian, 4), 2.0, 0.5)}, OperandType::kVector, 4,
       PerTask([](const Values&, int task, const Env& env) {
         Values o(kN);
         for (int i = 0; i < kN; ++i) {
           o[static_cast<size_t>(i)] = env.Draws().GaussianAt(
               static_cast<uint64_t>(task) * kN + i, 2.0, 0.5);
         }
         return o;
       })});

  // -- matrix ---------------------------------------------------------------
  add({"m_const", Op::kMatrixConst, {Imm(I(Op::kMatrixConst, 2), -0.125)},
       OperandType::kMatrix, 2, PerTaskX([](const Values&) {
         return Values(static_cast<size_t>(kN) * kN, -0.125);
       })});
  add({"m_scale", Op::kMatrixScale,
       With(kPQ, {I(Op::kMatrixScale, 2, 0, 2)}), OperandType::kMatrix, 2,
       PerTaskX([](const Values& x) {
         const double s = P(x);
         return Map1(x, [s](D a) { return s * a; });
       })});
  add({"m_recip", Op::kMatrixReciprocal, {I(Op::kMatrixReciprocal, 2, 0)},
       OperandType::kMatrix, 2, PerTaskX([](const Values& x) {
         return Map1(x, [](D a) { return 1.0 / a; });
       })});
  add(MatrixUnary("m_abs", Op::kMatrixAbs, [](D a) { return std::abs(a); }));
  add(MatrixUnary("m_heaviside", Op::kMatrixHeaviside, Step));
  add(MatrixBinary("m_add", Op::kMatrixAdd, [](D a, D b) { return a + b; }));
  add(MatrixBinary("m_sub", Op::kMatrixSub, [](D a, D b) { return a - b; }));
  add(MatrixBinary("m_mul", Op::kMatrixMul, [](D a, D b) { return a * b; }));
  add(MatrixBinary("m_div", Op::kMatrixDiv, [](D a, D b) { return a / b; }));
  add(MatrixBinary("m_min", Op::kMatrixMin,
                   [](D a, D b) { return b < a ? b : a; }));
  add(MatrixBinary("m_max", Op::kMatrixMax,
                   [](D a, D b) { return a < b ? b : a; }));
  add({"m_matmul", Op::kMatrixMatMul,
       With(kM01, {I(Op::kMatrixMatMul, 2, 0, 1)}), OperandType::kMatrix, 2,
       PerTaskX([](const Values& x) { return MatMul(x, Transposed(x)); })});
  add({"m_matmul out == in1", Op::kMatrixMatMul,
       With(kM01, {I(Op::kMatrixMatMul, 0, 0, 1)}), OperandType::kMatrix, 0,
       PerTaskX([](const Values& x) { return MatMul(x, Transposed(x)); })});
  add({"m_matmul out == in2", Op::kMatrixMatMul,
       With(kM01, {I(Op::kMatrixMatMul, 1, 0, 1)}), OperandType::kMatrix, 1,
       PerTaskX([](const Values& x) { return MatMul(x, Transposed(x)); })});
  add({"m_matmul out == in1 == in2", Op::kMatrixMatMul,
       {I(Op::kMatrixMatMul, 0, 0, 0)}, OperandType::kMatrix, 0,
       PerTaskX([](const Values& x) { return MatMul(x, x); })});
  add({"m_matvec", Op::kMatrixVectorProduct,
       {GetCol(2, 3), I(Op::kMatrixVectorProduct, 4, 0, 2)},
       OperandType::kVector, 4,
       PerTaskX([](const Values& x) { return MatVec(x, Col(x, 3)); })});
  add({"m_matvec out == in2", Op::kMatrixVectorProduct,
       {GetCol(2, 3), I(Op::kMatrixVectorProduct, 2, 0, 2)},
       OperandType::kVector, 2,
       PerTaskX([](const Values& x) { return MatVec(x, Col(x, 3)); })});
  add({"m_transpose", Op::kMatrixTranspose, {I(Op::kMatrixTranspose, 3, 0)},
       OperandType::kMatrix, 3,
       PerTaskX([](const Values& x) { return Transposed(x); })});
  add({"m_transpose out == in1", Op::kMatrixTranspose,
       {I(Op::kMatrixTranspose, 0, 0)}, OperandType::kMatrix, 0,
       PerTaskX([](const Values& x) { return Transposed(x); })});
  add(MatrixToScalar("m_norm", Op::kMatrixNorm,
                     [](const Values& m) { return std::sqrt(SumSq(m)); }));
  add(MatrixToScalar("m_mean", Op::kMatrixMean, Mean));
  add(MatrixToScalar("m_std", Op::kMatrixStd, Std));
  for (const int axis : {0, 1}) {
    const std::string suffix = " axis=" + std::to_string(axis);
    add({"m_norm_axis" + suffix, Op::kMatrixNormAxis,
         {Idx(I(Op::kMatrixNormAxis, 4, 0), axis)}, OperandType::kVector, 4,
         PerTaskX([axis](const Values& x) {
           Values o(kN);
           for (int k = 0; k < kN; ++k) {
             // axis 0: down each column; axis 1: along each row.
             o[static_cast<size_t>(k)] =
                 std::sqrt(SumSq(axis == 0 ? Col(x, k) : Row(x, k)));
           }
           return o;
         })});
    add({"m_mean_axis" + suffix, Op::kMatrixMeanAxis,
         {Idx(I(Op::kMatrixMeanAxis, 4, 0), axis)}, OperandType::kVector, 4,
         PerTaskX([axis](const Values& x) {
           Values o(kN);
           for (int k = 0; k < kN; ++k) {
             o[static_cast<size_t>(k)] = Mean(axis == 0 ? Col(x, k) : Row(x, k));
           }
           return o;
         })});
    add({"m_bcast" + suffix, Op::kMatrixBroadcast,
         {GetRow(2, 11), Idx(I(Op::kMatrixBroadcast, 2, 2), axis)},
         OperandType::kMatrix, 2, PerTaskX([axis](const Values& x) {
           // axis 0: every row is v; axis 1: every column is v.
           Values o(static_cast<size_t>(kN) * kN);
           for (int i = 0; i < kN; ++i) {
             for (int j = 0; j < kN; ++j) {
               o[static_cast<size_t>(i) * kN + j] =
                   At(x, 11, axis == 0 ? j : i);
             }
           }
           return o;
         })});
  }
  add({"m_uniform", Op::kMatrixUniform,
       {Imm(I(Op::kMatrixUniform, 2), 3.0, 4.0)}, OperandType::kMatrix, 2,
       PerTask([](const Values&, int task, const Env& env) {
         Values o(static_cast<size_t>(kN) * kN);
         for (int i = 0; i < kN * kN; ++i) {
           o[static_cast<size_t>(i)] = env.Draws().UniformAt(
               static_cast<uint64_t>(task) * kN * kN + i, 3.0, 4.0);
         }
         return o;
       })});
  add({"m_gaussian", Op::kMatrixGaussian,
       {Imm(I(Op::kMatrixGaussian, 2), -1.0, 0.25)}, OperandType::kMatrix, 2,
       PerTask([](const Values&, int task, const Env& env) {
         Values o(static_cast<size_t>(kN) * kN);
         for (int i = 0; i < kN * kN; ++i) {
           o[static_cast<size_t>(i)] = env.Draws().GaussianAt(
               static_cast<uint64_t>(task) * kN * kN + i, -1.0, 0.25);
         }
         return o;
       })});

  // -- extraction: indices wrap modulo n --------------------------------------
  add({"get_scalar", Op::kGetScalar, {GetS(1, 2, 9)}, OperandType::kScalar, 1,
       PerTaskX([](const Values& x) { return Values{At(x, 2, 9)}; })});
  add({"get_scalar wraps idx >= n", Op::kGetScalar,
       {GetS(1, kN + 2, 2 * kN + 9)}, OperandType::kScalar, 1,
       PerTaskX([](const Values& x) { return Values{At(x, 2, 9)}; })});
  add({"get_scalar wraps idx 255", Op::kGetScalar, {GetS(1, 255, 200)},
       OperandType::kScalar, 1, PerTaskX([](const Values& x) {
         return Values{At(x, 255 % kN, 200 % kN)};
       })});
  add({"get_row", Op::kGetRow, {GetRow(4, 5)}, OperandType::kVector, 4,
       PerTaskX([](const Values& x) { return Row(x, 5); })});
  add({"get_row wraps idx >= n", Op::kGetRow, {GetRow(4, kN + 5)},
       OperandType::kVector, 4,
       PerTaskX([](const Values& x) { return Row(x, 5); })});
  add({"get_row wraps idx 255", Op::kGetRow, {GetRow(4, 255)},
       OperandType::kVector, 4,
       PerTaskX([](const Values& x) { return Row(x, 255 % kN); })});
  add({"get_column", Op::kGetColumn, {GetCol(4, 9)}, OperandType::kVector, 4,
       PerTaskX([](const Values& x) { return Col(x, 9); })});
  add({"get_column wraps idx >= n", Op::kGetColumn, {GetCol(4, kN + 9)},
       OperandType::kVector, 4,
       PerTaskX([](const Values& x) { return Col(x, 9); })});
  add({"get_column wraps idx 255", Op::kGetColumn, {GetCol(4, 255)},
       OperandType::kVector, 4,
       PerTaskX([](const Values& x) { return Col(x, 255 % kN); })});
  return cases;
}

/// ts_rank of s2 = X[row][12] (that date's value of the feature) over its
/// own trailing history: the train dates' values, newest first. The window
/// clamps to [2, 16] (the history capacity); an empty history ranks 0.5.
Case TsRankCase(const std::string& label, int row, int window,
                int train_dates) {
  Case c{label,
         Op::kTsRank,
         {GetS(2, row, 12), Idx(I(Op::kTsRank, 1, 2), window)},
         OperandType::kScalar,
         1,
         PerTask([row, window](const Values& x, int task, const Env& env) {
           const int w = std::clamp(window, 2, kHistoryCap);
           const int avail =
               std::min({env.train_dates, kHistoryCap, w});
           if (avail == 0) return Values{0.5};
           const double cur = At(x, row, 12);
           int less = 0, equal = 0;
           for (int d = 1; d <= avail; ++d) {
             const double past =
                 At(env.XTrain(task, env.train_dates - d), row, 12);
             if (past < cur) ++less;
             if (past == cur) ++equal;
           }
           return Values{(less + 0.5 * equal) / avail};
         }),
         train_dates};
  return c;
}

std::vector<Case> TsRankCases() {
  std::vector<Case> cases = {
      TsRankCase("ts_rank w=5", 11, 5, 20),
      TsRankCase("ts_rank w=16", 11, 16, 20),
      TsRankCase("ts_rank w=200 clamps to 16", 11, 200, 20),
      TsRankCase("ts_rank window longer than history", 11, 8, 3),
      TsRankCase("ts_rank empty history", 11, 5, 0),
      TsRankCase("ts_rank ties (constant volume row)", 12, 6, 20)};
  // The smooth feature series are mostly monotone over two days, so the
  // lower clamp runs over every varying feature row to meet some that turn.
  for (int row = 0; row < 12; ++row) {
    for (const int w : {0, 1}) {
      cases.push_back(TsRankCase("ts_rank w=" + std::to_string(w) +
                                     " clamps to 2, row " +
                                     std::to_string(row),
                                 row, w, 20));
    }
  }
  return cases;
}

/// Relation ops over per-task inputs built by `prefix` into s4, whose
/// per-task values `input` recomputes from X. `axis` -1 = all tasks (rank),
/// 0 = sector, 1 = industry.
Case RelationCase(const std::string& label, Op op, int axis,
                  std::vector<Instruction> prefix,
                  std::function<double(const Values& x)> input) {
  Instruction rel = I(op, 1, 4);
  if (axis >= 0) rel = Idx(rel, axis);
  prefix.push_back(rel);
  return {label, op, prefix, OperandType::kScalar, 1,
          [op, axis, input](const Env& env) {
            Values in(static_cast<size_t>(env.tasks()));
            for (int t = 0; t < env.tasks(); ++t) {
              in[static_cast<size_t>(t)] = input(env.X(t));
            }
            std::vector<Values> out;
            for (int t = 0; t < env.tasks(); ++t) {
              const std::vector<int> group =
                  axis < 0 ? env.All() : env.Group(t, axis);
              if (op == Op::kRelationDemean) {
                double sum = 0.0;
                for (const int u : group) sum += in[static_cast<size_t>(u)];
                const double mean = sum / static_cast<double>(group.size());
                out.push_back({in[static_cast<size_t>(t)] - mean});
              } else {
                out.push_back({CountRank(in, group, t)});
              }
            }
            return out;
          }};
}

std::vector<Case> RelationCases(double threshold) {
  // s4 per task: distinct values, all-equal values (the constant volume
  // row), 0/1 values with ties on both sides of `threshold`, and 1 / NaN
  // (0/0 below the threshold).
  const std::vector<Instruction> distinct = {GetS(4, 11, 12)};
  const std::vector<Instruction> all_tied = {GetS(4, 12, 3)};
  const std::vector<Instruction> ties = {GetS(2, 11, 12), SConst(3, threshold),
                                         I(Op::kScalarSub, 5, 2, 3),
                                         I(Op::kScalarHeaviside, 4, 5)};
  std::vector<Instruction> nans = ties;
  nans.push_back(I(Op::kScalarDiv, 4, 4, 4));
  const auto distinct_in = [](const Values& x) { return At(x, 11, 12); };
  const auto tied_in = [](const Values& x) { return At(x, 12, 3); };
  const auto ties_in = [threshold](const Values& x) {
    return Step(At(x, 11, 12) - threshold);
  };
  const auto nans_in = [ties_in](const Values& x) {
    const double h = ties_in(x);
    return h / h;
  };

  std::vector<Case> cases;
  for (const auto& [name, op, axes] :
       std::vector<std::tuple<std::string, Op, std::vector<int>>>{
           {"rank", Op::kRank, {-1}},
           {"relation_rank", Op::kRelationRank, {0, 1}},
           {"relation_demean", Op::kRelationDemean, {0, 1}}}) {
    for (const int axis : axes) {
      const std::string base =
          name + (axis < 0 ? "" : axis == 0 ? " sector" : " industry");
      cases.push_back(RelationCase(base, op, axis, distinct, distinct_in));
      cases.push_back(
          RelationCase(base + " all tied", op, axis, all_tied, tied_in));
      cases.push_back(RelationCase(base + " ties", op, axis, ties, ties_in));
      if (op != Op::kRelationDemean) {
        cases.push_back(RelationCase(base + " NaN", op, axis, nans, nans_in));
      }
    }
  }
  // Demean of a NaN spreads NaN through the member's whole group (and
  // nowhere else). s1 must stay finite, so observe isfinite(out) as
  // heaviside(out - out + 1): 1 for a number, 0 for NaN.
  for (const int axis : {0, 1}) {
    std::vector<Instruction> prog = nans;
    prog.push_back(Idx(I(Op::kRelationDemean, 6, 4), axis));
    prog.push_back(I(Op::kScalarSub, 7, 6, 6));
    prog.push_back(SConst(8, 1.0));
    prog.push_back(I(Op::kScalarAdd, 7, 7, 8));
    prog.push_back(I(Op::kScalarHeaviside, 1, 7));
    cases.push_back(
        {std::string("relation_demean NaN ") +
             (axis == 0 ? "sector" : "industry"),
         Op::kRelationDemean, prog, OperandType::kScalar, 1,
         [axis, nans_in](const Env& env) {
           std::vector<Values> out;
           for (int t = 0; t < env.tasks(); ++t) {
             bool finite = true;
             for (const int u : env.Group(t, axis)) {
               finite = finite && !std::isnan(nans_in(env.X(u)));
             }
             out.push_back({finite ? 1.0 : 0.0});
           }
           return out;
         }});
  }
  return cases;
}

// ---- the runner --------------------------------------------------------------

/// Seven tasks whose sector and industry partitions differ, with a
/// single-member sector (task 6) and a single-member industry (task 5).
market::Dataset MakeRelationDataset() {
  auto close = [](int k, int t) {
    return 40.0 + 4.0 * std::sin(0.17 * t + 1.3 * k) + 0.03 * t + 1.5 * k;
  };
  const int sectors[] = {0, 0, 0, 1, 1, 1, 2};
  const int industries[] = {3, 4, 3, 4, 3, 5, 4};
  auto panel = testutil::MakePanel(
      7, 120, close, [&sectors](int k) { return sectors[k]; });
  for (int k = 0; k < 7; ++k) {
    panel[static_cast<size_t>(k)].meta.industry = industries[k];
  }
  return market::Dataset::Build(panel, market::DatasetConfig{});
}

class OpsSemanticsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new market::Dataset(testutil::MakeDataset(6, 120));
    relation_dataset_ = new market::Dataset(MakeRelationDataset());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete relation_dataset_;
  }

  /// Runs `c` on the interpreter and the fused path and checks every
  /// element of its result, for every task, exactly.
  static void Check(const Case& c, const market::Dataset& ds) {
    SCOPED_TRACE(c.label);
    ASSERT_EQ(ds.window(), kN);
    ASSERT_GE(static_cast<int>(ds.dates(Split::kTrain).size()),
              c.train_dates);
    const Env env{&ds, c.train_dates};
    const std::vector<Values> expect = c.expect(env);
    ASSERT_EQ(static_cast<int>(expect.size()), ds.num_tasks());

    ExecutorConfig interp_cfg;
    interp_cfg.fuse_segments = false;
    Executor interp(ds, interp_cfg);
    Executor fused(ds, ExecutorConfig{});
    for (int e = 0; e < NumElements(c.kind); ++e) {
      AlphaProgram prog;
      prog.predict = c.predict;
      for (const Instruction& ins : Reader(c, e)) prog.predict.push_back(ins);
      for (Executor* exec : {&interp, &fused}) {
        const ExecutionResult r =
            exec->Run(prog, kSeed, /*include_test=*/false, c.train_dates,
                      /*limit_valid=*/1);
        ASSERT_TRUE(r.valid) << "element " << e;
        ASSERT_FALSE(r.valid_preds.empty());
        for (int t = 0; t < ds.num_tasks(); ++t) {
          const Values& want = expect[static_cast<size_t>(t)];
          ASSERT_EQ(static_cast<int>(want.size()), NumElements(c.kind));
          EXPECT_TRUE(SameBits(r.valid_preds[0][static_cast<size_t>(t)],
                               want[static_cast<size_t>(e)]))
              << (exec == &interp ? "interpreter" : "fused") << " task " << t
              << " element " << e;
        }
      }
    }
  }

  /// Median of p = X[11][12] over the relation dataset's tasks, so the
  /// threshold cases split the tasks into both sides.
  static double RelationThreshold() {
    const Env env{relation_dataset_, 1};
    Values p;
    for (int t = 0; t < env.tasks(); ++t) p.push_back(P(env.X(t)));
    std::sort(p.begin(), p.end());
    return p[p.size() / 2];
  }

  static market::Dataset* dataset_;
  static market::Dataset* relation_dataset_;
};

market::Dataset* OpsSemanticsTest::dataset_ = nullptr;
market::Dataset* OpsSemanticsTest::relation_dataset_ = nullptr;

TEST_F(OpsSemanticsTest, ElementwiseOps) {
  for (const Case& c : ElementwiseCases()) Check(c, *dataset_);
}

TEST_F(OpsSemanticsTest, TsRank) {
  for (const Case& c : TsRankCases()) Check(c, *dataset_);
}

TEST_F(OpsSemanticsTest, RelationOps) {
  // The dataset must really have the shapes the cases claim to cover.
  const Env env{relation_dataset_, 1};
  ASSERT_EQ(env.Group(6, 0).size(), 1u);
  ASSERT_EQ(env.Group(5, 1).size(), 1u);
  ASSERT_NE(env.Group(0, 0), env.Group(0, 1));
  const double threshold = RelationThreshold();
  int below = 0;
  for (int t = 0; t < env.tasks(); ++t) below += P(env.X(t)) <= threshold;
  ASSERT_GT(below, 1);
  ASSERT_LT(below, env.tasks() - 1);
  for (const Case& c : RelationCases(threshold)) Check(c, *relation_dataset_);
}

TEST_F(OpsSemanticsTest, EveryOpHasACase) {
  std::set<Op> covered;
  for (const Case& c : ElementwiseCases()) covered.insert(c.op);
  for (const Case& c : TsRankCases()) covered.insert(c.op);
  for (const Case& c : RelationCases(0.5)) covered.insert(c.op);
  for (int i = 1; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_TRUE(covered.count(op) > 0)
        << GetOpInfo(op).name << " has no semantics case";
  }
}

}  // namespace
}  // namespace alphaevolve::core
