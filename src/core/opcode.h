#ifndef ALPHAEVOLVE_CORE_OPCODE_H_
#define ALPHAEVOLVE_CORE_OPCODE_H_

#include <cstdint>
#include <vector>

namespace alphaevolve::core {

/// Operand address spaces (paper §2): s = scalar, v = vector, m = matrix.
enum class OperandType : uint8_t { kNone = 0, kScalar, kVector, kMatrix };

/// Immediate-data interpretation of an instruction (stored in idx0/idx1 or
/// imm0/imm1 of `Instruction`).
enum class ImmKind : uint8_t {
  kNone = 0,
  kConst,    ///< imm0 = constant value.
  kConst2,   ///< imm0, imm1 = (low, high) or (mean, stddev) for random ops.
  kIndex2,   ///< idx0 = feature row, idx1 = day column (GetScalar).
  kIndex,    ///< idx0 = row/column index (GetRow / GetColumn).
  kAxis,     ///< idx0 ∈ {0, 1}: axis for norm/mean/broadcast ops.
  kGroup,    ///< idx0 ∈ {0 = sector, 1 = industry} for RelationOps.
  kWindow,   ///< idx0 = trailing window length for TsRank.
};

/// The operation set: AutoML-Zero's scalar/vector/matrix basic math ops
/// plus the paper's proposed ExtractionOps (GetScalar/GetRow/GetColumn),
/// RelationOps (Rank/RelationRank/RelationDemean) and a time-series rank.
/// Generated from the op table (core/op_table.inc), one enumerator per row
/// in row order; the ordinals are the opcode bytes checkpoints store.
enum class Op : uint8_t {
#define AE_OP(id, ...) id,
#include "core/op_table.inc"
#undef AE_OP
  kNumOps,  // sentinel
};

inline constexpr int kNumOps = static_cast<int>(Op::kNumOps);

/// Static description of an op's type signature: its op-table row.
struct OpInfo {
  const char* name;
  OperandType out;
  OperandType in1;
  OperandType in2;
  ImmKind imm;
  bool is_relation;   ///< Needs cross-task gather at the same date.
  bool reads_m0;      ///< ExtractionOps implicitly read the input matrix.
  bool is_random;     ///< Draws from the executor RNG.
};

/// Returns the signature of `op` (O(1) table lookup).
const OpInfo& GetOpInfo(Op op);

/// Program components (paper §2): Setup / Predict / Update.
enum class ComponentId : uint8_t { kSetup = 0, kPredict = 1, kUpdate = 2 };

inline constexpr int kNumComponents = 3;

const char* ComponentName(ComponentId c);

/// True if `op` may appear in component `c`. Setup excludes ops that need a
/// dated sample (extraction, ts-rank, relation). Relation ops can be globally
/// disabled — that is the "selective injection of relational domain
/// knowledge": the knowledge enters only if evolution keeps the ops.
bool OpAllowedIn(Op op, ComponentId c, bool allow_relation_ops);

/// All ops allowed in `c` under the given relation-op policy.
const std::vector<Op>& OpsAllowedIn(ComponentId c, bool allow_relation_ops);

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_OPCODE_H_
