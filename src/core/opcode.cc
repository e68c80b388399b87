#include "core/opcode.h"

#include "util/check.h"

namespace alphaevolve::core {
namespace {

// Column vocabulary of core/op_table.inc.
constexpr OperandType _ = OperandType::kNone;
constexpr OperandType S = OperandType::kScalar;
constexpr OperandType V = OperandType::kVector;
constexpr OperandType M = OperandType::kMatrix;
enum Flag { Pure, Relation, ReadsM0, Random };

constexpr OpInfo kOpTable[kNumOps] = {
#define AE_OP(id, name, out, in1, in2, imm, flag, ...) \
  {name, out, in1, in2, ImmKind::k##imm, flag == Relation, flag == ReadsM0, \
   flag == Random},
#include "core/op_table.inc"
#undef AE_OP
};

}  // namespace

const OpInfo& GetOpInfo(Op op) {
  const int i = static_cast<int>(op);
  AE_CHECK(i >= 0 && i < kNumOps);
  return kOpTable[i];
}

const char* ComponentName(ComponentId c) {
  switch (c) {
    case ComponentId::kSetup:
      return "setup";
    case ComponentId::kPredict:
      return "predict";
    case ComponentId::kUpdate:
      return "update";
  }
  AE_CHECK(false);
  return "";
}

bool OpAllowedIn(Op op, ComponentId c, bool allow_relation_ops) {
  const OpInfo& info = GetOpInfo(op);
  if (info.is_relation && !allow_relation_ops) return false;
  if (c == ComponentId::kSetup) {
    // Setup runs once, before any dated sample exists.
    if (info.reads_m0 || info.is_relation || op == Op::kTsRank) return false;
  }
  return true;
}

const std::vector<Op>& OpsAllowedIn(ComponentId c, bool allow_relation_ops) {
  // Four static tables: component-kind (setup vs dated) × relation policy.
  static const auto build = [](ComponentId comp, bool relation) {
    std::vector<Op> ops;
    for (int i = 1; i < kNumOps; ++i) {  // skip kNoOp: never drawn randomly
      const Op op = static_cast<Op>(i);
      if (OpAllowedIn(op, comp, relation)) ops.push_back(op);
    }
    return ops;
  };
  static const std::vector<Op> setup_ops = build(ComponentId::kSetup, true);
  static const std::vector<Op> dated_rel = build(ComponentId::kPredict, true);
  static const std::vector<Op> dated_norel =
      build(ComponentId::kPredict, false);
  if (c == ComponentId::kSetup) return setup_ops;
  return allow_relation_ops ? dated_rel : dated_norel;
}

}  // namespace alphaevolve::core
