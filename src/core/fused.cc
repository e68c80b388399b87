// The one lowering in front of both execution paths. Each instruction is
// mapped once, at compile time, to its op-table kernel in the caller's
// KernelTable — the kernel *bodies* live in core/kernels_impl.inc, compiled
// once per ISA variant — so no op switch (and no variant choice) happens
// during execution.

#include "core/fused.h"

#include <algorithm>

#include "core/opcode.h"
#include "util/check.h"

namespace alphaevolve::core {
namespace {

/// Element offset of operand `slot` within a task's region of `space`'s
/// array.
int SlotOffset(OperandType space, int slot, int n) {
  switch (space) {
    case OperandType::kScalar:
      return slot;
    case OperandType::kVector:
      return slot * n;
    case OperandType::kMatrix:
      return slot * n * n;
    case OperandType::kNone:
      return 0;
  }
  return 0;
}

void CheckOperands(const Instruction& ins, const OpInfo& info,
                   const ProgramLimits& limits) {
  const auto in_range = [&](OperandType kind, int addr) {
    return kind == OperandType::kNone || addr < limits.NumAddresses(kind);
  };
  AE_CHECK_MSG(in_range(info.out, ins.out) && in_range(info.in1, ins.in1) &&
                   in_range(info.in2, ins.in2),
               "operand address out of range in '" << ins.ToString() << "'");
}

/// Resolves operand offsets and applies the per-op index fix-ups the
/// kernels rely on (extraction indices wrapped, the m0 operand, the ts-rank
/// window clamped).
MicroOp LowerOne(const Instruction& ins, const OpInfo& info, int n,
                 int hist_cap, const KernelTable& table) {
  MicroOp m;
  m.fn = table.micro[static_cast<int>(ins.op)];
  AE_CHECK_MSG(m.fn != nullptr, "no micro kernel for " << info.name);
  m.out = SlotOffset(info.out, ins.out, n);
  m.in1 = info.reads_m0 ? kInputMatrix * n * n
                        : SlotOffset(info.in1, ins.in1, n);
  m.in2 = SlotOffset(info.in2, ins.in2, n);
  m.idx0 = ins.idx0;
  m.idx1 = ins.idx1;
  m.imm0 = ins.imm0;
  m.imm1 = ins.imm1;
  switch (ins.op) {
    case Op::kGetScalar:
      m.idx0 = (ins.idx0 % n) * n + (ins.idx1 % n);
      break;
    case Op::kGetRow:
      m.idx0 = (ins.idx0 % n) * n;
      break;
    case Op::kGetColumn:
      m.idx0 = ins.idx0 % n;
      break;
    case Op::kTsRank:
      m.idx0 = std::clamp<int>(ins.idx0, 2, hist_cap);
      break;
    default:
      break;
  }
  return m;
}

/// Resolves a relation instruction into its pre-partitioned group list:
/// grouped ops pick sector (idx0 == 0) or industry, the rest rank globally.
RelationPlan LowerRelation(const Instruction& ins, const OpInfo& info,
                           const RelationGroupSets& rel_groups) {
  RelationPlan plan;
  plan.op = ins.op;
  plan.in1 = ins.in1;
  plan.out = ins.out;
  if (info.imm != ImmKind::kGroup) {
    plan.groups = &rel_groups.global;
  } else {
    plan.groups = ins.idx0 == 0 ? &rel_groups.sector : &rel_groups.industry;
  }
  return plan;
}

}  // namespace

void CompileComponent(const std::vector<Instruction>& instrs, int n,
                      int hist_cap, const ProgramLimits& limits,
                      const KernelTable& table,
                      const RelationGroupSets& rel_groups,
                      CompiledComponent* out) {
  out->Clear();
  FusedSegment* current = nullptr;
  for (const Instruction& ins : instrs) {
    const OpInfo& info = GetOpInfo(ins.op);
    CheckOperands(ins, info, limits);
    if (info.is_relation) {
      current = nullptr;  // a relation op closes the running segment
      out->pieces.push_back({true, static_cast<int>(out->relations.size())});
      out->relations.push_back(LowerRelation(ins, info, rel_groups));
      continue;
    }
    if (ins.op == Op::kNoOp) continue;
    if (current == nullptr) {
      out->pieces.push_back({false, static_cast<int>(out->segments.size())});
      current = &out->segments.emplace_back();
    }
    if (info.is_random) {
      current->random_ops.push_back(static_cast<int>(current->ops.size()));
    }
    current->ops.push_back(LowerOne(ins, info, n, hist_cap, table));
  }
}

}  // namespace alphaevolve::core
