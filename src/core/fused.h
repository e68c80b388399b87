#ifndef ALPHAEVOLVE_CORE_FUSED_H_
#define ALPHAEVOLVE_CORE_FUSED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/instruction.h"
#include "core/kernel_table.h"
#include "core/opcode.h"
#include "core/program.h"

namespace alphaevolve::core {

// MicroCtx / MicroOp / MicroKernelFn live in core/kernel_table.h so the
// per-ISA variant translation units can implement the kernels without
// pulling in the lowering layer.

/// A maximal run of element-wise instructions between relation ops. The
/// fused path walks a cache-resident block of tasks through *all* ops of
/// the segment before advancing to the next block; the interpreter runs
/// each op over its shard one task at a time.
struct FusedSegment {
  std::vector<MicroOp> ops;
  /// Indices into `ops` needing a fresh serial draw id per execution.
  std::vector<int> random_ops;
};

/// One relation group, pre-resolved at lowering time: a borrowed view of
/// the member task ids (owned by the dataset / executor, stable for the
/// executor's lifetime) plus this group's offset into the executor's
/// rank-order scratch. Groups of one set partition the task universe, so
/// concurrent groups touch disjoint tasks and scratch slices by
/// construction.
struct RelationGroup {
  const int* members = nullptr;
  int size = 0;
  int order_offset = 0;
};

/// The three group partitions a relation op can rank/demean over. Built
/// once per Executor (global = all tasks as a single group); lowering picks
/// one per relation instruction.
struct RelationGroupSets {
  std::vector<RelationGroup> global;
  std::vector<RelationGroup> sector;
  std::vector<RelationGroup> industry;
};

/// A relation op lowered into the compiled plan: gather → per-group
/// rank/demean → scatter runs as *one* group-parallel round on the shard
/// arena (each group's work item gathers its members' input scalar, ranks
/// or demeans, and scatters the result).
struct RelationPlan {
  Op op = Op::kRank;
  int32_t in1 = 0;
  int32_t out = 0;
  /// Borrowed from the RelationGroupSets passed to CompileComponent.
  const std::vector<RelationGroup>* groups = nullptr;
};

/// A compiled component: fused segments and the relation plans that
/// separate them, in program order.
struct CompiledComponent {
  struct Piece {
    bool is_relation;
    int index;  ///< into `segments` or `relations`
  };
  std::vector<Piece> pieces;
  std::vector<FusedSegment> segments;
  std::vector<RelationPlan> relations;

  void Clear() {
    pieces.clear();
    segments.clear();
    relations.clear();
  }
};

/// Lowers `instrs` into `out` (cleared first; capacity reused across Runs)
/// for window dimension `n` and a ts-rank history capacity of `hist_cap`:
/// the one lowering both execution paths run. Every element-wise op joins
/// the current segment as a micro-op whose kernel is the op table's entry
/// in `table` (one per-ISA variant table per build; see core/dispatch.h),
/// relation ops close it as a RelationPlan over `rel_groups`, and kNoOp
/// lowers to nothing.
///
/// Throws CheckError when an operand address is at or past its kind's
/// limit in `limits`: program text and checkpoint payloads carry raw
/// operand bytes, and an unchecked one would index past its task's slice.
void CompileComponent(const std::vector<Instruction>& instrs, int n,
                      int hist_cap, const ProgramLimits& limits,
                      const KernelTable& table,
                      const RelationGroupSets& rel_groups,
                      CompiledComponent* out);

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_FUSED_H_
