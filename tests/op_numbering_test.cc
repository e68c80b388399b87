// Pins the op wire numbering. Checkpoints store each instruction's opcode
// as one byte (ckpt/checkpoint.cc EncodeInstructions) and fingerprints hash
// the Instruction::ToString text, which names the op and formats its
// operands by kind. The Op enum and its metadata are generated from the op
// table (core/op_table.inc), so reordering, renaming or retyping a row
// there would silently break resume of existing checkpoints and change
// every fingerprint. This literal list is the contract: while it passes, no
// serde version bump is needed; a new op is appended at the end.

#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "core/instruction.h"
#include "core/opcode.h"

namespace alphaevolve::core {
namespace {

constexpr OperandType _ = OperandType::kNone;
constexpr OperandType S = OperandType::kScalar;
constexpr OperandType V = OperandType::kVector;
constexpr OperandType M = OperandType::kMatrix;

struct WireRow {
  int ordinal;
  Op op;
  const char* name;
  OperandType out, in1, in2;
  ImmKind imm;
};

// clang-format off
constexpr WireRow kWireRows[] = {
    { 0, Op::kNoOp, "noop", _, _, _, ImmKind::kNone},
    { 1, Op::kScalarConst, "s_const", S, _, _, ImmKind::kConst},
    { 2, Op::kScalarAdd, "s_add", S, S, S, ImmKind::kNone},
    { 3, Op::kScalarSub, "s_sub", S, S, S, ImmKind::kNone},
    { 4, Op::kScalarMul, "s_mul", S, S, S, ImmKind::kNone},
    { 5, Op::kScalarDiv, "s_div", S, S, S, ImmKind::kNone},
    { 6, Op::kScalarAbs, "s_abs", S, S, _, ImmKind::kNone},
    { 7, Op::kScalarReciprocal, "s_recip", S, S, _, ImmKind::kNone},
    { 8, Op::kScalarSin, "s_sin", S, S, _, ImmKind::kNone},
    { 9, Op::kScalarCos, "s_cos", S, S, _, ImmKind::kNone},
    {10, Op::kScalarTan, "s_tan", S, S, _, ImmKind::kNone},
    {11, Op::kScalarArcSin, "s_arcsin", S, S, _, ImmKind::kNone},
    {12, Op::kScalarArcCos, "s_arccos", S, S, _, ImmKind::kNone},
    {13, Op::kScalarArcTan, "s_arctan", S, S, _, ImmKind::kNone},
    {14, Op::kScalarExp, "s_exp", S, S, _, ImmKind::kNone},
    {15, Op::kScalarLog, "s_log", S, S, _, ImmKind::kNone},
    {16, Op::kScalarHeaviside, "s_heaviside", S, S, _, ImmKind::kNone},
    {17, Op::kScalarMin, "s_min", S, S, S, ImmKind::kNone},
    {18, Op::kScalarMax, "s_max", S, S, S, ImmKind::kNone},
    {19, Op::kVectorConst, "v_const", V, _, _, ImmKind::kConst},
    {20, Op::kVectorScale, "v_scale", V, V, S, ImmKind::kNone},
    {21, Op::kVectorBroadcast, "v_bcast", V, S, _, ImmKind::kNone},
    {22, Op::kVectorReciprocal, "v_recip", V, V, _, ImmKind::kNone},
    {23, Op::kVectorAbs, "v_abs", V, V, _, ImmKind::kNone},
    {24, Op::kVectorAdd, "v_add", V, V, V, ImmKind::kNone},
    {25, Op::kVectorSub, "v_sub", V, V, V, ImmKind::kNone},
    {26, Op::kVectorMul, "v_mul", V, V, V, ImmKind::kNone},
    {27, Op::kVectorDiv, "v_div", V, V, V, ImmKind::kNone},
    {28, Op::kVectorMin, "v_min", V, V, V, ImmKind::kNone},
    {29, Op::kVectorMax, "v_max", V, V, V, ImmKind::kNone},
    {30, Op::kVectorHeaviside, "v_heaviside", V, V, _, ImmKind::kNone},
    {31, Op::kVectorDot, "v_dot", S, V, V, ImmKind::kNone},
    {32, Op::kVectorOuter, "v_outer", M, V, V, ImmKind::kNone},
    {33, Op::kVectorNorm, "v_norm", S, V, _, ImmKind::kNone},
    {34, Op::kVectorMean, "v_mean", S, V, _, ImmKind::kNone},
    {35, Op::kVectorStd, "v_std", S, V, _, ImmKind::kNone},
    {36, Op::kVectorUniform, "v_uniform", V, _, _, ImmKind::kConst2},
    {37, Op::kVectorGaussian, "v_gaussian", V, _, _, ImmKind::kConst2},
    {38, Op::kMatrixConst, "m_const", M, _, _, ImmKind::kConst},
    {39, Op::kMatrixScale, "m_scale", M, M, S, ImmKind::kNone},
    {40, Op::kMatrixReciprocal, "m_recip", M, M, _, ImmKind::kNone},
    {41, Op::kMatrixAbs, "m_abs", M, M, _, ImmKind::kNone},
    {42, Op::kMatrixAdd, "m_add", M, M, M, ImmKind::kNone},
    {43, Op::kMatrixSub, "m_sub", M, M, M, ImmKind::kNone},
    {44, Op::kMatrixMul, "m_mul", M, M, M, ImmKind::kNone},
    {45, Op::kMatrixDiv, "m_div", M, M, M, ImmKind::kNone},
    {46, Op::kMatrixMin, "m_min", M, M, M, ImmKind::kNone},
    {47, Op::kMatrixMax, "m_max", M, M, M, ImmKind::kNone},
    {48, Op::kMatrixHeaviside, "m_heaviside", M, M, _, ImmKind::kNone},
    {49, Op::kMatrixMatMul, "m_matmul", M, M, M, ImmKind::kNone},
    {50, Op::kMatrixVectorProduct, "m_matvec", V, M, V, ImmKind::kNone},
    {51, Op::kMatrixTranspose, "m_transpose", M, M, _, ImmKind::kNone},
    {52, Op::kMatrixNorm, "m_norm", S, M, _, ImmKind::kNone},
    {53, Op::kMatrixNormAxis, "m_norm_axis", V, M, _, ImmKind::kAxis},
    {54, Op::kMatrixMean, "m_mean", S, M, _, ImmKind::kNone},
    {55, Op::kMatrixStd, "m_std", S, M, _, ImmKind::kNone},
    {56, Op::kMatrixMeanAxis, "m_mean_axis", V, M, _, ImmKind::kAxis},
    {57, Op::kMatrixBroadcast, "m_bcast", M, V, _, ImmKind::kAxis},
    {58, Op::kMatrixUniform, "m_uniform", M, _, _, ImmKind::kConst2},
    {59, Op::kMatrixGaussian, "m_gaussian", M, _, _, ImmKind::kConst2},
    {60, Op::kGetScalar, "get_scalar", S, _, _, ImmKind::kIndex2},
    {61, Op::kGetRow, "get_row", V, _, _, ImmKind::kIndex},
    {62, Op::kGetColumn, "get_column", V, _, _, ImmKind::kIndex},
    {63, Op::kTsRank, "ts_rank", S, S, _, ImmKind::kWindow},
    {64, Op::kRank, "rank", S, S, _, ImmKind::kNone},
    {65, Op::kRelationRank, "relation_rank", S, S, _, ImmKind::kGroup},
    {66, Op::kRelationDemean, "relation_demean", S, S, _, ImmKind::kGroup},
};
// clang-format on

TEST(OpNumberingTest, TableMatchesTheWireNumbering) {
  ASSERT_EQ(kNumOps, 67);
  ASSERT_EQ(static_cast<int>(std::size(kWireRows)), kNumOps);
  for (const WireRow& row : kWireRows) {
    SCOPED_TRACE(row.name);
    EXPECT_EQ(static_cast<int>(row.op), row.ordinal);
    const OpInfo& info = GetOpInfo(static_cast<Op>(row.ordinal));
    EXPECT_EQ(std::string(info.name), row.name);
    EXPECT_EQ(info.out, row.out);
    EXPECT_EQ(info.in1, row.in1);
    EXPECT_EQ(info.in2, row.in2);
    EXPECT_EQ(info.imm, row.imm);
  }
}

TEST(OpNumberingTest, NamesRoundTripThroughInstructionText) {
  // ToString/FromString is the fingerprint text and the program file
  // format: every op's name must parse back to the same ordinal.
  for (const WireRow& row : kWireRows) {
    SCOPED_TRACE(row.name);
    Instruction ins;
    ins.op = row.op;
    EXPECT_EQ(Instruction::FromString(ins.ToString()).op, row.op);
  }
}

}  // namespace
}  // namespace alphaevolve::core
