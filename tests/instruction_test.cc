#include "core/instruction.h"

#include <gtest/gtest.h>

#include "core/program.h"
#include "util/check.h"

namespace alphaevolve::core {
namespace {

TEST(InstructionTest, ToStringScalarArith) {
  Instruction ins;
  ins.op = Op::kScalarDiv;
  ins.out = 1;
  ins.in1 = 5;
  ins.in2 = 9;
  EXPECT_EQ(ins.ToString(), "s1 = s_div(s5, s9)");
}

TEST(InstructionTest, ToStringConst) {
  Instruction ins;
  ins.op = Op::kScalarConst;
  ins.out = 2;
  ins.imm0 = 0.001;
  EXPECT_EQ(ins.ToString(), "s2 = s_const(0.001)");
}

TEST(InstructionTest, ToStringExtraction) {
  Instruction ins;
  ins.op = Op::kGetScalar;
  ins.out = 3;
  ins.idx0 = 11;
  ins.idx1 = 12;
  EXPECT_EQ(ins.ToString(), "s3 = get_scalar(m0[11,12])");
}

TEST(InstructionTest, ToStringRelationGroup) {
  Instruction ins;
  ins.op = Op::kRelationDemean;
  ins.out = 4;
  ins.in1 = 6;
  ins.idx0 = 1;
  EXPECT_EQ(ins.ToString(), "s4 = relation_demean(s6, industry)");
}

TEST(InstructionTest, ToStringMatrixAxis) {
  Instruction ins;
  ins.op = Op::kMatrixBroadcast;
  ins.out = 2;
  ins.in1 = 7;
  ins.idx0 = 1;
  EXPECT_EQ(ins.ToString(), "m2 = m_bcast(v7, axis=1)");
}

TEST(InstructionTest, NoOpRoundTrips) {
  Instruction ins;
  EXPECT_EQ(ins.ToString(), "noop");
  EXPECT_EQ(Instruction::FromString("noop"), ins);
}

TEST(InstructionTest, ParseRejectsGarbage) {
  EXPECT_THROW(Instruction::FromString("hello world"), CheckError);
  EXPECT_THROW(Instruction::FromString("s1 = nosuchop(s2)"), CheckError);
  EXPECT_THROW(Instruction::FromString("s1 = s_add(s2)"), CheckError);
  EXPECT_THROW(Instruction::FromString("s1 = s_add(s2, s3, s4)"), CheckError);
}

TEST(InstructionTest, ParseRejectsNumbersPastAByte) {
  // Each would otherwise wrap modulo 256 onto another, valid operand.
  EXPECT_THROW(Instruction::FromString("s256 = s_add(s1, s2)"), CheckError);
  EXPECT_THROW(Instruction::FromString("s1 = s_add(s-1, s2)"), CheckError);
  EXPECT_THROW(Instruction::FromString("v1 = get_row(m0[300])"), CheckError);
  EXPECT_EQ(Instruction::FromString("s255 = s_add(s1, s2)").out, 255);
}

// Round-trip sweep over every op with representative operands.
class OpRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(OpRoundTrip, ToStringFromStringIdentity) {
  const Op op = static_cast<Op>(GetParam());
  const OpInfo& info = GetOpInfo(op);
  Instruction ins;
  ins.op = op;
  if (info.out != OperandType::kNone) ins.out = 2;
  if (info.in1 != OperandType::kNone) ins.in1 = 3;
  if (info.in2 != OperandType::kNone) ins.in2 = 1;
  switch (info.imm) {
    case ImmKind::kConst:
      ins.imm0 = -0.5;
      break;
    case ImmKind::kConst2:
      ins.imm0 = 0.25;
      ins.imm1 = 0.75;
      break;
    case ImmKind::kIndex2:
      ins.idx0 = 4;
      ins.idx1 = 9;
      break;
    case ImmKind::kIndex:
      ins.idx0 = 7;
      break;
    case ImmKind::kAxis:
    case ImmKind::kGroup:
      ins.idx0 = 1;
      break;
    case ImmKind::kWindow:
      ins.idx0 = 5;
      break;
    case ImmKind::kNone:
      break;
  }
  const std::string text = ins.ToString();
  const Instruction parsed = Instruction::FromString(text);
  EXPECT_EQ(parsed, ins) << "text: " << text;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpRoundTrip,
                         ::testing::Range(0, kNumOps));

TEST(OpcodeTest, NamesAreUnique) {
  for (int i = 0; i < kNumOps; ++i) {
    for (int j = i + 1; j < kNumOps; ++j) {
      EXPECT_STRNE(GetOpInfo(static_cast<Op>(i)).name,
                   GetOpInfo(static_cast<Op>(j)).name);
    }
  }
}

TEST(OpcodeTest, RelationOpsAreFlagged) {
  EXPECT_TRUE(GetOpInfo(Op::kRank).is_relation);
  EXPECT_TRUE(GetOpInfo(Op::kRelationRank).is_relation);
  EXPECT_TRUE(GetOpInfo(Op::kRelationDemean).is_relation);
  EXPECT_FALSE(GetOpInfo(Op::kScalarAdd).is_relation);
}

TEST(OpcodeTest, ExtractionOpsReadInputMatrix) {
  EXPECT_TRUE(GetOpInfo(Op::kGetScalar).reads_m0);
  EXPECT_TRUE(GetOpInfo(Op::kGetRow).reads_m0);
  EXPECT_TRUE(GetOpInfo(Op::kGetColumn).reads_m0);
  EXPECT_FALSE(GetOpInfo(Op::kMatrixAdd).reads_m0);
}

TEST(OpcodeTest, SetupExcludesDatedOps) {
  EXPECT_FALSE(OpAllowedIn(Op::kGetScalar, ComponentId::kSetup, true));
  EXPECT_FALSE(OpAllowedIn(Op::kRank, ComponentId::kSetup, true));
  EXPECT_FALSE(OpAllowedIn(Op::kTsRank, ComponentId::kSetup, true));
  EXPECT_TRUE(OpAllowedIn(Op::kScalarConst, ComponentId::kSetup, true));
  EXPECT_TRUE(OpAllowedIn(Op::kMatrixGaussian, ComponentId::kSetup, true));
}

TEST(OpcodeTest, RelationPolicyGatesRelationOps) {
  EXPECT_TRUE(OpAllowedIn(Op::kRank, ComponentId::kPredict, true));
  EXPECT_FALSE(OpAllowedIn(Op::kRank, ComponentId::kPredict, false));
  // The allowed-op lists reflect the policy.
  const auto& with = OpsAllowedIn(ComponentId::kPredict, true);
  const auto& without = OpsAllowedIn(ComponentId::kPredict, false);
  EXPECT_EQ(with.size(), without.size() + 3);
}

TEST(OpcodeTest, RandomOpsAreFlagged) {
  EXPECT_TRUE(GetOpInfo(Op::kVectorUniform).is_random);
  EXPECT_TRUE(GetOpInfo(Op::kMatrixGaussian).is_random);
  EXPECT_FALSE(GetOpInfo(Op::kVectorAdd).is_random);
}

}  // namespace
}  // namespace alphaevolve::core
