#include "core/instruction.h"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/check.h"

namespace alphaevolve::core {
namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Finds the op whose name matches, or throws.
Op OpByName(const std::string& name) {
  for (int i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    if (name == GetOpInfo(op).name) return op;
  }
  AE_CHECK_MSG(false, "unknown op name: " << name);
  return Op::kNoOp;
}

/// Parses one operand address or index: a byte, as ToString writes it.
/// Wrapping a larger value modulo 256 would silently address another
/// operand.
uint8_t ParseByte(const std::string& digits, const std::string& text) {
  const int value = std::stoi(digits);
  AE_CHECK_MSG(value >= 0 && value <= 255, "number out of range: " << text);
  return static_cast<uint8_t>(value);
}

}  // namespace

const char* OperandPrefix(OperandType type) {
  switch (type) {
    case OperandType::kScalar:
      return "s";
    case OperandType::kVector:
      return "v";
    case OperandType::kMatrix:
      return "m";
    case OperandType::kNone:
      return "";
  }
  return "";
}

std::string Instruction::ToString() const {
  const OpInfo& info = GetOpInfo(op);
  if (op == Op::kNoOp) return "noop";
  std::ostringstream os;
  os << OperandPrefix(info.out) << static_cast<int>(out) << " = " << info.name
     << "(";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ", ";
    first = false;
  };
  if (info.reads_m0) {
    sep();
    if (info.imm == ImmKind::kIndex2) {
      os << "m0[" << static_cast<int>(idx0) << "," << static_cast<int>(idx1)
         << "]";
    } else {
      os << "m0[" << static_cast<int>(idx0) << "]";
    }
  }
  if (info.in1 != OperandType::kNone) {
    sep();
    os << OperandPrefix(info.in1) << static_cast<int>(in1);
  }
  if (info.in2 != OperandType::kNone) {
    sep();
    os << OperandPrefix(info.in2) << static_cast<int>(in2);
  }
  switch (info.imm) {
    case ImmKind::kConst:
      sep();
      os << FormatDouble(imm0);
      break;
    case ImmKind::kConst2:
      sep();
      os << FormatDouble(imm0) << ", " << FormatDouble(imm1);
      break;
    case ImmKind::kAxis:
      sep();
      os << "axis=" << static_cast<int>(idx0);
      break;
    case ImmKind::kGroup:
      sep();
      os << (idx0 == 0 ? "sector" : "industry");
      break;
    case ImmKind::kWindow:
      sep();
      os << "w=" << static_cast<int>(idx0);
      break;
    case ImmKind::kNone:
    case ImmKind::kIndex:
    case ImmKind::kIndex2:
      break;
  }
  os << ")";
  return os.str();
}

Instruction Instruction::FromString(const std::string& text) {
  Instruction ins;
  std::string s = text;
  // Strip whitespace.
  std::string compact;
  compact.reserve(s.size());
  for (char c : s) {
    if (c != ' ' && c != '\t') compact += c;
  }
  if (compact == "noop") return ins;

  const size_t eq = compact.find('=');
  AE_CHECK_MSG(eq != std::string::npos, "missing '=': " << text);
  const std::string out_str = compact.substr(0, eq);
  AE_CHECK_MSG(out_str.size() >= 2, "bad output operand: " << text);
  ins.out = ParseByte(out_str.substr(1), text);

  const size_t paren = compact.find('(', eq);
  AE_CHECK_MSG(paren != std::string::npos && compact.back() == ')',
               "missing parens: " << text);
  const std::string name = compact.substr(eq + 1, paren - eq - 1);
  ins.op = OpByName(name);
  const OpInfo& info = GetOpInfo(ins.op);

  // Split the argument list on commas that are not inside brackets.
  std::string args = compact.substr(paren + 1, compact.size() - paren - 2);
  std::vector<std::string> parts;
  std::string cur;
  int depth = 0;
  for (char c : args) {
    if (c == '[') ++depth;
    if (c == ']') --depth;
    if (c == ',' && depth == 0) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) parts.push_back(cur);

  size_t p = 0;
  auto next = [&]() -> std::string {
    AE_CHECK_MSG(p < parts.size(), "too few arguments: " << text);
    return parts[p++];
  };
  if (info.reads_m0) {
    const std::string tok = next();  // m0[i] or m0[i,j]
    const size_t lb = tok.find('[');
    AE_CHECK_MSG(tok.substr(0, 2) == "m0" && lb != std::string::npos &&
                     tok.back() == ']',
                 "bad extraction arg: " << text);
    const std::string inner = tok.substr(lb + 1, tok.size() - lb - 2);
    const size_t comma = inner.find(',');
    if (info.imm == ImmKind::kIndex2) {
      AE_CHECK_MSG(comma != std::string::npos, "expected m0[i,j]: " << text);
      ins.idx0 = ParseByte(inner.substr(0, comma), text);
      ins.idx1 = ParseByte(inner.substr(comma + 1), text);
    } else {
      ins.idx0 = ParseByte(inner, text);
    }
  }
  if (info.in1 != OperandType::kNone) {
    ins.in1 = ParseByte(next().substr(1), text);
  }
  if (info.in2 != OperandType::kNone) {
    ins.in2 = ParseByte(next().substr(1), text);
  }
  switch (info.imm) {
    case ImmKind::kConst:
      ins.imm0 = std::stod(next());
      break;
    case ImmKind::kConst2:
      ins.imm0 = std::stod(next());
      ins.imm1 = std::stod(next());
      break;
    case ImmKind::kAxis: {
      const std::string tok = next();
      AE_CHECK_MSG(tok.rfind("axis=", 0) == 0, "expected axis=: " << text);
      ins.idx0 = ParseByte(tok.substr(5), text);
      break;
    }
    case ImmKind::kGroup: {
      const std::string tok = next();
      AE_CHECK_MSG(tok == "sector" || tok == "industry",
                   "expected sector|industry: " << text);
      ins.idx0 = tok == "sector" ? 0 : 1;
      break;
    }
    case ImmKind::kWindow: {
      const std::string tok = next();
      AE_CHECK_MSG(tok.rfind("w=", 0) == 0, "expected w=: " << text);
      ins.idx0 = ParseByte(tok.substr(2), text);
      break;
    }
    case ImmKind::kNone:
    case ImmKind::kIndex:
    case ImmKind::kIndex2:
      break;
  }
  AE_CHECK_MSG(p == parts.size(), "too many arguments: " << text);
  return ins;
}

}  // namespace alphaevolve::core
