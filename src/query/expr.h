// Expression AST for filter predicates and map projections.
//
// Expressions are *structured* (not opaque lambdas) so that the data-plane
// compiler can decide which of them a PISA switch can execute and translate
// them to match-action rules (paper §3.1.2). Anything the switch cannot
// express — division by non-powers-of-two, payload scans — is flagged
// non-compilable and forces the partition point earlier in the pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "query/tuple.h"
#include "query/value.h"
#include "util/ip.h"

namespace sonata::query {

enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kBitAnd, kBitOr, kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

[[nodiscard]] std::string_view to_string(BinOp op) noexcept;

// The numeric semantics of every binary operator (booleans are 0/1):
// division and modulo by 0 yield 0, shifts by 64 or more yield 0.
[[nodiscard]] constexpr std::uint64_t apply_bin(BinOp op, std::uint64_t a,
                                                std::uint64_t b) noexcept {
  switch (op) {
    case BinOp::kAdd: return a + b;
    case BinOp::kSub: return a - b;
    case BinOp::kMul: return a * b;
    case BinOp::kDiv: return b == 0 ? 0 : a / b;
    case BinOp::kMod: return b == 0 ? 0 : a % b;
    case BinOp::kBitAnd: return a & b;
    case BinOp::kBitOr: return a | b;
    case BinOp::kShl: return b >= 64 ? 0 : a << b;
    case BinOp::kShr: return b >= 64 ? 0 : a >> b;
    case BinOp::kEq: return a == b;
    case BinOp::kNe: return a != b;
    case BinOp::kLt: return a < b;
    case BinOp::kLe: return a <= b;
    case BinOp::kGt: return a > b;
    case BinOp::kGe: return a >= b;
    case BinOp::kAnd: return (a != 0 && b != 0) ? 1 : 0;
    case BinOp::kOr: return (a != 0 || b != 0) ? 1 : 0;
  }
  return 0;
}

// A row of a Tuple, as a Program reads it. Bounds-checked like Tuple::at:
// the stream processor also runs programs over records off the wire.
struct TupleRow {
  const Tuple& t;
  [[nodiscard]] std::uint64_t uint_at(std::size_t i) const { return t.values.at(i).as_uint(); }
  [[nodiscard]] const Value& value_at(std::size_t i) const { return t.values.at(i); }
};

// A bound expression (Expr::bind): a flat post-order program over one row.
// Each node's kind is fixed by the schema at bind time, so numeric nodes
// run on a stack of u64 words and only string-kind nodes (DNS names,
// payloads) touch Value; `&&` and `||` skip their right side when the left
// decides. Results equal a recursive evaluation of the tree over a row
// whose column kinds match the schema, which validated queries guarantee.
//
// A Row is any type with `std::uint64_t uint_at(std::size_t)` (a numeric
// column) and `const Value& value_at(std::size_t)` (a string column): the
// stream processor runs programs over Tuples (TupleRow), the switch over
// its packed word rows (pisa::CompiledSwitchQuery).
class Program {
 public:
  [[nodiscard]] Value operator()(const Tuple& t) const { return eval(TupleRow{t}); }

  // The result as a number (0 when the result is a string).
  template <typename Row>
  [[nodiscard]] std::uint64_t eval_uint(const Row& row) const {
    return run(row, nullptr);
  }
  // The result as a Value.
  template <typename Row>
  [[nodiscard]] Value eval(const Row& row) const {
    if (kind_ == ValueKind::kUint) return Value{run(row, nullptr)};
    if (code_.size() == 1 && code_[0].code == Code::kStrCol) return row.value_at(code_[0].arg);
    Value out;
    run(row, &out);
    return out;
  }

  [[nodiscard]] ValueKind result_kind() const noexcept { return kind_; }

 private:
  friend class ProgramBuilder;

  enum class Code : std::uint8_t {
    kCol,        // push row.uint_at(arg)
    kConst,      // push imm
    kBin,        // b = pop, a = pop, push apply_bin(op, a, b)
    kBinConst,   // top = apply_bin(op, top, imm)
    kIpPrefix,   // top = ipv4_prefix(top, imm)
    kColBinConst,  // kCol then kBinConst, fused
    kColIpPrefix,  // kCol then kIpPrefix, fused
    kAndJump,    // top == 0 ? jump to arg (result 0) : pop
    kOrJump,     // top != 0 ? top = 1, jump to arg : pop
    kBool,       // top = top != 0
    kToUint,     // pop a string, push its as_uint() (a string reads as 0)
    kStrCol,     // push &row.value_at(arg) on the string stack
    kStrConst,   // push &strs_[arg]
    kToStr,      // pop a number, push it as a Value on the string stack
    kStrCmp,     // b = spop, a = spop, push Value comparison (op)
    kDnsPrefix,  // stop = dns_name_prefix(stop, imm)
    kContains,   // a = spop, push a.find(keywords_[arg]) != npos
  };
  struct Instr {
    Code code = Code::kConst;
    BinOp op = BinOp::kAdd;
    std::uint32_t arg = 0;
    std::uint64_t imm = 0;
  };
  static constexpr std::size_t kInlineDepth = 16;
  static constexpr std::size_t kInlineTemps = 4;

  template <typename Row>
  std::uint64_t run(const Row& row, Value* out) const;
  template <typename Row>
  std::uint64_t exec(const Row& row, std::uint64_t* us, const Value** ss, Value* tmp,
                     Value* out) const;

  [[nodiscard]] static std::uint64_t compare(BinOp op, const Value& a, const Value& b) noexcept;
  [[nodiscard]] static Value dns_prefix(std::string_view name, std::uint64_t labels);

  std::vector<Instr> code_;
  std::vector<Value> strs_;             // string constants
  std::vector<std::string> keywords_;   // contains() keywords
  ValueKind kind_ = ValueKind::kUint;
  bool strings_ = false;                // uses the string stack
  bool temps_ = false;                  // makes strings (kToStr, kDnsPrefix)
  std::size_t depth_ = 0;               // deeper of the two stacks
};

template <typename Row>
std::uint64_t Program::run(const Row& row, Value* out) const {
  if (code_.size() == 1) {  // a bare numeric column or constant
    const Instr& in = code_[0];
    switch (in.code) {
      case Code::kCol: return row.uint_at(in.arg);
      case Code::kConst: return in.imm;
      case Code::kColBinConst: return apply_bin(in.op, row.uint_at(in.arg), in.imm);
      case Code::kColIpPrefix:
        return util::ipv4_prefix(static_cast<std::uint32_t>(row.uint_at(in.arg)),
                                 static_cast<int>(in.imm));
      default: break;
    }
  }
  if (code_.empty()) return 0;
  if (depth_ <= kInlineDepth) {
    std::uint64_t us[kInlineDepth];
    if (!strings_) return exec(row, us, nullptr, nullptr, out);
    const Value* ss[kInlineDepth];
    if (!temps_) return exec(row, us, ss, nullptr, out);
    if (depth_ <= kInlineTemps) {
      Value tmp[kInlineTemps];
      return exec(row, us, ss, tmp, out);
    }
  }
  std::vector<std::uint64_t> us(depth_);
  std::vector<const Value*> ss(depth_);
  std::vector<Value> tmp(temps_ ? depth_ : 0);
  return exec(row, us.data(), ss.data(), tmp.data(), out);
}

template <typename Row>
std::uint64_t Program::exec(const Row& row, std::uint64_t* us, const Value** ss, Value* tmp,
                            Value* out) const {
  std::size_t n = 0;  // numeric stack size
  std::size_t m = 0;  // string stack size
  const Instr* code = code_.data();
  const std::size_t len = code_.size();
  std::size_t pc = 0;
  while (pc < len) {
    const Instr& in = code[pc++];
    switch (in.code) {
      case Code::kCol: us[n++] = row.uint_at(in.arg); break;
      case Code::kConst: us[n++] = in.imm; break;
      case Code::kBin:
        --n;
        us[n - 1] = apply_bin(in.op, us[n - 1], us[n]);
        break;
      case Code::kBinConst: us[n - 1] = apply_bin(in.op, us[n - 1], in.imm); break;
      case Code::kIpPrefix:
        us[n - 1] = util::ipv4_prefix(static_cast<std::uint32_t>(us[n - 1]),
                                      static_cast<int>(in.imm));
        break;
      case Code::kColBinConst: us[n++] = apply_bin(in.op, row.uint_at(in.arg), in.imm); break;
      case Code::kColIpPrefix:
        us[n++] = util::ipv4_prefix(static_cast<std::uint32_t>(row.uint_at(in.arg)),
                                    static_cast<int>(in.imm));
        break;
      case Code::kAndJump:
        if (us[n - 1] == 0) {
          pc = in.arg;
        } else {
          --n;
        }
        break;
      case Code::kOrJump:
        if (us[n - 1] != 0) {
          us[n - 1] = 1;
          pc = in.arg;
        } else {
          --n;
        }
        break;
      case Code::kBool: us[n - 1] = us[n - 1] != 0 ? 1 : 0; break;
      case Code::kToUint:
        --m;
        us[n++] = ss[m]->as_uint();
        break;
      case Code::kStrCol: ss[m++] = &row.value_at(in.arg); break;
      case Code::kStrConst: ss[m++] = &strs_[in.arg]; break;
      case Code::kToStr:
        --n;
        tmp[m] = Value{us[n]};
        ss[m] = &tmp[m];
        ++m;
        break;
      case Code::kStrCmp:
        m -= 2;
        us[n++] = compare(in.op, *ss[m], *ss[m + 1]);
        break;
      case Code::kDnsPrefix:
        tmp[m - 1] = dns_prefix(ss[m - 1]->as_string(), in.imm);
        ss[m - 1] = &tmp[m - 1];
        break;
      case Code::kContains:
        --m;
        us[n++] = ss[m]->as_string().find(keywords_[in.arg]) != std::string_view::npos ? 1 : 0;
        break;
    }
  }
  if (kind_ == ValueKind::kUint) return us[0];
  const std::uint64_t u = ss[0]->as_uint();
  if (out != nullptr) {
    if (tmp != nullptr && ss[0] == &tmp[0]) {
      *out = std::move(tmp[0]);
    } else {
      *out = *ss[0];
    }
  }
  return u;
}

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  enum class Kind : std::uint8_t {
    kCol,              // column reference by name
    kConst,            // literal value
    kBin,              // binary operation
    kIpPrefix,         // ipv4 prefix mask: keep top `level` bits
    kDnsPrefix,        // dns name truncation: keep last `level` labels
    kPayloadContains,  // substring search in a string column (stream-only)
  };

  Kind kind = Kind::kConst;
  std::string col;       // kCol: column name
  Value constant;        // kConst
  BinOp op = BinOp::kAdd;
  ExprPtr lhs, rhs;      // kBin
  ExprPtr arg;           // kIpPrefix / kDnsPrefix / kPayloadContains
  int level = 32;        // prefix bits or label count
  std::string keyword;   // kPayloadContains

  // -- factories ------------------------------------------------------
  static ExprPtr column(std::string name);
  static ExprPtr lit(std::uint64_t v);
  static ExprPtr lit(std::string s);
  static ExprPtr bin(BinOp op, ExprPtr l, ExprPtr r);
  static ExprPtr ip_prefix(ExprPtr a, int bits);
  static ExprPtr dns_prefix(ExprPtr a, int labels);
  static ExprPtr payload_contains(ExprPtr a, std::string keyword);

  // -- analysis -------------------------------------------------------
  // Validates column references and type use against `schema`; returns an
  // error message or empty string when well-formed.
  [[nodiscard]] std::string validate(const Schema& schema) const;

  [[nodiscard]] ValueKind result_kind(const Schema& schema) const;
  // Metadata bit width of the result when carried on the switch.
  [[nodiscard]] int result_bits(const Schema& schema) const;

  // Can a PISA switch evaluate this expression (given the columns of
  // `schema` are already in the PHV)?  See file comment for the rules.
  [[nodiscard]] bool switch_compilable(const Schema& schema) const;

  [[nodiscard]] std::string to_string() const;

  // Appends the names of all columns this expression references.
  void collect_columns(std::vector<std::string>& out) const;

  // -- evaluation -----------------------------------------------------
  // Binds column references to indices in `schema` and compiles the tree
  // into a flat Program (see above). Booleans are represented as uint 0/1.
  [[nodiscard]] Program bind(const Schema& schema) const;
};

// Convenience builders so queries read close to the paper's syntax.
namespace dsl {
inline ExprPtr col(std::string name) { return Expr::column(std::move(name)); }
inline ExprPtr lit(std::uint64_t v) { return Expr::lit(v); }
inline ExprPtr lit(std::string s) { return Expr::lit(std::move(s)); }
inline ExprPtr operator+(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kAdd, a, b); }
inline ExprPtr operator-(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kSub, a, b); }
inline ExprPtr operator*(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kMul, a, b); }
inline ExprPtr operator/(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kDiv, a, b); }
inline ExprPtr operator%(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kMod, a, b); }
inline ExprPtr operator&(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kBitAnd, a, b); }
inline ExprPtr operator==(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kEq, a, b); }
inline ExprPtr operator!=(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kNe, a, b); }
inline ExprPtr operator<(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kLt, a, b); }
inline ExprPtr operator<=(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kLe, a, b); }
inline ExprPtr operator>(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kGt, a, b); }
inline ExprPtr operator>=(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kGe, a, b); }
inline ExprPtr operator&&(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kAnd, a, b); }
inline ExprPtr operator||(ExprPtr a, ExprPtr b) { return Expr::bin(BinOp::kOr, a, b); }
}  // namespace dsl

}  // namespace sonata::query
