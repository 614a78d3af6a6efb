#include "query/expr.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "net/dns.h"
#include "util/ip.h"

namespace sonata::query {

namespace {

[[nodiscard]] bool is_comparison(BinOp op) noexcept {
  switch (op) {
    case BinOp::kEq: case BinOp::kNe: case BinOp::kLt:
    case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

[[nodiscard]] bool is_logical(BinOp op) noexcept {
  return op == BinOp::kAnd || op == BinOp::kOr;
}

}  // namespace

std::string_view to_string(BinOp op) noexcept {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kBitAnd: return "&";
    case BinOp::kBitOr: return "|";
    case BinOp::kShl: return "<<";
    case BinOp::kShr: return ">>";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "&&";
    case BinOp::kOr: return "||";
  }
  return "?";
}

ExprPtr Expr::column(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kCol;
  e->col = std::move(name);
  return e;
}

ExprPtr Expr::lit(std::uint64_t v) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kConst;
  e->constant = Value{v};
  return e;
}

ExprPtr Expr::lit(std::string s) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kConst;
  e->constant = Value{std::move(s)};
  return e;
}

ExprPtr Expr::bin(BinOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kBin;
  e->op = op;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

ExprPtr Expr::ip_prefix(ExprPtr a, int bits) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kIpPrefix;
  e->arg = std::move(a);
  e->level = bits;
  return e;
}

ExprPtr Expr::dns_prefix(ExprPtr a, int labels) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kDnsPrefix;
  e->arg = std::move(a);
  e->level = labels;
  return e;
}

ExprPtr Expr::payload_contains(ExprPtr a, std::string keyword) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kPayloadContains;
  e->arg = std::move(a);
  e->keyword = std::move(keyword);
  return e;
}

std::string Expr::validate(const Schema& schema) const {
  switch (kind) {
    case Kind::kCol:
      if (!schema.index_of(col)) return "unknown column: " + col;
      return {};
    case Kind::kConst:
      return {};
    case Kind::kBin: {
      if (!lhs || !rhs) return "binary expression with null operand";
      if (auto err = lhs->validate(schema); !err.empty()) return err;
      if (auto err = rhs->validate(schema); !err.empty()) return err;
      const bool lstr = lhs->result_kind(schema) == ValueKind::kString;
      const bool rstr = rhs->result_kind(schema) == ValueKind::kString;
      if (is_comparison(op)) {
        if (lstr != rstr) return "comparison between string and numeric";
        return {};
      }
      if (lstr || rstr) return "arithmetic on string operand";
      return {};
    }
    case Kind::kIpPrefix:
      if (!arg) return "ip_prefix with null argument";
      if (auto err = arg->validate(schema); !err.empty()) return err;
      if (arg->result_kind(schema) != ValueKind::kUint) return "ip_prefix on string";
      if (level < 0 || level > 32) return "ip_prefix level out of range";
      return {};
    case Kind::kDnsPrefix:
      if (!arg) return "dns_prefix with null argument";
      if (auto err = arg->validate(schema); !err.empty()) return err;
      if (arg->result_kind(schema) != ValueKind::kString) return "dns_prefix on numeric";
      if (level < 0) return "dns_prefix level out of range";
      return {};
    case Kind::kPayloadContains:
      if (!arg) return "payload_contains with null argument";
      if (auto err = arg->validate(schema); !err.empty()) return err;
      if (arg->result_kind(schema) != ValueKind::kString) return "payload_contains on numeric";
      return {};
  }
  return "corrupt expression";
}

ValueKind Expr::result_kind(const Schema& schema) const {
  switch (kind) {
    case Kind::kCol: {
      const auto idx = schema.index_of(col);
      return idx ? schema.at(*idx).kind : ValueKind::kUint;
    }
    case Kind::kConst:
      return constant.kind();
    case Kind::kBin:
      return ValueKind::kUint;  // comparisons/arithmetic yield numbers
    case Kind::kIpPrefix:
      return ValueKind::kUint;
    case Kind::kDnsPrefix:
      return ValueKind::kString;
    case Kind::kPayloadContains:
      return ValueKind::kUint;
  }
  return ValueKind::kUint;
}

int Expr::result_bits(const Schema& schema) const {
  switch (kind) {
    case Kind::kCol: {
      const auto idx = schema.index_of(col);
      return idx ? schema.at(*idx).bits : 32;
    }
    case Kind::kConst: {
      if (constant.is_string()) return 256;
      const std::uint64_t v = constant.as_uint();
      const int w = 64 - std::countl_zero(v | 1);
      return std::max(w, 1);
    }
    case Kind::kBin:
      if (is_comparison(op) || is_logical(op)) return 1;
      return std::max(lhs->result_bits(schema), rhs->result_bits(schema));
    case Kind::kIpPrefix:
      return 32;  // masked addresses stay full width in metadata
    case Kind::kDnsPrefix:
      return arg->result_bits(schema);
    case Kind::kPayloadContains:
      return 1;
  }
  return 32;
}

bool Expr::switch_compilable(const Schema& schema) const {
  switch (kind) {
    case Kind::kCol: {
      const auto idx = schema.index_of(col);
      if (!idx) return false;
      // Columns with no metadata budget (payloads) never enter the PHV.
      return schema.at(*idx).bits > 0;
    }
    case Kind::kConst:
      return true;
    case Kind::kBin: {
      if (!lhs->switch_compilable(schema) || !rhs->switch_compilable(schema)) return false;
      switch (op) {
        case BinOp::kDiv:
        case BinOp::kMod:
        case BinOp::kMul:
          // Only powers of two (a shift / mask in the ALU); real division
          // is not available in PISA ALUs (paper §2.2, Slowloris example).
          return rhs->kind == Kind::kConst && rhs->constant.is_uint() &&
                 std::has_single_bit(rhs->constant.as_uint());
        default:
          return true;
      }
    }
    case Kind::kIpPrefix:
      return arg->switch_compilable(schema);
    case Kind::kDnsPrefix:
      // Label truncation is performed by the programmable parser when it
      // extracts the name, so it is available wherever the name itself is.
      return arg->switch_compilable(schema);
    case Kind::kPayloadContains:
      return false;  // payload scans only at the stream processor
  }
  return false;
}

std::string Expr::to_string() const {
  switch (kind) {
    case Kind::kCol:
      return col;
    case Kind::kConst:
      return constant.is_string() ? "'" + constant.to_string() + "'" : constant.to_string();
    case Kind::kBin:
      return "(" + lhs->to_string() + " " + std::string(query::to_string(op)) + " " +
             rhs->to_string() + ")";
    case Kind::kIpPrefix:
      return arg->to_string() + "/" + std::to_string(level);
    case Kind::kDnsPrefix:
      return arg->to_string() + "@" + std::to_string(level);
    case Kind::kPayloadContains:
      return arg->to_string() + ".contains('" + keyword + "')";
  }
  return "?";
}

void Expr::collect_columns(std::vector<std::string>& out) const {
  switch (kind) {
    case Kind::kCol:
      out.push_back(col);
      break;
    case Kind::kConst:
      break;
    case Kind::kBin:
      if (lhs) lhs->collect_columns(out);
      if (rhs) rhs->collect_columns(out);
      break;
    case Kind::kIpPrefix:
    case Kind::kDnsPrefix:
    case Kind::kPayloadContains:
      if (arg) arg->collect_columns(out);
      break;
  }
}

std::uint64_t Program::compare(BinOp op, const Value& a, const Value& b) noexcept {
  const bool eq = a == b;
  switch (op) {
    case BinOp::kEq: return eq ? 1 : 0;
    case BinOp::kNe: return eq ? 0 : 1;
    case BinOp::kLt: return a < b ? 1 : 0;
    case BinOp::kLe: return (a < b || eq) ? 1 : 0;
    case BinOp::kGt: return b < a ? 1 : 0;
    case BinOp::kGe: return (b < a || eq) ? 1 : 0;
    default: return 0;
  }
}

Value Program::dns_prefix(std::string_view name, std::uint64_t labels) {
  return Value{net::dns_name_prefix(name, static_cast<std::size_t>(labels))};
}

// Emits an expression tree in post order, tracking both stack depths.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(const Schema& schema) : schema_(schema) {}

  Program build(const Expr& e) {
    kind_of_root_ = e.result_kind(schema_);
    if (kind_of_root_ == ValueKind::kString) {
      emit_string(e);
    } else {
      emit_numeric(e);
    }
    p_.kind_ = kind_of_root_;
    p_.depth_ = max_depth_;
    return std::move(p_);
  }

 private:
  using Code = Program::Code;

  void push(Code code, std::uint32_t arg = 0, std::uint64_t imm = 0, BinOp op = BinOp::kAdd) {
    // Fuse a column read with the constant operation applied to it. A jump
    // target always follows a kBool, so no fused pair straddles one.
    if ((code == Code::kBinConst || code == Code::kIpPrefix) && !p_.code_.empty() &&
        p_.code_.back().code == Code::kCol) {
      Program::Instr& last = p_.code_.back();
      last.code = code == Code::kBinConst ? Code::kColBinConst : Code::kColIpPrefix;
      last.op = op;
      last.imm = imm;
      return;
    }
    p_.code_.push_back({code, op, arg, imm});
    switch (code) {
      case Code::kCol: case Code::kConst: ++n_; break;
      case Code::kBin: --n_; break;
      case Code::kAndJump: case Code::kOrJump: --n_; break;  // the fall-through path pops
      case Code::kToUint: --m_; ++n_; break;
      case Code::kStrCol: case Code::kStrConst: ++m_; break;
      case Code::kToStr: --n_; ++m_; break;
      case Code::kStrCmp: m_ -= 2; ++n_; break;
      case Code::kContains: --m_; ++n_; break;
      default: break;
    }
    if (code >= Code::kToUint) p_.strings_ = true;
    if (code == Code::kToStr || code == Code::kDnsPrefix) p_.temps_ = true;
    max_depth_ = std::max({max_depth_, n_, m_});
  }

  // Leaves the node's value on the numeric stack (a string reads as 0).
  void emit_numeric(const Expr& e) {
    if (e.result_kind(schema_) == ValueKind::kString) {
      emit_string(e);
      push(Code::kToUint);
      return;
    }
    switch (e.kind) {
      case Expr::Kind::kCol:
        push(Code::kCol, column_index(e));
        return;
      case Expr::Kind::kConst:
        push(Code::kConst, 0, e.constant.as_uint());
        return;
      case Expr::Kind::kBin:
        emit_bin(e);
        return;
      case Expr::Kind::kIpPrefix:
        emit_numeric(*e.arg);
        push(Code::kIpPrefix, 0, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.level)));
        return;
      case Expr::Kind::kPayloadContains:
        emit_string(*e.arg);
        p_.keywords_.push_back(e.keyword);
        push(Code::kContains, static_cast<std::uint32_t>(p_.keywords_.size() - 1));
        return;
      case Expr::Kind::kDnsPrefix:
        break;  // string kind, handled above
    }
  }

  // Leaves the node's value on the string stack (a number as a Value).
  void emit_string(const Expr& e) {
    if (e.result_kind(schema_) != ValueKind::kString) {
      emit_numeric(e);
      push(Code::kToStr);
      return;
    }
    switch (e.kind) {
      case Expr::Kind::kCol:
        push(Code::kStrCol, column_index(e));
        return;
      case Expr::Kind::kConst:
        p_.strs_.push_back(e.constant);
        push(Code::kStrConst, static_cast<std::uint32_t>(p_.strs_.size() - 1));
        return;
      case Expr::Kind::kDnsPrefix:
        emit_string(*e.arg);
        push(Code::kDnsPrefix, 0, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.level)));
        return;
      default:
        return;  // every other kind is numeric
    }
  }

  void emit_bin(const Expr& e) {
    const BinOp op = e.op;
    if (op == BinOp::kAnd || op == BinOp::kOr) {
      emit_numeric(*e.lhs);
      const std::size_t jump = p_.code_.size();
      push(op == BinOp::kAnd ? Code::kAndJump : Code::kOrJump);
      emit_numeric(*e.rhs);
      push(Code::kBool);
      p_.code_[jump].arg = static_cast<std::uint32_t>(p_.code_.size());
      return;
    }
    const bool strings = e.lhs->result_kind(schema_) == ValueKind::kString ||
                         e.rhs->result_kind(schema_) == ValueKind::kString;
    if (is_comparison(op) && strings) {
      emit_string(*e.lhs);
      emit_string(*e.rhs);
      push(Code::kStrCmp, 0, 0, op);
      return;
    }
    emit_numeric(*e.lhs);
    if (e.rhs->kind == Expr::Kind::kConst && e.rhs->constant.is_uint()) {
      push(Code::kBinConst, 0, e.rhs->constant.as_uint(), op);
      return;
    }
    emit_numeric(*e.rhs);
    push(Code::kBin, 0, 0, op);
  }

  [[nodiscard]] std::uint32_t column_index(const Expr& e) const {
    return static_cast<std::uint32_t>(schema_.index_of(e.col).value_or(0));
  }

  const Schema& schema_;
  Program p_;
  ValueKind kind_of_root_ = ValueKind::kUint;
  std::size_t n_ = 0, m_ = 0, max_depth_ = 0;
};

Program Expr::bind(const Schema& schema) const { return ProgramBuilder(schema).build(*this); }

}  // namespace sonata::query
