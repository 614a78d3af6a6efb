// Differential test of the bound expression program (Expr::bind) against a
// plain recursive evaluator of the tree, written here with the semantics a
// closure per node has: columns read the tuple's Value, numbers combine
// through as_uint() (a string reads as 0), comparisons with a string side
// compare Values, dns_prefix and contains read as_string() ("" for a
// number). Random trees over every operator, including ill-typed ones,
// must give the same Value from the program as from the tree, over a Tuple
// and over a packed word row.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/dns.h"
#include "query/expr.h"
#include "util/ip.h"
#include "util/rng.h"

namespace sonata::query {
namespace {

Value reference(const Expr& e, const Schema& schema, const Tuple& t) {
  switch (e.kind) {
    case Expr::Kind::kCol:
      return t.at(schema.index_of(e.col).value_or(0));
    case Expr::Kind::kConst:
      return e.constant;
    case Expr::Kind::kBin: {
      const Value a = reference(*e.lhs, schema, t);
      const Value b = reference(*e.rhs, schema, t);
      const bool cmp = e.op == BinOp::kEq || e.op == BinOp::kNe || e.op == BinOp::kLt ||
                       e.op == BinOp::kLe || e.op == BinOp::kGt || e.op == BinOp::kGe;
      if (cmp && (a.is_string() || b.is_string())) {
        const bool eq = a == b;
        bool res = false;
        switch (e.op) {
          case BinOp::kEq: res = eq; break;
          case BinOp::kNe: res = !eq; break;
          case BinOp::kLt: res = a < b; break;
          case BinOp::kLe: res = a < b || eq; break;
          case BinOp::kGt: res = b < a; break;
          case BinOp::kGe: res = b < a || eq; break;
          default: break;
        }
        return Value{static_cast<std::uint64_t>(res)};
      }
      const std::uint64_t x = a.as_uint();
      const std::uint64_t y = b.as_uint();
      switch (e.op) {
        case BinOp::kAdd: return Value{x + y};
        case BinOp::kSub: return Value{x - y};
        case BinOp::kMul: return Value{x * y};
        case BinOp::kDiv: return Value{y == 0 ? 0 : x / y};
        case BinOp::kMod: return Value{y == 0 ? 0 : x % y};
        case BinOp::kBitAnd: return Value{x & y};
        case BinOp::kBitOr: return Value{x | y};
        case BinOp::kShl: return Value{y >= 64 ? 0 : x << y};
        case BinOp::kShr: return Value{y >= 64 ? 0 : x >> y};
        case BinOp::kEq: return Value{static_cast<std::uint64_t>(x == y)};
        case BinOp::kNe: return Value{static_cast<std::uint64_t>(x != y)};
        case BinOp::kLt: return Value{static_cast<std::uint64_t>(x < y)};
        case BinOp::kLe: return Value{static_cast<std::uint64_t>(x <= y)};
        case BinOp::kGt: return Value{static_cast<std::uint64_t>(x > y)};
        case BinOp::kGe: return Value{static_cast<std::uint64_t>(x >= y)};
        case BinOp::kAnd: return Value{static_cast<std::uint64_t>(x != 0 && y != 0)};
        case BinOp::kOr: return Value{static_cast<std::uint64_t>(x != 0 || y != 0)};
      }
      return Value{std::uint64_t{0}};
    }
    case Expr::Kind::kIpPrefix:
      return Value{static_cast<std::uint64_t>(util::ipv4_prefix(
          static_cast<std::uint32_t>(reference(*e.arg, schema, t).as_uint()), e.level))};
    case Expr::Kind::kDnsPrefix:
      return Value{net::dns_name_prefix(reference(*e.arg, schema, t).as_string(),
                                        static_cast<std::size_t>(e.level))};
    case Expr::Kind::kPayloadContains:
      return Value{static_cast<std::uint64_t>(
          reference(*e.arg, schema, t).as_string().find(e.keyword) != std::string_view::npos)};
  }
  return Value{std::uint64_t{0}};
}

const Schema& schema() {
  static const Schema s{{{"a", ValueKind::kUint, 32},
                         {"b", ValueKind::kUint, 16},
                         {"c", ValueKind::kUint, 8},
                         {"name", ValueKind::kString, 256},
                         {"qname", ValueKind::kString, 256},
                         {"payload", ValueKind::kString, 0}}};
  return s;
}

const char* const kNames[] = {"", "com", "example.com", "a.example.com", "b.a.example.com",
                              "evil.org", "zorro"};

std::uint64_t random_number(util::Rng& rng) {
  static const std::uint64_t kEdges[] = {0,  1,  2,  3,   7,   8,          31,
                                         32, 63, 64, 65,  100, 0xffffffff, ~std::uint64_t{0}};
  if (rng.uniform(3) == 0) return rng();
  return kEdges[rng.uniform(std::size(kEdges))];
}

Tuple random_tuple(util::Rng& rng) {
  Tuple t;
  for (int c = 0; c < 3; ++c) t.values.emplace_back(random_number(rng));
  t.values.emplace_back(std::string(kNames[rng.uniform(std::size(kNames))]));
  t.values.emplace_back(std::string(kNames[rng.uniform(std::size(kNames))]));
  t.values.emplace_back(std::string("GET / zorro ") + kNames[rng.uniform(std::size(kNames))]);
  return t;
}

ExprPtr random_string_expr(util::Rng& rng, int depth);

ExprPtr random_numeric_expr(util::Rng& rng, int depth) {
  static const char* kNumCols[] = {"a", "b", "c"};
  const std::uint64_t pick = depth <= 0 ? rng.uniform(2) : rng.uniform(9);
  switch (pick) {
    case 0: return Expr::column(kNumCols[rng.uniform(3)]);
    case 1: return Expr::lit(random_number(rng));
    case 2: case 3: case 4: {
      const auto op = static_cast<BinOp>(rng.uniform(static_cast<std::uint64_t>(BinOp::kOr) + 1));
      return Expr::bin(op, random_numeric_expr(rng, depth - 1), random_numeric_expr(rng, depth - 1));
    }
    case 5: {
      // String comparison (both sides strings, or one side numeric).
      const auto op = static_cast<BinOp>(static_cast<std::uint64_t>(BinOp::kEq) + rng.uniform(6));
      ExprPtr rhs = rng.uniform(5) == 0 ? random_numeric_expr(rng, depth - 1)
                                        : random_string_expr(rng, depth - 1);
      return Expr::bin(op, random_string_expr(rng, depth - 1), std::move(rhs));
    }
    case 6: {
      // && / || whose right side reads a string column.
      const BinOp op = rng.uniform(2) == 0 ? BinOp::kAnd : BinOp::kOr;
      ExprPtr rhs = Expr::bin(BinOp::kEq, Expr::column(rng.uniform(2) == 0 ? "name" : "qname"),
                              Expr::lit(std::string(kNames[rng.uniform(std::size(kNames))])));
      return Expr::bin(op, random_numeric_expr(rng, depth - 1), std::move(rhs));
    }
    case 7: {
      static const int kLevels[] = {-1, 0, 8, 16, 24, 31, 32, 40};
      return Expr::ip_prefix(random_numeric_expr(rng, depth - 1),
                             kLevels[rng.uniform(std::size(kLevels))]);
    }
    default: {
      static const char* kWords[] = {"zorro", "example", "", "GET"};
      return Expr::payload_contains(random_string_expr(rng, depth - 1),
                                    kWords[rng.uniform(std::size(kWords))]);
    }
  }
}

ExprPtr random_string_expr(util::Rng& rng, int depth) {
  static const char* kStrCols[] = {"name", "qname", "payload"};
  const std::uint64_t pick = depth <= 0 ? rng.uniform(2) : rng.uniform(4);
  switch (pick) {
    case 0: return Expr::column(kStrCols[rng.uniform(3)]);
    case 1: return Expr::lit(std::string(kNames[rng.uniform(std::size(kNames))]));
    case 2: return Expr::dns_prefix(random_string_expr(rng, depth - 1),
                                    static_cast<int>(rng.uniform(5)));
    default:
      // Ill-typed on purpose: a numeric node where a string is expected.
      return rng.uniform(4) == 0 ? random_numeric_expr(rng, depth - 1)
                                 : Expr::column(kStrCols[rng.uniform(3)]);
  }
}

// A packed row like the switch's: words for numeric columns, Values for
// string columns.
struct PackedRow {
  std::vector<std::uint64_t> w;
  std::vector<Value> s;
  [[nodiscard]] std::uint64_t uint_at(std::size_t i) const { return w.at(i); }
  [[nodiscard]] const Value& value_at(std::size_t i) const { return s.at(i); }
};

PackedRow pack(const Tuple& t) {
  PackedRow r;
  for (const Value& v : t.values) {
    r.w.push_back(v.as_uint());
    r.s.push_back(v);
  }
  return r;
}

void check(const ExprPtr& e, const Tuple& t) {
  const Program p = e->bind(schema());
  const Value want = reference(*e, schema(), t);
  const Value got = p(t);
  ASSERT_EQ(got, want) << e->to_string() << " on " << t.to_string();
  EXPECT_EQ(p.eval_uint(TupleRow{t}), want.as_uint()) << e->to_string();
  EXPECT_EQ(p.result_kind(), e->result_kind(schema())) << e->to_string();
  const PackedRow row = pack(t);
  EXPECT_EQ(p.eval(row), want) << e->to_string() << " over a packed row";
}

TEST(ExprProgram, RandomTreesMatchTheRecursiveEvaluator) {
  util::Rng rng(2024);
  for (int i = 0; i < 3000; ++i) {
    const ExprPtr e = rng.uniform(4) == 0 ? random_string_expr(rng, 4) : random_numeric_expr(rng, 4);
    for (int k = 0; k < 4; ++k) check(e, random_tuple(rng));
  }
}

TEST(ExprProgram, EveryBinaryOperatorOnEdgeOperands) {
  util::Rng rng(7);
  for (int op = 0; op <= static_cast<int>(BinOp::kOr); ++op) {
    for (const std::uint64_t x : {0ULL, 1ULL, 5ULL, 63ULL, 64ULL, 65ULL, ~0ULL}) {
      for (const std::uint64_t y : {0ULL, 1ULL, 3ULL, 63ULL, 64ULL, 200ULL, ~0ULL}) {
        const Tuple t{{Value{x}, Value{y}, Value{std::uint64_t{0}}, Value{std::string("a.b")},
                       Value{std::string("")}, Value{std::string("")}}};
        check(Expr::bin(static_cast<BinOp>(op), Expr::column("a"), Expr::column("b")), t);
        check(Expr::bin(static_cast<BinOp>(op), Expr::column("a"), Expr::lit(y)), t);
      }
    }
  }
  // Division, modulo and shifts by constants at the edges.
  const Tuple t{{Value{std::uint64_t{100}}, Value{std::uint64_t{0}}, Value{std::uint64_t{0}},
                 Value{std::string("")}, Value{std::string("")}, Value{std::string("")}}};
  EXPECT_EQ(Expr::bin(BinOp::kDiv, Expr::column("a"), Expr::lit(0))->bind(schema())(t).as_uint(), 0u);
  EXPECT_EQ(Expr::bin(BinOp::kMod, Expr::column("a"), Expr::column("b"))->bind(schema())(t).as_uint(), 0u);
  EXPECT_EQ(Expr::bin(BinOp::kShl, Expr::column("a"), Expr::lit(64))->bind(schema())(t).as_uint(), 0u);
  EXPECT_EQ(Expr::bin(BinOp::kShr, Expr::column("a"), Expr::lit(99))->bind(schema())(t).as_uint(), 0u);
}

TEST(ExprProgram, StringOperators) {
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const Tuple t = random_tuple(rng);
    for (int op = static_cast<int>(BinOp::kEq); op <= static_cast<int>(BinOp::kGe); ++op) {
      check(Expr::bin(static_cast<BinOp>(op), Expr::column("name"), Expr::column("qname")), t);
      check(Expr::bin(static_cast<BinOp>(op), Expr::dns_prefix(Expr::column("name"), 2),
                      Expr::lit(std::string("example.com"))),
            t);
    }
    for (int labels = 0; labels <= 4; ++labels) {
      check(Expr::dns_prefix(Expr::column("qname"), labels), t);
      check(Expr::dns_prefix(Expr::dns_prefix(Expr::column("name"), labels + 1), labels), t);
    }
    check(Expr::payload_contains(Expr::column("payload"), "zorro"), t);
    check(Expr::ip_prefix(Expr::column("a"), static_cast<int>(rng.uniform(33))), t);
  }
}

TEST(ExprProgram, ShortCircuitRightSideReadsAString) {
  const Tuple hit{{Value{std::uint64_t{0}}, Value{std::uint64_t{1}}, Value{std::uint64_t{0}},
                   Value{std::string("evil.org")}, Value{std::string("")}, Value{std::string("")}}};
  using namespace dsl;
  const auto rhs = col("name") == lit(std::string("evil.org"));
  EXPECT_EQ((col("a") && rhs)->bind(schema())(hit).as_uint(), 0u);
  EXPECT_EQ((col("b") && rhs)->bind(schema())(hit).as_uint(), 1u);
  EXPECT_EQ((col("a") || rhs)->bind(schema())(hit).as_uint(), 1u);
  EXPECT_EQ((col("b") || rhs)->bind(schema())(hit).as_uint(), 1u);
  for (const auto& e : {col("a") && rhs, col("b") && rhs, col("a") || rhs, col("b") || rhs}) {
    check(e, hit);
  }
}

TEST(ExprProgram, DeepTreesUseTheHeapStack) {
  // Right-leaning chains deeper than the inline stack.
  using namespace dsl;
  ExprPtr num = col("a");
  ExprPtr str = col("name");
  for (int i = 0; i < 40; ++i) {
    num = lit(static_cast<std::uint64_t>(i)) + (col("b") * num);
    str = Expr::dns_prefix(str, 3);
  }
  util::Rng rng(5);
  for (int k = 0; k < 20; ++k) {
    const Tuple t = random_tuple(rng);
    check(num, t);
    check(str, t);
    check(Expr::bin(BinOp::kEq, str, col("qname")), t);
  }
}

}  // namespace
}  // namespace sonata::query
