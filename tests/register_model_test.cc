// Differential test of pisa::RegisterChain against a plain Tuple-keyed
// d-way model: d arrays of n slots, each slot an optional (key, aggregate,
// reported) triple, indexed by the same hash family over Tuple::hash. The
// chain must agree with the model on every update result, read,
// mark_reported and on entries() (contents and order), window after window
// across reset().
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pisa/register.h"
#include "util/hash.h"
#include "util/rng.h"

namespace sonata {
namespace {

using query::ReduceFn;
using query::Tuple;
using query::Value;

std::uint64_t model_reduce(ReduceFn fn, std::uint64_t cur, std::uint64_t delta) {
  switch (fn) {
    case ReduceFn::kSum: return cur + delta;
    case ReduceFn::kMax: return cur > delta ? cur : delta;
    case ReduceFn::kMin: return cur < delta ? cur : delta;
    case ReduceFn::kBitOr: return cur | delta;
  }
  return cur;
}

class ModelChain {
 public:
  struct Slot {
    Tuple key;
    std::uint64_t value = 0;
    bool reported = false;
  };

  ModelChain(std::size_t n, int depth, std::uint64_t seed)
      : n_(n),
        hashes_(static_cast<std::size_t>(depth), seed != 0 ? seed : 0x5eed5eed5eed5eedULL),
        regs_(static_cast<std::size_t>(depth), std::vector<std::optional<Slot>>(n)) {}

  pisa::RegisterChain::UpdateResult update(const Tuple& key, std::uint64_t delta, ReduceFn fn) {
    const std::uint64_t fp = key.hash();
    for (std::size_t d = 0; d < regs_.size(); ++d) {
      auto& slot = regs_[d][hashes_.index(d, fp, n_)];
      if (!slot) {
        slot = Slot{key, delta, false};
        ++stored_;
        return {.stored = true, .newly_inserted = true, .overflow = false,
                .probes = static_cast<int>(d) + 1, .value = delta};
      }
      if (slot->key == key) {
        slot->value = model_reduce(fn, slot->value, delta);
        return {.stored = true, .newly_inserted = false, .overflow = false,
                .probes = static_cast<int>(d) + 1, .value = slot->value};
      }
    }
    ++overflows_;
    return {.stored = false, .newly_inserted = false, .overflow = true,
            .probes = static_cast<int>(regs_.size()), .value = 0};
  }

  Slot* find(const Tuple& key) {
    const std::uint64_t fp = key.hash();
    for (std::size_t d = 0; d < regs_.size(); ++d) {
      auto& slot = regs_[d][hashes_.index(d, fp, n_)];
      if (slot && slot->key == key) return &*slot;
    }
    return nullptr;
  }

  std::optional<std::uint64_t> read(const Tuple& key) {
    const Slot* s = find(key);
    return s ? std::optional<std::uint64_t>(s->value) : std::nullopt;
  }

  bool mark_reported(const Tuple& key) {
    Slot* s = find(key);
    if (s == nullptr) return false;
    const bool first = !s->reported;
    s->reported = true;
    return first;
  }

  std::vector<std::pair<Tuple, std::uint64_t>> entries() const {
    std::vector<std::pair<Tuple, std::uint64_t>> out;
    for (const auto& reg : regs_) {
      for (const auto& slot : reg) {
        if (slot) out.emplace_back(slot->key, slot->value);
      }
    }
    return out;
  }

  void reset() {
    for (auto& reg : regs_) {
      for (auto& slot : reg) slot.reset();
    }
    stored_ = overflows_ = 0;
  }

  std::uint64_t stored() const { return stored_; }
  std::uint64_t overflows() const { return overflows_; }

 private:
  std::size_t n_;
  util::HashFamily hashes_;
  std::vector<std::vector<std::optional<Slot>>> regs_;
  std::uint64_t stored_ = 0;
  std::uint64_t overflows_ = 0;
};

// A key of `columns` columns; bit c of `string_mask` makes column c a DNS
// name. Values come from small domains so keys repeat, and every string is
// a fresh allocation so equal names never share a pointer.
Tuple random_key(util::Rng& rng, std::size_t columns, unsigned string_mask, std::uint64_t domain) {
  static const char* kNames[] = {"a.example.com", "b.example.com", "evil.com", "x.y.z.org",
                                 "", "www.example.net", "tunnel.data.evil.com"};
  Tuple key;
  for (std::size_t c = 0; c < columns; ++c) {
    if ((string_mask >> c) & 1U) {
      key.values.emplace_back(std::string(kNames[rng.uniform(std::size(kNames))]));
    } else {
      key.values.emplace_back(std::uint64_t{rng.uniform(domain)});
    }
  }
  return key;
}

void expect_same(const pisa::RegisterChain::UpdateResult& got,
                 const pisa::RegisterChain::UpdateResult& want) {
  EXPECT_EQ(got.stored, want.stored);
  EXPECT_EQ(got.newly_inserted, want.newly_inserted);
  EXPECT_EQ(got.overflow, want.overflow);
  EXPECT_EQ(got.probes, want.probes);
  EXPECT_EQ(got.value, want.value);
}

struct ModelCase {
  std::size_t columns;
  unsigned string_mask;
  std::size_t entries;
  int depth;
  std::uint64_t domain;  // numeric values per column
};

// Runs four windows of updates; returns the overflows seen.
std::uint64_t run_case(const ModelCase& mc, std::uint64_t seed) {
  SCOPED_TRACE("columns " + std::to_string(mc.columns) + " strings " +
               std::to_string(mc.string_mask) + " n " + std::to_string(mc.entries) + " d " +
               std::to_string(mc.depth) + " seed " + std::to_string(seed));
  const std::uint64_t hash_seed = seed % 2 == 0 ? 0 : seed * 0x9e37;
  pisa::RegisterChain chain({.entries_per_register = mc.entries,
                             .depth = mc.depth,
                             .key_bits = 32,
                             .value_bits = 32,
                             .hash_seed = hash_seed});
  ModelChain model(mc.entries, mc.depth, hash_seed);
  util::Rng rng(seed);
  const ReduceFn fns[] = {ReduceFn::kSum, ReduceFn::kMax, ReduceFn::kMin, ReduceFn::kBitOr};
  std::uint64_t overflows = 0;
  for (int window = 0; window < 4; ++window) {
    const ReduceFn fn = fns[(seed + static_cast<std::uint64_t>(window)) % 4];
    // Enough keys to fill every register and overflow at full depth.
    const std::size_t updates = mc.entries * static_cast<std::size_t>(mc.depth) * 3;
    for (std::size_t u = 0; u < updates; ++u) {
      const Tuple key = random_key(rng, mc.columns, mc.string_mask, mc.domain);
      const std::uint64_t delta = 1 + rng.uniform(100);
      expect_same(chain.update(key, delta, fn), model.update(key, delta, fn));
      if (u % 7 == 0) {
        const Tuple probe = random_key(rng, mc.columns, mc.string_mask, mc.domain);
        EXPECT_EQ(chain.read(probe), model.read(probe));
        EXPECT_EQ(chain.mark_reported(probe), model.mark_reported(probe));
      }
    }
    EXPECT_EQ(chain.keys_stored(), model.stored());
    EXPECT_EQ(chain.overflow_count(), model.overflows());
    overflows += model.overflows();
    const auto got = chain.entries();
    const auto want = model.entries();
    EXPECT_EQ(got.size(), want.size());
    if (got.size() != want.size()) return overflows;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << "entry " << i;
      EXPECT_EQ(got[i].second, want[i].second) << "entry " << i;
    }
    chain.reset();
    model.reset();
    EXPECT_TRUE(chain.entries().empty());
    EXPECT_EQ(chain.keys_stored(), 0u);
  }
  return overflows;
}

TEST(RegisterChainModel, NumericKeysOfOneToFourColumns) {
  for (std::size_t columns = 1; columns <= 4; ++columns) {
    for (int depth = 1; depth <= 4; ++depth) {
      // Key domains beyond n * d, so every case overflows at full depth.
      const std::uint64_t overflows =
          run_case({columns, 0, 16, depth, 80}, 100 + columns * 10 + static_cast<std::size_t>(depth));
      EXPECT_GT(overflows, 0u) << columns << " columns, depth " << depth;
    }
  }
}

TEST(RegisterChainModel, StringColumns) {
  // Every mask over up to three columns with at least one string column,
  // plus four columns with strings at both ends.
  std::uint64_t overflows = 0;
  for (std::size_t columns = 1; columns <= 3; ++columns) {
    for (unsigned mask = 1; mask < (1U << columns); ++mask) {
      for (int depth = 1; depth <= 3; ++depth) {
        overflows += run_case({columns, mask, 4, depth, 6},
                              500 + columns * 100 + mask * 10 + static_cast<std::size_t>(depth));
      }
    }
  }
  overflows += run_case({4, 0b1001, 16, 2, 4}, 77);
  EXPECT_GT(overflows, 0u);
}

TEST(RegisterChainModel, WideRegistersStayExact) {
  // Sparse keys over larger registers: most land at depth 1, a few chain.
  run_case({2, 0, 1024, 2, 1u << 20}, 9);
  run_case({2, 0b10, 256, 3, 1u << 16}, 10);
}

TEST(RegisterChainModel, MarkReportedOncePerWindow) {
  pisa::RegisterChain chain({.entries_per_register = 64, .depth = 2, .key_bits = 32, .value_bits = 32});
  const Tuple key{{Value{std::uint64_t{7}}, Value{std::string("dns.example.com")}}};
  for (int window = 0; window < 3; ++window) {
    EXPECT_FALSE(chain.mark_reported(key));  // not stored yet
    EXPECT_TRUE(chain.update(key, 1, ReduceFn::kSum).newly_inserted);
    EXPECT_TRUE(chain.mark_reported(key));
    EXPECT_FALSE(chain.mark_reported(key));
    // An equal name in a different allocation is the same key.
    const Tuple copy{{Value{std::uint64_t{7}}, Value{std::string("dns.example.com")}}};
    EXPECT_FALSE(chain.mark_reported(copy));
    EXPECT_EQ(chain.read(copy), 1u);
    chain.reset();
  }
}

}  // namespace
}  // namespace sonata
