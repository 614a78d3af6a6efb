#include "pisa/register.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "state/engine.h"  // state::apply_reduce

namespace sonata::pisa {

namespace {

constexpr std::uint32_t kEmptyId = ~std::uint32_t{0};
// Tuple::hash's seed; the packed paths fold the same per-column hashes.
constexpr std::uint64_t kTupleHashSeed = 0x531a0badcafeULL;

// Key-sized scratch that stays on the stack for the usual narrow keys.
template <typename T>
class KeyScratch {
 public:
  explicit KeyScratch(std::size_t n) {
    if (n > kInline) heap_.resize(n);
  }
  [[nodiscard]] T* data() noexcept { return heap_.empty() ? local_ : heap_.data(); }

 private:
  static constexpr std::size_t kInline = 8;
  T local_[kInline];
  std::vector<T> heap_;
};

// A Tuple key seen column by column.
class TupleColumns {
 public:
  explicit TupleColumns(const query::Tuple& key) : words_(key.size()), strs_(key.size()) {
    for (std::size_t c = 0; c < key.size(); ++c) {
      words_.data()[c] = key.values[c].as_uint();
      strs_.data()[c] = &key.values[c];
    }
  }
  [[nodiscard]] RegisterChain::KeyColumns columns() noexcept {
    return {words_.data(), strs_.data()};
  }

 private:
  KeyScratch<std::uint64_t> words_;
  KeyScratch<const query::Value*> strs_;
};

[[nodiscard]] std::string_view view(const query::SharedStr& s) noexcept {
  return s ? std::string_view(*s) : std::string_view{};
}

}  // namespace

std::uint64_t apply_reduce(query::ReduceFn fn, std::uint64_t current,
                           std::uint64_t delta) noexcept {
  return state::apply_reduce(fn, current, delta);
}

// -- StringPool -------------------------------------------------------------

std::uint64_t RegisterChain::StringPool::find(std::uint64_t hash,
                                              std::string_view s) const noexcept {
  if (table_.empty()) return kAbsent;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t id = table_[i];
    if (id == kEmptyId) return kAbsent;
    if (hashes_[id] == hash && view(strs_[id]) == s) return id;
  }
}

std::uint64_t RegisterChain::StringPool::intern(std::uint64_t hash, const query::Value& v) {
  if ((strs_.size() + 1) * 2 > table_.size()) rehash(std::max<std::size_t>(64, table_.size() * 2));
  const auto id = static_cast<std::uint32_t>(strs_.size());
  strs_.push_back(v.shared_string());
  hashes_.push_back(hash);
  const std::size_t mask = table_.size() - 1;
  std::size_t i = hash & mask;
  while (table_[i] != kEmptyId) i = (i + 1) & mask;
  table_[i] = id;
  return id;
}

void RegisterChain::StringPool::rehash(std::size_t cap) {
  table_.assign(cap, kEmptyId);
  const std::size_t mask = cap - 1;
  for (std::uint32_t id = 0; id < strs_.size(); ++id) {
    std::size_t i = hashes_[id] & mask;
    while (table_[i] != kEmptyId) i = (i + 1) & mask;
    table_[i] = id;
  }
}

void RegisterChain::StringPool::clear() noexcept {
  if (strs_.empty()) return;
  strs_.clear();
  hashes_.clear();
  std::fill(table_.begin(), table_.end(), kEmptyId);
}

// -- RegisterChain ----------------------------------------------------------

RegisterChain::RegisterChain(const RegisterChainConfig& cfg,
                             std::vector<query::ValueKind> key_kinds)
    : cfg_(cfg),
      hashes_(static_cast<std::size_t>(std::max(cfg.depth, 1)),
              cfg.hash_seed != 0 ? cfg.hash_seed : 0x5eed5eed5eed5eedULL) {
  assert(cfg_.entries_per_register > 0);
  assert(cfg_.depth >= 1);
  if (cfg_.hashpipe) {
    hp_ = std::make_unique<state::HashPipeChain>(state::HashPipeConfig{
        .entries_per_stage = cfg_.entries_per_register,
        .stages = cfg_.depth,
        .hash_seed = cfg_.hash_seed,
    });
    return;
  }
  occ_.resize(static_cast<std::size_t>(cfg_.depth) * occ_words_per_register());
  if (!key_kinds.empty()) lay_out(std::move(key_kinds));
}

void RegisterChain::lay_out(std::vector<query::ValueKind> kinds) {
  kinds_ = std::move(kinds);
  stride_ = kKeyWord + kinds_.size();
  slots_.resize(static_cast<std::size_t>(cfg_.depth) * cfg_.entries_per_register * stride_);
}

bool RegisterChain::fits(const query::Tuple& key) const noexcept {
  if (key.size() != kinds_.size()) return false;
  for (std::size_t c = 0; c < kinds_.size(); ++c) {
    if (key.values[c].kind() != kinds_[c]) return false;
  }
  return true;
}

std::uint64_t RegisterChain::pack(KeyColumns key, std::uint64_t* out,
                                  bool& complete) const noexcept {
  std::uint64_t h = kTupleHashSeed;
  complete = true;
  for (std::size_t c = 0; c < kinds_.size(); ++c) {
    if (kinds_[c] == query::ValueKind::kString) {
      const std::string_view s = key.strs[c]->as_string();
      const std::uint64_t sh = util::fnv1a64(s);
      h = util::hash_combine(h, sh);
      out[c] = pool_.find(sh, s);
      if (out[c] == StringPool::kAbsent) complete = false;
    } else {
      out[c] = key.words[c];
      h = util::hash_combine(h, util::hash_u64(key.words[c], 0));
    }
  }
  return h;
}

RegisterChain::UpdateResult RegisterChain::update(const query::Tuple& key, std::uint64_t delta,
                                                  query::ReduceFn fn) {
  if (hp_) {
    const auto r = hp_->update(key, delta, fn);
    return {.stored = true,
            .newly_inserted = r.newly_inserted,
            .overflow = false,  // hashpipe never overflows; see evicted_weight()
            .probes = r.probes,
            .value = r.value};
  }
  if (stride_ == 0) {
    std::vector<query::ValueKind> kinds;
    kinds.reserve(key.size());
    for (const auto& v : key.values) kinds.push_back(v.kind());
    lay_out(std::move(kinds));
  }
  if (!fits(key)) throw std::invalid_argument("RegisterChain: key shape differs from the chain's");
  TupleColumns cols(key);
  KeyScratch<std::uint64_t> packed(key.size());
  Located at = locate(cols.columns(), packed.data());
  return update(at, packed.data(), cols.columns(), delta, fn);
}

RegisterChain::Located RegisterChain::locate(KeyColumns key,
                                             std::uint64_t* packed) const noexcept {
  assert(!hp_ && stride_ != 0);
  Located at;
  const std::uint64_t fp = pack(key, packed, at.complete);
  // The whole d-way lane-hash block in one (vectorized) pass, and a
  // prefetch of the first two probe targets: the common case resolves at
  // depth 1, and a depth-2 continuation finds its slot line already in
  // flight. Indices are bit-identical to hashes_.index(d, fp, n).
  const std::size_t n = cfg_.entries_per_register;
  const auto depth = static_cast<std::size_t>(cfg_.depth);
  if (depth > 1) {
    std::uint64_t lanes[util::HashFamily::kMaxFamily];
    hashes_.hash_all(fp, lanes);
    for (std::size_t d = 0; d < depth; ++d) at.idx[d] = static_cast<std::size_t>(lanes[d] % n);
    __builtin_prefetch(slot(1, at.idx[1]));
  } else {
    at.idx[0] = static_cast<std::size_t>(hashes_(0, fp) % n);
  }
  __builtin_prefetch(slot(0, at.idx[0]));
  return at;
}

RegisterChain::UpdateResult RegisterChain::update(Located& at, std::uint64_t* packed,
                                                  KeyColumns key, std::uint64_t delta,
                                                  query::ReduceFn fn) {
  const std::size_t k = kinds_.size();
  const auto depth = static_cast<std::size_t>(cfg_.depth);
  for (std::size_t d = 0; d < depth; ++d) {
    std::uint64_t* s = slot(d, at.idx[d]);
    if ((s[kFlagsWord] & kOccupied) == 0) {
      if (!at.complete) {
        // First stored key with this string: intern it now.
        for (std::size_t c = 0; c < k; ++c) {
          if (kinds_[c] != query::ValueKind::kString || packed[c] != StringPool::kAbsent) continue;
          const std::string_view str = key.strs[c]->as_string();
          const std::uint64_t h = util::fnv1a64(str);
          packed[c] = pool_.find(h, str);
          if (packed[c] == StringPool::kAbsent) packed[c] = pool_.intern(h, *key.strs[c]);
        }
        at.complete = true;
      }
      s[kValueWord] = delta;  // initial value for every reduce fn (incl. min)
      s[kFlagsWord] = kOccupied;
      std::memcpy(s + kKeyWord, packed, k * sizeof(std::uint64_t));
      occ_set(d, at.idx[d]);
      ++stored_;
      return {.stored = true,
              .newly_inserted = true,
              .overflow = false,
              .probes = static_cast<int>(d) + 1,
              .value = delta};
    }
    if (at.complete && std::equal(packed, packed + k, s + kKeyWord)) {
      s[kValueWord] = apply_reduce(fn, s[kValueWord], delta);
      return {.stored = true,
              .newly_inserted = false,
              .overflow = false,
              .probes = static_cast<int>(d) + 1,
              .value = s[kValueWord]};
    }
    // Occupied by a different key: fall through to the next register.
  }
  ++overflows_;
  return {.stored = false,
          .newly_inserted = false,
          .overflow = true,
          .probes = cfg_.depth,
          .value = 0};
}

const std::uint64_t* RegisterChain::find(const Located& at,
                                         const std::uint64_t* packed) const noexcept {
  if (!at.complete) return nullptr;
  const std::size_t k = kinds_.size();
  for (std::size_t d = 0; d < static_cast<std::size_t>(cfg_.depth); ++d) {
    const std::uint64_t* s = slot(d, at.idx[d]);
    if ((s[kFlagsWord] & kOccupied) != 0 && std::equal(packed, packed + k, s + kKeyWord)) {
      return s;
    }
  }
  return nullptr;
}

std::uint64_t* RegisterChain::find(const Located& at, const std::uint64_t* packed) noexcept {
  return const_cast<std::uint64_t*>(std::as_const(*this).find(at, packed));
}

std::optional<std::uint64_t> RegisterChain::read(const query::Tuple& key) const {
  // HashPipe note: read/mark_reported need the reduce fn to merge a key
  // split across stages; sum is the fold every switch-compiled reduce and
  // distinct register uses at this boundary's call sites (value_bits=1
  // distinct slots hold 1s, so sum == presence).
  if (hp_) return hp_->read(key, query::ReduceFn::kSum);
  if (stride_ == 0 || !fits(key)) return std::nullopt;
  TupleColumns cols(key);
  KeyScratch<std::uint64_t> packed(key.size());
  const Located at = locate(cols.columns(), packed.data());
  const std::uint64_t* s = find(at, packed.data());
  if (s == nullptr) return std::nullopt;
  return s[kValueWord];
}

bool RegisterChain::mark_reported(const query::Tuple& key) {
  if (hp_) return hp_->mark_reported(key);
  if (stride_ == 0 || !fits(key)) return false;
  TupleColumns cols(key);
  KeyScratch<std::uint64_t> packed(key.size());
  const Located at = locate(cols.columns(), packed.data());
  return mark_reported(at, packed.data());
}

bool RegisterChain::mark_reported(const Located& at, const std::uint64_t* packed) {
  std::uint64_t* s = find(at, packed);
  if (s == nullptr) return false;
  const bool first = (s[kFlagsWord] & kReported) == 0;
  s[kFlagsWord] |= kReported;
  return first;
}

template <typename F>
void RegisterChain::for_each_occupied(F&& f) const {
  // Walk the occupancy bitmap instead of every slot: O(stored) with a
  // 64-slot skip per empty word, register by register, slots ascending.
  const std::size_t words = occ_words_per_register();
  for (std::size_t d = 0; d < static_cast<std::size_t>(cfg_.depth); ++d) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = occ_[d * words + w];
      while (bits != 0) {
        const std::size_t idx = w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        f(d, idx);
      }
    }
  }
}

std::vector<std::pair<query::Tuple, std::uint64_t>> RegisterChain::entries() const {
  if (hp_) return hp_->entries();  // may repeat a key; the SP reduce merges
  std::vector<std::pair<query::Tuple, std::uint64_t>> out;
  out.reserve(stored_);
  for_each_occupied([&](std::size_t d, std::size_t idx) {
    const std::uint64_t* s = slot(d, idx);
    query::Tuple key;
    key.values.reserve(kinds_.size());
    for (std::size_t c = 0; c < kinds_.size(); ++c) {
      const std::uint64_t w = s[kKeyWord + c];
      if (kinds_[c] == query::ValueKind::kString) {
        key.values.emplace_back(pool_.str(w));
      } else {
        key.values.emplace_back(w);
      }
    }
    out.emplace_back(std::move(key), s[kValueWord]);
  });
  return out;
}

void RegisterChain::reset() {
  if (hp_) {
    hp_->reset();
    return;
  }
  // Clear only occupied slots (bitmap-guided), then wipe the bitmap. The
  // per-window reset cost becomes proportional to the keys the window
  // actually stored, not to configured capacity.
  for_each_occupied([&](std::size_t d, std::size_t idx) { slot(d, idx)[kFlagsWord] = 0; });
  if (!occ_.empty()) std::memset(occ_.data(), 0, occ_.size() * sizeof(std::uint64_t));
  pool_.clear();
  stored_ = 0;
  overflows_ = 0;
}

std::uint64_t RegisterChain::total_bits() const noexcept {
  return static_cast<std::uint64_t>(cfg_.depth) * bits_per_register();
}

std::uint64_t RegisterChain::bits_per_register() const noexcept {
  return static_cast<std::uint64_t>(cfg_.entries_per_register) *
         static_cast<std::uint64_t>(cfg_.key_bits + cfg_.value_bits);
}

}  // namespace sonata::pisa
