// Stateful register arrays with hash-based indexing and d-way collision
// mitigation (paper §3.1.3).
//
// True hash tables are not available on PISA switches; Sonata uses a
// sequence of up to d register arrays, each indexed by a different hash
// function. Each slot stores the original key (so collisions are detected
// exactly) plus the running aggregate. A key that collides in all d arrays
// overflows: the packet is sent to the stream processor, which adjusts the
// window's results (handled by the runtime).
//
// Slot layout. Like a hardware register slot of key_bits + value_bits,
// each slot is a fixed run of u64 words in one flat array: the aggregate,
// a flags word (occupied, reported), then one word per key column. The
// stride (2 + key columns) is fixed when the chain is laid out — by the
// pipeline compiler from the key's column kinds, or from the first key a
// Tuple entry point sees. A numeric column's word is its value; a string
// column (DNS names) stores an id interned per chain and per window, and
// entries() maps ids back to the strings. Slot indices come from the exact
// Tuple::hash of the key, so placement, collisions and overflows are those
// of a chain that stores Tuples.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "query/ops.h"
#include "query/tuple.h"
#include "state/hashpipe.h"
#include "util/arena.h"
#include "util/hash.h"

namespace sonata::pisa {

struct RegisterChainConfig {
  std::size_t entries_per_register = 1024;  // n
  int depth = 1;                            // d
  int key_bits = 32;                        // width of the stored key
  int value_bits = 32;                      // width of the aggregate
  // Base seed of the per-register hash family; 0 keeps the HashFamily
  // default. Settable so fault injection can model an adversarially (or
  // just unluckily) seeded hardware hash (DESIGN.md "Fault model").
  std::uint64_t hash_seed = 0;
  // HashPipe mode (sketched queries): the d arrays become a d-stage
  // heavy-hitter pipeline that never overflows to the SP — stage 1 always
  // inserts, evictions carry down, and weight that falls off the last
  // stage is tracked as an error bound instead of being corrected
  // (state/hashpipe.h). Exact mode is the default.
  bool hashpipe = false;
};

class RegisterChain {
 public:
  // `key_kinds` lays the exact chain out (one entry per key column); when
  // empty, the first key given to a Tuple entry point does.
  explicit RegisterChain(const RegisterChainConfig& cfg,
                         std::vector<query::ValueKind> key_kinds = {});

  struct UpdateResult {
    bool stored = false;          // found a slot (new or existing)
    bool newly_inserted = false;  // first packet for this key this window
    bool overflow = false;        // collided in all d registers
    int probes = 0;               // registers examined (collision-chain depth)
    std::uint64_t value = 0;      // aggregate after the update (if stored)
  };

  // One key given column by column (the packed entry points, used by the
  // switch data path): a numeric column c is words[c]; a string column c is
  // *strs[c] (words[c] unread). `strs` may be null when no column is a
  // string. Requires a chain laid out with key kinds.
  struct KeyColumns {
    const std::uint64_t* words = nullptr;
    const query::Value* const* strs = nullptr;
  };

  // A key's hash and register indices, computed ahead of its update:
  // locate() packs the key into `packed` (one word per key column; a string
  // not yet interned packs as an id no stored key holds) and prefetches the
  // first slots, so a caller can locate several keys before touching any.
  // Valid until the chain next changes.
  struct Located {
    std::size_t idx[util::HashFamily::kMaxFamily];
    bool complete = true;  // every string column is interned
  };
  Located locate(KeyColumns key, std::uint64_t* packed) const noexcept;

  // Fold `delta` into the aggregate for `key` using `fn`. The Tuple form
  // lays the chain out from its first key and throws std::invalid_argument
  // for a key of another arity or column kinds.
  UpdateResult update(const query::Tuple& key, std::uint64_t delta, query::ReduceFn fn);
  // `at` and `packed` come from locate(key, packed); an insert interns the
  // key's new strings into both, so they stay usable for mark_reported.
  UpdateResult update(Located& at, std::uint64_t* packed, KeyColumns key,
                      std::uint64_t delta, query::ReduceFn fn);

  // Read the aggregate for a key, if present.
  [[nodiscard]] std::optional<std::uint64_t> read(const query::Tuple& key) const;

  // Set the key's "already reported to the stream processor" flag; returns
  // true when the flag was previously clear (i.e. report now). Used to send
  // exactly one packet per key when the last switch operator is stateful
  // (paper §3.1.3). Returns false if the key is not stored.
  bool mark_reported(const query::Tuple& key);
  bool mark_reported(const Located& at, const std::uint64_t* packed);

  // End-of-window poll: all stored (key, aggregate) pairs, register by
  // register (deterministic order).
  [[nodiscard]] std::vector<std::pair<query::Tuple, std::uint64_t>> entries() const;

  // Clear all slots (the driver resets registers between windows).
  void reset();

  [[nodiscard]] std::uint64_t keys_stored() const noexcept {
    return hp_ ? hp_->stored() : stored_;
  }
  [[nodiscard]] std::uint64_t overflow_count() const noexcept { return overflows_; }

  // HashPipe mode accessors (zero in exact mode): weight and key count
  // evicted past the last stage this window — the measured error bound.
  [[nodiscard]] bool sketch() const noexcept { return hp_ != nullptr; }
  [[nodiscard]] std::uint64_t evicted_weight() const noexcept {
    return hp_ ? hp_->evicted_weight() : 0;
  }
  [[nodiscard]] std::uint64_t evicted_keys() const noexcept {
    return hp_ ? hp_->evicted_keys() : 0;
  }

  // Total register memory this chain occupies: d * n * (key + value bits).
  [[nodiscard]] std::uint64_t total_bits() const noexcept;
  // Memory of one register array (what a single stage must provide).
  [[nodiscard]] std::uint64_t bits_per_register() const noexcept;

  [[nodiscard]] const RegisterChainConfig& config() const noexcept { return cfg_; }

 private:
  // Per-window interning of string key columns: a string's id indexes
  // strs_, found through an open-addressing table over its Tuple hash.
  class StringPool {
   public:
    static constexpr std::uint64_t kAbsent = ~std::uint64_t{0};
    [[nodiscard]] std::uint64_t find(std::uint64_t hash, std::string_view s) const noexcept;
    std::uint64_t intern(std::uint64_t hash, const query::Value& v);
    [[nodiscard]] const query::SharedStr& str(std::uint64_t id) const { return strs_[id]; }
    void clear() noexcept;

   private:
    void rehash(std::size_t cap);
    std::vector<query::SharedStr> strs_;
    std::vector<std::uint64_t> hashes_;
    std::vector<std::uint32_t> table_;  // ids; kEmptyId marks a free cell
  };

  static constexpr std::size_t kValueWord = 0;
  static constexpr std::size_t kFlagsWord = 1;
  static constexpr std::size_t kKeyWord = 2;
  static constexpr std::uint64_t kOccupied = 1;
  static constexpr std::uint64_t kReported = 2;

  void lay_out(std::vector<query::ValueKind> kinds);
  // Whether `key` has the chain's arity and column kinds.
  [[nodiscard]] bool fits(const query::Tuple& key) const noexcept;
  // Writes the key's slot words into `out` (kAbsent for a string not yet
  // interned, which no stored key holds) and returns its Tuple::hash.
  std::uint64_t pack(KeyColumns key, std::uint64_t* out, bool& complete) const noexcept;
  // The slot holding the located key, or null.
  [[nodiscard]] std::uint64_t* find(const Located& at, const std::uint64_t* packed) noexcept;
  [[nodiscard]] const std::uint64_t* find(const Located& at,
                                          const std::uint64_t* packed) const noexcept;
  [[nodiscard]] std::uint64_t* slot(std::size_t d, std::size_t idx) noexcept {
    return slots_.data() + (d * cfg_.entries_per_register + idx) * stride_;
  }
  [[nodiscard]] const std::uint64_t* slot(std::size_t d, std::size_t idx) const noexcept {
    return slots_.data() + (d * cfg_.entries_per_register + idx) * stride_;
  }

  // Bitmap helpers over occ_ (one bit per slot, registers concatenated in
  // depth order). The bitmap makes reset() and entries() O(stored keys)
  // instead of O(capacity): both walk only set bits, in the same
  // register-by-register slot-ascending order a full scan would produce.
  [[nodiscard]] std::size_t occ_words_per_register() const noexcept {
    return (cfg_.entries_per_register + 63) / 64;
  }
  void occ_set(std::size_t d, std::size_t slot) noexcept {
    occ_[d * occ_words_per_register() + slot / 64] |= std::uint64_t{1} << (slot % 64);
  }
  template <typename F>
  void for_each_occupied(F&& f) const;

  RegisterChainConfig cfg_;
  util::HashFamily hashes_;
  std::vector<query::ValueKind> kinds_;    // per key column; empty until laid out
  std::size_t stride_ = 0;                 // words per slot
  util::PageBuffer<std::uint64_t> slots_;  // [depth][entries][stride], exact mode
  util::PageBuffer<std::uint64_t> occ_;    // occupancy bitmap, exact mode
  StringPool pool_;
  std::unique_ptr<state::HashPipeChain> hp_;  // hashpipe mode
  std::uint64_t stored_ = 0;
  std::uint64_t overflows_ = 0;
};

// Apply a reduce function to an existing aggregate.
[[nodiscard]] std::uint64_t apply_reduce(query::ReduceFn fn, std::uint64_t current,
                                         std::uint64_t delta) noexcept;

}  // namespace sonata::pisa
