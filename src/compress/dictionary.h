#ifndef SCUBA_COMPRESS_DICTIONARY_H_
#define SCUBA_COMPRESS_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bit_util.h"
#include "util/byte_buffer.h"
#include "util/slice.h"
#include "util/status.h"

namespace scuba {
namespace dictionary {

/// Dictionary encoding: the distinct values of a column are stored once in
/// a dictionary blob; the column body becomes a vector of dictionary
/// indexes (then bit-packed by the caller). This is the highest-leverage
/// codec for Scuba-style service logs, whose string columns have tiny
/// cardinality relative to row count.

namespace internal {

constexpr uint64_t kMul0 = 0xa0761d6478bd642full;
constexpr uint64_t kMul1 = 0xe7037ed1a0b428dbull;

// 64x64 -> 128-bit multiply folded to 64 bits: every input bit reaches the
// low bits the table indexes by.
inline uint64_t Mum(uint64_t a, uint64_t b) {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(r) ^ static_cast<uint64_t>(r >> 64);
}

}  // namespace internal

/// Hash of a string's bytes for CodeTable: 8-byte words, then a fixed-size
/// load of the last 1-8 bytes (two overlapping 4-byte loads, or three
/// single bytes below 4), so short values hash without a variable-length
/// copy.
inline uint64_t Hash(std::string_view s) {
  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = internal::Mum(n ^ internal::kMul0, internal::kMul1);
  for (; n > 8; n -= 8, p += 8) {
    h = internal::Mum(h ^ bit_util::LoadLE64(p), internal::kMul1);
  }
  uint64_t tail = 0;
  if (n >= 4) {
    tail = bit_util::LoadLE32(p) |
           static_cast<uint64_t>(bit_util::LoadLE32(p + n - 4)) << 32;
  } else if (n > 0) {
    tail = static_cast<uint64_t>(static_cast<uint8_t>(p[0])) << 16 |
           static_cast<uint64_t>(static_cast<uint8_t>(p[n >> 1])) << 8 |
           static_cast<uint8_t>(p[n - 1]);
  }
  return internal::Mum(h ^ tail ^ internal::kMul0, internal::kMul1);
}

inline uint64_t Hash(int64_t v) {
  return internal::Mum(static_cast<uint64_t>(v) ^ internal::kMul0,
                       internal::kMul1);
}

/// Flat open-addressing table that gives each distinct key a dense code in
/// first-appearance order. Its size is a power of two, at most a quarter
/// full (half full made the encoder up to twice as slow on service-log int
/// columns: more probes, more mispredicted branches), and each slot holds a
/// 32-bit hash tag plus code + 1 (0 = empty); the keys themselves sit
/// once, in code order, in keys(). String keys are views: the values they
/// point at must outlive the table.
template <typename Key>
class CodeTable {
 public:
  CodeTable() : slots_(kInitialSlots), mask_(kInitialSlots - 1) {}

  /// The code of `key`, assigning the next one when `key` is new.
  uint32_t Intern(Key key) {
    const uint32_t tag = static_cast<uint32_t>(Hash(key));
    size_t i = tag & mask_;
    for (;; i = (i + 1) & mask_) {
      const Slot slot = slots_[i];
      if (slot.code == 0) break;
      if (slot.tag == tag && keys_[slot.code - 1] == key) return slot.code - 1;
    }
    const uint32_t code = static_cast<uint32_t>(keys_.size());
    keys_.push_back(key);
    slots_[i] = Slot{tag, code + 1};
    if (4 * keys_.size() > slots_.size()) Grow();
    return code;
  }

  /// Distinct keys in code order.
  const std::vector<Key>& keys() const { return keys_; }
  std::vector<Key> TakeKeys() { return std::move(keys_); }

 private:
  static constexpr size_t kInitialSlots = 32;

  struct Slot {
    uint32_t tag = 0;
    uint32_t code = 0;  // code + 1; 0 marks an empty slot
  };

  void Grow() {
    std::vector<Slot> old(2 * slots_.size(), Slot{});
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.code == 0) continue;
      size_t i = slot.tag & mask_;
      while (slots_[i].code != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_;
  std::vector<Key> keys_;
};

/// Dictionary-encodes a column in one pass: (*codes)[i] is row i's code,
/// in first-appearance order, and *dict holds each distinct value once in
/// code order (string entries view `values`). Returns false, leaving
/// *codes partial and *dict untouched, at the first value that would be
/// the (limit + 1)-th distinct one: the column then takes another chain.
bool Encode(const std::vector<std::string>& values, size_t limit,
            std::vector<uint64_t>* codes, std::vector<std::string_view>* dict);
bool Encode(const std::vector<int64_t>& values, size_t limit,
            std::vector<uint64_t>* codes, std::vector<int64_t>* dict);

/// Serializes a string dictionary as varint(count) then varint(len) + bytes
/// per entry.
void SerializeStringDict(const std::vector<std::string_view>& dict_values,
                         ByteBuffer* out);
Status ParseStringDict(Slice input, std::vector<std::string>* dict_values);

/// Serializes an int64 dictionary as varint(count) then zigzag-varints.
void SerializeIntDict(const std::vector<int64_t>& dict_values,
                      ByteBuffer* out);
Status ParseIntDict(Slice input, std::vector<int64_t>* dict_values);

}  // namespace dictionary
}  // namespace scuba

#endif  // SCUBA_COMPRESS_DICTIONARY_H_
