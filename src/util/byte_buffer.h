#ifndef SCUBA_UTIL_BYTE_BUFFER_H_
#define SCUBA_UTIL_BYTE_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "util/slice.h"

namespace scuba {

/// Growable, 8-byte-aligned byte buffer used to assemble row block columns,
/// disk records, and shm images. Append never throws; growth uses geometric
/// doubling. The backing store is heap memory released on destruction.
class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(size_t initial_capacity) { Reserve(initial_capacity); }

  ByteBuffer(const ByteBuffer&) = delete;
  ByteBuffer& operator=(const ByteBuffer&) = delete;
  ByteBuffer(ByteBuffer&&) noexcept = default;
  ByteBuffer& operator=(ByteBuffer&&) noexcept = default;

  const uint8_t* data() const { return data_.get(); }
  uint8_t* data() { return data_.get(); }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  Slice AsSlice() const { return Slice(data_.get(), size_); }

  void Clear() { size_ = 0; }

  /// Ensures capacity >= n, preserving contents.
  void Reserve(size_t n);

  /// Appends raw bytes. `src` may be null when `n` is 0 (an empty Slice).
  void Append(const void* src, size_t n) {
    if (n == 0) return;  // memcpy from or to a null pointer is undefined
    EnsureRoom(n);
    std::memcpy(data_.get() + size_, src, n);
    size_ += n;
  }
  void Append(Slice s) { Append(s.data(), s.size()); }

  /// Appends `n` zero bytes and returns the offset of the first one.
  /// Used to reserve space for headers that are patched afterwards.
  size_t AppendZeros(size_t n) {
    EnsureRoom(n);
    std::memset(data_.get() + size_, 0, n);
    size_t offset = size_;
    size_ += n;
    return offset;
  }

  /// Room for `n` more bytes past size(): returns where they start, with
  /// unspecified contents. Writers fill a prefix of them, then
  /// CommitAppend(k) appends the first k (k <= n). Any other call in
  /// between invalidates the pointer.
  uint8_t* PrepareAppend(size_t n) {
    EnsureRoom(n);
    return data_.get() + size_;
  }
  void CommitAppend(size_t n) { size_ += n; }

  /// Pads with zeros so that size() becomes a multiple of `alignment`
  /// (which must be a power of two).
  void AlignTo(size_t alignment) {
    size_t rem = size_ & (alignment - 1);
    if (rem != 0) AppendZeros(alignment - rem);
  }

  // Fixed-width little-endian appends. (x86-64 is little-endian; these are
  // written as explicit byte stores so the on-disk/in-shm format is
  // endian-defined.)
  void AppendU8(uint8_t v) { Append(&v, 1); }
  void AppendU16(uint16_t v) {
    uint8_t b[2] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8)};
    Append(b, 2);
  }
  void AppendU32(uint32_t v) {
    uint8_t b[4];
    EncodeU32(b, v);
    Append(b, 4);
  }
  void AppendU64(uint64_t v) {
    uint8_t b[8];
    EncodeU64(b, v);
    Append(b, 8);
  }

  /// Overwrites 4/8 bytes at `offset` (which must be within size()).
  void PatchU32(size_t offset, uint32_t v) { EncodeU32(data_.get() + offset, v); }
  void PatchU64(size_t offset, uint64_t v) { EncodeU64(data_.get() + offset, v); }

  static void EncodeU32(uint8_t* dst, uint32_t v) {
    dst[0] = static_cast<uint8_t>(v);
    dst[1] = static_cast<uint8_t>(v >> 8);
    dst[2] = static_cast<uint8_t>(v >> 16);
    dst[3] = static_cast<uint8_t>(v >> 24);
  }
  static void EncodeU64(uint8_t* dst, uint64_t v) {
    EncodeU32(dst, static_cast<uint32_t>(v));
    EncodeU32(dst + 4, static_cast<uint32_t>(v >> 32));
  }
  static uint32_t DecodeU32(const uint8_t* src) {
    return static_cast<uint32_t>(src[0]) | (static_cast<uint32_t>(src[1]) << 8) |
           (static_cast<uint32_t>(src[2]) << 16) |
           (static_cast<uint32_t>(src[3]) << 24);
  }
  static uint64_t DecodeU64(const uint8_t* src) {
    return static_cast<uint64_t>(DecodeU32(src)) |
           (static_cast<uint64_t>(DecodeU32(src + 4)) << 32);
  }

  /// Releases ownership of the backing array (size() bytes meaningful).
  std::unique_ptr<uint8_t[]> Release() {
    capacity_ = 0;
    size_ = 0;
    return std::move(data_);
  }

 private:
  void EnsureRoom(size_t n) {
    if (size_ + n > capacity_) Grow(size_ + n);
  }
  void Grow(size_t min_capacity);

  std::unique_ptr<uint8_t[]> data_;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace scuba

#endif  // SCUBA_UTIL_BYTE_BUFFER_H_
