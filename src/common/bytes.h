// The one little-endian byte codec and the one FNV-1a in the tree.
//
// Every byte format here is built from these definitions: the serving wire
// protocol (src/serve/wire.h), the coordinator<->worker IPC payloads
// (src/common/ipc.h), the checkpoint journal (src/core/checkpoint.h), and
// every digest (MetricsDigest, ConfigFingerprint, EventLog::Digest). Change a
// byte here and every golden digest, every journal on disk and every served
// frame moves together; tests/common/bytes_test.cc pins the exact output.
//
// Integers travel as their little-endian bytes (an int64 as its two's
// complement); a double travels as the little-endian bytes of its IEEE-754
// bit pattern, so a round trip is bit-exact (-0.0 and NaN payloads
// included). Header-only and inline: the serving hot path encodes and
// decodes through these on every request.
#ifndef ADPAD_SRC_COMMON_BYTES_H_
#define ADPAD_SRC_COMMON_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace pad {

// ---------------------------------------------------------------------------
// Append-only writers.

inline void PutU8(std::string* out, uint8_t value) { out->push_back(static_cast<char>(value)); }

inline void PutU32(std::string* out, uint32_t value) {
  for (int byte = 0; byte < 4; ++byte) {
    out->push_back(static_cast<char>((value >> (8 * byte)) & 0xffu));
  }
}

inline void PutU64(std::string* out, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    out->push_back(static_cast<char>((value >> (8 * byte)) & 0xffull));
  }
}

inline void PutI64(std::string* out, int64_t value) { PutU64(out, static_cast<uint64_t>(value)); }

inline void PutF64(std::string* out, double value) { PutU64(out, std::bit_cast<uint64_t>(value)); }

// [u32 length][bytes].
inline void PutString(std::string* out, std::string_view value) {
  PutU32(out, static_cast<uint32_t>(value.size()));
  out->append(value);
}

// ---------------------------------------------------------------------------
// Bounds-checked reader mirroring the writers. A read past the end returns
// zero (an empty string) and flips ok() for good, so a decoder can read a
// whole layout and check once at the end.

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t GetU8() { return Need(1) ? static_cast<uint8_t>(data_[pos_++]) : 0; }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLe(4)); }
  uint64_t GetU64() { return GetLe(8); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetF64() { return std::bit_cast<double>(GetU64()); }
  std::string GetString() {
    const uint32_t length = GetU32();
    if (!Need(length)) {
      return std::string();
    }
    std::string value(data_.substr(pos_, length));
    pos_ += length;
    return value;
  }

  // True while every read so far was in bounds.
  bool ok() const { return ok_; }
  // True when every read was in bounds and the data is fully consumed: a
  // layout with trailing bytes is as malformed as a short one.
  bool Finished() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Need(size_t bytes) {
    if (!ok_ || data_.size() - pos_ < bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }

  uint64_t GetLe(size_t bytes) {
    if (!Need(bytes)) {
      return 0;
    }
    uint64_t value = 0;
    for (size_t byte = 0; byte < bytes; ++byte) {
      value |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + byte])) << (8 * byte);
    }
    pos_ += bytes;
    return value;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// FNV-1a, 64-bit.

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// Folds the 8 little-endian bytes of `value`: a digest of a field is the
// digest of its PutU64/PutI64/PutF64 encoding.
inline uint64_t FnvFoldU64(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffull;
    hash *= kFnvPrime;
  }
  return hash;
}

inline uint64_t FnvFoldBytes(uint64_t hash, std::string_view bytes) {
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_BYTES_H_
