#include "src/common/frame_reader.h"

#include <string_view>

#include "src/common/bytes.h"

namespace pad {
namespace {

// The u32 length word of the frame starting at `base`.
uint32_t FrameLength(const char* base) {
  return ByteReader(std::string_view(base, kFrameHeaderBytes)).GetU32();
}

}  // namespace

Status FrameReader::Append(std::span<const uint8_t> data) {
  if (!poison_.ok()) {
    return poison_;
  }
  buffer_.append(reinterpret_cast<const char*>(data.data()), data.size());
  return Status::Ok();
}

bool FrameReader::HasFrame() const {
  if (!poison_.ok()) {
    return true;
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) {
    return false;
  }
  const uint32_t length = FrameLength(buffer_.data() + consumed_);
  if (length > max_payload_) {
    return true;  // Next() will poison and report; that counts as progress.
  }
  return available >= kFrameHeaderBytes + length;
}

Status FrameReader::Next(std::string* payload, bool* have) {
  *have = false;
  payload->clear();
  if (!poison_.ok()) {
    return poison_;
  }
  // Reclaim consumed prefix lazily, only when it dominates the buffer, so a
  // burst of pipelined frames does not memmove per frame.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) {
    return Status::Ok();
  }
  const uint32_t length = FrameLength(buffer_.data() + consumed_);
  if (length > max_payload_) {
    poison_ = Status::DataLoss("frame payload of " + std::to_string(length) +
                               " bytes exceeds the " + std::to_string(max_payload_) +
                               "-byte limit");
    return poison_;
  }
  if (available < kFrameHeaderBytes + length) {
    return Status::Ok();
  }
  payload->assign(buffer_, consumed_ + kFrameHeaderBytes, length);
  consumed_ += kFrameHeaderBytes + length;
  *have = true;
  return Status::Ok();
}

}  // namespace pad
