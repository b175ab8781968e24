#include "src/serve/wire.h"

#include <string_view>

#include "src/common/bytes.h"

namespace pad {
namespace {

// A codec reader over `payload` from byte `offset` on (callers have checked
// the payload's size first).
ByteReader ReaderFrom(std::span<const uint8_t> payload, size_t offset) {
  return ByteReader(std::string_view(reinterpret_cast<const char*>(payload.data()) + offset,
                                     payload.size() - offset));
}

Status CheckHeader(std::span<const uint8_t> payload, uint8_t expected_type) {
  if (payload.size() < 2) {
    return Status::InvalidArgument("payload shorter than the two-byte header");
  }
  if (payload[0] != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(static_cast<int>(payload[0])));
  }
  if (payload[1] != expected_type) {
    return Status::InvalidArgument("unexpected frame type " +
                                   std::to_string(static_cast<int>(payload[1])));
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeRequestPayload(const WireRequest& request) {
  std::string out;
  out.reserve(kRequestPayloadBytes);
  PutU8(&out, kWireVersion);
  PutU8(&out, kFrameRequest);
  PutU64(&out, request.client_id);
  PutU32(&out, request.slot_count);
  PutF64(&out, request.deadline_s);
  return out;
}

std::string EncodeResponsePayload(const WireResponse& response) {
  std::string out;
  out.reserve(kResponseHeaderBytes + response.ads.size() * kResponseAdBytes);
  PutU8(&out, kWireVersion);
  PutU8(&out, kFrameResponse);
  PutU8(&out, static_cast<uint8_t>(response.status));
  PutU8(&out, static_cast<uint8_t>(response.decision));
  PutU32(&out, static_cast<uint32_t>(response.ads.size()));
  for (const WireAd& ad : response.ads) {
    PutI64(&out, ad.campaign_id);
    PutF64(&out, ad.price_usd);
  }
  return out;
}

namespace {

void AppendFrame(const std::string& payload, std::string* out) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

}  // namespace

void AppendRequestFrame(const WireRequest& request, std::string* out) {
  AppendFrame(EncodeRequestPayload(request), out);
}

void AppendResponseFrame(const WireResponse& response, std::string* out) {
  AppendFrame(EncodeResponsePayload(response), out);
}

StatusOr<WireRequest> DecodeRequestPayload(std::span<const uint8_t> payload) {
  PAD_RETURN_IF_ERROR(CheckHeader(payload, kFrameRequest));
  if (payload.size() != kRequestPayloadBytes) {
    return Status::InvalidArgument("request payload is " + std::to_string(payload.size()) +
                                   " bytes, expected " + std::to_string(kRequestPayloadBytes));
  }
  ByteReader in = ReaderFrom(payload, 2);
  WireRequest request;
  request.client_id = in.GetU64();
  request.slot_count = in.GetU32();
  request.deadline_s = in.GetF64();
  return request;
}

StatusOr<WireResponse> DecodeResponsePayload(std::span<const uint8_t> payload) {
  PAD_RETURN_IF_ERROR(CheckHeader(payload, kFrameResponse));
  if (payload.size() < kResponseHeaderBytes) {
    return Status::InvalidArgument("response payload truncated at " +
                                   std::to_string(payload.size()) + " bytes");
  }
  const uint8_t status = payload[2];
  if (status > static_cast<uint8_t>(ResponseStatus::kUnknownClient)) {
    return Status::InvalidArgument("unknown response status " + std::to_string(status));
  }
  const uint8_t decision = payload[3];
  if (decision > static_cast<uint8_t>(DecisionKind::kRealtime)) {
    return Status::InvalidArgument("unknown decision kind " + std::to_string(decision));
  }
  ByteReader in = ReaderFrom(payload, 4);
  const uint32_t ad_count = in.GetU32();
  const size_t expected = kResponseHeaderBytes + static_cast<size_t>(ad_count) * kResponseAdBytes;
  if (payload.size() != expected) {
    return Status::InvalidArgument("response declares " + std::to_string(ad_count) +
                                   " ads but carries " + std::to_string(payload.size()) +
                                   " bytes, expected " + std::to_string(expected));
  }
  WireResponse response;
  response.status = static_cast<ResponseStatus>(status);
  response.decision = static_cast<DecisionKind>(decision);
  response.ads.reserve(ad_count);
  for (uint32_t i = 0; i < ad_count; ++i) {
    WireAd ad;
    ad.campaign_id = in.GetI64();
    ad.price_usd = in.GetF64();
    response.ads.push_back(ad);
  }
  return response;
}

}  // namespace pad
