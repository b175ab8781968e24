// The ad-serving wire protocol: length-prefixed binary frames.
//
// Every message on a serving connection is one frame:
//
//   [u32 payload_length (LE)] [payload_length bytes of payload]
//
// and every payload starts with a two-byte header:
//
//   byte 0: protocol version (kWireVersion)
//   byte 1: frame type       (kFrameRequest | kFrameResponse)
//
// Request payload (exactly kRequestPayloadBytes):
//   [u64 client_id] [u32 slot_count] [f64 deadline_s]
//
// Response payload (8 + 16 * ad_count bytes, exactly):
//   [u8 status] [u8 decision] [u32 ad_count] then per ad:
//   [i64 campaign_id] [f64 price_usd]
//
// All integers are little-endian; doubles travel as the little-endian bytes
// of their IEEE-754 bit pattern (the shared codec, src/common/bytes.h), so a
// round trip is bit-exact and the serving-equivalence tests can compare
// encoded responses byte for byte. Connections are cut into frames by the
// shared FrameReader (src/common/frame_reader.h).
//
// Decoding is strict — wrong version, wrong type, or a payload whose length
// disagrees with its declared shape is a pad::Status error, never an abort:
// these bytes come off the network, the one boundary where input is
// adversarial by default (see tests/serve/wire_test.cc for the malformed
// corpus).
#ifndef ADPAD_SRC_SERVE_WIRE_H_
#define ADPAD_SRC_SERVE_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/frame_reader.h"
#include "src/common/status.h"

namespace pad {

inline constexpr uint8_t kWireVersion = 1;
inline constexpr uint8_t kFrameRequest = 1;
inline constexpr uint8_t kFrameResponse = 2;

inline constexpr size_t kRequestPayloadBytes = 2 + 8 + 4 + 8;
inline constexpr size_t kResponseHeaderBytes = 2 + 1 + 1 + 4;
inline constexpr size_t kResponseAdBytes = 8 + 8;

// What the client asks: "client `client_id` expects `slot_count` ad slots
// within `deadline_s` seconds — prefetch or sell in real time?".
struct WireRequest {
  uint64_t client_id = 0;
  uint32_t slot_count = 0;
  double deadline_s = 0.0;

  bool operator==(const WireRequest&) const = default;
};

enum class ResponseStatus : uint8_t {
  kOk = 0,
  kOverloaded = 1,     // Admission control shed this connection (503 analog).
  kBadRequest = 2,     // Decodable frame, nonsensical request fields.
  kUnknownClient = 3,  // client_id outside the served population.
};

enum class DecisionKind : uint8_t {
  kNone = 0,      // No paying campaign: serve a house ad.
  kBundle = 1,    // Prefetch bundle sold against predicted inventory.
  kRealtime = 2,  // Single impression sold at display time (baseline path).
};

struct WireAd {
  int64_t campaign_id = 0;
  double price_usd = 0.0;

  bool operator==(const WireAd&) const = default;
};

struct WireResponse {
  ResponseStatus status = ResponseStatus::kOk;
  DecisionKind decision = DecisionKind::kNone;
  std::vector<WireAd> ads;

  bool operator==(const WireResponse&) const = default;
};

// Payload encoders (no length prefix; the equivalence tests compare these).
std::string EncodeRequestPayload(const WireRequest& request);
std::string EncodeResponsePayload(const WireResponse& response);

// Full-frame encoders: append `[length][payload]` to `out`.
void AppendRequestFrame(const WireRequest& request, std::string* out);
void AppendResponseFrame(const WireResponse& response, std::string* out);

// Strict payload decoders. Errors are kInvalidArgument naming the defect.
StatusOr<WireRequest> DecodeRequestPayload(std::span<const uint8_t> payload);
StatusOr<WireResponse> DecodeResponsePayload(std::span<const uint8_t> payload);

}  // namespace pad

#endif  // ADPAD_SRC_SERVE_WIRE_H_
