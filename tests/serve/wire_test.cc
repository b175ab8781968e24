// Wire-codec contract: round trips are bit-exact, malformed bytes are a
// clean pad::Status — never an abort — because frame payloads arrive off the
// network, the one boundary where input is adversarial by default.
#include "src/serve/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"

namespace pad {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(WireRequestTest, RoundTripIsExact) {
  const std::vector<WireRequest> cases = {
      {0, 0, 0.0},
      {1, 1, 1.0},
      {std::numeric_limits<uint64_t>::max(), std::numeric_limits<uint32_t>::max(),
       std::numeric_limits<double>::max()},
      {42, 7, 3.0 * 3600.0},
      {9, 3, -1.5},  // Nonsense semantically, but the codec is shape-only.
      {11, 2, std::numeric_limits<double>::denorm_min()},
  };
  for (const WireRequest& request : cases) {
    const std::string payload = EncodeRequestPayload(request);
    ASSERT_EQ(payload.size(), kRequestPayloadBytes);
    const StatusOr<WireRequest> decoded = DecodeRequestPayload(Bytes(payload));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, request);
  }
}

// The exact bytes on the wire: a change to the codec would otherwise pass
// the round trips above, since both directions would change together.
TEST(WireRequestTest, EncodedBytesArePinned) {
  const WireRequest request{0x0102030405060708ull, 0x0a0b0c0du, -0.0};
  const std::string payload("\x01\x01"
                            "\x08\x07\x06\x05\x04\x03\x02\x01"
                            "\x0d\x0c\x0b\x0a"
                            "\0\0\0\0\0\0\0\x80",
                            kRequestPayloadBytes);
  EXPECT_EQ(EncodeRequestPayload(request), payload);
  std::string frame;
  AppendRequestFrame(request, &frame);
  EXPECT_EQ(frame, std::string("\x16\0\0\0", 4) + payload);
}

TEST(WireRequestTest, RandomRoundTripProperty) {
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    WireRequest request;
    request.client_id = rng.NextU64();
    request.slot_count = static_cast<uint32_t>(rng.NextU64());
    request.deadline_s = rng.Uniform(-1e9, 1e9);
    const std::string payload = EncodeRequestPayload(request);
    const StatusOr<WireRequest> decoded = DecodeRequestPayload(Bytes(payload));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, request);
    // Bit-exactness the other way: re-encoding reproduces the bytes.
    EXPECT_EQ(EncodeRequestPayload(*decoded), payload);
  }
}

TEST(WireResponseTest, RoundTripAllStatusesAndDecisions) {
  for (uint8_t s = 0; s <= static_cast<uint8_t>(ResponseStatus::kUnknownClient); ++s) {
    for (uint8_t d = 0; d <= static_cast<uint8_t>(DecisionKind::kRealtime); ++d) {
      WireResponse response;
      response.status = static_cast<ResponseStatus>(s);
      response.decision = static_cast<DecisionKind>(d);
      for (int ads = 0; ads <= 3; ++ads) {
        response.ads.push_back(WireAd{100 + ads, 0.25 * (ads + 1)});
        const std::string payload = EncodeResponsePayload(response);
        const StatusOr<WireResponse> decoded = DecodeResponsePayload(Bytes(payload));
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        EXPECT_EQ(*decoded, response);
        EXPECT_EQ(EncodeResponsePayload(*decoded), payload);
      }
      response.ads.clear();
    }
  }
}

TEST(WireResponseTest, EncodedBytesArePinned) {
  WireResponse response;
  response.status = ResponseStatus::kOk;
  response.decision = DecisionKind::kBundle;
  response.ads = {WireAd{-2, 1.5}};
  const std::string payload("\x01\x02\x00\x01"
                            "\x01\0\0\0"
                            "\xfe\xff\xff\xff\xff\xff\xff\xff"
                            "\0\0\0\0\0\0\xf8\x3f",
                            kResponseHeaderBytes + kResponseAdBytes);
  EXPECT_EQ(EncodeResponsePayload(response), payload);
  std::string frame;
  AppendResponseFrame(response, &frame);
  EXPECT_EQ(frame, std::string("\x18\0\0\0", 4) + payload);
}

TEST(WireResponseTest, NegativeIdsAndExtremePricesSurvive) {
  WireResponse response;
  response.decision = DecisionKind::kBundle;
  response.ads = {WireAd{-1, std::numeric_limits<double>::infinity()},
                  WireAd{std::numeric_limits<int64_t>::min(), -0.0},
                  WireAd{std::numeric_limits<int64_t>::max(), 1e-300}};
  const std::string payload = EncodeResponsePayload(response);
  const StatusOr<WireResponse> decoded = DecodeResponsePayload(Bytes(payload));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->ads.size(), 3u);
  EXPECT_EQ(decoded->ads[0].campaign_id, -1);
  EXPECT_TRUE(std::isinf(decoded->ads[0].price_usd));
  EXPECT_EQ(decoded->ads[1].campaign_id, std::numeric_limits<int64_t>::min());
  EXPECT_TRUE(std::signbit(decoded->ads[1].price_usd));
  EXPECT_EQ(decoded->ads[2].price_usd, 1e-300);
}

// ---------------------------------------------------------------------------
// Malformed corpus. Every entry must come back as a clean !ok() Status.

TEST(WireMalformedTest, TruncatedRequestEveryPrefix) {
  const std::string payload = EncodeRequestPayload(WireRequest{7, 2, 60.0});
  for (size_t len = 0; len < payload.size(); ++len) {
    const StatusOr<WireRequest> decoded =
        DecodeRequestPayload(Bytes(payload).subspan(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireMalformedTest, OversizedRequestRejected) {
  std::string payload = EncodeRequestPayload(WireRequest{7, 2, 60.0});
  payload.push_back('\0');
  EXPECT_FALSE(DecodeRequestPayload(Bytes(payload)).ok());
}

TEST(WireMalformedTest, BadVersionByte) {
  std::string payload = EncodeRequestPayload(WireRequest{7, 2, 60.0});
  for (int version = 0; version <= 255; ++version) {
    if (version == kWireVersion) {
      continue;
    }
    payload[0] = static_cast<char>(version);
    EXPECT_FALSE(DecodeRequestPayload(Bytes(payload)).ok());
  }
}

TEST(WireMalformedTest, WrongFrameTypeRejectedByBothDecoders) {
  const std::string request = EncodeRequestPayload(WireRequest{7, 2, 60.0});
  const std::string response = EncodeResponsePayload(WireResponse{});
  EXPECT_FALSE(DecodeResponsePayload(Bytes(request)).ok());
  EXPECT_FALSE(DecodeRequestPayload(Bytes(response)).ok());
}

TEST(WireMalformedTest, ResponseTruncatedEveryPrefix) {
  WireResponse response;
  response.decision = DecisionKind::kBundle;
  response.ads = {WireAd{1, 0.5}, WireAd{2, 0.25}};
  const std::string payload = EncodeResponsePayload(response);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeResponsePayload(Bytes(payload).subspan(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireMalformedTest, ResponseAdCountDisagreesWithSize) {
  WireResponse response;
  response.ads = {WireAd{1, 0.5}};
  std::string payload = EncodeResponsePayload(response);
  payload[4] = 2;  // Claim two ads, carry one.
  EXPECT_FALSE(DecodeResponsePayload(Bytes(payload)).ok());
  payload[4] = 0;  // Claim zero ads, carry one.
  EXPECT_FALSE(DecodeResponsePayload(Bytes(payload)).ok());
}

TEST(WireMalformedTest, ResponseEnumRangeChecked) {
  std::string payload = EncodeResponsePayload(WireResponse{});
  payload[2] = static_cast<char>(static_cast<uint8_t>(ResponseStatus::kUnknownClient) + 1);
  EXPECT_FALSE(DecodeResponsePayload(Bytes(payload)).ok());
  payload[2] = 0;
  payload[3] = static_cast<char>(static_cast<uint8_t>(DecisionKind::kRealtime) + 1);
  EXPECT_FALSE(DecodeResponsePayload(Bytes(payload)).ok());
}

// Flip every bit of every byte of a valid request payload: the decoder must
// either reject cleanly or return a value that re-encodes to the flipped
// bytes (flips inside client_id/slot_count/deadline are still valid shapes).
// The property under test is "no crash, no silent misparse".
TEST(WireMalformedTest, EverySingleByteFlipIsHandled) {
  const std::string valid = EncodeRequestPayload(WireRequest{12345, 3, 7200.0});
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = valid;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      const StatusOr<WireRequest> decoded = DecodeRequestPayload(Bytes(flipped));
      if (pos < 2) {
        // Header bytes are pinned: any flip must be rejected.
        EXPECT_FALSE(decoded.ok()) << "pos=" << pos << " bit=" << bit;
      } else if (decoded.ok()) {
        EXPECT_EQ(EncodeRequestPayload(*decoded), flipped)
            << "pos=" << pos << " bit=" << bit;
      }
    }
  }
}

// Same sweep over a full *frame* (length prefix + payload) through the
// FrameReader + decoder pipeline, the path server input actually takes.
TEST(WireMalformedTest, EverySingleByteFlipOfFullFrameNeverCrashesReader) {
  std::string frame;
  AppendRequestFrame(WireRequest{12345, 3, 7200.0}, &frame);
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = frame;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      FrameReader reader;
      ASSERT_TRUE(reader.Append(Bytes(flipped)).ok());
      std::string payload;
      bool have = false;
      const Status next = reader.Next(&payload, &have);
      if (!next.ok()) {
        // Oversized length prefix: the reader poisoned itself, and stays so.
        EXPECT_FALSE(reader.Next(&payload, &have).ok());
        continue;
      }
      if (have) {
        // A complete frame popped; the payload decode must not crash.
        (void)DecodeRequestPayload(Bytes(payload));
      }
      // !have (length flip made the frame longer than the bytes): a real
      // connection would keep waiting; nothing to assert beyond no-crash.
    }
  }
}

// ---------------------------------------------------------------------------
// FrameReader assembly.

TEST(FrameReaderTest, ByteAtATimeDelivery) {
  std::string stream;
  const WireRequest a{1, 2, 3.0};
  const WireRequest b{4, 5, 6.0};
  AppendRequestFrame(a, &stream);
  AppendRequestFrame(b, &stream);

  FrameReader reader;
  std::vector<std::string> payloads;
  std::string payload;
  bool have = false;
  for (char byte : stream) {
    ASSERT_TRUE(reader.Append(Bytes(std::string(1, byte))).ok());
    ASSERT_TRUE(reader.Next(&payload, &have).ok());
    if (have) {
      payloads.push_back(payload);
    }
  }
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(*DecodeRequestPayload(Bytes(payloads[0])), a);
  EXPECT_EQ(*DecodeRequestPayload(Bytes(payloads[1])), b);
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(FrameReaderTest, EverySplitPointOfTwoFrames) {
  std::string stream;
  AppendRequestFrame(WireRequest{10, 1, 1.0}, &stream);
  AppendRequestFrame(WireRequest{11, 2, 2.0}, &stream);
  for (size_t split = 0; split <= stream.size(); ++split) {
    FrameReader reader;
    ASSERT_TRUE(reader.Append(Bytes(stream.substr(0, split))).ok());
    ASSERT_TRUE(reader.Append(Bytes(stream.substr(split))).ok());
    int frames = 0;
    std::string payload;
    bool have = true;
    while (true) {
      ASSERT_TRUE(reader.Next(&payload, &have).ok());
      if (!have) {
        break;
      }
      ++frames;
    }
    EXPECT_EQ(frames, 2) << "split=" << split;
  }
}

TEST(FrameReaderTest, ManyPipelinedFramesOneAppend) {
  std::string stream;
  std::vector<WireRequest> requests;
  for (int i = 0; i < 200; ++i) {
    requests.push_back(WireRequest{static_cast<uint64_t>(i), static_cast<uint32_t>(i % 7),
                                   0.5 * i});
    AppendRequestFrame(requests.back(), &stream);
  }
  FrameReader reader;
  ASSERT_TRUE(reader.Append(Bytes(stream)).ok());
  std::string payload;
  bool have = false;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(reader.Next(&payload, &have).ok());
    ASSERT_TRUE(have) << i;
    EXPECT_EQ(*DecodeRequestPayload(Bytes(payload)), requests[static_cast<size_t>(i)]);
  }
  ASSERT_TRUE(reader.Next(&payload, &have).ok());
  EXPECT_FALSE(have);
}

TEST(FrameReaderTest, OversizedLengthPoisonsPermanently) {
  FrameReader reader(1024);
  std::string prefix;
  PutU32(&prefix, 2048);
  ASSERT_TRUE(reader.Append(Bytes(prefix)).ok());
  std::string payload;
  bool have = true;
  EXPECT_FALSE(reader.Next(&payload, &have).ok());
  EXPECT_FALSE(have);
  // Sticky: more (even valid) bytes cannot revive the stream.
  std::string valid;
  AppendRequestFrame(WireRequest{1, 1, 1.0}, &valid);
  EXPECT_FALSE(reader.Append(Bytes(valid)).ok());
  EXPECT_FALSE(reader.Next(&payload, &have).ok());
}

TEST(FrameReaderTest, MaxPayloadBoundaryIsInclusive) {
  FrameReader reader(8);
  std::string frame;
  PutU32(&frame, 8);
  frame.append(8, 'x');
  ASSERT_TRUE(reader.Append(Bytes(frame)).ok());
  std::string payload;
  bool have = false;
  ASSERT_TRUE(reader.Next(&payload, &have).ok());
  ASSERT_TRUE(have);
  EXPECT_EQ(payload, std::string(8, 'x'));

  FrameReader strict(8);
  std::string over;
  PutU32(&over, 9);
  ASSERT_TRUE(strict.Append(Bytes(over)).ok());
  EXPECT_FALSE(strict.Next(&payload, &have).ok());
}

}  // namespace
}  // namespace pad
