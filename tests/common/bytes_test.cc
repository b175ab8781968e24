// The shared little-endian codec and FNV-1a (src/common/bytes.h): the exact
// bytes every writer produces, the reader's mirror of each, and FNV-1a
// against its published test vectors. Every journal, IPC frame, served frame
// and golden digest in the tree is built from these, so these pins are the
// first thing a changed byte trips.
#include "src/common/bytes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

namespace pad {
namespace {

TEST(ByteCodecTest, PutOutputIsPinned) {
  std::string out;
  PutU8(&out, 0xa5);
  EXPECT_EQ(out, std::string("\xa5", 1));
  EXPECT_EQ(ByteReader(out).GetU8(), 0xa5);

  out.clear();
  PutU32(&out, 0xdeadbeefu);
  EXPECT_EQ(out, std::string("\xef\xbe\xad\xde", 4));
  EXPECT_EQ(ByteReader(out).GetU32(), 0xdeadbeefu);

  out.clear();
  PutU64(&out, 0x0123456789abcdefull);
  EXPECT_EQ(out, std::string("\xef\xcd\xab\x89\x67\x45\x23\x01", 8));
  EXPECT_EQ(ByteReader(out).GetU64(), 0x0123456789abcdefull);

  out.clear();
  PutI64(&out, -2);
  EXPECT_EQ(out, std::string("\xfe\xff\xff\xff\xff\xff\xff\xff", 8));
  EXPECT_EQ(ByteReader(out).GetI64(), -2);

  out.clear();
  PutF64(&out, -0.0);
  EXPECT_EQ(out, std::string("\0\0\0\0\0\0\0\x80", 8));
  EXPECT_TRUE(std::signbit(ByteReader(out).GetF64()));

  out.clear();
  PutF64(&out, 1.5);
  EXPECT_EQ(out, std::string("\0\0\0\0\0\0\xf8\x3f", 8));
  EXPECT_EQ(ByteReader(out).GetF64(), 1.5);

  out.clear();
  PutString(&out, "ab");
  EXPECT_EQ(out, std::string("\x02\0\0\0" "ab", 6));
  ByteReader reader(out);
  EXPECT_EQ(reader.GetString(), "ab");
  EXPECT_TRUE(reader.Finished());
}

TEST(ByteCodecTest, ReadPastTheEndIsZeroAndSticky) {
  ByteReader reader(std::string_view("\x07", 1));
  EXPECT_EQ(reader.GetU32(), 0u);
  EXPECT_FALSE(reader.ok());
  // A later read that would fit still fails: the layout is already broken.
  EXPECT_EQ(reader.GetU8(), 0);
  EXPECT_FALSE(reader.Finished());
}

TEST(ByteCodecTest, FnvMatchesPublishedVectors) {
  EXPECT_EQ(FnvFoldBytes(kFnvOffset, ""), 0xcbf29ce484222325ull);
  EXPECT_EQ(FnvFoldBytes(kFnvOffset, "a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(FnvFoldBytes(kFnvOffset, "foobar"), 0x85944171f73967e8ull);
}

TEST(ByteCodecTest, FoldOfAU64IsTheFoldOfItsEncoding) {
  for (const uint64_t value :
       {uint64_t{0}, uint64_t{1}, uint64_t{0xdeadbeefcafef00dull}, ~uint64_t{0}}) {
    std::string encoded;
    PutU64(&encoded, value);
    EXPECT_EQ(FnvFoldU64(kFnvOffset, value), FnvFoldBytes(kFnvOffset, encoded)) << value;
  }
}

}  // namespace
}  // namespace pad
