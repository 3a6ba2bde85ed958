#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/crc32_internal.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "format/key_codec.h"
#include "format/record.h"

namespace auxlsm {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesAndMessages) {
  Status nf = Status::NotFound("missing key");
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_FALSE(nf.ok());
  EXPECT_EQ(nf.ToString(), "NotFound: missing key");

  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
}

TEST(StatusTest, CopyIsCheapAndPreservesMessage) {
  Status a = Status::IOError("disk gone");
  Status b = a;
  EXPECT_TRUE(b.IsIOError());
  EXPECT_EQ(b.message(), "disk gone");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::Corruption("bad"); };
  auto wrapper = [&]() -> Status {
    AUXLSM_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsCorruption());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err(Status::NotFound("nope"));
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  std::string s = std::move(r).value();
  EXPECT_EQ(s.size(), 1000u);
}

TEST(SliceTest, CompareIsMemcmpOrder) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("ab") < Slice("b"));
}

TEST(SliceTest, PrefixOps) {
  Slice s("hello world");
  EXPECT_TRUE(s.starts_with("hello"));
  EXPECT_FALSE(s.starts_with("world"));
  s.remove_prefix(6);
  EXPECT_EQ(s.ToString(), "world");
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFULL);
  EXPECT_EQ(DecodeFixed16(buf.data()), 0xBEEF);
  EXPECT_EQ(DecodeFixed32(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(DecodeFixed64(buf.data() + 6), 0x0123456789ABCDEFULL);
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  const uint64_t values[] = {0,       1,          127,        128,
                             16383,   16384,      (1u << 28), uint64_t{1} << 40,
                             ~0ull};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32Boundaries) {
  for (uint32_t v : {0u, 1u, 0x7fu, 0x80u, 0x3fffu, 0x4000u, ~0u}) {
    std::string buf;
    PutVarint32(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
    Slice in(buf);
    uint32_t got = 0;
    ASSERT_TRUE(GetVarint32(&in, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string buf;
  PutVarint64(&buf, uint64_t{1} << 40);
  Slice in(buf.data(), 2);  // cut mid-varint
  uint64_t got;
  EXPECT_FALSE(GetVarint64(&in, &got));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "hello");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, std::string(300, 'z'));
  Slice in(buf), got;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &got));
  EXPECT_EQ(got.ToString(), "hello");
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &got));
  EXPECT_TRUE(got.empty());
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &got));
  EXPECT_EQ(got.size(), 300u);
}

TEST(Crc32Test, KnownVectorsAndProperties) {
  // CRC-32C of "123456789" is 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_NE(Crc32c("a", 1), Crc32c("b", 1));
  const uint32_t crc = Crc32c("data", 4);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
}

// Crc32c runs on SSE4.2 where the CPU has it; these hold it (and the
// portable table loop, called directly) to the same values.
TEST(Crc32Test, Rfc3720Vectors) {
  using crc32_internal::Crc32cPortable;
  unsigned char zeros[32], ones[32], up[32], down[32];
  for (int i = 0; i < 32; i++) {
    zeros[i] = 0x00;
    ones[i] = 0xff;
    up[i] = static_cast<unsigned char>(i);
    down[i] = static_cast<unsigned char>(31 - i);
  }
  EXPECT_EQ(Crc32c(zeros, 32), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones, 32), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(up, 32), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(down, 32), 0x113FDB5Cu);
  EXPECT_EQ(Crc32cPortable(zeros, 32, 0), 0x8A9136AAu);
  EXPECT_EQ(Crc32cPortable(ones, 32, 0), 0x62A8AB43u);
  EXPECT_EQ(Crc32cPortable(up, 32, 0), 0x46DD794Eu);
  EXPECT_EQ(Crc32cPortable(down, 32, 0), 0x113FDB5Cu);
  EXPECT_EQ(Crc32cPortable("123456789", 9, 0), 0xE3069283u);
}

TEST(Crc32Test, MatchesPortableAtEveryLengthAndAlignment) {
  Random rnd(17);
  std::vector<unsigned char> data(1024 + 8);
  for (auto& b : data) b = static_cast<unsigned char>(rnd.Next());
  for (size_t off = 0; off < 8; off++) {
    for (size_t len = 0; len <= 1024; len++) {
      // An exact-size heap copy, so a load past the end is a sanitizer
      // error rather than a read of the neighbouring bytes.
      const std::vector<unsigned char> buf(data.begin(),
                                           data.begin() + off + len);
      ASSERT_EQ(Crc32c(buf.data() + off, len),
                crc32_internal::Crc32cPortable(buf.data() + off, len, 0))
          << "off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32Test, SeededCallsChain) {
  using crc32_internal::Crc32cPortable;
  Random rnd(29);
  std::vector<unsigned char> data(300);
  for (auto& b : data) b = static_cast<unsigned char>(rnd.Next());
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); split++) {
    const unsigned char* b = data.data() + split;
    const size_t nb = data.size() - split;
    EXPECT_EQ(Crc32c(b, nb, Crc32c(data.data(), split)), whole) << split;
    EXPECT_EQ(Crc32cPortable(b, nb, Crc32cPortable(data.data(), split, 0)),
              whole)
        << split;
    // The two paths share one running value, so they chain into each other.
    EXPECT_EQ(Crc32cPortable(b, nb, Crc32c(data.data(), split)), whole)
        << split;
  }
}

TEST(HashTest, DeterministicAndSpread) {
  EXPECT_EQ(Hash64("key", 3), Hash64("key", 3));
  EXPECT_NE(Hash64("key1", 4), Hash64("key2", 4));
  // Mix64 avalanche: single-bit input change flips many output bits.
  const uint64_t a = Mix64(1), b = Mix64(2);
  int diff = __builtin_popcountll(a ^ b);
  EXPECT_GT(diff, 16);
}

TEST(RandomTest, DeterministicSequences) {
  Random a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformBounds) {
  Random r(5);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(r.Uniform(10), 10u);
    const uint64_t v = r.Range(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, SkewTowardLowRanks) {
  ZipfGenerator z(10000, 0.99, 1);
  uint64_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    if (z.Next() < 100) low++;  // top 1% of ranks
  }
  // With theta=0.99, the top 1% of items should draw far more than 1%.
  EXPECT_GT(low, static_cast<uint64_t>(n) / 20);
}

TEST(ZipfTest, GrowKeepsDomainValid) {
  ZipfGenerator z(10, 0.99, 2);
  z.Grow(1000);
  for (int i = 0; i < 1000; i++) EXPECT_LT(z.Next(), 1000u);
  EXPECT_EQ(z.n(), 1000u);
}

TEST(ClockTest, MonotoneAndAdvance) {
  LogicalClock c;
  const Timestamp a = c.Tick();
  const Timestamp b = c.Tick();
  EXPECT_LT(a, b);
  c.AdvanceTo(100);
  EXPECT_GT(c.Tick(), 100u);
}

TEST(KeyCodecTest, U64BigEndianPreservesOrder) {
  std::set<std::string> encoded;
  std::vector<uint64_t> values = {0, 1, 255, 256, 1u << 16, uint64_t{1} << 40,
                                  ~0ull};
  for (uint64_t v : values) encoded.insert(EncodeU64(v));
  uint64_t prev = 0;
  bool first = true;
  for (const auto& e : encoded) {
    const uint64_t v = DecodeU64(e);
    if (!first) EXPECT_GT(v, prev);
    prev = v;
    first = false;
  }
}

TEST(KeyCodecTest, I64OrderPreserving) {
  EXPECT_LT(EncodeI64(-5), EncodeI64(3));
  EXPECT_LT(EncodeI64(-100), EncodeI64(-5));
  EXPECT_EQ(DecodeI64(EncodeI64(-42)), -42);
}

TEST(KeyCodecTest, ComposeSplitRoundTrip) {
  const std::string sk = EncodeU64(77);
  const std::string pk = EncodeU64(123456);
  const std::string composed = ComposeSecondaryKey(sk, pk);
  Slice got_sk, got_pk;
  SplitSecondaryKey(composed, 8, &got_sk, &got_pk);
  EXPECT_EQ(got_sk.ToString(), sk);
  EXPECT_EQ(got_pk.ToString(), pk);
}

TEST(KeyCodecTest, ComposedOrderSortsBySkThenPk) {
  const std::string a = ComposeSecondaryKey(EncodeU64(1), EncodeU64(999));
  const std::string b = ComposeSecondaryKey(EncodeU64(2), EncodeU64(0));
  const std::string c = ComposeSecondaryKey(EncodeU64(2), EncodeU64(5));
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(RecordTest, SerializeRoundTrip) {
  TweetRecord r;
  r.id = 42;
  r.user_id = 777;
  r.location = "CA";
  r.creation_time = 2018;
  r.message = std::string(500, 'm');
  TweetRecord got;
  ASSERT_TRUE(TweetRecord::Deserialize(r.Serialize(), &got).ok());
  EXPECT_EQ(got, r);
}

TEST(RecordTest, FieldExtractors) {
  TweetRecord r;
  r.id = 1;
  r.user_id = 555;
  r.creation_time = 2020;
  const std::string data = r.Serialize();
  uint64_t t = 0, u = 0;
  ASSERT_TRUE(ExtractCreationTime(data, &t).ok());
  ASSERT_TRUE(ExtractUserId(data, &u).ok());
  EXPECT_EQ(t, 2020u);
  EXPECT_EQ(u, 555u);
}

TEST(RecordTest, DeserializeRejectsGarbage) {
  TweetRecord r;
  EXPECT_TRUE(TweetRecord::Deserialize(Slice("short"), &r).IsCorruption());
  EXPECT_TRUE(
      TweetRecord::Deserialize(Slice(std::string(24, 'x')), &r).IsCorruption());
}

}  // namespace
}  // namespace auxlsm
