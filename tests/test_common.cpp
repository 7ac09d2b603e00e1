// Unit tests: common utilities (units, Result, RNG, hash, strings, JSON).
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"

namespace sdt {
namespace {

TEST(Units, SerializationDelay) {
  // 1 Gbps = 1 bit/ns: 1000 bytes = 8000 ns.
  EXPECT_EQ(Gbps{1.0}.serializationNs(1000), 8000);
  // 10 Gbps: 1KB = 800 ns; 100 Gbps: 80 ns.
  EXPECT_EQ(Gbps{10.0}.serializationNs(1000), 800);
  EXPECT_EQ(Gbps{100.0}.serializationNs(1000), 80);
}

TEST(Units, BytesInWindow) {
  EXPECT_DOUBLE_EQ(Gbps{10.0}.bytesIn(800), 1000.0);
}

TEST(Units, Conversions) {
  EXPECT_EQ(usToNs(1.5), 1500);
  EXPECT_EQ(msToNs(2.0), 2'000'000);
  EXPECT_EQ(secToNs(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(nsToSec(500'000'000), 0.5);
}

TEST(Units, RateArithmetic) {
  EXPECT_DOUBLE_EQ((Gbps{100.0} / 2.0).value, 50.0);
  EXPECT_DOUBLE_EQ((Gbps{25.0} * 4.0).value, 100.0);
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad = makeError("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
  EXPECT_EQ(bad.valueOr(7), 7);
}

TEST(Result, StatusDefaultOk) {
  Status<Error> s;
  EXPECT_TRUE(s.ok());
  Status<Error> f = makeError("bad");
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error().message, "bad");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 8u);
}

TEST(Rng, BetweenCoversSmallRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t x = rng.between(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

// Regression: `hi - lo + 1` in signed arithmetic overflows (UB) for the
// full-width span. The width must be computed in uint64_t, where the span
// wraps to 0 and every raw 64-bit draw is a valid result.
TEST(Rng, BetweenFullInt64RangeIsDefined) {
  Rng rng(7);
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  bool sawNegative = false;
  bool sawPositive = false;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t x = rng.between(lo, hi);
    sawNegative = sawNegative || x < 0;
    sawPositive = sawPositive || x > 0;
  }
  // 64 raw draws land on both halves of the range with near certainty.
  EXPECT_TRUE(sawNegative);
  EXPECT_TRUE(sawPositive);
  // Spans over 2^63 but short of full width also must not overflow.
  const std::int64_t y = rng.between(lo, hi - 1);
  EXPECT_LE(y, hi - 1);
}

TEST(Hash, FnvMatchesPublishedVectors) {
  // Reference values of the FNV-1a specification.
  EXPECT_EQ(hash::fnv1a32(""), 0x811C9DC5u);
  EXPECT_EQ(hash::fnv1a32("a"), 0xE40C292Cu);
  EXPECT_EQ(hash::fnv1a32("foobar"), 0xBF9CF968u);
  EXPECT_EQ(hash::Fnv64().value(), 0xCBF29CE484222325ULL);
  EXPECT_EQ(hash::Fnv64().bytes("a").value(), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(hash::Fnv64().bytes("foobar").value(), 0x85944171F73967E8ULL);
  // mix() folds a word little-endian: the same bytes, the same hash.
  EXPECT_EQ(hash::Fnv64().mix(0x0807060504030201ULL).value(),
            hash::Fnv64().bytes("\x01\x02\x03\x04\x05\x06\x07\x08").value());
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Format) {
  EXPECT_EQ(strFormat("%d-%s", 5, "x"), "5-x");
}

TEST(Strings, HumanReadable) {
  EXPECT_EQ(humanBytes(512), "512 B");
  EXPECT_EQ(humanBytes(2048), "2.00 KiB");
  EXPECT_EQ(humanTime(1500), "1.50us");
  EXPECT_EQ(humanTime(2'500'000), "2.50ms");
}

TEST(Json, ParsePrimitives) {
  auto v = json::parse(R"({"a": 1, "b": true, "c": "x", "d": null, "e": 2.5})");
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(v.value().getInt("a", 0), 1);
  EXPECT_TRUE(v.value().getBool("b", false));
  EXPECT_EQ(v.value().getString("c", ""), "x");
  EXPECT_TRUE(v.value().at("d").isNull());
  EXPECT_DOUBLE_EQ(v.value().getDouble("e", 0), 2.5);
}

TEST(Json, ParseNested) {
  auto v = json::parse(R"({"links": [[0,1],[1,2]], "meta": {"k": 4}})");
  ASSERT_TRUE(v.ok());
  const auto& links = v.value().at("links").asArray();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[1].asArray()[1].asInt(), 2);
  EXPECT_EQ(v.value().at("meta").getInt("k", 0), 4);
}

TEST(Json, Comments) {
  auto v = json::parse("{\n// a comment\n\"a\": 1}");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().getInt("a", 0), 1);
}

TEST(Json, StringEscapes) {
  auto v = json::parse(R"(["a\nb", "A"])");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().asArray()[0].asString(), "a\nb");
  EXPECT_EQ(v.value().asArray()[1].asString(), "A");
}

TEST(Json, Errors) {
  EXPECT_FALSE(json::parse("{").ok());
  EXPECT_FALSE(json::parse("[1,]").ok());
  EXPECT_FALSE(json::parse("tru").ok());
  EXPECT_FALSE(json::parse(R"({"a":1} x)").ok());
  EXPECT_FALSE(json::parse("").ok());
}

TEST(Json, DumpRoundTrip) {
  const char* doc = R"({"a":[1,2,{"b":"x"}],"c":true})";
  auto v = json::parse(doc);
  ASSERT_TRUE(v.ok());
  auto round = json::parse(v.value().dump());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().dump(), v.value().dump());
}

// Regression: asInt() was a plain double -> int64 cast, which is undefined
// behaviour outside the int64 range (UBSan: "-5e+19 is outside the range of
// representable values of type 'long int'"). Config and journal JSON is
// untrusted, so it saturates instead.
TEST(Json, AsIntSaturatesOutOfRange) {
  auto v =
      json::parse(R"([-5e19, 5e19, 1e999, -1e999, 9.2e18, -9223372036854775808, 2.9])");
  ASSERT_TRUE(v.ok()) << v.error().message;
  const json::Array& a = v.value().asArray();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(a[0].asInt(), kMin);
  EXPECT_EQ(a[1].asInt(), kMax);
  EXPECT_EQ(a[2].asInt(), kMax);
  EXPECT_EQ(a[3].asInt(), kMin);
  EXPECT_EQ(a[4].asInt(), 9'200'000'000'000'000'000);
  EXPECT_EQ(a[5].asInt(), kMin);  // -2^63 itself is representable
  EXPECT_EQ(a[6].asInt(), 2);     // truncates toward zero, as before
  auto cfg = json::parse(R"({"switches": -5e19})");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg.value().getInt("switches", 0), kMin);
}

TEST(Json, NegativeAndExponentNumbers) {
  auto v = json::parse(R"([-3, 1e3, -2.5e-1])");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().asArray()[0].asInt(), -3);
  EXPECT_DOUBLE_EQ(v.value().asArray()[1].asDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(v.value().asArray()[2].asDouble(), -0.25);
}

}  // namespace
}  // namespace sdt
