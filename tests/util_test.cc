#include <set>

#include "gtest/gtest.h"
#include "util/computed_cache.h"
#include "util/hashing.h"
#include "util/random.h"
#include "util/status.h"

namespace ctsdd {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

Status FailsThrough() {
  CTSDD_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kInternal);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next64() != b.Next64()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.NextInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all of 3, 4, 5 appear
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(11);
  const auto perm = rng.Permutation(20);
  std::set<int> values(perm.begin(), perm.end());
  EXPECT_EQ(values.size(), 20u);
  EXPECT_EQ(*values.begin(), 0);
  EXPECT_EQ(*values.rbegin(), 19);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ComputedCacheTest, GrowthStaysWithinBound) {
  ComputedCache<int, int> cache(/*max_slots=*/1 << 10);
  // The first Store allocates the 256-slot floor.
  cache.Store(HashMix64(0), 0, 0);
  EXPECT_EQ(cache.num_slots(), static_cast<size_t>(1 << 8));
  // Conflicting stores (keys hashed densely) pile up live-entry
  // evictions, which double the array, but never past the bound.
  for (int i = 1; i < 16384; ++i) cache.Store(HashMix64(i), i, i);
  EXPECT_GT(cache.num_slots(), static_cast<size_t>(1 << 8));
  EXPECT_LE(cache.num_slots(), static_cast<size_t>(1 << 10));
  int out;
  ASSERT_TRUE(cache.Lookup(HashMix64(16383), 16383, &out));
  EXPECT_EQ(out, 16383);
}

TEST(RngTest, BoolProbabilityRoughlyRespected) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.25);
  EXPECT_GT(hits, 2000);
  EXPECT_LT(hits, 3000);
}

}  // namespace
}  // namespace ctsdd
