// Unit tests for the pipelined channel and the round-robin arbiter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/rng.h"
#include "noc/arbiter.h"
#include "noc/channel.h"

namespace nocbt::noc {
namespace {

TEST(Channel, DeliversAfterLatency) {
  Channel<int> ch(3);
  ch.push(10, 42);
  EXPECT_FALSE(ch.pop_ready(10).has_value());
  EXPECT_FALSE(ch.pop_ready(12).has_value());
  auto v = ch.pop_ready(13);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, PreservesFifoOrder) {
  Channel<int> ch(1);
  ch.push(0, 1);
  ch.push(1, 2);
  ch.push(2, 3);
  EXPECT_EQ(*ch.pop_ready(1), 1);
  EXPECT_EQ(*ch.pop_ready(2), 2);
  EXPECT_EQ(*ch.pop_ready(3), 3);
}

TEST(Channel, PopOnlyReturnsItemsDue) {
  Channel<int> ch(2);
  ch.push(0, 1);
  ch.push(1, 2);
  ASSERT_TRUE(ch.pop_ready(2).has_value());
  // Item 2 arrives at cycle 3; popping at 2 again yields nothing.
  EXPECT_FALSE(ch.pop_ready(2).has_value());
  EXPECT_TRUE(ch.pop_ready(3).has_value());
}

TEST(Channel, ObserverSeesEveryPush) {
  Channel<int> ch(1);
  int observed = 0;
  int last = -1;
  ch.set_observer([&](const int& v) {
    ++observed;
    last = v;
  });
  ch.push(0, 7);
  ch.push(1, 9);
  EXPECT_EQ(observed, 2);
  EXPECT_EQ(last, 9);
}

/// One-word request mask from a list of requesters.
std::vector<std::uint64_t> mask_of(std::initializer_list<int> requesters) {
  std::vector<std::uint64_t> mask(1, 0);
  for (const int i : requesters) set_bit(mask, static_cast<std::size_t>(i));
  return mask;
}

TEST(Arbiter, GrantsNothingWithoutRequests) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate(mask_of({})), -1);
}

TEST(Arbiter, GrantsSingleRequester) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate(mask_of({2})), 2);
  // Requesting again still wins (no other bidders).
  EXPECT_EQ(arb.arbitrate(mask_of({2})), 2);
}

TEST(Arbiter, RotatesAmongContenders) {
  RoundRobinArbiter arb(3);
  const auto all = mask_of({0, 1, 2});
  const int first = arb.arbitrate(all);
  const int second = arb.arbitrate(all);
  const int third = arb.arbitrate(all);
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_NE(third, first);
  // After a full rotation every index was granted exactly once.
}

TEST(Arbiter, IsStarvationFree) {
  RoundRobinArbiter arb(4);
  std::vector<int> grants(4, 0);
  const auto all = mask_of({0, 1, 2, 3});
  for (int i = 0; i < 400; ++i) ++grants[static_cast<std::size_t>(arb.arbitrate(all))];
  for (int g : grants) EXPECT_EQ(g, 100);
}

TEST(Arbiter, SizeMismatchReturnsNoGrant) {
  // A mask must span exactly mask_words(size) words.
  RoundRobinArbiter arb(4);
  const std::vector<std::uint64_t> two_words{0b1111, 0};
  EXPECT_EQ(arb.arbitrate(two_words), -1);
  RoundRobinArbiter wide(70);
  EXPECT_EQ(wide.arbitrate(mask_of({0})), -1);
  // A refused mask leaves the pointer alone.
  EXPECT_EQ(arb.arbitrate(mask_of({0, 1})), 0);
}

/// The round-robin walk the mask arbiter replaced: the first requester at
/// or after the pointer, in `%` order, then the pointer just past it.
class ReferenceArbiter {
 public:
  explicit ReferenceArbiter(std::size_t size) : size_(size) {}

  std::int32_t arbitrate(const std::vector<bool>& requests) {
    for (std::size_t offset = 0; offset < size_; ++offset) {
      const std::size_t idx = (pointer_ + offset) % size_;
      if (requests[idx]) {
        pointer_ = (idx + 1) % size_;
        return static_cast<std::int32_t>(idx);
      }
    }
    return -1;
  }

  std::size_t pointer() const { return pointer_; }

 private:
  std::size_t size_;
  std::size_t pointer_ = 0;
};

TEST(Arbiter, MaskGrantsMatchReferenceWalk) {
  // Sizes 1..70 cross the 64-bit word boundary. From every pointer
  // position, both arbiters see each lone requester, every requester, no
  // requester and random masks of varying density; grants and pointers
  // must agree throughout.
  Rng rng(7);
  for (std::size_t size = 1; size <= 70; ++size) {
    RoundRobinArbiter arb(size);
    ReferenceArbiter ref(size);
    std::vector<std::uint64_t> mask(mask_words(size));
    std::vector<bool> bools(size);
    const auto offer = [&](const char* what, auto requested) {
      std::fill(mask.begin(), mask.end(), 0);
      for (std::size_t i = 0; i < size; ++i) {
        bools[i] = requested(i);
        if (bools[i]) set_bit(mask, i);
      }
      const std::size_t pointer = ref.pointer();
      ASSERT_EQ(arb.arbitrate(mask), ref.arbitrate(bools))
          << what << ", size " << size << ", pointer " << pointer;
    };
    // A lone grant of `pointer - 1` moves both pointers to `pointer`.
    const auto steer = [&](std::size_t pointer) {
      offer("steer", [&](std::size_t i) { return (i + 1) % size == pointer; });
    };
    for (std::size_t pointer = 0; pointer < size; ++pointer) {
      for (std::size_t lone = 0; lone < size; ++lone) {
        steer(pointer);
        offer("lone", [&](std::size_t i) { return i == lone; });
      }
      steer(pointer);
      offer("all", [](std::size_t) { return true; });
      steer(pointer);
      offer("none", [](std::size_t) { return false; });
      for (std::uint64_t density = 1; density <= 4; ++density) {  // 1/8..1/2
        steer(pointer);
        offer("random", [&](std::size_t) { return rng.bits64() % 8 < density; });
      }
    }
  }
}

TEST(Arbiter, IgnoresBitsPastItsSize) {
  RoundRobinArbiter arb(3);
  EXPECT_EQ(arb.arbitrate(mask_of({5, 9})), -1);
  EXPECT_EQ(arb.arbitrate(mask_of({1, 5})), 1);
  EXPECT_EQ(arb.arbitrate(mask_of({1, 5})), 1);  // wraps past bits 2..63
}

}  // namespace
}  // namespace nocbt::noc
