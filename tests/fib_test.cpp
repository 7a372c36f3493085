// Tests for L-FIB and G-FIB.
#include <gtest/gtest.h>

#include "core/gfib.h"
#include "core/lfib.h"

namespace lazyctrl::core {
namespace {

TEST(LFibTest, LearnLookupForget) {
  LFib fib;
  const MacAddress mac = MacAddress::for_host(1);
  EXPECT_TRUE(fib.learn(mac, HostId{1}, TenantId{2}));
  ASSERT_TRUE(fib.contains(mac));
  const auto entry = fib.lookup(mac);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->host, HostId{1});
  EXPECT_EQ(entry->tenant, TenantId{2});
  EXPECT_TRUE(fib.forget(mac));
  EXPECT_FALSE(fib.contains(mac));
  EXPECT_FALSE(fib.forget(mac));
}

TEST(LFibTest, RelearnUpdatesWithoutDuplicating) {
  LFib fib;
  const MacAddress mac = MacAddress::for_host(1);
  EXPECT_TRUE(fib.learn(mac, HostId{1}, TenantId{0}));
  EXPECT_FALSE(fib.learn(mac, HostId{1}, TenantId{5}));  // refresh
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.lookup(mac)->tenant, TenantId{5});
}

TEST(LFibTest, MacsListsAllEntries) {
  LFib fib;
  for (std::uint32_t i = 0; i < 10; ++i) {
    fib.learn(MacAddress::for_host(i), HostId{i}, TenantId{0});
  }
  EXPECT_EQ(fib.macs().size(), 10u);
}

TEST(LFibTest, LookupMissing) {
  LFib fib;
  EXPECT_FALSE(fib.lookup(MacAddress::for_host(9)).has_value());
}

TEST(LFibTest, SurvivesGrowthAndChurn) {
  // Exercises the open-addressing table across many grow cycles and the
  // backward-shift deletion across long probe chains: every element must
  // stay reachable after arbitrary interleaved insert/erase.
  LFib fib;
  constexpr std::uint32_t kHosts = 5000;
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    EXPECT_TRUE(fib.learn(MacAddress::for_host(i), HostId{i}, TenantId{0}));
  }
  EXPECT_EQ(fib.size(), kHosts);
  // Forget every third entry...
  for (std::uint32_t i = 0; i < kHosts; i += 3) {
    EXPECT_TRUE(fib.forget(MacAddress::for_host(i)));
  }
  // ...then verify the survivors and the holes.
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    EXPECT_EQ(fib.contains(MacAddress::for_host(i)), i % 3 != 0) << i;
  }
  // Re-learn the holes; everything must resolve to the right entry.
  for (std::uint32_t i = 0; i < kHosts; i += 3) {
    EXPECT_TRUE(fib.learn(MacAddress::for_host(i), HostId{i}, TenantId{7}));
  }
  EXPECT_EQ(fib.size(), kHosts);
  EXPECT_EQ(fib.lookup(MacAddress::for_host(3))->tenant, TenantId{7});
  EXPECT_EQ(fib.lookup(MacAddress::for_host(4))->tenant, TenantId{0});
  EXPECT_EQ(fib.macs().size(), kHosts);
}

TEST(LFibTest, AllZeroMacIsAValidKey) {
  LFib fib;
  const MacAddress zero{0};
  EXPECT_TRUE(fib.learn(zero, HostId{42}, TenantId{1}));
  ASSERT_TRUE(fib.contains(zero));
  EXPECT_EQ(fib.lookup(zero)->host, HostId{42});
  EXPECT_TRUE(fib.forget(zero));
  EXPECT_FALSE(fib.contains(zero));
}

/// Test-side convenience over the allocation-free query_into.
std::vector<SwitchId> query_gfib(const GFib& gfib, MacAddress mac) {
  std::vector<SwitchId> hits;
  gfib.query_into(BloomHash::of(mac), hits);
  return hits;
}

/// Every GFib behaviour must hold under BOTH storage layouts (the linear
/// per-peer bank and the bit-sliced transposed bank); the deep candidate
/// equivalence property lives in sliced_bank_test.cpp.
class GFibLayoutTest : public ::testing::TestWithParam<GFibLayout> {
 protected:
  /// A bank over members 1..n, member i holding host i*10.
  [[nodiscard]] GFibBank make(std::uint32_t n,
                              BloomParameters params = BloomParameters{
                                  16384, 8}) const {
    GFibBank bank(params, GetParam());
    bank.clear(n);
    for (std::uint32_t i = 1; i <= n; ++i) {
      bank.append(SwitchId{i}, {MacAddress::for_host(i * 10)});
    }
    return bank;
  }
};

TEST_P(GFibLayoutTest, QueryFindsOwningPeerOnly) {
  const GFibBank bank = make(3);
  GFib gfib(SwitchId{1});
  gfib.attach(&bank);
  const auto hits = query_gfib(gfib, MacAddress::for_host(20));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], SwitchId{2});
}

TEST_P(GFibLayoutTest, ViewDropsItsOwnFilter) {
  const GFibBank bank = make(3);
  GFib own(SwitchId{2});
  own.attach(&bank);
  EXPECT_TRUE(query_gfib(own, MacAddress::for_host(20)).empty());
  EXPECT_EQ(own.peer_count(), 2u);
  // Another member of the same bank still sees member 2's filter.
  GFib peer(SwitchId{1});
  peer.attach(&bank);
  EXPECT_EQ(query_gfib(peer, MacAddress::for_host(20)),
            std::vector<SwitchId>{SwitchId{2}});
}

TEST_P(GFibLayoutTest, UnknownMacQueriesEmpty) {
  const GFibBank bank = make(2);
  GFib gfib(SwitchId{1});
  gfib.attach(&bank);
  EXPECT_TRUE(query_gfib(gfib, MacAddress::for_host(99)).empty());
}

TEST_P(GFibLayoutTest, RebuildReplacesMemberContents) {
  GFibBank bank = make(2);
  GFib gfib(SwitchId{2});
  gfib.attach(&bank);
  ASSERT_FALSE(query_gfib(gfib, MacAddress::for_host(10)).empty());

  bank.clear(2);
  bank.append(SwitchId{1}, {MacAddress::for_host(11)});
  bank.append(SwitchId{2}, {});
  EXPECT_TRUE(query_gfib(gfib, MacAddress::for_host(10)).empty());
  EXPECT_FALSE(query_gfib(gfib, MacAddress::for_host(11)).empty());
}

TEST_P(GFibLayoutTest, DetachedViewHasNoPeers) {
  const GFibBank bank = make(2);
  GFib gfib(SwitchId{1});
  gfib.attach(&bank);
  EXPECT_EQ(gfib.peer_count(), 1u);
  gfib.attach(nullptr);
  EXPECT_EQ(gfib.peer_count(), 0u);
  EXPECT_EQ(gfib.storage_bytes(), 0u);
  EXPECT_TRUE(query_gfib(gfib, MacAddress::for_host(20)).empty());
}

TEST_P(GFibLayoutTest, StorageMatchesLayoutModel) {
  // The §V-D example: a 46-switch group, so 45 peer filters per switch.
  const GFibBank bank = make(46);
  GFib gfib(SwitchId{1});
  gfib.attach(&bank);
  ASSERT_EQ(gfib.peer_count(), 45u);
  if (GetParam() == GFibLayout::kLinear) {
    // 45 peers x 2048 B = 92,160 B.
    EXPECT_EQ(gfib.storage_bytes(), 92160u);
  } else {
    // 16384 slice rows x ceil(45/8) = 6 packed peer bytes.
    EXPECT_EQ(gfib.storage_bytes(), 16384u * 6u);
  }
  // A lone switch stores nothing.
  const GFibBank lone = make(1);
  GFib single(SwitchId{1});
  single.attach(&lone);
  EXPECT_EQ(single.storage_bytes(), 0u);
}

TEST_P(GFibLayoutTest, NoFalseNegativesUnderLoad) {
  std::vector<MacAddress> macs;
  for (std::uint32_t i = 0; i < 200; ++i) {
    macs.push_back(MacAddress::for_host(i));
  }
  GFibBank bank(BloomParameters{16384, 8}, GetParam());
  bank.clear(2);
  bank.append(SwitchId{3}, {});
  bank.append(SwitchId{7}, macs);
  GFib gfib(SwitchId{3});
  gfib.attach(&bank);
  for (const MacAddress mac : macs) {
    EXPECT_FALSE(query_gfib(gfib, mac).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, GFibLayoutTest,
                         ::testing::Values(GFibLayout::kLinear,
                                           GFibLayout::kSliced),
                         [](const auto& info) {
                           return info.param == GFibLayout::kLinear
                                      ? "Linear"
                                      : "Sliced";
                         });

}  // namespace
}  // namespace lazyctrl::core
