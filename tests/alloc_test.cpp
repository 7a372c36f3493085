// Steady-state allocation audit of the datapath.
//
// The PR series' claim is that after warm-up the per-flow forwarding path
// performs NO heap allocation: the flow-table probe, L-FIB probe, G-FIB
// scan (either layout), candidate staging and the single-packet decide()
// all run out of reused buffers. This binary overrides the global
// operator new/delete with a counting pass-through and asserts the count
// stays flat across thousands of steady-state decisions — so a future
// change that sneaks an allocation back in (a vector copy, a std::function
// capture, a map insert) fails loudly instead of showing up only as a
// perf regression.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "bloom/bloom_filter.h"
#include "core/config.h"
#include "core/edge_switch.h"
#include "net/packet.h"

// Counting pass-throughs of every global operator new/delete, defined in
// alloc_counter.cpp: kept out of this translation unit so their malloc/
// free bodies are never inlined into a new-expression here (g++ would
// then see free() on operator new's pointer and warn).
namespace lazyctrl::test {
std::uint64_t allocation_count() noexcept;
}  // namespace lazyctrl::test

namespace lazyctrl::core {
namespace {

/// A switch with 24 local hosts whose 46-member group bank (itself plus
/// 45 peers, 24 hosts each) is built under `layout`. Constructed in
/// place: the switch's G-FIB views `bank`.
struct GroupedSwitch {
  explicit GroupedSwitch(GFibLayout layout)
      : bank(BloomParameters{Config{}.fib.bloom_bits,
                             Config{}.fib.bloom_hashes},
             layout),
        sw(SwitchId{0}, IpAddress::for_switch(0),
           MacAddress{0x060000000000ULL}, Config{}) {
    bank.clear(46);
    std::uint32_t host = 0;
    for (std::uint32_t member = 0; member <= 45; ++member) {
      std::vector<MacAddress> macs;
      for (int h = 0; h < 24; ++h) {
        if (member == 0) {
          sw.lfib().learn(MacAddress::for_host(host), HostId{host},
                          TenantId{0});
        }
        macs.push_back(MacAddress::for_host(host++));
      }
      bank.append(SwitchId{member}, macs);
    }
    sw.gfib().attach(&bank);
  }
  GFibBank bank;
  EdgeSwitch sw;
};

TEST(AllocCounterTest, CountsEveryAllocation) {
  // The zero-delta checks below are only meaningful while the counting
  // replacements are the ones linked in.
  const std::uint64_t before = test::allocation_count();
  std::vector<int> v(100);
  auto aligned = std::make_unique<std::aligned_storage_t<64, 64>>();
  EXPECT_EQ(test::allocation_count() - before, 2u);
  EXPECT_EQ(v.size(), 100u);
}

class DatapathAllocTest : public ::testing::TestWithParam<GFibLayout> {};

TEST_P(DatapathAllocTest, DecideBatchSteadyStateIsAllocationFree) {
  GroupedSwitch g(GetParam());
  EdgeSwitch& sw = g.sw;
  net::Packet p;
  p.tenant = TenantId{0};
  p.src_mac = MacAddress::for_host(0);
  std::vector<net::Packet> batch(64, p);
  EdgeSwitch::DecisionBatch out;

  // Mixed outcomes: local delivery, intra-group candidates and provable
  // misses -> controller.
  std::uint32_t dst = 0;
  auto run_batch = [&] {
    for (auto& bp : batch) {
      bp.dst_mac = MacAddress::for_host(dst % (48 * 24));
      dst += 7;
    }
    out.clear();
    sw.decide_batch(batch, ControlMode::kLazyCtrl, out);
  };

  for (int warm = 0; warm < 8; ++warm) run_batch();  // size every buffer

  const std::uint64_t before = test::allocation_count();
  for (int iter = 0; iter < 2000; ++iter) run_batch();
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "decide_batch allocated in steady state";
}

TEST_P(DatapathAllocTest, SinglePacketDecideSteadyStateIsAllocationFree) {
  GroupedSwitch g(GetParam());
  EdgeSwitch& sw = g.sw;
  net::Packet p;
  p.tenant = TenantId{0};
  p.src_mac = MacAddress::for_host(0);

  std::uint32_t dst = 0;
  std::size_t sink = 0;
  auto decide_one = [&] {
    p.dst_mac = MacAddress::for_host(dst % (48 * 24));
    dst += 7;
    const EdgeSwitch::Decision d =
        sw.decide(p, 0, ControlMode::kLazyCtrl);
    sink += d.candidates.size();
  };

  for (int warm = 0; warm < 512; ++warm) decide_one();

  const std::uint64_t before = test::allocation_count();
  for (int iter = 0; iter < 100'000; ++iter) decide_one();
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u) << "decide() allocated in steady state";
  EXPECT_GT(sink, 0u);  // the loop really produced candidates
}

INSTANTIATE_TEST_SUITE_P(Layouts, DatapathAllocTest,
                         ::testing::Values(GFibLayout::kLinear,
                                           GFibLayout::kSliced),
                         [](const auto& info) {
                           return info.param == GFibLayout::kLinear
                                      ? "Linear"
                                      : "Sliced";
                         });

}  // namespace
}  // namespace lazyctrl::core
