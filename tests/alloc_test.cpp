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

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "bloom/bloom_filter.h"
#include "core/config.h"
#include "core/edge_switch.h"
#include "net/packet.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

// Counting pass-throughs. Sized/aligned variants funnel here; the
// counter only ever increments, so a warmed-up region asserting a zero
// delta cannot be fooled by free-list reuse.
void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lazyctrl::core {
namespace {

/// Builds a switch with 24 local hosts and a 45-peer G-FIB under `layout`.
EdgeSwitch make_switch(GFibLayout layout) {
  Config cfg;
  cfg.fib.layout = layout;
  EdgeSwitch sw(SwitchId{0}, IpAddress::for_switch(0),
                MacAddress{0x060000000000ULL}, cfg);
  std::uint32_t host = 0;
  for (int h = 0; h < 24; ++h) {
    sw.lfib().learn(MacAddress::for_host(host), HostId{host}, TenantId{0});
    ++host;
  }
  for (std::uint32_t peer = 1; peer <= 45; ++peer) {
    std::vector<MacAddress> macs;
    for (int h = 0; h < 24; ++h) {
      macs.push_back(MacAddress::for_host(host++));
    }
    sw.gfib().sync_peer(SwitchId{peer}, macs);
  }
  return sw;
}

class DatapathAllocTest : public ::testing::TestWithParam<GFibLayout> {};

TEST_P(DatapathAllocTest, DecideBatchSteadyStateIsAllocationFree) {
  EdgeSwitch sw = make_switch(GetParam());
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

  const std::uint64_t before = g_alloc_count.load();
  for (int iter = 0; iter < 2000; ++iter) run_batch();
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "decide_batch allocated in steady state";
}

TEST_P(DatapathAllocTest, SinglePacketDecideSteadyStateIsAllocationFree) {
  EdgeSwitch sw = make_switch(GetParam());
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

  const std::uint64_t before = g_alloc_count.load();
  for (int iter = 0; iter < 100'000; ++iter) decide_one();
  const std::uint64_t after = g_alloc_count.load();
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
