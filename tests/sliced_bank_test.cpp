// Sliced-vs-linear Bloom bank equivalence, and the one-bank-per-group
// G-FIB against the paper's per-switch G-FIB.
//
// The bit-sliced SlicedBloomBank must produce candidate sets that are
// BIT-IDENTICAL to the linear BloomBank — including false positives —
// for the same BloomParameters/BloomHash, with any member's own column
// dropped from the answer. These are randomized property suites over
// seeds and filter geometries, plus an end-to-end replay under either
// layout in which every switch's decide() is checked against a reference
// per-switch bank after each kind of G-FIB rebuild.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "bloom/bloom_bank.h"
#include "bloom/sliced_bloom_bank.h"
#include "common/rng.h"
#include "core/network.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"

namespace lazyctrl {
namespace {

std::vector<SwitchId> query_linear(const BloomBank& bank, MacAddress mac,
                                   SwitchId skip) {
  std::vector<SwitchId> hits;
  bank.query_into(BloomHash::of(mac), hits, skip);
  return hits;
}

std::vector<SwitchId> query_sliced(const bloom::SlicedBloomBank& bank,
                                   MacAddress mac, SwitchId skip) {
  std::vector<SwitchId> hits;
  bank.query_into(BloomHash::of(mac), hits, skip);
  return hits;
}

class BankEquivalenceProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t, std::size_t>> {};

// From-scratch builds of random groups, both layouts from the same host
// lists in ascending id order (the only way Network builds a bank). For
// the column dropped at slot 0, a middle slot, the last slot and both
// sides of the 64-slot chunk boundary, the two layouts must agree on
// member keys, never-inserted keys (the false-positive surface) and
// random keys — and must equal a linear bank built without that member
// at all, the paper's per-switch G-FIB.
TEST_P(BankEquivalenceProperty, FromScratchBuildsAgreeWithOwnColumnDropped) {
  const auto [seed, bits, hashes] = GetParam();
  Rng rng(seed);
  const BloomParameters params{bits, hashes};

  for (const std::size_t members : {1u, 2u, 9u, 46u, 64u, 65u, 130u}) {
    std::vector<SwitchId> ids;
    std::vector<std::vector<MacAddress>> hosts;
    std::uint32_t next_id = 0;
    for (std::size_t i = 0; i < members; ++i) {
      next_id += 1 + static_cast<std::uint32_t>(rng.next_below(3));
      ids.push_back(SwitchId{next_id});
      std::vector<MacAddress> macs;
      const std::size_t n = rng.next_below(30);
      for (std::size_t h = 0; h < n; ++h) {
        macs.push_back(MacAddress::for_host(
            static_cast<std::uint32_t>(rng.next_below(5000))));
      }
      hosts.push_back(std::move(macs));
    }
    BloomBank linear(params);
    bloom::SlicedBloomBank sliced(params);
    sliced.reserve_columns(members);
    for (std::size_t i = 0; i < members; ++i) {
      linear.build_filter(ids[i], hosts[i]);
      sliced.append_filter(ids[i], hosts[i]);
    }
    ASSERT_EQ(sliced.peers(), ids);

    std::set<std::size_t> slots = {0, members / 2, members - 1};
    if (members > 64) slots.insert({63, 64});
    for (const std::size_t own : slots) {
      // The paper's per-switch bank: every member but `own`.
      BloomBank per_switch(params);
      for (std::size_t i = 0; i < members; ++i) {
        if (i != own) per_switch.build_filter(ids[i], hosts[i]);
      }
      const auto expect_same = [&](MacAddress mac) {
        const auto want = query_linear(per_switch, mac, SwitchId::invalid());
        EXPECT_EQ(query_linear(linear, mac, ids[own]), want)
            << members << " members, own slot " << own;
        EXPECT_EQ(query_sliced(sliced, mac, ids[own]), want)
            << members << " members, own slot " << own;
      };
      for (std::size_t i = 0; i < members; ++i) {
        for (const MacAddress mac : hosts[i]) expect_same(mac);
      }
      for (int q = 0; q < 64; ++q) {
        expect_same(MacAddress::for_host(static_cast<std::uint32_t>(
            1'000'000 + rng.next_below(100'000))));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndGeometries, BankEquivalenceProperty,
    ::testing::Values(std::make_tuple(1, 16384, 8),   // paper geometry
                      std::make_tuple(2, 16384, 8),
                      std::make_tuple(3, 1024, 4),    // dense, many FPs
                      std::make_tuple(4, 257, 3),     // odd bits: rounding
                      std::make_tuple(5, 64, 1),
                      std::make_tuple(6, 4096, 12)));

// The row stride is sized once by reserve_columns, grows a byte per 8
// columns appended past it, and an empty bank reports zero like the
// linear layout does.
TEST(SlicedBankStorageTest, StrideFollowsColumnsAndEmptyReportsZero) {
  const BloomParameters params{16384, 8};
  bloom::SlicedBloomBank bank(params);
  EXPECT_EQ(bank.storage_bytes(), 0u);
  const std::vector<MacAddress> hosts = {MacAddress::for_host(1),
                                         MacAddress::for_host(2)};
  for (std::uint32_t p = 0; p < 92; ++p) bank.append_filter(SwitchId{p}, hosts);
  EXPECT_EQ(bank.storage_bytes(), 16384u * 12u);  // ceil(92/8) bytes/row

  bank.clear();
  EXPECT_EQ(bank.storage_bytes(), 0u);
  EXPECT_EQ(bank.filter_count(), 0u);
  bank.reserve_columns(20);
  for (std::uint32_t p = 0; p < 9; ++p) bank.append_filter(SwitchId{p}, hosts);
  EXPECT_EQ(bank.storage_bytes(), 16384u * 3u);  // reserved ceil(20/8)
  EXPECT_FALSE(query_sliced(bank, hosts[0], SwitchId::invalid()).empty());
}

/// The differential oracle of the one-bank-per-group G-FIB: the paper's
/// literal per-switch G-FIB — a BloomBank over the switch's co-members,
/// built from their visible hosts — must give exactly the candidates the
/// switch's decide() gives, for every host MAC and a sample of unknown
/// ones. Probes run on a copy of each switch with an empty flow table, so
/// decide() reaches the G-FIB and the live run is not perturbed.
void expect_decide_matches_per_switch_gfib(
    core::Network& net, const std::set<std::uint32_t>& dormant_tenants,
    const char* stage) {
  const core::Config& cfg = net.config();
  const BloomParameters params{cfg.fib.bloom_bits, cfg.fib.bloom_hashes};
  const topo::Topology& topo = net.topology();
  const auto visible = [&](HostId h) {
    return !net.excluded_hosts().contains(h.value()) &&
           !dormant_tenants.contains(topo.host_info(h).tenant.value());
  };
  std::vector<MacAddress> probes;
  for (const topo::HostInfo& h : topo.hosts()) probes.push_back(h.mac);
  for (std::uint32_t q = 0; q < 64; ++q) {
    probes.push_back(MacAddress::for_host(2'000'000 + q));
  }

  std::vector<SwitchId> want;
  std::size_t intra = 0;
  for (const std::vector<SwitchId>& group : net.grouping().members()) {
    for (const SwitchId s : group) {
      BloomBank reference(params);
      for (const SwitchId peer : group) {
        if (peer == s) continue;
        std::vector<MacAddress> macs;
        for (const HostId h : topo.hosts_on_switch(peer)) {
          if (visible(h)) macs.push_back(topo.host_info(h).mac);
        }
        reference.build_filter(peer, macs);
      }
      core::EdgeSwitch probe = net.edge_switch(s);
      probe.flow_table().clear();
      ASSERT_EQ(probe.gfib().peer_count(), group.size() - 1) << stage;
      for (const MacAddress mac : probes) {
        net::Packet pkt;
        pkt.dst_mac = mac;
        const auto d = probe.decide(pkt, 0, core::ControlMode::kLazyCtrl);
        if (d.kind == core::EdgeSwitch::DecisionKind::kLocalDeliver) continue;
        want.clear();
        reference.query_into(BloomHash::of(mac), want);
        ASSERT_EQ(std::vector<SwitchId>(d.candidates.begin(),
                                        d.candidates.end()),
                  want)
            << stage << ": switch " << s.value() << ", mac " << mac.bits();
        intra += d.candidates.empty() ? 0 : 1;
      }
    }
  }
  EXPECT_GT(intra, 0u) << stage << ": no probe reached a peer";
}

// End-to-end: a DGM-maintained replay under either layout, through every
// kind of G-FIB rebuild — bootstrap, a burst of live migrations, tenant
// arrival and departure, and a forced regroup. After each, every
// switch's decide() must equal its per-switch reference bank; and the
// two layouts' runs must be metric-identical (the "full replay metrics
// unchanged vs linear layout" acceptance of the bit-sliced G-FIB).
TEST(GFibLayoutReplayEquivalence, DgmReplayMetricsIdentical) {
  Rng topo_rng(11);
  topo::MultiTenantOptions topt;
  topt.switch_count = 20;
  topt.tenant_count = 10;
  topt.min_vms_per_tenant = 8;
  topt.max_vms_per_tenant = 16;
  topt.vms_per_switch = 8;
  const auto topo = topo::build_multi_tenant(topt, topo_rng);

  Rng trace_rng(12);
  workload::DriftingLocalityOptions wopt;
  wopt.total_flows = 20'000;
  wopt.community_count = 4;
  wopt.phases = 3;
  wopt.drift_fraction = 0.3;
  wopt.horizon = 90 * kMinute;
  const auto trace =
      workload::generate_drifting_locality(topo, wopt, trace_rng);
  const auto history =
      workload::build_intensity_graph(trace, topo, 0, trace.horizon / 3);

  const TenantId arriving{3};
  const TenantId departing{5};
  auto run = [&](core::GFibLayout layout) {
    core::Config cfg;
    cfg.mode = core::ControlMode::kLazyCtrl;
    cfg.grouping.group_size_limit = 6;
    cfg.grouping.dynamic_regrouping = false;
    cfg.dgm.mode = core::DgmMode::kDriftTriggered;
    cfg.dgm.maintenance_period = 2 * kMinute;
    cfg.dgm.cooldown = 1 * kMinute;
    cfg.fib.layout = layout;
    auto net = std::make_unique<core::Network>(topo, cfg);
    core::Network& n = *net;
    const TenantId dormant[] = {arriving};
    n.set_dormant_tenants(dormant);
    n.bootstrap(history);
    // The dormant tenants at each check: `arriving` until it arrives,
    // `departing` once it left.
    auto dormant_now = std::make_shared<std::set<std::uint32_t>>(
        std::set<std::uint32_t>{arriving.value()});
    expect_decide_matches_per_switch_gfib(n, *dormant_now, "bootstrap");

    // A migration burst: eight hosts at one instant, each to a switch
    // seven ids away (across groups and within them).
    for (std::uint32_t h = 0; h < 8; ++h) {
      const HostId host{h * 9};
      const SwitchId from = topo.host_info(host).attached_switch;
      n.schedule_migration(
          host, SwitchId{static_cast<std::uint32_t>((from.value() + 7) % 20)},
          10 * kMinute);
    }
    n.simulator().schedule_at(11 * kMinute, [&n, dormant_now] {
      expect_decide_matches_per_switch_gfib(n, *dormant_now, "migrations");
    });
    n.simulator().schedule_at(20 * kMinute, [&n, dormant_now, arriving] {
      EXPECT_TRUE(n.activate_tenant(arriving));
      dormant_now->erase(arriving.value());
      expect_decide_matches_per_switch_gfib(n, *dormant_now, "arrival");
    });
    n.simulator().schedule_at(30 * kMinute, [&n, dormant_now, departing] {
      EXPECT_TRUE(n.deactivate_tenant(departing));
      dormant_now->insert(departing.value());
      expect_decide_matches_per_switch_gfib(n, *dormant_now, "departure");
    });
    n.simulator().schedule_at(40 * kMinute, [&n, dormant_now] {
      n.force_regroup();
      expect_decide_matches_per_switch_gfib(n, *dormant_now, "regroup");
    });
    n.replay(trace);
    expect_decide_matches_per_switch_gfib(n, *dormant_now, "end of run");
    return net;
  };

  auto lin = run(core::GFibLayout::kLinear);
  auto sli = run(core::GFibLayout::kSliced);

  const core::RunMetrics& a = lin->metrics();
  const core::RunMetrics& b = sli->metrics();
  EXPECT_TRUE(a.identical_to(b));
  EXPECT_EQ(a.flows_seen, b.flows_seen);
  EXPECT_EQ(a.flows_intra_group, b.flows_intra_group);
  EXPECT_EQ(a.controller_packet_ins, b.controller_packet_ins);
  EXPECT_EQ(a.bf_false_positive_copies, b.bf_false_positive_copies);
  EXPECT_GT(a.dgm_plans_applied, 0u);
  EXPECT_EQ(a.dgm_plans_applied, b.dgm_plans_applied);
  EXPECT_DOUBLE_EQ(a.first_packet_latency_ms.mean(),
                   b.first_packet_latency_ms.mean());
}

}  // namespace
}  // namespace lazyctrl
