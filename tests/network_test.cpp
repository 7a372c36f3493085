// Integration tests: the full Network façade in both control modes.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "core/network.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"

namespace lazyctrl::core {
namespace {

topo::Topology test_topology(std::uint64_t seed = 1, std::size_t switches = 16,
                             std::size_t tenants = 8) {
  Rng rng(seed);
  topo::MultiTenantOptions opt;
  opt.switch_count = switches;
  opt.tenant_count = tenants;
  opt.min_vms_per_tenant = 10;
  opt.max_vms_per_tenant = 30;
  return topo::build_multi_tenant(opt, rng);
}

workload::Trace test_trace(const topo::Topology& topo, std::size_t flows,
                           std::uint64_t seed = 2) {
  Rng rng(seed);
  workload::RealLikeOptions opt;
  opt.total_flows = flows;
  opt.horizon = 2 * kHour;
  opt.profile = workload::DiurnalProfile::flat();
  return workload::generate_real_like(topo, opt, rng);
}

Config lazy_config(std::size_t limit = 6) {
  Config c;
  c.mode = ControlMode::kLazyCtrl;
  c.grouping.group_size_limit = limit;
  return c;
}

Config openflow_config() {
  Config c;
  c.mode = ControlMode::kOpenFlow;
  return c;
}

TEST(NetworkTest, BootstrapPopulatesFibsAndClib) {
  auto topo = test_topology();
  Network net(topo, lazy_config());
  net.bootstrap();
  EXPECT_EQ(net.controller().clib_size(), topo.host_count());
  for (const auto& sw : topo.switches()) {
    EXPECT_EQ(net.edge_switch(sw.id).lfib().size(),
              topo.hosts_on_switch(sw.id).size());
  }
}

TEST(NetworkTest, BootstrapGroupingRespectsLimit) {
  auto topo = test_topology();
  const auto trace = test_trace(topo, 4000);
  Network net(topo, lazy_config(5));
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  const Grouping& g = net.grouping();
  ASSERT_GT(g.group_count, 0u);
  std::vector<std::size_t> sizes(g.group_count, 0);
  for (std::uint32_t x : g.switch_to_group) ++sizes[x];
  for (std::size_t s : sizes) EXPECT_LE(s, 5u);
}

TEST(NetworkTest, GfibsSyncedWithinGroups) {
  auto topo = test_topology();
  const auto trace = test_trace(topo, 4000);
  Network net(topo, lazy_config(5));
  net.bootstrap(workload::build_intensity_graph(trace, topo));

  const auto members = net.grouping().members();
  for (const auto& group : members) {
    for (SwitchId m : group) {
      EXPECT_EQ(net.edge_switch(m).gfib().peer_count(), group.size() - 1);
    }
  }
}

TEST(NetworkTest, OpenFlowEveryFirstFlowHitsController) {
  auto topo = test_topology();
  auto trace = test_trace(topo, 500);
  // Make every flow's pair unique enough that rule caching cannot absorb
  // them: expire rules instantly.
  Config cfg = openflow_config();
  cfg.rules.rule_ttl = 1;  // 1 ns: effectively no caching
  Network net(topo, cfg);
  net.bootstrap();
  net.replay(trace);
  const RunMetrics& m = net.metrics();
  EXPECT_EQ(m.flows_seen, 500u);
  EXPECT_EQ(m.controller_packet_ins, 500u);
}

TEST(NetworkTest, OpenFlowRuleCachingAbsorbsRepeats) {
  auto topo = test_topology();
  auto trace = test_trace(topo, 2000);
  Config cfg = openflow_config();
  cfg.rules.rule_ttl = 24 * kHour;  // never expires within the trace
  Network net(topo, cfg);
  net.bootstrap();
  net.replay(trace);
  const RunMetrics& m = net.metrics();
  // Repeated pairs hit the cached exact-match rule.
  EXPECT_LT(m.controller_packet_ins, m.flows_seen);
  EXPECT_GT(m.flows_flow_table_hit, 0u);
  EXPECT_EQ(m.flows_flow_table_hit + m.controller_packet_ins, m.flows_seen);
}

TEST(NetworkTest, LazyCtrlIntraGroupFlowsBypassController) {
  auto topo = test_topology();
  auto trace = test_trace(topo, 3000);
  Config cfg = lazy_config(8);
  cfg.rules.rule_ttl = 1;  // isolate the G-FIB path from rule caching
  Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  net.replay(trace);
  const RunMetrics& m = net.metrics();
  EXPECT_GT(m.flows_intra_group + m.flows_local_delivery, 0u);
  // Intra-group + local flows never touched the controller.
  EXPECT_EQ(m.controller_packet_ins,
            m.flows_inter_group + m.transition_punts);
  // All flows accounted for in exactly one class.
  EXPECT_EQ(m.flows_seen,
            m.flows_intra_group + m.flows_local_delivery +
                m.flows_inter_group + m.flows_flow_table_hit +
                m.transition_punts);
}

TEST(NetworkTest, LazyCtrlReducesControllerWorkload) {
  auto topo = test_topology(3, 20, 10);
  auto trace = test_trace(topo, 20000, 4);
  const auto history = workload::build_intensity_graph(trace, topo);

  Network lazy(topo, lazy_config(7));
  lazy.bootstrap(history);
  lazy.replay(trace);

  Network base(topo, openflow_config());
  base.bootstrap();
  base.replay(trace);

  ASSERT_GT(base.metrics().controller_packet_ins, 0u);
  const double reduction =
      1.0 - static_cast<double>(lazy.metrics().controller_packet_ins) /
                static_cast<double>(base.metrics().controller_packet_ins);
  // The paper reports 61-82%; any strong majority reduction validates the
  // mechanism at this scale.
  EXPECT_GT(reduction, 0.5) << "reduction=" << reduction;
}

TEST(NetworkTest, LazyCtrlLowersAverageLatency) {
  auto topo = test_topology(5, 20, 10);
  auto trace = test_trace(topo, 10000, 6);
  const auto history = workload::build_intensity_graph(trace, topo);

  Network lazy(topo, lazy_config(7));
  lazy.bootstrap(history);
  lazy.replay(trace);

  Network base(topo, openflow_config());
  base.bootstrap();
  base.replay(trace);

  const double lazy_ms = lazy.metrics().first_packet_latency_ms.mean();
  const double base_ms = base.metrics().first_packet_latency_ms.mean();
  EXPECT_LT(lazy_ms, base_ms);
}

TEST(NetworkTest, InterGroupFlowsInstallCoarseRules) {
  // Spread tenants thin (few VMs per switch) and add heavy cross-tenant
  // traffic so that inter-group flows actually repeat.
  Rng trng(21);
  topo::MultiTenantOptions topt;
  topt.switch_count = 16;
  topt.tenant_count = 8;
  topt.min_vms_per_tenant = 10;
  topt.max_vms_per_tenant = 30;
  topt.vms_per_switch = 4;  // tenants span many switches
  auto topo = topo::build_multi_tenant(topt, trng);

  Rng wrng(22);
  workload::RealLikeOptions wopt;
  wopt.total_flows = 5000;
  wopt.horizon = 2 * kHour;
  wopt.profile = workload::DiurnalProfile::flat();
  wopt.cross_tenant_pair_fraction = 0.5;
  auto trace = workload::generate_real_like(topo, wopt, wrng);

  Config cfg = lazy_config(4);
  cfg.rules.rule_ttl = 24 * kHour;
  Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  net.replay(trace);
  const RunMetrics& m = net.metrics();
  ASSERT_GT(m.flows_inter_group, 0u);
  // With long-lived rules, later flows to the same destination hit the
  // coarse rule instead of the controller.
  EXPECT_GT(m.flows_flow_table_hit, 0u);
  EXPECT_EQ(m.controller_packet_ins, m.flows_inter_group);
}

TEST(NetworkTest, MigrationUpdatesLocationState) {
  auto topo = test_topology();
  auto trace = test_trace(topo, 100);
  Network net(topo, lazy_config(5));
  net.bootstrap(workload::build_intensity_graph(trace, topo));

  const HostId host = topo.hosts().front().id;
  const MacAddress mac = topo.hosts().front().mac;
  const SwitchId from = topo.hosts().front().attached_switch;
  const SwitchId to{(from.value() + 1) % static_cast<std::uint32_t>(
                                             topo.switch_count())};

  net.schedule_migration(host, to, 10 * kMinute);
  net.replay(trace);

  EXPECT_FALSE(net.edge_switch(from).lfib().contains(mac));
  EXPECT_TRUE(net.edge_switch(to).lfib().contains(mac));
  EXPECT_EQ(net.controller().clib_lookup(mac)->attached_switch, to);
  EXPECT_EQ(net.topology().host_info(host).attached_switch, to);

  // G-FIB freshness: every group peer of `to` must now find the migrated
  // MAC behind `to` (Bloom filters have no false negatives), even though
  // `to`'s filter was already installed before the move — the delta
  // resync must treat migration-changed members as dirty, not keep the
  // stale filter.
  const auto members = net.grouping().members();
  const auto& to_group =
      members[net.grouping().group_of(to).value()];
  for (SwitchId peer : to_group) {
    if (peer == to) continue;
    std::vector<SwitchId> candidates;
    net.edge_switch(peer).gfib().query_into(BloomHash::of(mac), candidates);
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), to),
              candidates.end())
        << "peer " << peer << " has a stale filter for " << to;
  }
}

TEST(NetworkTest, ColdCacheLatencyOrdering) {
  // §V-E: LazyCtrl intra-group << LazyCtrl inter-group < OpenFlow.
  auto topo = test_topology(7, 12, 6);
  auto trace = test_trace(topo, 3000, 8);
  const auto history = workload::build_intensity_graph(trace, topo);

  Network lazy(topo, lazy_config(6));
  lazy.bootstrap(history);

  // Find two switches in the same group and one in another group.
  const auto members = lazy.grouping().members();
  ASSERT_GT(members.size(), 1u);
  const auto& g0 = members[0];
  ASSERT_GE(g0.size(), 2u);
  const SwitchId in_a = g0[0], in_b = g0[1];
  const SwitchId other = members[1][0];

  const TenantId tenant{0};
  const HostId src = lazy.add_silent_host(tenant, in_a);
  const HostId dst_same = lazy.add_silent_host(tenant, in_b);
  const HostId dst_other = lazy.add_silent_host(tenant, other);

  const SimDuration intra = lazy.cold_cache_first_packet(src, dst_same);
  const HostId src2 = lazy.add_silent_host(tenant, in_a);
  const SimDuration inter = lazy.cold_cache_first_packet(src2, dst_other);

  Network base(topo, openflow_config());
  base.bootstrap();
  const HostId bsrc = base.add_silent_host(tenant, in_a);
  const HostId bdst = base.add_silent_host(tenant, in_b);
  const SimDuration of = base.cold_cache_first_packet(bsrc, bdst);

  EXPECT_LT(intra, inter);
  EXPECT_LT(inter, of);
  // Paper's order-of-magnitude gap between intra-group and OpenFlow.
  EXPECT_GT(static_cast<double>(of) / static_cast<double>(intra), 3.0);
}

TEST(NetworkTest, ColdCacheSecondFlowIsWarm) {
  auto topo = test_topology(9, 12, 6);
  auto trace = test_trace(topo, 2000, 9);
  Network net(topo, lazy_config(6));
  net.bootstrap(workload::build_intensity_graph(trace, topo));

  const auto members = net.grouping().members();
  const auto& g0 = members[0];
  ASSERT_GE(g0.size(), 2u);
  const HostId a = net.add_silent_host(TenantId{0}, g0[0]);
  const HostId b = net.add_silent_host(TenantId{0}, g0[1]);
  const SimDuration cold = net.cold_cache_first_packet(a, b);
  const SimDuration warm = net.cold_cache_first_packet(a, b);
  EXPECT_LE(warm, cold);
}

TEST(NetworkTest, DynamicRegroupingTriggersUnderDrift) {
  // Build a trace whose second half shifts traffic to new inter-group
  // pairs; with dynamic regrouping on, updates must fire. The drift is
  // *capturable*: two tenants (on disjoint switch sets) suddenly start
  // exchanging heavy traffic, so regrouping can co-locate their switches.
  auto topo = test_topology(11, 20, 10);
  Rng rng(12);
  workload::RealLikeOptions opt;
  opt.total_flows = 30000;
  opt.horizon = 2 * kHour;
  opt.profile = workload::DiurnalProfile::flat();
  auto trace = workload::generate_real_like(topo, opt, rng);

  std::vector<HostId> t0_hosts, t1_hosts;
  for (const auto& h : topo.hosts()) {
    if (h.tenant == TenantId{0}) t0_hosts.push_back(h.id);
    if (h.tenant == TenantId{1}) t1_hosts.push_back(h.id);
  }
  ASSERT_FALSE(t0_hosts.empty());
  ASSERT_FALSE(t1_hosts.empty());
  for (std::size_t i = 0; i < 30000; ++i) {
    workload::Flow f;
    f.src = t0_hosts[rng.next_below(t0_hosts.size())];
    f.dst = t1_hosts[rng.next_below(t1_hosts.size())];
    f.start = kHour + static_cast<SimTime>(rng.next_below(kHour));
    f.packets = 4;
    f.avg_packet_bytes = 400;
    trace.flows.push_back(f);
  }
  workload::finalize_trace(trace);

  Config cfg = lazy_config(7);
  cfg.grouping.dynamic_regrouping = true;
  cfg.grouping.min_update_interval = 2 * kMinute;
  Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo, 0, kHour));
  net.replay(trace);
  EXPECT_GT(net.metrics().grouping_update_count, 0u);
}

TEST(NetworkTest, StaticModeNeverRegroups) {
  auto topo = test_topology(13, 20, 10);
  auto trace = test_trace(topo, 20000, 14);
  Config cfg = lazy_config(7);
  cfg.grouping.dynamic_regrouping = false;
  Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  net.replay(trace);
  EXPECT_EQ(net.metrics().grouping_update_count, 0u);
}

TEST(NetworkTest, HostExclusionSendsExcludedFlowsToController) {
  auto topo = test_topology(15, 10, 20);  // many tenants per switch
  auto trace = test_trace(topo, 2000, 16);
  Config cfg = lazy_config(5);
  cfg.grouping.host_exclusion_tenant_threshold = 1;  // aggressive exclusion
  Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  EXPECT_FALSE(net.excluded_hosts().empty());
  net.replay(trace);
  EXPECT_GT(net.metrics().controller_packet_ins, 0u);
}

TEST(NetworkTest, GfibStorageReported) {
  auto topo = test_topology();
  auto trace = test_trace(topo, 2000);
  Network net(topo, lazy_config(5));
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  EXPECT_GT(net.total_gfib_bytes(), 0u);
}

TEST(NetworkTest, DeterministicReplay) {
  auto topo = test_topology(17);
  auto trace = test_trace(topo, 5000, 18);
  const auto history = workload::build_intensity_graph(trace, topo);

  Network a(topo, lazy_config(6));
  a.bootstrap(history);
  a.replay(trace);
  Network b(topo, lazy_config(6));
  b.bootstrap(history);
  b.replay(trace);

  EXPECT_EQ(a.metrics().controller_packet_ins,
            b.metrics().controller_packet_ins);
  EXPECT_EQ(a.metrics().flows_intra_group, b.metrics().flows_intra_group);
  EXPECT_EQ(a.metrics().grouping_update_count,
            b.metrics().grouping_update_count);
}

TEST(NetworkTest, ZeroTimerPeriodFailsInsteadOfHanging) {
  // Each period re-arms a periodic timer; at 0 it would re-fire at the
  // same instant forever. A C++-built Config reaches the timers without
  // the scenario parser's checks, so the simulator must reject it.
  auto topo = test_topology(29);
  auto trace = test_trace(topo, 500, 30);
  const auto history = workload::build_intensity_graph(trace, topo);
  const std::pair<const char*, void (*)(Config&)> cases[] = {
      {"state_report_period", [](Config& c) { c.state_report_period = 0; }},
      {"grouping.stats_window",
       [](Config& c) { c.grouping.stats_window = 0; }},
      {"dgm.maintenance_period",
       [](Config& c) {
         c.dgm.mode = DgmMode::kPeriodic;
         c.dgm.maintenance_period = 0;
       }},
      {"keepalive_period",
       [](Config& c) {
         c.failover_enabled = true;
         c.keepalive_period = 0;
       }},
  };
  for (const auto& [name, zero] : cases) {
    SCOPED_TRACE(name);
    Config cfg = lazy_config(6);
    zero(cfg);
    EXPECT_THROW(
        {
          Network net(topo, cfg);
          net.bootstrap(history);
          net.replay(trace);
        },
        std::invalid_argument);
  }
}

// Fence oracle for the flow cursor: one simulator event handles a run of
// flows that start before the next pending event. A no-op event at every
// flow's start ends each run at a single timestamp, so the fenced replay
// is the one-flow-per-event reference; the plain replay must match it
// bit for bit. Each no-op also checks that the runs before it stopped at
// its timestamp: exactly the flows that start earlier have been handled.
RunMetrics fenced_replay(Network& net, const workload::Trace& trace,
                         bool fence_every_flow) {
  std::size_t misplaced = 0;
  if (fence_every_flow) {
    std::size_t earlier = 0;  // first flow sharing flows[k]'s start
    for (std::size_t k = 0; k < trace.flows.size(); ++k) {
      if (trace.flows[k].start != trace.flows[earlier].start) earlier = k;
      net.simulator().schedule_at(
          trace.flows[k].start, [&net, &misplaced, earlier] {
            if (net.metrics().flows_seen != earlier) ++misplaced;
          });
    }
  }
  net.replay(trace);
  EXPECT_EQ(misplaced, 0u) << "a run of flows crossed a pending event";
  return net.metrics();
}

TEST(NetworkFenceTest, LazyCtrlRunsMatchOneFlowPerEvent) {
  auto topo = test_topology(21);
  auto trace = test_trace(topo, 8000, 22);
  const auto history = workload::build_intensity_graph(trace, topo);

  // Static grouping has no IncUpdate events, so its runs are the longest.
  for (const bool dynamic : {false, true}) {
    SCOPED_TRACE(dynamic ? "dynamic regrouping" : "static grouping");
    std::optional<RunMetrics> metrics[2];
    for (const bool fenced : {false, true}) {
      Config cfg = lazy_config(6);
      cfg.grouping.dynamic_regrouping = dynamic;
      Network net(topo, cfg);
      net.bootstrap(history);
      metrics[fenced].emplace(fenced_replay(net, trace, fenced));
      if (!dynamic) EXPECT_EQ(net.metrics().grouping_update_count, 0u);
    }
    EXPECT_TRUE(metrics[0]->identical_to(*metrics[1]))
        << metrics[0]->diff_report(*metrics[1]);
  }
}

TEST(NetworkFenceTest, DgmAndMigrationRunsMatchOneFlowPerEvent) {
  // The stress case for the fence: DGM maintenance events, stats windows
  // and a mid-replay migration all interleave with runs of flows.
  auto topo = test_topology(25);
  auto trace = test_trace(topo, 8000, 26);
  const auto history = workload::build_intensity_graph(trace, topo);
  const HostId moved = topo.hosts()[0].id;

  std::optional<RunMetrics> metrics[2];
  for (const bool fenced : {false, true}) {
    Config cfg = lazy_config(6);
    cfg.dgm.mode = DgmMode::kPeriodic;
    cfg.dgm.maintenance_period = 10 * kMinute;
    Network net(topo, cfg);
    net.bootstrap(history);
    net.schedule_migration(moved, SwitchId{5}, kHour);
    metrics[fenced].emplace(fenced_replay(net, trace, fenced));
    EXPECT_GT(net.dgm_stats()->rounds, 0u);
  }
  EXPECT_TRUE(metrics[0]->identical_to(*metrics[1]))
      << metrics[0]->diff_report(*metrics[1]);
}

TEST(NetworkFenceTest, OpenFlowRunsMatchOneFlowPerEvent) {
  auto topo = test_topology(23);
  auto trace = test_trace(topo, 8000, 24);

  std::optional<RunMetrics> metrics[2];
  for (const bool fenced : {false, true}) {
    Network net(topo, openflow_config());
    net.bootstrap();
    metrics[fenced].emplace(fenced_replay(net, trace, fenced));
  }
  EXPECT_TRUE(metrics[0]->identical_to(*metrics[1]))
      << metrics[0]->diff_report(*metrics[1]);
}

TEST(NetworkFenceTest, FlowsPastTheHorizonAreNotReplayed) {
  // A run never reaches past the horizon: those flows' own events would
  // never fire, so no run may pick them up either.
  auto topo = test_topology(27);
  auto trace = test_trace(topo, 2000, 28);
  const std::size_t in_horizon = trace.flows.size();
  workload::Flow late = trace.flows.back();
  for (int k = 1; k <= 3; ++k) {
    late.start = trace.horizon + k * kSecond;
    trace.flows.push_back(late);
  }
  // No timer fires between the last in-horizon flow and the late ones.
  Config cfg = lazy_config(6);
  cfg.grouping.stats_window = 10 * kHour;
  cfg.state_report_period = 10 * kHour;
  Network net(topo, cfg);
  net.bootstrap();
  net.replay(trace);
  EXPECT_EQ(net.metrics().flows_seen, in_horizon);
}

}  // namespace
}  // namespace lazyctrl::core
