// Umbrella header: the public API of the LazyCtrl library.
//
// Typical use:
//
//   #include "core/lazyctrl.h"
//
//   auto topo  = lazyctrl::topo::build_multi_tenant(topo_opts, rng);
//   auto trace = lazyctrl::workload::generate_real_like(topo, wl_opts, rng);
//   auto hist  = lazyctrl::workload::build_intensity_graph(trace, topo, 0,
//                                                          lazyctrl::kHour);
//   lazyctrl::core::Config cfg;                    // mode = kLazyCtrl
//   lazyctrl::core::Network net(topo, cfg);
//   net.bootstrap(hist);
//   net.replay(trace);
//   const auto& m = net.metrics();                 // Figs. 7-9 material
#pragma once

#include "common/ids.h"
#include "common/log.h"
#include "common/mac.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "core/config.h"
#include "core/controller.h"
#include "core/edge_switch.h"
#include "core/failover.h"
#include "core/gfib.h"
#include "core/lfib.h"
#include "core/metrics.h"
#include "core/negotiation.h"
#include "core/network.h"
#include "core/report.h"
#include "core/sgi.h"
#include "dgm/dgm.h"
#include "graph/bisection.h"
#include "graph/components.h"
#include "graph/min_cut.h"
#include "graph/multilevel_partitioner.h"
#include "topo/builder.h"
#include "topo/topology.h"
#include "workload/analyzer.h"
#include "workload/generators.h"
#include "workload/intensity.h"
#include "workload/stats.h"
#include "workload/trace.h"
#include "workload/trace_io.h"
