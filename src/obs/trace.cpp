#include "obs/trace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>

namespace lazyctrl::obs {

namespace {

constexpr std::size_t kNumTypes =
    static_cast<std::size_t>(TraceEventType::kNumTypes);

struct TypeInfo {
  const char* name;
  const char* category;
  const char* arg_a;  // nullptr => omit
  const char* arg_b;
};

constexpr TypeInfo kTypeInfo[kNumTypes] = {
    {"flow_punt", "flow", "reason", "switch"},
    {"controller_outage_begin", "controller", "until_ms", "queued"},
    {"controller_outage_drain", "controller", "queued", nullptr},
    {"dgm_round", "dgm", "plan_applied", "inter_fraction_pct"},
    {"dgm_plan_apply", "dgm", "moves", "flow_mods"},
    {"scenario_event", "scenario", "kind", "applied"},
    {"gfib_rebuild", "gfib", "peers", "bytes"},
    {"replay_span", "runtime", "flows", "span"},
    {"bootstrap", "phase", "switches", "hosts"},
};

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void append_num(std::string& out, double v) {
  char buf[48];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_meta(std::string& out, int pid, int tid, const char* which,
                 const char* name) {
  out += "    {\"ph\": \"M\", \"pid\": ";
  append_num(out, pid);
  out += ", \"tid\": ";
  append_num(out, tid);
  out += ", \"name\": \"";
  out += which;
  out += "\", \"args\": {\"name\": \"";
  out += name;
  out += "\"}},\n";
}

}  // namespace

const char* trace_event_name(TraceEventType t) noexcept {
  const auto i = static_cast<std::size_t>(t);
  return i < kNumTypes ? kTypeInfo[i].name : "?";
}

const char* trace_event_category(TraceEventType t) noexcept {
  const auto i = static_cast<std::size_t>(t);
  return i < kNumTypes ? kTypeInfo[i].category : "?";
}

void TraceRecorder::enable(std::size_t capacity) {
  capacity_ = std::max<std::size_t>(capacity, 16);
  ring_.assign(capacity_, TraceEvent{});
  start_ = count_ = 0;
  dropped_ = 0;
  for (auto& p : phases_) p = PhaseTotal{};
  epoch_ns_ = steady_now_ns();
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void TraceRecorder::disable() {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void TraceRecorder::clear() {
  start_ = count_ = 0;
  dropped_ = 0;
  for (auto& p : phases_) p = PhaseTotal{};
  epoch_ns_ = steady_now_ns();
}

std::int64_t TraceRecorder::wall_now_ns() const {
  return steady_now_ns() - epoch_ns_;
}

void TraceRecorder::push(const TraceEvent& ev) {
  if (capacity_ == 0) return;  // enabled() flag set without enable(): drop
  if (count_ < capacity_) {
    ring_[(start_ + count_) % capacity_] = ev;
    ++count_;
  } else {
    ring_[start_] = ev;
    start_ = (start_ + 1) % capacity_;
    ++dropped_;
  }
}

void TraceRecorder::instant(TraceEventType t, SimTime sim_ts, std::uint64_t a,
                            std::uint64_t b) {
  TraceEvent ev;
  ev.sim_ts = sim_ts;
  ev.wall_ns = wall_now_ns();
  ev.wall_dur_ns = -1;
  ev.arg_a = a;
  ev.arg_b = b;
  ev.type = t;
  push(ev);
}

void TraceRecorder::span(TraceEventType t, SimTime sim_ts,
                         std::int64_t wall_begin_ns, std::uint64_t a,
                         std::uint64_t b) {
  TraceEvent ev;
  ev.sim_ts = sim_ts;
  ev.wall_ns = wall_begin_ns;
  ev.wall_dur_ns = std::max<std::int64_t>(wall_now_ns() - wall_begin_ns, 0);
  ev.arg_a = a;
  ev.arg_b = b;
  ev.type = t;
  push(ev);
  PhaseTotal& p = phases_[static_cast<std::size_t>(t)];
  ++p.calls;
  p.wall_ns += ev.wall_dur_ns;
}

const TraceEvent& TraceRecorder::event(std::size_t i) const {
  assert(i < count_);
  return ring_[(start_ + i) % capacity_];
}

TraceRecorder::PhaseTotal TraceRecorder::phase_total(TraceEventType t) const {
  const auto i = static_cast<std::size_t>(t);
  return i < kNumTypes ? phases_[i] : PhaseTotal{};
}

std::string TraceRecorder::export_chrome_json(
    const std::string& extra_events) const {
  // Copy out, oldest first, then sort by displayed timestamp so every
  // (pid, tid) track is monotone in file order — nested ScopedTimer
  // spans complete (and are pushed) inner-before-outer, which would
  // otherwise put the outer span's earlier begin after the inner's.
  std::vector<TraceEvent> events;
  events.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) events.push_back(event(i));
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     const std::int64_t tx =
                         x.wall_dur_ns < 0 ? x.sim_ts : x.wall_ns;
                     const std::int64_t ty =
                         y.wall_dur_ns < 0 ? y.sim_ts : y.wall_ns;
                     const int px = x.wall_dur_ns < 0 ? 1 : 2;
                     const int py = y.wall_dur_ns < 0 ? 1 : 2;
                     return px != py ? px < py : tx < ty;
                   });

  std::string out;
  out.reserve(events.size() * 160 + 1024);
  out += "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  append_meta(out, 1, 0, "process_name", "sim-time");
  append_meta(out, 2, 0, "process_name", "wall-clock");
  append_meta(out, 2, 0, "thread_name", "simulator");
  // One sim-time track per category keeps instants from piling onto a
  // single row in the viewer.
  bool cat_used[kNumTypes] = {};
  for (const TraceEvent& ev : events) {
    if (ev.wall_dur_ns < 0) cat_used[static_cast<std::size_t>(ev.type)] = true;
  }
  for (std::size_t i = 0; i < kNumTypes; ++i) {
    if (cat_used[i]) {
      append_meta(out, 1, static_cast<int>(i) + 1, "thread_name",
                  kTypeInfo[i].name);
    }
  }

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    const TypeInfo& info = kTypeInfo[static_cast<std::size_t>(ev.type)];
    const bool is_instant = ev.wall_dur_ns < 0;
    out += "    {\"name\": \"";
    out += info.name;
    out += "\", \"cat\": \"";
    out += info.category;
    out += "\", \"ph\": \"";
    out += is_instant ? "i" : "X";
    out += "\", \"ts\": ";
    // trace_event timestamps are microseconds.
    append_num(out, static_cast<double>(is_instant ? ev.sim_ts : ev.wall_ns) /
                        1000.0);
    if (!is_instant) {
      out += ", \"dur\": ";
      append_num(out, static_cast<double>(ev.wall_dur_ns) / 1000.0);
    } else {
      out += ", \"s\": \"t\"";
    }
    out += ", \"pid\": ";
    out += is_instant ? '1' : '2';
    out += ", \"tid\": ";
    append_num(out, is_instant
                        ? static_cast<double>(
                              static_cast<std::size_t>(ev.type) + 1)
                        : 0.0);
    out += ", \"args\": {";
    bool first_arg = true;
    if (info.arg_a != nullptr) {
      out += '"';
      out += info.arg_a;
      out += "\": ";
      append_u64(out, ev.arg_a);
      first_arg = false;
    }
    if (info.arg_b != nullptr) {
      if (!first_arg) out += ", ";
      out += '"';
      out += info.arg_b;
      out += "\": ";
      append_u64(out, ev.arg_b);
      first_arg = false;
    }
    if (!is_instant) {
      if (!first_arg) out += ", ";
      out += "\"sim_ts_ms\": ";
      append_num(out, static_cast<double>(ev.sim_ts) / 1e6);
    }
    out += "}},\n";
  }
  out += extra_events;
  // Every entry (metadata included) ends ",\n"; strip the last comma.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "  ]\n}\n";
  return out;
}

bool TraceRecorder::write_chrome_json(const std::string& path,
                                      const std::string& extra_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = export_chrome_json(extra_events);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

TraceRecorder& recorder() {
  static TraceRecorder r;
  return r;
}

}  // namespace lazyctrl::obs
