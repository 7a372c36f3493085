// Tests for the checkpoint/restore codec (src/ckpt): the bit-identity
// contract — restore(checkpoint(s)) reproduces the snapshot byte for
// byte and a resumed replay finishes with RunMetrics identical to the
// uninterrupted run's, across both G-FIB layouts — the
// fence-purity guarantee over every committed example scenario, and the
// robustness contract: corrupt, truncated or version-skewed snapshots
// fail with an offset-diagnosed error, never a crash or a silent
// partial restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "core/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

namespace lazyctrl::ckpt {
namespace {

using scenario::ParseResult;
using scenario::ScenarioRunner;

// A scenario that leaves a rich pending queue at the checkpoint fence:
// failover wheels ticking, a DGM timer armed, a controller outage just
// past, future script events still scheduled and the flow cursor mid
// trace. The checkpoint at 8m sits between a failure and its recovery.
std::string spec_text(const std::string& layout) {
  std::ostringstream out;
  out << R"([scenario]
name = ckpt_exercise
description = checkpoint mid-incident
seed = 7

[topology]
switches = 12
tenants = 6
min_vms_per_tenant = 2
max_vms_per_tenant = 5
vms_per_switch = 6

[workload]
kind = synthetic
flows = 1500
horizon = 20m
profile = flat

[config]
mode = lazyctrl
group_size_limit = 4
stats_window = 30s
dgm.mode = periodic
dgm.maintenance_period = 4m
failover = true
controller.servers = 1
)";
  out << "fib.layout = " << layout << "\n";
  out << R"(
[events]
at=4m traffic_surge factor=2 duration=4m
at=5m migration_burst hosts=3 spread=20s
at=6m controller_outage duration=30s
at=7m fail_switch sw=2
at=8m checkpoint_at
at=9m recover_switch sw=2
at=12m force_regroup
)";
  return out.str();
}

scenario::ScenarioSpec parse_or_die(const std::string& text) {
  const ParseResult r = scenario::parse_scenario(text);
  EXPECT_TRUE(r.ok()) << r.error_text();
  return r.spec;
}

/// Runs the exercise scenario to completion and returns the runner (for
/// its final metrics and the mid-run snapshot).
std::unique_ptr<ScenarioRunner> run_exercise(const std::string& layout) {
  auto runner =
      std::make_unique<ScenarioRunner>(parse_or_die(spec_text(layout)));
  std::string err;
  EXPECT_TRUE(runner->run(&err)) << err;
  EXPECT_EQ(runner->snapshots().size(), 1u);
  EXPECT_TRUE(runner->snapshots()[0].error.empty())
      << runner->snapshots()[0].error;
  EXPECT_FALSE(runner->snapshots()[0].bytes.empty());
  return runner;
}

// ------------------------------------------------- round-trip identity

class CkptMatrixTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Layouts, CkptMatrixTest,
                         ::testing::Values("linear", "sliced"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(CkptMatrixTest, RestoreThenSaveReproducesSnapshotBytes) {
  const auto runner = run_exercise(GetParam());
  const std::vector<std::uint8_t>& bytes = runner->snapshots()[0].bytes;

  std::string err;
  const auto restored = ScenarioRunner::restore(bytes, &err);
  ASSERT_NE(restored, nullptr) << err;

  std::vector<std::uint8_t> again;
  ASSERT_TRUE(restored->save_now(&again, &err)) << err;
  EXPECT_EQ(bytes, again) << "restore(checkpoint(s)) is not byte-identical";
}

TEST_P(CkptMatrixTest, ResumedRunIsBitIdenticalToUninterrupted) {
  const auto full = run_exercise(GetParam());

  std::string err;
  auto resumed = ScenarioRunner::restore(full->snapshots()[0].bytes, &err);
  ASSERT_NE(resumed, nullptr) << err;
  ASSERT_TRUE(resumed->finish(&err)) << err;

  EXPECT_TRUE(resumed->metrics().identical_to(full->metrics()))
      << resumed->metrics().diff_report(full->metrics());
  EXPECT_EQ(resumed->event_counts().applied, full->event_counts().applied);
  EXPECT_EQ(resumed->event_counts().skipped, full->event_counts().skipped);
}

TEST(CkptTest, SnapshotAtRecordsTheFenceTime) {
  const auto runner = run_exercise("linear");
  EXPECT_EQ(runner->snapshots()[0].at, 8 * kMinute);
}

TEST(CkptTest, ExtraCheckpointsResumeBitIdentically) {
  // --checkpoint-every style fences (no checkpoint_at in the spec text)
  // must also resume bit-identically, including one landing on a script
  // event's own fence time (the script event commits first).
  auto spec = parse_or_die(spec_text("linear"));
  spec.events.erase(spec.events.begin() + 4);  // drop the checkpoint_at
  auto full = std::make_unique<ScenarioRunner>(spec);
  full->add_checkpoint_times({6 * kMinute, 10 * kMinute});
  std::string err;
  ASSERT_TRUE(full->run(&err)) << err;
  ASSERT_EQ(full->snapshots().size(), 2u);
  for (const auto& snap : full->snapshots()) {
    ASSERT_TRUE(snap.error.empty()) << snap.error;
    auto resumed = ScenarioRunner::restore(snap.bytes, &err);
    ASSERT_NE(resumed, nullptr) << err;
    ASSERT_TRUE(resumed->finish(&err)) << err;
    EXPECT_TRUE(resumed->metrics().identical_to(full->metrics()))
        << "resumed from t=" << snap.at << ":\n"
        << resumed->metrics().diff_report(full->metrics());
  }
}

TEST_P(CkptMatrixTest, ExtraCheckpointFencesAreMetricsNeutral) {
  // lazyctrl_run --checkpoint-every relies on this: a run with extra
  // snapshot fences must finish with RunMetrics bit-identical to the
  // plain run (the fences shift simulator event ids and flow-run bounds,
  // neither of which may affect any recorded metric).
  const auto spec = parse_or_die(spec_text(GetParam()));
  ScenarioRunner plain(spec);
  std::string err;
  ASSERT_TRUE(plain.run(&err)) << err;

  ScenarioRunner fenced(spec);
  fenced.add_checkpoint_times(
      {3 * kMinute, 10 * kMinute + 30 * kSecond, 15 * kMinute});
  ASSERT_TRUE(fenced.run(&err)) << err;
  EXPECT_TRUE(fenced.metrics().identical_to(plain.metrics()))
      << fenced.metrics().diff_report(plain.metrics());
}

TEST(CkptTest, RestoredRunnerContinuesSnapshotNumbering) {
  // A resumed run must take the snapshots the uninterrupted run would
  // still take, with the same numbering (index continuity).
  auto spec = parse_or_die(spec_text("linear"));
  auto full = std::make_unique<ScenarioRunner>(spec);
  full->add_checkpoint_times({10 * kMinute});
  std::string err;
  ASSERT_TRUE(full->run(&err)) << err;
  ASSERT_EQ(full->snapshots().size(), 2u);  // checkpoint_at 8m + extra 10m

  auto resumed = ScenarioRunner::restore(full->snapshots()[0].bytes, &err);
  ASSERT_NE(resumed, nullptr) << err;
  ASSERT_TRUE(resumed->finish(&err)) << err;
  ASSERT_EQ(resumed->snapshots().size(), 1u);  // the 10m fence re-fires
  EXPECT_EQ(resumed->snapshots()[0].at, 10 * kMinute);
  EXPECT_TRUE(resumed->snapshots()[0].error.empty())
      << resumed->snapshots()[0].error;
  EXPECT_EQ(resumed->snapshots()[0].bytes, full->snapshots()[1].bytes)
      << "the resumed run's next snapshot differs from the uninterrupted one";
}

// ---------------------------------------------------- fence purity

TEST(CkptFencePurityTest, EveryExampleScenarioFenceIsClean) {
  // At every scenario-event fence of every committed example, a snapshot
  // must succeed — the codec classifying the whole pending queue IS the
  // in-flight ≡ 0 check — and the conservation invariants must hold.
  namespace fs = std::filesystem;
  fs::path dir;
  for (const char* candidate :
       {"../examples/scenarios", "examples/scenarios"}) {
    if (fs::is_directory(candidate)) {
      dir = candidate;
      break;
    }
  }
  if (dir.empty()) GTEST_SKIP() << "examples/scenarios not found";

  std::size_t scenarios = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    const ParseResult parsed = scenario::parse_scenario(text.str());
    ASSERT_TRUE(parsed.ok()) << entry.path() << ":\n" << parsed.error_text();

    ScenarioRunner runner(parsed.spec);
    std::vector<SimTime> fences;
    for (const auto& ev : parsed.spec.events) fences.push_back(ev.at);
    if (fences.empty()) fences.push_back(parsed.spec.workload.horizon / 2);
    runner.add_checkpoint_times(fences);
    runner.enable_invariant_checks();
    std::string err;
    ASSERT_TRUE(runner.run(&err)) << entry.path() << ": " << err;
    EXPECT_EQ(runner.snapshots().size(), fences.size()) << entry.path();
    for (const auto& snap : runner.snapshots()) {
      EXPECT_TRUE(snap.error.empty())
          << entry.path() << " fence t=" << snap.at << ": " << snap.error;
    }
    EXPECT_TRUE(runner.invariant_violations().empty())
        << entry.path() << ":\n"
        << (runner.invariant_violations().empty()
                ? ""
                : runner.invariant_violations()[0]);
    ++scenarios;
  }
  EXPECT_EQ(scenarios, 6u) << "expected the six committed example scenarios";
}

// ------------------------------------------------- snapshot robustness
//
// Every case feeds a damaged snapshot to restore() and requires a clean
// diagnosed failure: nullptr + non-empty error, no crash, no partial
// runner. The header is 20 bytes (magic | version | size | crc); the
// payload is a sequence of [fourcc u32 | len u64 | body] sections.

constexpr std::size_t kHeaderSize = 20;

const std::vector<std::uint8_t>& valid_snapshot() {
  static const std::vector<std::uint8_t> bytes = [] {
    auto runner = run_exercise("linear");
    return runner->snapshots()[0].bytes;
  }();
  return bytes;
}

/// Re-stamps the header's payload size + CRC after an edit, so the test
/// reaches section-level validation instead of tripping the CRC gate.
void restamp(std::vector<std::uint8_t>* bytes) {
  const std::uint64_t size = bytes->size() - kHeaderSize;
  std::memcpy(bytes->data() + 8, &size, 8);
  const std::uint32_t crc =
      crc32(std::string_view(reinterpret_cast<const char*>(bytes->data()) +
                                 kHeaderSize,
                             bytes->size() - kHeaderSize));
  std::memcpy(bytes->data() + 16, &crc, 4);
}

/// Byte offset of the section tagged `tag` (the fourcc itself).
std::size_t section_offset(const std::vector<std::uint8_t>& bytes,
                           std::uint32_t tag) {
  std::size_t pos = kHeaderSize;
  while (pos + 12 <= bytes.size()) {
    std::uint32_t t;
    std::uint64_t len;
    std::memcpy(&t, bytes.data() + pos, 4);
    std::memcpy(&len, bytes.data() + pos + 4, 8);
    if (t == tag) return pos;
    pos += 12 + len;
  }
  ADD_FAILURE() << "section " << fourcc_name(tag) << " not found";
  return 0;
}

void expect_diagnosed_failure(const std::vector<std::uint8_t>& bytes,
                              const std::string& what) {
  std::string err;
  const auto restored = ScenarioRunner::restore(bytes, &err);
  EXPECT_EQ(restored, nullptr) << what << ": restore accepted damaged input";
  EXPECT_FALSE(err.empty()) << what << ": no diagnosis";
}

TEST(CkptRobustnessTest, EmptyAndHeaderOnlyFiles) {
  expect_diagnosed_failure({}, "empty file");
  std::vector<std::uint8_t> header(valid_snapshot().begin(),
                                   valid_snapshot().begin() + kHeaderSize);
  expect_diagnosed_failure(header, "header-only file");
}

TEST(CkptRobustnessTest, BadMagic) {
  auto bytes = valid_snapshot();
  bytes[0] ^= 0xFF;
  expect_diagnosed_failure(bytes, "bad magic");
}

TEST(CkptRobustnessTest, VersionSkew) {
  auto bytes = valid_snapshot();
  const std::uint32_t future = kFormatVersion + 1;
  std::memcpy(bytes.data() + 4, &future, 4);
  std::string err;
  EXPECT_EQ(ScenarioRunner::restore(bytes, &err), nullptr);
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(CkptRobustnessTest, CrcMismatch) {
  auto bytes = valid_snapshot();
  bytes[bytes.size() / 2] ^= 0x01;  // payload flip without restamp
  std::string err;
  EXPECT_EQ(ScenarioRunner::restore(bytes, &err), nullptr);
  EXPECT_NE(err.find("CRC"), std::string::npos) << err;
}

TEST(CkptRobustnessTest, TruncationAtEveryRegion) {
  const auto& valid = valid_snapshot();
  for (const std::size_t keep :
       {std::size_t{3}, kHeaderSize - 1, kHeaderSize + 7,
        valid.size() / 4, valid.size() / 2, valid.size() - 1}) {
    std::vector<std::uint8_t> bytes(valid.begin(), valid.begin() + keep);
    expect_diagnosed_failure(bytes,
                             "truncated to " + std::to_string(keep) + "B");
  }
}

TEST(CkptRobustnessTest, TrailingGarbageAfterFinalSection) {
  auto bytes = valid_snapshot();
  bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  restamp(&bytes);
  std::string err;
  EXPECT_EQ(ScenarioRunner::restore(bytes, &err), nullptr);
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(CkptRobustnessTest, EveryTopLevelSectionTagIsEnforced) {
  // Damaging each section's tag must produce a diagnosis naming the
  // expected section — proving the reader walks all twelve in order and
  // never silently skips one.
  const char* const kSections[] = {"SPEC", "META", "CONF", "GRPG",
                                   "TOPO", "CTRL", "SWCH", "WHEL",
                                   "DGMS", "RNGS", "SIMU", "METR"};
  for (const char* name : kSections) {
    char tag4[5] = {name[0], name[1], name[2], name[3], '\0'};
    const std::uint32_t tag = fourcc(tag4);
    auto bytes = valid_snapshot();
    const std::size_t at = section_offset(bytes, tag);
    bytes[at] ^= 0x20;  // corrupt the fourcc
    restamp(&bytes);
    std::string err;
    EXPECT_EQ(ScenarioRunner::restore(bytes, &err), nullptr)
        << "section " << name;
    EXPECT_NE(err.find(name), std::string::npos)
        << "section " << name << " not named in: " << err;
  }
}

TEST(CkptRobustnessTest, OversizedSectionLengthCannotEscapePayload) {
  auto bytes = valid_snapshot();
  const std::size_t at = section_offset(bytes, fourcc("META"));
  const std::uint64_t huge = std::uint64_t{1} << 56;
  std::memcpy(bytes.data() + at + 4, &huge, 8);
  restamp(&bytes);
  expect_diagnosed_failure(bytes, "oversized META length");
}

TEST(CkptRobustnessTest, CountBombInClibCannotDriveAllocation) {
  // The CTRL body starts with the C-LIB entry count; a huge value must
  // fail the remaining-bytes validation, not allocate.
  auto bytes = valid_snapshot();
  const std::size_t at = section_offset(bytes, fourcc("CTRL"));
  const std::uint64_t bomb = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + at + 12, &bomb, 8);
  restamp(&bytes);
  expect_diagnosed_failure(bytes, "C-LIB count bomb");
}

TEST(CkptRobustnessTest, CorruptEmbeddedSpecIsDiagnosed) {
  // The SPEC body is a length-prefixed string holding the scenario text;
  // mangling a byte of the text must surface the parser's diagnosis.
  auto bytes = valid_snapshot();
  const std::size_t at = section_offset(bytes, fourcc("SPEC"));
  bytes[at + 12 + 8 + 1] = 0x01;  // section hdr + string length + 1 byte in
  restamp(&bytes);
  expect_diagnosed_failure(bytes, "mangled scenario text");
}

TEST(CkptRobustnessTest, DescriptorKindOutOfRangeIsDiagnosed) {
  // Zero the SIMU descriptor table's clock/counter block so every
  // pending tuple fails the id/seq validation against the counters.
  auto bytes = valid_snapshot();
  const std::size_t at = section_offset(bytes, fourcc("SIMU"));
  for (std::size_t i = 0; i < 32; ++i) bytes[at + 12 + i] = 0;
  restamp(&bytes);
  expect_diagnosed_failure(bytes, "zeroed simulator counters");
}

TEST(CkptRobustnessTest, SingleByteFlipsNeverCrash) {
  // Sampled single-byte corruption over the whole payload (CRC restamped
  // so section decoding actually runs): restore must either succeed or
  // fail with a diagnosis — never crash, hang or throw.
  const auto& valid = valid_snapshot();
  for (std::size_t at = kHeaderSize; at < valid.size(); at += 211) {
    auto bytes = valid;
    bytes[at] ^= 0xFF;
    restamp(&bytes);
    std::string err;
    const auto restored = ScenarioRunner::restore(bytes, &err);
    if (restored == nullptr) {
      EXPECT_FALSE(err.empty()) << "undiagnosed failure at offset " << at;
    }
  }
}

// ------------------------------------------------------- file helpers

TEST(CkptFileTest, WriteReadRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "ckpt_test_snapshot.bin";
  std::string err;
  ASSERT_TRUE(write_snapshot_file(path.string(), valid_snapshot(), &err))
      << err;
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(read_snapshot_file(path.string(), &back, &err)) << err;
  EXPECT_EQ(back, valid_snapshot());
  fs::remove(path);
}

TEST(CkptFileTest, MissingFileFailsWithError) {
  std::vector<std::uint8_t> out;
  std::string err;
  EXPECT_FALSE(read_snapshot_file("/nonexistent/dir/snap.bin", &out, &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace lazyctrl::ckpt
