// The determinism half of the multi-process executor's contract
// (src/core/multiproc_engine.h): RunShardedResumable with processes > 0 is
// byte-identical to the same call on in-process lanes — same totals, same
// per-market and combined digests — at every worker count, under fault
// injection and wifi offload, within any residency budget, and across resume
// in BOTH directions (a multi-process journal finished on lanes and vice
// versa), because the config fingerprint covers semantic knobs only, never
// `processes`. The crash/death half lives in crash_recovery_test.cc.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/multiproc_engine.h"
#include "src/core/shard_engine.h"
#include "src/core/sweep.h"

namespace pad {
namespace {

// Same shape as crash_recovery_test: 120 users in 4 markets, 2 scored days.
PadConfig TestConfig() {
  PadConfig config;
  config.population.num_users = 120;
  config.population.horizon_s = 9.0 * kDay;
  config.warmup_days = 7;
  config.campaigns.arrivals_per_day = 180.0;
  config.market_users = 30;
  return config;
}

PadConfig FaultyConfig() {
  PadConfig config = TestConfig();
  config.faults = FaultConfig::Uniform(0.05);
  config.faults.report_delay_rate = 0.025;
  return config;
}

PadConfig WifiConfig() {
  PadConfig config = TestConfig();
  config.wifi.enabled = true;
  config.seed = 777;
  return config;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name + "_" + std::to_string(getpid());
}

ShardEngineOptions BaseOptions() {
  ShardEngineOptions options;
  options.threads = 1;
  options.event_digests = true;
  return options;
}

ShardEngineOptions ProcessOptions(int processes, const std::string& path) {
  ShardEngineOptions options = BaseOptions();
  options.processes = processes;
  options.checkpoint_path = path;
  return options;
}

void ExpectSameResult(const ShardedComparison& golden, const ShardedComparison& actual) {
  EXPECT_EQ(golden.num_markets, actual.num_markets);
  EXPECT_EQ(golden.total_users, actual.total_users);
  EXPECT_EQ(golden.total_sessions, actual.total_sessions);
  EXPECT_EQ(golden.market_pad_digests, actual.market_pad_digests);
  EXPECT_EQ(golden.market_baseline_digests, actual.market_baseline_digests);
  EXPECT_EQ(golden.market_event_digests, actual.market_event_digests);
  EXPECT_EQ(golden.combined_pad_digest, actual.combined_pad_digest);
  EXPECT_EQ(golden.combined_baseline_digest, actual.combined_baseline_digest);
  EXPECT_EQ(golden.combined_event_digest, actual.combined_event_digest);
  EXPECT_EQ(MetricsDigest(golden.totals.pad), MetricsDigest(actual.totals.pad));
  EXPECT_EQ(MetricsDigest(golden.totals.baseline), MetricsDigest(actual.totals.baseline));
  EXPECT_FALSE(actual.interrupted);
}

ShardedComparison MustRun(const PadConfig& config, const ShardEngineOptions& options) {
  StatusOr<ShardedComparison> result = RunShardedResumable(config, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *std::move(result);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0;
}

// After any completed run the per-worker journals must be consolidated into
// the main journal and unlinked — leftovers would be re-read (harmlessly,
// but they are the signature of a crashed merge, not a clean one).
void ExpectNoWorkerJournals(const std::string& path) {
  for (int worker = 0; worker < 16; ++worker) {
    EXPECT_FALSE(FileExists(WorkerJournalPath(path, worker)))
        << "leftover worker journal: " << WorkerJournalPath(path, worker);
  }
}

TEST(MultiprocEquivalenceTest, MatchesSingleProcessAcrossWorkerCounts) {
  const PadConfig config = TestConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());
  ASSERT_EQ(4, golden.num_markets);

  for (const int processes : {1, 2, 3, 8}) {
    SCOPED_TRACE("processes=" + std::to_string(processes));
    const std::string path = TempPath("mp_count_" + std::to_string(processes) + ".ckpt");
    std::remove(path.c_str());

    const ShardedComparison run = MustRun(config, ProcessOptions(processes, path));
    ExpectSameResult(golden, run);
    // Workers are capped at the market count: processes=8 over 4 markets
    // forks 4.
    EXPECT_EQ(std::min(processes, golden.num_markets), run.worker_processes);
    EXPECT_EQ(0, run.workers_died);
    EXPECT_EQ(0, run.markets_reassigned);
    EXPECT_GE(run.workers_used, 1);
    EXPECT_LE(run.workers_used, run.worker_processes);
    // Every market is attributed to the worker that simulated it.
    ASSERT_EQ(static_cast<size_t>(golden.num_markets), run.market_workers.size());
    for (const int worker : run.market_workers) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, run.worker_processes);
    }
    ExpectNoWorkerJournals(path);
    std::remove(path.c_str());
  }
}

TEST(MultiprocEquivalenceTest, MatchesUnderFaultInjectionAndWifi) {
  int variant = 0;
  for (const PadConfig& config : {FaultyConfig(), WifiConfig()}) {
    SCOPED_TRACE(variant == 0 ? "faults" : "wifi");
    const ShardedComparison golden = MustRun(config, BaseOptions());
    const std::string path = TempPath("mp_variant_" + std::to_string(variant) + ".ckpt");
    std::remove(path.c_str());
    ExpectSameResult(golden, MustRun(config, ProcessOptions(3, path)));
    ExpectNoWorkerJournals(path);
    std::remove(path.c_str());
    ++variant;
  }
}

TEST(MultiprocEquivalenceTest, ResidencyBudgetHoldsAcrossProcesses) {
  const PadConfig config = TestConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());
  const std::string path = TempPath("mp_residency.ckpt");
  std::remove(path.c_str());

  // Budget admits two 30-user markets at once; the coordinator's admission
  // gate must hold the SUM across live workers under it.
  ShardEngineOptions options = ProcessOptions(3, path);
  options.max_resident_users = 60;
  const ShardedComparison run = MustRun(config, options);
  ExpectSameResult(golden, run);
  EXPECT_LE(run.peak_resident_users, 60);
  EXPECT_GT(run.peak_resident_users, 0);
  ExpectNoWorkerJournals(path);
  std::remove(path.c_str());
}

// The property behind cross-executor resume: ConfigFingerprint covers the
// semantic config only, so one journal is finishable at ANY process count —
// including processes = 0 (in-process lanes).
TEST(MultiprocEquivalenceTest, FingerprintExcludesProcessCount) {
  const PadConfig config = TestConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());
  const std::string path = TempPath("mp_fingerprint.ckpt");
  std::remove(path.c_str());

  // Complete at processes=2; every later rerun at any process count
  // must replay all 4 markets from the journal and simulate nothing.
  ExpectSameResult(golden, MustRun(config, ProcessOptions(2, path)));

  const ShardedComparison reread_mp3 = MustRun(config, ProcessOptions(3, path));
  EXPECT_EQ(golden.num_markets, reread_mp3.resumed_markets);
  ExpectSameResult(golden, reread_mp3);

  ShardEngineOptions single = BaseOptions();
  single.checkpoint_path = path;
  const ShardedComparison reread_single = MustRun(config, single);
  EXPECT_EQ(golden.num_markets, reread_single.resumed_markets);
  ExpectSameResult(golden, reread_single);
  std::remove(path.c_str());

  // Reverse direction: a journal written on in-process lanes is picked up
  // whole by forked workers.
  const std::string reverse = TempPath("mp_fingerprint_rev.ckpt");
  std::remove(reverse.c_str());
  ShardEngineOptions writer = BaseOptions();
  writer.checkpoint_path = reverse;
  ExpectSameResult(golden, MustRun(config, writer));
  const ShardedComparison adopted = MustRun(config, ProcessOptions(4, reverse));
  EXPECT_EQ(golden.num_markets, adopted.resumed_markets);
  ExpectSameResult(golden, adopted);
  std::remove(reverse.c_str());
}

TEST(MultiprocEquivalenceTest, PresetStopFlagInterruptsThenResumesToGolden) {
  const PadConfig config = TestConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());
  const std::string path = TempPath("mp_stop.ckpt");
  std::remove(path.c_str());

  // Flag pre-set: the coordinator assigns nothing, drains its workers, and
  // reports an interrupted (not failed, not aborted) run.
  std::atomic<bool> stop{true};
  ShardEngineOptions options = ProcessOptions(2, path);
  options.stop_requested = &stop;
  StatusOr<ShardedComparison> stopped = RunShardedResumable(config, options);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_TRUE(stopped->interrupted);
  EXPECT_TRUE(stopped->market_pad_digests.empty());
  ExpectNoWorkerJournals(path);

  // Clearing the flag and rerunning the same command completes to golden.
  stop.store(false);
  ExpectSameResult(golden, MustRun(config, options));
  ExpectNoWorkerJournals(path);
  std::remove(path.c_str());
}

// The forwarders perfbench still calls, which hold the process knobs beside
// the engine options.
MultiprocEngineOptions MultiprocOptions(int processes, const std::string& path) {
  MultiprocEngineOptions options;
  options.processes = processes;
  options.engine = BaseOptions();
  options.engine.checkpoint_path = path;
  return options;
}

TEST(MultiprocEquivalenceTest, ValidationRejectsBadOptions) {
  const PadConfig config = TestConfig();

  MultiprocEngineOptions no_processes = MultiprocOptions(0, TempPath("mp_v0.ckpt"));
  EXPECT_NE(std::string::npos,
            ValidateMultiprocOptions(config, no_processes).find("processes must be at least 1"));
  StatusOr<ShardedComparison> run = RunMultiprocSharded(config, no_processes);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, run.status().code());

  MultiprocEngineOptions no_checkpoint = MultiprocOptions(2, "");
  EXPECT_NE(std::string::npos,
            ValidateMultiprocOptions(config, no_checkpoint).find("requires checkpointing"));
  run = RunMultiprocSharded(config, no_checkpoint);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, run.status().code());

  MultiprocEngineOptions bad_stall = MultiprocOptions(2, TempPath("mp_v1.ckpt"));
  bad_stall.stall_kill_s = -1.0;
  EXPECT_FALSE(ValidateMultiprocOptions(config, bad_stall).empty());

  // Bad engine options surface through the same validator.
  MultiprocEngineOptions bad_engine = MultiprocOptions(2, TempPath("mp_v2.ckpt"));
  bad_engine.engine.threads = -1;
  EXPECT_FALSE(ValidateMultiprocOptions(config, bad_engine).empty());

  EXPECT_EQ("/tmp/run.ckpt.w3", WorkerJournalPath("/tmp/run.ckpt", 3));
}

}  // namespace
}  // namespace pad
