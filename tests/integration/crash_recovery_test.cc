// The crash half of the shard engine's determinism contract
// (src/core/shard_engine.h): a run that dies — SIGKILL, torn journal tail,
// graceful stop — and is then resumed from its checkpoint journal produces
// metrics and digests byte-identical to an uninterrupted run, at any
// shard/thread/residency setting on either side of the crash, including
// under fault injection. Also pins the refusal paths: stale config
// fingerprints and mismatched engine flags are clean errors, never merges.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/checkpoint.h"
#include "src/core/multiproc_engine.h"
#include "src/core/shard_engine.h"
#include "src/core/sweep.h"

namespace pad {
namespace {

// 120 users in 4 markets, 2 scored days: several records in the journal,
// fast enough to rerun dozens of times.
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

std::string TempPath(const std::string& name) { return testing::TempDir() + name; }

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint32_t ReadU32At(const std::string& bytes, size_t pos) {
  return ByteReader(std::string_view(bytes).substr(pos, 4)).GetU32();
}

std::vector<size_t> FrameBoundaries(const std::string& bytes) {
  std::vector<size_t> frames;
  size_t pos = 8;
  while (pos + 8 <= bytes.size()) {
    frames.push_back(pos);
    pos += 8 + ReadU32At(bytes, pos);
  }
  frames.push_back(bytes.size());
  return frames;
}

ShardEngineOptions BaseOptions() {
  ShardEngineOptions options;
  options.threads = 1;
  options.event_digests = true;
  return options;
}

void ExpectSameResult(const ShardedComparison& golden, const ShardedComparison& resumed) {
  EXPECT_EQ(golden.num_markets, resumed.num_markets);
  EXPECT_EQ(golden.total_users, resumed.total_users);
  EXPECT_EQ(golden.total_sessions, resumed.total_sessions);
  EXPECT_EQ(golden.market_pad_digests, resumed.market_pad_digests);
  EXPECT_EQ(golden.market_baseline_digests, resumed.market_baseline_digests);
  EXPECT_EQ(golden.market_event_digests, resumed.market_event_digests);
  EXPECT_EQ(golden.combined_pad_digest, resumed.combined_pad_digest);
  EXPECT_EQ(golden.combined_baseline_digest, resumed.combined_baseline_digest);
  EXPECT_EQ(golden.combined_event_digest, resumed.combined_event_digest);
  EXPECT_EQ(MetricsDigest(golden.totals.pad), MetricsDigest(resumed.totals.pad));
  EXPECT_EQ(MetricsDigest(golden.totals.baseline), MetricsDigest(resumed.totals.baseline));
  EXPECT_FALSE(resumed.interrupted);
}

ShardedComparison MustRun(const PadConfig& config, const ShardEngineOptions& options) {
  StatusOr<ShardedComparison> result = RunShardedResumable(config, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *std::move(result);
}

// The core property: write a complete journal, cut it at every frame
// boundary and at mid-record offsets, resume each cut with different
// execution knobs — every resume must land byte-identical on the golden.
void CheckTruncateResumeByteIdentity(const PadConfig& config, const std::string& tag) {
  const ShardedComparison golden = MustRun(config, BaseOptions());
  ASSERT_EQ(4, golden.num_markets);

  const std::string full_path = TempPath("crash_full_" + tag + ".ckpt");
  std::remove(full_path.c_str());
  ShardEngineOptions record_options = BaseOptions();
  record_options.checkpoint_path = full_path;
  ExpectSameResult(golden, MustRun(config, record_options));
  const std::string bytes = ReadFileBytes(full_path);
  const std::vector<size_t> frames = FrameBoundaries(bytes);
  ASSERT_EQ(6u, frames.size());  // header + 4 markets + EOF sentinel.

  // Every frame boundary plus a torn cut inside every record.
  std::vector<size_t> cuts(frames);
  for (size_t f = 0; f + 1 < frames.size(); ++f) {
    cuts.push_back(frames[f] + (frames[f + 1] - frames[f]) / 2);
  }

  const std::string cut_path = TempPath("crash_cut_" + tag + ".ckpt");
  // Resume under different execution knobs than the original run: the
  // journal must be portable across them.
  const std::vector<ShardEngineOptions> resume_variants = [&] {
    std::vector<ShardEngineOptions> variants(3, BaseOptions());
    variants[1].threads = 4;
    variants[2].threads = 2;
    variants[2].max_resident_users = 60;
    return variants;
  }();
  for (size_t i = 0; i < cuts.size(); ++i) {
    const size_t cut = cuts[i];
    const ShardEngineOptions& variant = resume_variants[i % resume_variants.size()];
    SCOPED_TRACE(tag + ": cut at byte " + std::to_string(cut) +
                 ", threads=" + std::to_string(variant.threads));
    WriteFileBytes(cut_path, bytes.substr(0, cut));
    ShardEngineOptions resume_options = variant;
    resume_options.checkpoint_path = cut_path;
    const ShardedComparison resumed = MustRun(config, resume_options);
    ExpectSameResult(golden, resumed);
    // After the resume the journal is complete again: a second resume
    // simulates nothing.
    const ShardedComparison replay = MustRun(config, resume_options);
    EXPECT_EQ(4, replay.resumed_markets);
    ExpectSameResult(golden, replay);
  }
}

TEST(CrashRecoveryTest, TruncatedJournalsResumeByteIdentical) {
  CheckTruncateResumeByteIdentity(TestConfig(), "plain");
}

TEST(CrashRecoveryTest, TruncatedJournalsResumeByteIdenticalUnderFaults) {
  CheckTruncateResumeByteIdentity(FaultyConfig(), "faults");
}

TEST(CrashRecoveryTest, TruncatedJournalsResumeByteIdenticalWithWifi) {
  CheckTruncateResumeByteIdentity(WifiConfig(), "wifi");
}

TEST(CrashRecoveryTest, SigkillMidRunThenResumeMatchesGolden) {
  const PadConfig config = TestConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());

  // Kill points spread across the run (seeded, so reproducible): early kills
  // land before or inside the first markets, late ones near completion. The
  // child is a real process taken down by SIGKILL mid-write — whatever frame
  // it was writing is torn, exactly the crash the journal exists for.
  const std::vector<int> kill_delays_ms = {3, 11, 29, 61, 151};
  for (size_t i = 0; i < kill_delays_ms.size(); ++i) {
    SCOPED_TRACE("kill after " + std::to_string(kill_delays_ms[i]) + " ms");
    const std::string path =
        TempPath("crash_kill_" + std::to_string(i) + "_" + std::to_string(getpid()) + ".ckpt");
    std::remove(path.c_str());

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      ShardEngineOptions child_options = BaseOptions();
      child_options.checkpoint_path = path;
      (void)RunShardedResumable(config, child_options);
      _exit(0);  // Skip gtest teardown in the child.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kill_delays_ms[i]));
    kill(child, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(child, waitpid(child, &wstatus, 0));

    // Resume in-process (a fresh journal if the child died before creating
    // one) and expect the golden, bit for bit.
    ShardEngineOptions resume_options = BaseOptions();
    resume_options.threads = 2;
    resume_options.checkpoint_path = path;
    ExpectSameResult(golden, MustRun(config, resume_options));
    std::remove(path.c_str());
  }
}

TEST(CrashRecoveryTest, GracefulStopDrainsJournalsAndResumes) {
  const PadConfig config = TestConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());
  const std::string path = TempPath("crash_stop.ckpt");
  std::remove(path.c_str());

  // Flag pre-set: the engine must stop before simulating anything.
  std::atomic<bool> stop{true};
  ShardEngineOptions options = BaseOptions();
  options.checkpoint_path = path;
  options.stop_requested = &stop;
  const ShardedComparison stopped = MustRun(config, options);
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_TRUE(stopped.market_pad_digests.empty());

  // Flag flipped mid-run from another thread: lanes drain what they started.
  stop.store(false);
  std::thread flipper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true);
  });
  const ShardedComparison drained = MustRun(config, options);
  flipper.join();
  EXPECT_LE(static_cast<int>(drained.market_pad_digests.size()), golden.num_markets);

  // Whatever was drained is in the journal; a final run completes to golden.
  stop.store(false);
  const ShardedComparison finished = MustRun(config, options);
  EXPECT_EQ(static_cast<int>(drained.market_pad_digests.size()), finished.resumed_markets);
  ExpectSameResult(golden, finished);
}

// Heavy-cluster skew (first market ~10x the rest) so multi-worker runs
// actually steal — the crash and the drain below must land while workers
// hold markets taken from another worker's queue.
PadConfig SkewedConfig() {
  PadConfig config = TestConfig();
  config.population.skew_heavy_fraction = 0.25;
  config.population.skew_rate_multiplier = 10.0;
  return config;
}

ShardEngineOptions StealingOptions(int workers) {
  ShardEngineOptions options = BaseOptions();
  options.threads = workers;
  options.schedule = ScheduleMode::kStealing;
  options.steal_seed = 42;
  return options;
}

TEST(CrashRecoveryTest, SigkillUnderStealingThenResumeMatchesGolden) {
  const PadConfig config = SkewedConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());

  // Sanity: this workload does steal when run multi-worker to completion.
  // Two workers over four markets: worker 0's queue is {heavy, light},
  // worker 1 drains its two light markets and then takes worker 0's tail.
  EXPECT_GT(MustRun(config, StealingOptions(2)).tasks_stolen, 0);

  for (size_t i = 0; i < 4; ++i) {
    const int kill_delay_ms = 5 + 40 * static_cast<int>(i);
    SCOPED_TRACE("kill after " + std::to_string(kill_delay_ms) + " ms");
    const std::string path =
        TempPath("crash_steal_" + std::to_string(i) + "_" + std::to_string(getpid()) + ".ckpt");
    std::remove(path.c_str());

    // The child dies by SIGKILL while its workers run a stolen-market
    // interleaving and journal appends race the kill. All scheduler threads
    // of prior parent runs are joined before this fork, so the child starts
    // from a single-threaded image.
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      ShardEngineOptions child_options = StealingOptions(2);
      child_options.checkpoint_path = path;
      (void)RunShardedResumable(config, child_options);
      _exit(0);  // Skip gtest teardown in the child.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kill_delay_ms));
    kill(child, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(child, waitpid(child, &wstatus, 0));

    // Resume with a different worker count and steal seed than the crashed
    // run: journals must be portable across every execution knob.
    ShardEngineOptions resume_options = StealingOptions(8);
    resume_options.steal_seed = 7;
    resume_options.checkpoint_path = path;
    ExpectSameResult(golden, MustRun(config, resume_options));
    std::remove(path.c_str());
  }
}

TEST(CrashRecoveryTest, GracefulStopUnderStealingDrainsAndResumes) {
  const PadConfig config = SkewedConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());
  const std::string path = TempPath("crash_stop_steal.ckpt");
  std::remove(path.c_str());

  // Flip the stop flag while two stealing workers are mid-market (two
  // markets per queue, so steals can be in flight): each worker finishes
  // (and journals) the market it holds — stolen or not — and takes nothing
  // more.
  std::atomic<bool> stop{false};
  ShardEngineOptions options = StealingOptions(2);
  options.checkpoint_path = path;
  options.stop_requested = &stop;
  std::thread flipper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true);
  });
  const ShardedComparison drained = MustRun(config, options);
  flipper.join();
  EXPECT_LE(static_cast<int>(drained.market_pad_digests.size()), golden.num_markets);

  // The journal holds exactly the drained markets; a stealing resume
  // completes the rest and lands on the golden, bit for bit.
  stop.store(false);
  const ShardedComparison finished = MustRun(config, options);
  EXPECT_EQ(static_cast<int>(drained.market_pad_digests.size()), finished.resumed_markets);
  ExpectSameResult(golden, finished);
  std::remove(path.c_str());
}

TEST(CrashRecoveryTest, StaleFingerprintAndFlagMismatchesAreRefused) {
  const PadConfig config = TestConfig();
  const std::string path = TempPath("crash_stale.ckpt");
  std::remove(path.c_str());
  ShardEngineOptions options = BaseOptions();
  options.checkpoint_path = path;
  MustRun(config, options);

  // Any semantic config change invalidates the journal.
  PadConfig reseeded = config;
  reseeded.seed += 1;
  StatusOr<ShardedComparison> stale = RunShardedResumable(reseeded, options);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, stale.status().code());

  // So does flipping what the records contain.
  ShardEngineOptions no_events = options;
  no_events.event_digests = false;
  StatusOr<ShardedComparison> flags = RunShardedResumable(config, no_events);
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, flags.status().code());

  // A foreign file at the checkpoint path must never be overwritten.
  const std::string foreign = TempPath("crash_foreign.csv");
  WriteFileBytes(foreign, "label,users\nrun,100\n");
  ShardEngineOptions clobber = options;
  clobber.checkpoint_path = foreign;
  StatusOr<ShardedComparison> refused = RunShardedResumable(config, clobber);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, refused.status().code());
  EXPECT_EQ("label,users\nrun,100\n", ReadFileBytes(foreign));
}

TEST(CrashRecoveryTest, CorruptTailIsResimulatedNotResurrected) {
  const PadConfig config = TestConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());
  const std::string path = TempPath("crash_corrupt.ckpt");
  std::remove(path.c_str());
  ShardEngineOptions options = BaseOptions();
  options.checkpoint_path = path;
  MustRun(config, options);

  // Flip one byte inside the last record's payload: CRC kills the record,
  // resume re-simulates that market and rewrites the tail.
  std::string bytes = ReadFileBytes(path);
  const std::vector<size_t> frames = FrameBoundaries(bytes);
  const size_t last_payload = frames[frames.size() - 2] + 12;
  bytes[last_payload] = static_cast<char>(bytes[last_payload] ^ 0xff);
  WriteFileBytes(path, bytes);

  const ShardedComparison resumed = MustRun(config, options);
  EXPECT_EQ(golden.num_markets - 1, resumed.resumed_markets);
  ExpectSameResult(golden, resumed);
}

TEST(CrashRecoveryTest, WatchdogReportsLongMarkets) {
  const PadConfig config = TestConfig();
  std::mutex mutex;
  std::vector<std::pair<int, int>> stalls;  // (lane, market)
  ShardEngineOptions options = BaseOptions();
  // Far below any market's real runtime, so every market overruns; the
  // watchdog polls every ~10 ms against markets that take much longer.
  options.market_watchdog_s = 1e-3;
  options.on_stall = [&](int lane, int market, double elapsed_s) {
    std::lock_guard<std::mutex> lock(mutex);
    stalls.emplace_back(lane, market);
    EXPECT_GT(elapsed_s, options.market_watchdog_s);
  };
  const ShardedComparison run = MustRun(config, options);
  EXPECT_EQ(4, run.num_markets);
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_FALSE(stalls.empty()) << "no market tripped a 1 ms watchdog";
  for (const auto& [lane, market] : stalls) {
    EXPECT_EQ(0, lane);  // Single-lane run.
    EXPECT_GE(market, 0);
    EXPECT_LT(market, run.num_markets);
  }
}

// ---------------------------------------------------------------------------
// Multi-process death cases (src/core/multiproc_engine.h): a SIGKILLed
// WORKER — as opposed to the whole run, above — costs at most the market it
// held. The journals carry everything it finished, the coordinator requeues
// the rest, and the merged result is still byte-identical to the golden.

ShardEngineOptions ProcessOptions(int processes, const std::string& path) {
  ShardEngineOptions options = BaseOptions();
  options.processes = processes;
  options.checkpoint_path = path;
  return options;
}

TEST(CrashRecoveryTest, MultiprocWorkerSigkillMidRunMatchesGolden) {
  const PadConfig config = TestConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());

  for (const int kill_delay_ms : {5, 30}) {
    SCOPED_TRACE("kill worker 0 after " + std::to_string(kill_delay_ms) + " ms");
    const std::string path = TempPath("mp_kill_" + std::to_string(kill_delay_ms) + "_" +
                                      std::to_string(getpid()) + ".ckpt");
    std::remove(path.c_str());

    // Aim a SIGKILL at worker 0 mid-market. The killer thread starts only
    // once the LAST worker is forked, so every fork still happens from a
    // single-threaded coordinator; by then worker 0 is deep in simulation.
    ShardEngineOptions options = ProcessOptions(2, path);
    pid_t victim = -1;
    std::thread killer;
    options.on_worker_spawn = [&](int worker, pid_t pid) {
      if (worker == 0) {
        victim = pid;
      }
      if (worker == 1) {
        const pid_t target = victim;
        killer = std::thread([target, kill_delay_ms] {
          std::this_thread::sleep_for(std::chrono::milliseconds(kill_delay_ms));
          kill(target, SIGKILL);
        });
      }
    };
    const ShardedComparison run = MustRun(config, options);
    if (killer.joinable()) {
      killer.join();
    }
    ExpectSameResult(golden, run);
    EXPECT_GE(run.workers_died, 1);
    EXPECT_EQ(2, run.worker_processes);
    std::remove(path.c_str());
  }
}

TEST(CrashRecoveryTest, MultiprocWorkerKilledAtSpawnIsAbsorbed) {
  const PadConfig config = TestConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());
  const std::string path = TempPath("mp_spawnkill_" + std::to_string(getpid()) + ".ckpt");
  std::remove(path.c_str());

  // Kill worker 0 straight out of fork — likely before its HELLO, possibly
  // before its journal header. The survivor simulates everything.
  ShardEngineOptions options = ProcessOptions(2, path);
  options.on_worker_spawn = [](int worker, pid_t pid) {
    if (worker == 0) {
      kill(pid, SIGKILL);
    }
  };
  const ShardedComparison run = MustRun(config, options);
  ExpectSameResult(golden, run);
  EXPECT_EQ(1, run.workers_died);
  EXPECT_FALSE(std::ifstream(WorkerJournalPath(path, 0)).good())
      << "dead worker's journal must be consolidated and unlinked";
  std::remove(path.c_str());
}

TEST(CrashRecoveryTest, AllWorkersDeadAbortsThenResumes) {
  const PadConfig config = TestConfig();
  const ShardedComparison golden = MustRun(config, BaseOptions());

  // Build a half-finished main journal (header + markets 0 and 1) so the
  // abort below provably preserves prior progress.
  const std::string full_path = TempPath("mp_abort_full_" + std::to_string(getpid()) + ".ckpt");
  std::remove(full_path.c_str());
  ShardEngineOptions writer_options = BaseOptions();
  writer_options.checkpoint_path = full_path;
  MustRun(config, writer_options);
  const std::string bytes = ReadFileBytes(full_path);
  const std::vector<size_t> frames = FrameBoundaries(bytes);
  ASSERT_EQ(6u, frames.size());
  const std::string path = TempPath("mp_abort_" + std::to_string(getpid()) + ".ckpt");
  WriteFileBytes(path, bytes.substr(0, frames[3]));

  // The run's ONLY worker dies at spawn: nothing new simulates, markets 2
  // and 3 stay pending, and the engine reports Aborted — the scriptable
  // "worker died, rerun to resume" exit class — rather than tearing down
  // the journal or fabricating a result.
  ShardEngineOptions options = ProcessOptions(1, path);
  options.on_worker_spawn = [](int /*worker*/, pid_t pid) { kill(pid, SIGKILL); };
  StatusOr<ShardedComparison> aborted = RunShardedResumable(config, options);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(StatusCode::kAborted, aborted.status().code());
  EXPECT_EQ(6, ExitCodeFor(aborted.status()));

  // "Rerun the same command to resume": the same multiproc invocation,
  // minus the kill, picks up the two journaled markets and finishes.
  ShardEngineOptions retry = ProcessOptions(1, path);
  const ShardedComparison finished = MustRun(config, retry);
  EXPECT_EQ(2, finished.resumed_markets);
  ExpectSameResult(golden, finished);

  // And so do in-process lanes, off the same journal.
  WriteFileBytes(path, bytes.substr(0, frames[3]));
  ShardEngineOptions single = BaseOptions();
  single.checkpoint_path = path;
  const ShardedComparison cross = MustRun(config, single);
  EXPECT_EQ(2, cross.resumed_markets);
  ExpectSameResult(golden, cross);
  std::remove(path.c_str());
  std::remove(full_path.c_str());
}

TEST(CrashRecoveryTest, StaleWorkerJournalIsRefusedNotMerged) {
  const PadConfig config = TestConfig();
  const std::string donor = TempPath("mp_stale_donor_" + std::to_string(getpid()) + ".ckpt");
  std::remove(donor.c_str());
  ShardEngineOptions donor_options = BaseOptions();
  donor_options.checkpoint_path = donor;
  MustRun(config, donor_options);
  const std::string donor_bytes = ReadFileBytes(donor);

  // A leftover worker journal from a DIFFERENT experiment (here: another
  // seed) parked at this run's `.w0` name: startup consolidation must refuse
  // with the stale-fingerprint error, before any fork, and must not delete
  // or merge the file.
  PadConfig reseeded = config;
  reseeded.seed += 1;
  const std::string path = TempPath("mp_stale_" + std::to_string(getpid()) + ".ckpt");
  std::remove(path.c_str());
  WriteFileBytes(WorkerJournalPath(path, 0), donor_bytes);

  StatusOr<ShardedComparison> refused =
      RunShardedResumable(reseeded, ProcessOptions(2, path));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, refused.status().code());
  EXPECT_EQ(donor_bytes, ReadFileBytes(WorkerJournalPath(path, 0)))
      << "a refused stale journal must be left byte-intact for inspection";

  std::remove(WorkerJournalPath(path, 0).c_str());
  std::remove(path.c_str());
  std::remove(donor.c_str());
}

}  // namespace
}  // namespace pad
