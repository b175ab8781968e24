// Crash-safe checkpoint journal for the streaming shard engine.
//
// A million-user run holds tens of minutes of work in memory; a SIGKILL,
// OOM, or node preemption must not throw away every completed market. The
// journal is an append-only binary file the engine writes after each
// completed market:
//
//   [magic "ADPADCK1" (8 bytes)]
//   record*:  [u32 payload_len][u32 crc32(payload)][payload]
//
// The first record is the header (config fingerprint, population seed,
// market partition, engine result flags); every later record is one
// completed market's full result — metrics serialized field-by-field with
// IEEE-exact doubles, so a restored market merges bit-identically to a
// freshly simulated one. Each record is written with a single write() and
// fsync'd, so a crash leaves at worst one torn record at the tail; the
// reader CRC-validates records in order and truncates back to the last good
// one instead of aborting. Recovery guarantees (enforced by
// tests/core/checkpoint_test.cc and tests/integration/crash_recovery_test.cc):
//
//   * a journal is only replayed against the exact config that wrote it —
//     ConfigFingerprint covers every semantic knob, so a stale journal is
//     rejected (kFailedPrecondition) rather than silently merged;
//   * a corrupt or truncated journal never crashes the process and never
//     resurrects a corrupt record: the valid prefix is kept, the rest is
//     re-simulated;
//   * a resumed run's merged metrics and digests are byte-identical to an
//     uninterrupted run (the shard engine's determinism contract extended
//     into the crash dimension).
#ifndef ADPAD_SRC_CORE_CHECKPOINT_H_
#define ADPAD_SRC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/metrics.h"

namespace pad {

inline constexpr uint32_t kCheckpointSchemaVersion = 1;
inline constexpr char kCheckpointMagic[9] = "ADPADCK1";  // 8 bytes + NUL.

// FNV-1a over every semantic field of the config (population, campaigns,
// exchange, planner, radio profiles, wifi, faults, policy scalars, seeds,
// market_users). Execution knobs (threads, schedule, steal_seed, residency
// budget, processes) are deliberately excluded: they never change results,
// so a journal written at one worker count resumes at any other. Callers should fingerprint the
// AlignInputsConfig'd config so pre- and post-alignment spellings of the
// same experiment match.
uint64_t ConfigFingerprint(const PadConfig& config);

struct CheckpointHeader {
  uint32_t schema_version = kCheckpointSchemaVersion;
  uint64_t config_fingerprint = 0;
  uint64_t population_seed = 0;
  int64_t total_users = 0;
  int32_t num_markets = 0;
  // The engine result flags that shape what records contain; a journal
  // written with different flags is as stale as one with a different config.
  bool run_baseline = true;
  bool event_digests = false;
};

// One completed market's full result. Also the shard engine's in-memory
// per-market slot, so checkpoint replay restores exactly what a fresh
// simulation would have produced.
struct MarketRecord {
  int32_t market = -1;
  BaselineResult baseline;
  PadRunResult pad;
  int64_t sessions = 0;
  uint64_t pad_digest = 0;
  uint64_t baseline_digest = 0;
  uint64_t event_digest = 0;
  double generate_seconds = 0.0;
  double simulate_seconds = 0.0;
};

// Appends framed, CRC-guarded, fsync'd records. Not thread-safe; the engine
// serializes appends under its own mutex.
class CheckpointWriter {
 public:
  // Creates (or truncates) the journal and writes the header record.
  static StatusOr<std::unique_ptr<CheckpointWriter>> Create(
      const std::string& path, const CheckpointHeader& header, bool fsync_each = true);

  // Opens an existing journal for appending after truncating it to
  // `valid_bytes` (the CRC-valid prefix reported by ReadCheckpoint).
  static StatusOr<std::unique_ptr<CheckpointWriter>> Resume(
      const std::string& path, int64_t valid_bytes, bool fsync_each = true);

  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  Status Append(const MarketRecord& record);

 private:
  CheckpointWriter(int fd, std::string path, bool fsync_each)
      : fd_(fd), path_(std::move(path)), fsync_each_(fsync_each) {}

  Status WriteFrame(const std::string& payload);

  int fd_ = -1;
  std::string path_;
  bool fsync_each_ = true;
};

// What a journal replay recovered.
struct CheckpointContents {
  // False when the file exists but holds no CRC-valid header yet (e.g. a
  // crash between create and the first fsync): treat as an empty journal and
  // recreate it.
  bool has_header = false;
  CheckpointHeader header;
  // CRC-valid market records in file (completion) order. Every record's
  // stored metric digests have been re-verified against its deserialized
  // metrics, so a CRC collision cannot resurrect corrupt data silently.
  std::vector<MarketRecord> markets;
  // Byte length of the valid prefix; everything past it is torn or corrupt
  // and must be truncated before appending (CheckpointWriter::Resume does).
  int64_t valid_bytes = 0;
  // Why reading stopped before end of file ("" = clean end of journal).
  std::string truncation_reason;

  bool truncated() const { return !truncation_reason.empty(); }
};

// Replays a journal, validating record framing, CRCs, and per-record metric
// digests, stopping at the first invalid byte. Corruption is NOT an error —
// it yields the valid prefix plus a truncation_reason. Hard errors only:
// kNotFound (cannot open) and kInvalidArgument (the file is not a checkpoint
// journal at all — wrong magic with enough bytes to tell; refusing to treat
// a foreign file as a resumable journal keeps resume from clobbering it).
StatusOr<CheckpointContents> ReadCheckpoint(const std::string& path);

// kFailedPrecondition when `found` (a journal's header) does not belong to
// the experiment described by `expected`: config fingerprint, population,
// partition, or engine result flags differ. `path` names the journal in the
// diagnostic.
Status CheckJournalHeader(const CheckpointHeader& found, const CheckpointHeader& expected,
                          const std::string& path);

// fsyncs the directory containing `path`, making `path`'s directory entry
// itself durable. CheckpointWriter::Create runs this after creating a
// journal: the record frames are fsync'd through the file descriptor, but a
// crash immediately after creation could otherwise lose the *file* — the
// data would be on disk with no name pointing at it. Exposed because the
// multi-process coordinator needs the same barrier after unlinking merged
// worker journals.
Status FsyncParentDir(const std::string& path);

// The open-or-resume protocol both engines run against a journal path:
//   * no file / torn-before-header  -> create fresh, write `expected`;
//   * valid journal, header matches -> truncate the torn tail, return the
//     CRC-valid records, and position the writer for append;
//   * header mismatch               -> kFailedPrecondition (stale journal);
//   * not a journal at all          -> kInvalidArgument (never clobbered).
struct ResumedJournal {
  std::unique_ptr<CheckpointWriter> writer;
  // CRC- and digest-valid records restored from the file (empty when fresh).
  std::vector<MarketRecord> records;
};
StatusOr<ResumedJournal> OpenOrResumeJournal(const std::string& path,
                                             const CheckpointHeader& expected,
                                             bool fsync_each);

}  // namespace pad

#endif  // ADPAD_SRC_CORE_CHECKPOINT_H_
