#include "src/core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "src/common/bytes.h"
#include "src/core/sweep.h"

namespace pad {
namespace {

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), table-driven.

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xedb88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

uint32_t Crc32(const char* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ static_cast<unsigned char>(data[i])) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

// ---------------------------------------------------------------------------
// Record payloads, in the shared little-endian codec (src/common/bytes.h).
// Doubles round-trip through their IEEE bits, so a restored metric is
// bit-identical to the one simulated — the byte-identity contract depends on
// this. The result blocks follow ForEachField's field list (metrics.h).

constexpr uint8_t kHeaderRecord = 1;
constexpr uint8_t kMarketRecord = 2;
// Bounds a single record allocation; a bit-flipped length field must not ask
// the reader to allocate gigabytes. Market records are ~1 KiB.
constexpr uint32_t kMaxPayloadBytes = 1u << 20;

// Every result field is a double or an int64_t.
void PutField(std::string* out, double value) { PutF64(out, value); }
void PutField(std::string* out, int64_t value) { PutI64(out, value); }
void GetField(ByteReader& in, double* value) { *value = in.GetF64(); }
void GetField(ByteReader& in, int64_t* value) { *value = in.GetI64(); }

template <typename Result>
void PutResult(std::string* out, const Result& result) {
  ForEachField(result, [out](auto field) { PutField(out, field); });
}

template <typename Result>
void GetResult(ByteReader& in, Result* result) {
  ForEachField(*result, [&in](auto& field) { GetField(in, &field); });
}

std::string SerializeHeader(const CheckpointHeader& header) {
  std::string out;
  PutU8(&out, kHeaderRecord);
  PutU32(&out, header.schema_version);
  PutU64(&out, header.config_fingerprint);
  PutU64(&out, header.population_seed);
  PutI64(&out, header.total_users);
  PutU32(&out, static_cast<uint32_t>(header.num_markets));
  PutU8(&out, header.run_baseline ? 1 : 0);
  PutU8(&out, header.event_digests ? 1 : 0);
  return out;
}

bool ParseHeader(std::string_view payload, CheckpointHeader* header) {
  ByteReader in(payload);
  if (in.GetU8() != kHeaderRecord) {
    return false;
  }
  header->schema_version = in.GetU32();
  header->config_fingerprint = in.GetU64();
  header->population_seed = in.GetU64();
  header->total_users = in.GetI64();
  header->num_markets = static_cast<int32_t>(in.GetU32());
  header->run_baseline = in.GetU8() != 0;
  header->event_digests = in.GetU8() != 0;
  return in.Finished();
}

std::string SerializeMarket(const MarketRecord& record) {
  std::string out;
  PutU8(&out, kMarketRecord);
  PutU32(&out, static_cast<uint32_t>(record.market));
  PutI64(&out, record.sessions);
  PutU64(&out, record.pad_digest);
  PutU64(&out, record.baseline_digest);
  PutU64(&out, record.event_digest);
  PutF64(&out, record.generate_seconds);
  PutF64(&out, record.simulate_seconds);
  PutResult(&out, record.baseline);
  PutResult(&out, record.pad);
  return out;
}

bool ParseMarket(std::string_view payload, MarketRecord* record) {
  ByteReader in(payload);
  if (in.GetU8() != kMarketRecord) {
    return false;
  }
  record->market = static_cast<int32_t>(in.GetU32());
  record->sessions = in.GetI64();
  record->pad_digest = in.GetU64();
  record->baseline_digest = in.GetU64();
  record->event_digest = in.GetU64();
  record->generate_seconds = in.GetF64();
  record->simulate_seconds = in.GetF64();
  GetResult(in, &record->baseline);
  GetResult(in, &record->pad);
  return in.Finished();
}

// ---------------------------------------------------------------------------
// Config fingerprint: FNV-1a over ForEachKnob's list (config.h), 8 bytes per
// value: a double's IEEE bits; an integer, bool or enum as an int64; a char
// unsigned; a string or vector as its size, then each element; a composite as
// its fields. Existing journals resume only while the list and these
// encodings hold (ConfigFingerprintTest.ValuesArePinned).

class Fingerprint {
 public:
  template <typename... T>
  void Mix(const T&... values) {
    (MixOne(values), ...);
  }

  uint64_t value() const { return hash_; }

 private:
  template <typename T>
  void MixOne(const T& value) {
    if constexpr (std::is_floating_point_v<T>) {
      hash_ = FnvFoldU64(hash_, std::bit_cast<uint64_t>(value));
    } else if constexpr (std::is_same_v<T, char>) {
      hash_ = FnvFoldU64(hash_, static_cast<unsigned char>(value));
    } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      hash_ = FnvFoldU64(hash_, static_cast<uint64_t>(static_cast<int64_t>(value)));
    } else {
      MixOne(value.size());
      for (const auto& element : value) {
        MixOne(element);
      }
    }
  }
  void MixOne(const UserArchetype& a) {
    Mix(a.name, a.weight, a.sessions_per_day, a.session_duration_mu, a.session_duration_sigma);
  }
  void MixOne(const TailPhase& phase) {
    Mix(phase.name, phase.power_w, phase.duration_s, phase.resume_latency_s);
  }
  void MixOne(const RadioProfile& radio) {
    Mix(radio.name, radio.promo_latency_s, radio.promo_power_w, radio.active_power_w,
        radio.downlink_bps, radio.uplink_bps, radio.rtt_s, radio.tail);
  }

  uint64_t hash_ = kFnvOffset;
};

}  // namespace

uint64_t ConfigFingerprint(const PadConfig& config) {
  Fingerprint fp;
  fp.Mix(static_cast<int64_t>(kCheckpointSchemaVersion));
  // The skew pair is mixed only while the skew is on, so journals written
  // before the knob existed (and by skew-free configs since) keep their
  // fingerprints. A disabled skew cannot change a single draw, so omitting
  // it is exact, not an approximation.
  const bool skew_on = config.population.skew_heavy_fraction > 0.0;
  ForEachKnob(config, [&](std::string_view name, const auto& field, const KnobRange&) {
    if (skew_on || !name.starts_with("population.skew_")) {
      fp.Mix(field);
    }
  });
  return fp.value();
}

// ---------------------------------------------------------------------------
// Writer.

StatusOr<std::unique_ptr<CheckpointWriter>> CheckpointWriter::Create(
    const std::string& path, const CheckpointHeader& header, bool fsync_each) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::NotFound("cannot create checkpoint journal '" + path +
                            "': " + std::strerror(errno));
  }
  std::unique_ptr<CheckpointWriter> writer(new CheckpointWriter(fd, path, fsync_each));
  // Magic, then the header as an ordinary framed record.
  const std::string magic(kCheckpointMagic, 8);
  if (::write(fd, magic.data(), magic.size()) != static_cast<ssize_t>(magic.size())) {
    return Status::Unavailable("cannot write checkpoint magic to '" + path + "'");
  }
  PAD_RETURN_IF_ERROR(writer->WriteFrame(SerializeHeader(header)));
  if (fsync_each) {
    // The frames above are durable through fd, but the file's directory
    // entry is not until the directory itself is synced: a crash right
    // after creation could otherwise lose the journal *file*, name and all,
    // while its bytes sit in an unreachable inode.
    PAD_RETURN_IF_ERROR(FsyncParentDir(path));
  }
  return writer;
}

StatusOr<std::unique_ptr<CheckpointWriter>> CheckpointWriter::Resume(
    const std::string& path, int64_t valid_bytes, bool fsync_each) {
  // Drop any torn/corrupt tail before appending: everything past the CRC-
  // valid prefix is garbage a future replay must never see.
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Status::Unavailable("cannot truncate checkpoint journal '" + path +
                               "': " + std::strerror(errno));
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return Status::NotFound("cannot open checkpoint journal '" + path +
                            "' for append: " + std::strerror(errno));
  }
  return std::unique_ptr<CheckpointWriter>(new CheckpointWriter(fd, path, fsync_each));
}

CheckpointWriter::~CheckpointWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status CheckpointWriter::WriteFrame(const std::string& payload) {
  std::string bytes;
  bytes.reserve(8 + payload.size());
  PutU32(&bytes, static_cast<uint32_t>(payload.size()));
  PutU32(&bytes, Crc32(payload.data(), payload.size()));
  bytes += payload;
  // One write per record: a crash tears at most the record being written,
  // never an earlier one, so the valid prefix is exactly the fsync'd records.
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Unavailable("cannot append to checkpoint journal '" + path_ +
                                 "': " + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  if (fsync_each_ && ::fsync(fd_) != 0) {
    return Status::Unavailable("cannot fsync checkpoint journal '" + path_ +
                               "': " + std::strerror(errno));
  }
  return Status::Ok();
}

Status CheckpointWriter::Append(const MarketRecord& record) {
  return WriteFrame(SerializeMarket(record));
}

// ---------------------------------------------------------------------------
// Reader.

StatusOr<CheckpointContents> ReadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Status::NotFound("cannot open checkpoint journal '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();

  CheckpointContents contents;
  // Shorter than the magic: either empty or torn during creation. Both mean
  // "no completed work"; the engine recreates the journal from scratch.
  if (data.size() < 8) {
    if (!data.empty() && data != std::string(kCheckpointMagic, data.size())) {
      return Status::InvalidArgument("'" + path + "' is not a checkpoint journal");
    }
    contents.truncation_reason = "journal shorter than its magic";
    return contents;
  }
  if (data.compare(0, 8, kCheckpointMagic, 8) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a checkpoint journal (bad magic)");
  }

  size_t pos = 8;
  contents.valid_bytes = 8;
  std::set<int32_t> seen_markets;
  bool first_record = true;
  while (pos < data.size()) {
    // Frame header.
    if (data.size() - pos < 8) {
      contents.truncation_reason = "torn frame header";
      break;
    }
    ByteReader frame(std::string_view(data).substr(pos, 8));
    const uint32_t payload_len = frame.GetU32();
    const uint32_t stored_crc = frame.GetU32();
    if (payload_len > kMaxPayloadBytes) {
      contents.truncation_reason = "implausible frame length";
      break;
    }
    if (data.size() - pos - 8 < payload_len) {
      contents.truncation_reason = "torn record payload";
      break;
    }
    const std::string_view payload = std::string_view(data).substr(pos + 8, payload_len);
    if (Crc32(payload.data(), payload.size()) != stored_crc) {
      contents.truncation_reason = "record CRC mismatch";
      break;
    }

    if (first_record) {
      CheckpointHeader header;
      if (!ParseHeader(payload, &header)) {
        contents.truncation_reason = "malformed header record";
        break;
      }
      if (header.schema_version != kCheckpointSchemaVersion) {
        return Status::FailedPrecondition(
            "checkpoint journal '" + path + "' has schema version " +
            std::to_string(header.schema_version) + "; this build reads version " +
            std::to_string(kCheckpointSchemaVersion));
      }
      contents.header = header;
      contents.has_header = true;
      first_record = false;
    } else {
      MarketRecord record;
      if (!ParseMarket(payload, &record)) {
        contents.truncation_reason = "malformed market record";
        break;
      }
      if (record.market < 0 || record.market >= contents.header.num_markets ||
          !seen_markets.insert(record.market).second) {
        contents.truncation_reason = "market index out of range or duplicated";
        break;
      }
      // Belt and braces beyond the CRC: the stored digest must match the
      // digest of the metrics we just deserialized. A record that fails this
      // is treated exactly like a corrupt one.
      if (MetricsDigest(record.pad) != record.pad_digest ||
          (contents.header.run_baseline &&
           MetricsDigest(record.baseline) != record.baseline_digest)) {
        contents.truncation_reason = "metric digest mismatch";
        break;
      }
      contents.markets.push_back(std::move(record));
    }
    pos += 8 + payload_len;
    contents.valid_bytes = static_cast<int64_t>(pos);
  }
  if (first_record) {
    // No CRC-valid header: whatever the prefix holds, there is nothing to
    // resume from. Leave has_header false so the caller recreates the file.
    contents.valid_bytes = 8;
  }
  return contents;
}

// ---------------------------------------------------------------------------
// Shared open-or-resume protocol.

Status CheckJournalHeader(const CheckpointHeader& found, const CheckpointHeader& expected,
                          const std::string& path) {
  if (found.config_fingerprint != expected.config_fingerprint ||
      found.population_seed != expected.population_seed ||
      found.total_users != expected.total_users || found.num_markets != expected.num_markets) {
    return Status::FailedPrecondition(
        "checkpoint journal '" + path +
        "' was written by a different experiment (config fingerprint mismatch); "
        "delete the journal or point the checkpoint at a fresh path");
  }
  if (found.run_baseline != expected.run_baseline ||
      found.event_digests != expected.event_digests) {
    return Status::FailedPrecondition(
        "checkpoint journal '" + path +
        "' was written with different engine result flags (run_baseline/event_digests); "
        "rerun with the original flags or delete the journal");
  }
  return Status::Ok();
}

Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Unavailable("cannot open directory '" + dir +
                               "' for fsync: " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::Unavailable("cannot fsync directory '" + dir +
                               "': " + std::strerror(saved_errno));
  }
  return Status::Ok();
}

StatusOr<ResumedJournal> OpenOrResumeJournal(const std::string& path,
                                             const CheckpointHeader& expected,
                                             bool fsync_each) {
  ResumedJournal journal;
  StatusOr<CheckpointContents> read = ReadCheckpoint(path);
  if (!read.ok()) {
    if (read.status().code() != StatusCode::kNotFound) {
      return read.status();  // Foreign file or unreadable schema: refuse.
    }
  } else if (read->has_header) {
    PAD_RETURN_IF_ERROR(CheckJournalHeader(read->header, expected, path));
    journal.records = std::move(read->markets);
    PAD_ASSIGN_OR_RETURN(journal.writer,
                         CheckpointWriter::Resume(path, read->valid_bytes, fsync_each));
    return journal;
  }
  // No journal yet, or a crash between create and the first fsync left no
  // CRC-valid header: nothing to resume, start fresh.
  PAD_ASSIGN_OR_RETURN(journal.writer, CheckpointWriter::Create(path, expected, fsync_each));
  return journal;
}

}  // namespace pad
