#include "serve/delta_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/text.h"
#include "pc/serialization.h"

namespace pcx {
namespace {

/// Splits "<body> crc=<hex16>" and verifies the crc covers `body`
/// exactly. Returns the body on success.
StatusOr<std::string> CheckLineCrc(const std::string& line) {
  const size_t at = line.rfind(" crc=");
  if (at == std::string::npos) {
    return Status::InvalidArgument("line lacks a crc field");
  }
  const std::string body = line.substr(0, at);
  PCX_ASSIGN_OR_RETURN(const uint64_t want, ParseU64(line.substr(at + 5), 16));
  const uint64_t got = Fnv1a64(body);
  if (got != want) {
    return Status::InvalidArgument("crc mismatch: line claims " +
                                   ToHex64(want) + ", bytes hash to " +
                                   ToHex64(got));
  }
  return body;
}

StatusOr<std::string> TokenValue(const std::vector<std::string>& tokens,
                                 const std::string& key) {
  const std::string needle = key + "=";
  for (const std::string& t : tokens) {
    if (t.rfind(needle, 0) == 0) return t.substr(needle.size());
  }
  return Status::InvalidArgument("missing field '" + key + "'");
}

StatusOr<DeltaLogHeader> ParseLogHeaderLine(const std::string& line,
                                            uint64_t* crc_out) {
  PCX_ASSIGN_OR_RETURN(const std::string body, CheckLineCrc(line));
  if (crc_out != nullptr) *crc_out = Fnv1a64(body);
  const auto tokens = SplitWhitespace(body);
  if (tokens.size() < 2 || tokens[0] != "pcxlog" || tokens[1] != "v1") {
    return Status::InvalidArgument(
        "expected header 'pcxlog v1 attrs=N domains=... digest=... "
        "base_epoch=E crc=...'");
  }
  DeltaLogHeader h;
  PCX_ASSIGN_OR_RETURN(const std::string attrs_str,
                       TokenValue(tokens, "attrs"));
  PCX_ASSIGN_OR_RETURN(const uint64_t attrs, ParseU64(attrs_str));
  h.num_attrs = static_cast<size_t>(attrs);
  PCX_ASSIGN_OR_RETURN(const std::string domains_str,
                       TokenValue(tokens, "domains"));
  if (h.num_attrs > 0) {
    const auto parts = SplitOn(domains_str, ',');
    if (parts.size() != h.num_attrs) {
      return Status::InvalidArgument(
          "domains list has " + std::to_string(parts.size()) +
          " entries for " + std::to_string(h.num_attrs) + " attributes");
    }
    for (const std::string& p : parts) {
      PCX_ASSIGN_OR_RETURN(const AttrDomain d,
                           ParseAttrDomain(TrimWhitespace(p)));
      h.domains.push_back(d);
    }
  }
  PCX_ASSIGN_OR_RETURN(const std::string digest_str,
                       TokenValue(tokens, "digest"));
  PCX_ASSIGN_OR_RETURN(const uint64_t digest, ParseU64(digest_str, 16));
  const uint64_t expected = SchemaDigest(h.num_attrs, h.domains);
  if (digest != expected) {
    return Status::InvalidArgument("header digest " + digest_str +
                                   " does not match its own schema (" +
                                   ToHex64(expected) + ")");
  }
  PCX_ASSIGN_OR_RETURN(const std::string epoch_str,
                       TokenValue(tokens, "base_epoch"));
  PCX_ASSIGN_OR_RETURN(h.base_epoch, ParseU64(epoch_str));
  return h;
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

std::string SerializeLogHeader(const DeltaLogHeader& header,
                               uint64_t* crc_out) {
  std::ostringstream os;
  os << "pcxlog v1 attrs=" << header.num_attrs << " domains=";
  for (size_t a = 0; a < header.num_attrs; ++a) {
    if (a > 0) os << ",";
    os << AttrDomainName(DomainOf(header.domains, a));
  }
  os << " digest=" << ToHex64(SchemaDigest(header.num_attrs, header.domains))
     << " base_epoch=" << header.base_epoch;
  const uint64_t crc = Fnv1a64(os.str());
  if (crc_out != nullptr) *crc_out = crc;
  os << " crc=" << ToHex64(crc);
  return os.str();
}

std::string SerializeDeltaRecord(const DeltaRecord& rec, uint64_t chain,
                                 uint64_t* crc_out) {
  std::ostringstream os;
  os << "rec epoch=" << rec.epoch << " ";
  switch (rec.op) {
    case DeltaOp::kAppend:
      os << "append " << SerializePcBody(rec.pc);
      break;
    case DeltaOp::kRetire:
      os << "retire idx=" << rec.retire_index;
      break;
    case DeltaOp::kCheckpoint:
      os << "checkpoint";
      break;
  }
  os << " chain=" << ToHex64(chain);
  const uint64_t crc = Fnv1a64(os.str());
  if (crc_out != nullptr) *crc_out = crc;
  os << " crc=" << ToHex64(crc);
  return os.str();
}

StatusOr<DeltaRecord> ParseDeltaRecordLine(const std::string& line,
                                           size_t num_attrs,
                                           const uint64_t* expected_chain) {
  PCX_ASSIGN_OR_RETURN(const std::string body, CheckLineCrc(line));
  const size_t chain_at = body.rfind(" chain=");
  if (chain_at == std::string::npos) {
    return Status::InvalidArgument("record lacks a chain field");
  }
  PCX_ASSIGN_OR_RETURN(const uint64_t chain,
                       ParseU64(body.substr(chain_at + 7), 16));
  if (expected_chain != nullptr && chain != *expected_chain) {
    return Status::InvalidArgument(
        "chain mismatch: record links to " + ToHex64(chain) +
        " but the previous line hashes to " + ToHex64(*expected_chain));
  }
  const std::string payload = body.substr(0, chain_at);
  const auto tokens = SplitWhitespace(payload);
  if (tokens.size() < 3 || tokens[0] != "rec") {
    return Status::InvalidArgument("expected 'rec epoch=E <op> ...'");
  }
  if (tokens[1].rfind("epoch=", 0) != 0) {
    return Status::InvalidArgument("record lacks an epoch field");
  }
  DeltaRecord rec;
  PCX_ASSIGN_OR_RETURN(rec.epoch, ParseU64(tokens[1].substr(6)));
  const std::string& op = tokens[2];
  if (op == "append") {
    rec.op = DeltaOp::kAppend;
    const size_t at = payload.find(" append ");
    PCX_ASSIGN_OR_RETURN(rec.pc,
                         ParsePcBody(payload.substr(at + 8), num_attrs));
  } else if (op == "retire") {
    rec.op = DeltaOp::kRetire;
    if (tokens.size() < 4 || tokens[3].rfind("idx=", 0) != 0) {
      return Status::InvalidArgument("retire record lacks idx=");
    }
    PCX_ASSIGN_OR_RETURN(const uint64_t idx, ParseU64(tokens[3].substr(4)));
    rec.retire_index = static_cast<size_t>(idx);
  } else if (op == "checkpoint") {
    rec.op = DeltaOp::kCheckpoint;
  } else {
    return Status::InvalidArgument("unknown delta op '" + op + "'");
  }
  return rec;
}

StatusOr<DeltaLogReplay> ReplayDeltaLog(const std::string& text) {
  DeltaLogReplay out;

  // Header: the first LF-terminated line. A torn or corrupt header means
  // nothing in the file can be trusted — that is a hard error, unlike a
  // torn record tail.
  const size_t header_end = text.find('\n');
  if (header_end == std::string::npos) {
    return Status::InvalidArgument(
        "delta log lacks a complete header line");
  }
  uint64_t chain = 0;
  {
    auto header = ParseLogHeaderLine(text.substr(0, header_end), &chain);
    if (!header.ok()) {
      return Status::InvalidArgument("delta log header: " +
                                     header.status().message());
    }
    out.header = *std::move(header);
  }
  out.valid_bytes = header_end + 1;
  out.tip_crc = chain;
  out.tip_epoch = out.header.base_epoch;

  // Records. The valid prefix ends at the first violation; whatever
  // remains (including a final line with no '\n' — a torn append) is
  // counted, never fatal.
  size_t pos = out.valid_bytes;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      out.truncation_reason = "final record has no newline (torn append)";
      break;
    }
    const std::string line = text.substr(pos, eol - pos);
    auto rec = ParseDeltaRecordLine(line, out.header.num_attrs, &chain);
    if (!rec.ok()) {
      out.truncation_reason = rec.status().message();
      break;
    }
    if (rec->epoch != out.tip_epoch + 1) {
      out.truncation_reason =
          "epoch discontinuity: record carries epoch " +
          std::to_string(rec->epoch) + " after epoch " +
          std::to_string(out.tip_epoch);
      break;
    }
    chain = Fnv1a64(line.substr(0, line.rfind(" crc=")));
    out.tip_crc = chain;
    out.tip_epoch = rec->epoch;
    out.records.push_back(*std::move(rec));
    pos = eol + 1;
    out.valid_bytes = pos;
  }
  // Count every remaining line (terminated or not) as dropped.
  for (size_t p = out.valid_bytes; p < text.size();) {
    ++out.dropped_records;
    const size_t eol = text.find('\n', p);
    if (eol == std::string::npos) break;
    p = eol + 1;
  }
  return out;
}

std::string DurableLogBasePath(const std::string& dir) {
  return dir + "/base.pcxsnap";
}

std::string DurableLogLogPath(const std::string& dir) {
  return dir + "/delta.pcxlog";
}

StatusOr<std::unique_ptr<DurableLog>> DurableLog::Open(const std::string& dir,
                                                       Recovered* out) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoStatus("mkdir", dir);
  }
  std::unique_ptr<DurableLog> log(new DurableLog(dir));
  Recovered recovered;
  const std::string base_path = DurableLogBasePath(dir);
  const std::string log_path = DurableLogLogPath(dir);

  if (!FileExists(base_path)) {
    if (FileExists(log_path)) {
      return Status::FailedPrecondition(
          "log dir '" + dir +
          "' has a delta log but no base snapshot; the pair is written "
          "base-first, so the snapshot was removed out of band");
    }
    // Fresh directory: stay uninitialized until the first Reset().
    if (out != nullptr) *out = std::move(recovered);
    return log;
  }

  PCX_ASSIGN_OR_RETURN(recovered.base, LoadSnapshot(base_path));
  recovered.has_base = true;

  DeltaLogHeader want;
  want.num_attrs = recovered.base.num_attrs;
  want.domains = recovered.base.domains;
  want.base_epoch = recovered.base.epoch;

  bool need_fresh_log = !FileExists(log_path);
  if (!need_fresh_log) {
    PCX_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(log_path));
    PCX_ASSIGN_OR_RETURN(DeltaLogReplay replay, ReplayDeltaLog(bytes));
    if (replay.header.base_epoch != want.base_epoch ||
        SchemaDigest(replay.header.num_attrs, replay.header.domains) !=
            SchemaDigest(want.num_attrs, want.domains)) {
      // The other half of an interrupted Reset(): the base was renamed
      // into place but the fresh log was not. The base is authoritative.
      need_fresh_log = true;
    } else {
      if (replay.valid_bytes < bytes.size()) {
        // Torn tail: truncate in place so future appends chain off the
        // last *valid* record instead of interleaving with garbage.
        if (::truncate(log_path.c_str(),
                       static_cast<off_t>(replay.valid_bytes)) != 0) {
          return ErrnoStatus("truncate", log_path);
        }
        recovered.dropped_records = replay.dropped_records;
        recovered.truncation_reason = replay.truncation_reason;
      }
      recovered.tail = std::move(replay.records);
      log->header_ = std::move(replay.header);
      log->chain_crc_ = replay.tip_crc;
      log->next_epoch_ = replay.tip_epoch + 1;
    }
  }
  if (need_fresh_log) {
    uint64_t crc = 0;
    PCX_RETURN_IF_ERROR(AtomicWriteFile(
        log_path, SerializeLogHeader(want, &crc) + "\n"));
    log->header_ = want;
    log->chain_crc_ = crc;
    log->next_epoch_ = want.base_epoch + 1;
  }

  log->log_fd_ = ::open(log_path.c_str(), O_WRONLY | O_APPEND);
  if (log->log_fd_ < 0) return ErrnoStatus("open", log_path);
  if (out != nullptr) *out = std::move(recovered);
  return log;
}

DurableLog::~DurableLog() {
  if (log_fd_ >= 0) ::close(log_fd_);
}

Status DurableLog::Reset(const Snapshot& snap) {
  const std::string base_path = DurableLogBasePath(dir_);
  const std::string log_path = DurableLogLogPath(dir_);
  // Base first: Open() treats a log whose base_epoch/digest disagree
  // with the base as "reinitialize from base", so a crash between the
  // two renames recovers to exactly this snapshot.
  PCX_RETURN_IF_ERROR(
      AtomicWriteFile(base_path, SerializeSnapshot(snap)));
  DeltaLogHeader header;
  header.num_attrs = snap.num_attrs;
  header.domains = snap.domains;
  header.base_epoch = snap.epoch;
  uint64_t crc = 0;
  PCX_RETURN_IF_ERROR(AtomicWriteFile(
      log_path, SerializeLogHeader(header, &crc) + "\n"));
  if (log_fd_ >= 0) ::close(log_fd_);
  log_fd_ = ::open(log_path.c_str(), O_WRONLY | O_APPEND);
  if (log_fd_ < 0) return ErrnoStatus("open", log_path);
  header_ = std::move(header);
  chain_crc_ = crc;
  next_epoch_ = snap.epoch + 1;
  return Status::OK();
}

Status DurableLog::Append(const DeltaRecord& rec) {
  if (log_fd_ < 0) {
    return Status::FailedPrecondition(
        "durable log has no base snapshot yet; Reset() first");
  }
  if (rec.epoch != next_epoch_) {
    return Status::FailedPrecondition(
        "record carries epoch " + std::to_string(rec.epoch) +
        " but the log expects " + std::to_string(next_epoch_));
  }
  uint64_t crc = 0;
  const std::string line = SerializeDeltaRecord(rec, chain_crc_, &crc);
  PCX_RETURN_IF_ERROR(WriteAll(log_fd_, line + "\n", "delta log"));
  if (fsync_hist_ != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    PCX_RETURN_IF_ERROR(Fsync(log_fd_, "delta log"));
    fsync_hist_->Observe(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  } else {
    PCX_RETURN_IF_ERROR(Fsync(log_fd_, "delta log"));
  }
  chain_crc_ = crc;
  ++next_epoch_;
  return Status::OK();
}

void DurableLog::set_metrics(MetricsRegistry* metrics) {
  fsync_hist_ = metrics == nullptr
                    ? nullptr
                    : &metrics->GetHistogram(
                          "pcx_log_fsync_latency_us", {},
                          "Delta-log append fsync latency (microseconds)");
}

}  // namespace pcx
