#include "serve/snapshot.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/text.h"
#include "pc/serialization.h"

namespace pcx {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string ToHex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const char* AttrDomainName(AttrDomain d) {
  return d == AttrDomain::kInteger ? "int" : "cont";
}

StatusOr<AttrDomain> ParseAttrDomain(const std::string& s) {
  if (s == "int") return AttrDomain::kInteger;
  if (s == "cont") return AttrDomain::kContinuous;
  return Status::InvalidArgument("unknown attribute domain '" + s + "'");
}

namespace {

/// Reads "key=value" off `line` (a whitespace-split token list).
StatusOr<std::string> TokenValue(const std::vector<std::string>& tokens,
                                 const std::string& key) {
  const std::string needle = key + "=";
  for (const std::string& t : tokens) {
    if (t.rfind(needle, 0) == 0) return t.substr(needle.size());
  }
  return Status::InvalidArgument("missing field '" + key + "'");
}

std::string CanonicalSchema(size_t num_attrs,
                            const std::vector<AttrDomain>& domains) {
  std::ostringstream os;
  os << "attrs=" << num_attrs << ";domains=";
  for (size_t a = 0; a < num_attrs; ++a) {
    if (a > 0) os << ",";
    os << AttrDomainName(DomainOf(domains, a));
  }
  return os.str();
}

}  // namespace

size_t Snapshot::total_pcs() const {
  size_t n = 0;
  for (const SnapshotShard& s : shards) n += s.indices.size();
  return n;
}

PredicateConstraintSet Snapshot::Flatten() const {
  const size_t n = total_pcs();
  std::vector<const PredicateConstraint*> by_index(n, nullptr);
  for (const SnapshotShard& s : shards) {
    PCX_CHECK_EQ(s.indices.size(), s.pcs.size());
    for (size_t i = 0; i < s.indices.size(); ++i) {
      PCX_CHECK(s.indices[i] < n) << "snapshot index out of range";
      by_index[s.indices[i]] = &s.pcs.at(i);
    }
  }
  PredicateConstraintSet out;
  for (const PredicateConstraint* pc : by_index) {
    PCX_CHECK(pc != nullptr) << "snapshot misses a global index";
    out.Add(*pc);
  }
  return out;
}

uint64_t SchemaDigest(size_t num_attrs,
                      const std::vector<AttrDomain>& domains) {
  return Fnv1a64(CanonicalSchema(num_attrs, domains));
}

Snapshot MakeSnapshot(const PredicateConstraintSet& pcs,
                      const std::vector<AttrDomain>& domains,
                      const Partition& partition, uint64_t epoch) {
  Snapshot snap;
  snap.epoch = epoch;
  snap.num_attrs = pcs.num_attrs();
  snap.domains.reserve(snap.num_attrs);
  for (size_t a = 0; a < snap.num_attrs; ++a) {
    snap.domains.push_back(DomainOf(domains, a));
  }
  for (const std::vector<size_t>& shard : partition.shards) {
    SnapshotShard out;
    out.indices = shard;
    for (size_t i : shard) {
      PCX_CHECK(i < pcs.size()) << "partition index out of range";
      out.pcs.Add(pcs.at(i));
    }
    snap.shards.push_back(std::move(out));
  }
  return snap;
}

std::string SerializeSnapshot(const Snapshot& snapshot) {
  std::ostringstream os;
  os << "pcxsnap v1 shards=" << snapshot.shards.size()
     << " epoch=" << snapshot.epoch << "\n";
  os << "schema attrs=" << snapshot.num_attrs << " domains=";
  for (size_t a = 0; a < snapshot.num_attrs; ++a) {
    if (a > 0) os << ",";
    os << AttrDomainName(DomainOf(snapshot.domains, a));
  }
  os << " digest=" << ToHex64(SchemaDigest(snapshot.num_attrs, snapshot.domains))
     << "\n";
  for (size_t s = 0; s < snapshot.shards.size(); ++s) {
    const SnapshotShard& shard = snapshot.shards[s];
    // The payload is a plain pcset document; an empty shard still
    // carries the pcset header so the payload always parses on its own.
    std::ostringstream payload;
    if (shard.pcs.empty()) {
      payload << "pcset v1 attrs=" << snapshot.num_attrs << "\n";
    } else {
      payload << SerializePcSet(shard.pcs);
    }
    os << "shard " << s << " pcs=" << shard.indices.size() << " indices=";
    for (size_t i = 0; i < shard.indices.size(); ++i) {
      if (i > 0) os << ",";
      os << shard.indices[i];
    }
    os << " checksum=" << ToHex64(Fnv1a64(payload.str())) << "\n";
    os << payload.str();
    os << "end shard " << s << "\n";
  }
  os << "end pcxsnap\n";
  return os.str();
}

StatusOr<Snapshot> ParseSnapshot(const std::string& text) {
  std::istringstream is(text);
  std::string raw;
  size_t line_no = 0;
  auto error = [&](const std::string& msg) {
    return Status::InvalidArgument("snapshot line " + std::to_string(line_no) +
                                   ": " + msg);
  };

  // Header.
  std::string line;
  auto next_line = [&]() -> bool {
    while (std::getline(is, raw)) {
      ++line_no;
      line = TrimWhitespace(raw);
      if (line.empty() || line[0] == '#') continue;
      return true;
    }
    return false;
  };

  if (!next_line()) return Status::InvalidArgument("empty snapshot document");
  {
    const auto tokens = SplitWhitespace(line);
    if (tokens.size() < 2 || tokens[0] != "pcxsnap" || tokens[1] != "v1") {
      return error("expected header 'pcxsnap v1 shards=K epoch=E'");
    }
  }
  const auto header_tokens = SplitWhitespace(line);
  PCX_ASSIGN_OR_RETURN(const std::string shards_str,
                       TokenValue(header_tokens, "shards"));
  PCX_ASSIGN_OR_RETURN(const uint64_t num_shards, ParseU64(shards_str));
  if (num_shards > kMaxShards) {
    // The v1 format caps shards at the solver's 64-bit routing mask;
    // rejecting here keeps LOAD an ERR instead of a process abort.
    return error("snapshot declares " + shards_str + " shards; the v1 limit is " +
                 std::to_string(kMaxShards));
  }
  PCX_ASSIGN_OR_RETURN(const std::string epoch_str,
                       TokenValue(header_tokens, "epoch"));
  Snapshot snap;
  PCX_ASSIGN_OR_RETURN(snap.epoch, ParseU64(epoch_str));

  // Schema line.
  if (!next_line()) return error("missing schema line");
  {
    const auto tokens = SplitWhitespace(line);
    if (tokens.empty() || tokens[0] != "schema") {
      return error("expected 'schema attrs=A domains=... digest=...'");
    }
    PCX_ASSIGN_OR_RETURN(const std::string attrs_str,
                         TokenValue(tokens, "attrs"));
    PCX_ASSIGN_OR_RETURN(const uint64_t attrs, ParseU64(attrs_str));
    snap.num_attrs = static_cast<size_t>(attrs);
    PCX_ASSIGN_OR_RETURN(const std::string domains_str,
                         TokenValue(tokens, "domains"));
    if (snap.num_attrs > 0) {
      const auto parts = SplitOn(domains_str, ',');
      if (parts.size() != snap.num_attrs) {
        return error("domains list has " + std::to_string(parts.size()) +
                     " entries for " + std::to_string(snap.num_attrs) +
                     " attributes");
      }
      for (const std::string& p : parts) {
        PCX_ASSIGN_OR_RETURN(const AttrDomain d, ParseAttrDomain(TrimWhitespace(p)));
        snap.domains.push_back(d);
      }
    }
    PCX_ASSIGN_OR_RETURN(const std::string digest_str,
                         TokenValue(tokens, "digest"));
    PCX_ASSIGN_OR_RETURN(const uint64_t digest, ParseU64(digest_str, 16));
    const uint64_t expected = SchemaDigest(snap.num_attrs, snap.domains);
    if (digest != expected) {
      return error("schema digest mismatch: file says " + digest_str +
                   ", schema hashes to " + ToHex64(expected));
    }
  }

  // Shard sections.
  for (uint64_t s = 0; s < num_shards; ++s) {
    if (!next_line()) return error("missing 'shard' line");
    const auto tokens = SplitWhitespace(line);
    if (tokens.size() < 2 || tokens[0] != "shard") {
      return error("expected 'shard " + std::to_string(s) + " ...'");
    }
    PCX_ASSIGN_OR_RETURN(const uint64_t shard_id, ParseU64(tokens[1]));
    if (shard_id != s) {
      return error("shard sections out of order: saw " + tokens[1] +
                   ", expected " + std::to_string(s));
    }
    PCX_ASSIGN_OR_RETURN(const std::string pcs_str,
                         TokenValue(tokens, "pcs"));
    PCX_ASSIGN_OR_RETURN(const uint64_t pcs_count, ParseU64(pcs_str));
    PCX_ASSIGN_OR_RETURN(const std::string indices_str,
                         TokenValue(tokens, "indices"));
    PCX_ASSIGN_OR_RETURN(const std::string checksum_str,
                         TokenValue(tokens, "checksum"));
    PCX_ASSIGN_OR_RETURN(const uint64_t checksum, ParseU64(checksum_str, 16));

    SnapshotShard shard;
    if (!indices_str.empty()) {
      for (const std::string& part : SplitOn(indices_str, ',')) {
        PCX_ASSIGN_OR_RETURN(const uint64_t idx, ParseU64(TrimWhitespace(part)));
        shard.indices.push_back(static_cast<size_t>(idx));
      }
    }
    if (shard.indices.size() != pcs_count) {
      return error("shard " + std::to_string(s) + " declares " + pcs_str +
                   " pcs but lists " + std::to_string(shard.indices.size()) +
                   " indices");
    }
    for (size_t i = 1; i < shard.indices.size(); ++i) {
      // Ascending order within a shard is what lets the sharded solver
      // reassemble the global constraint order — the bit-identity
      // guarantee depends on it, so a writer that shuffles is rejected.
      if (shard.indices[i] <= shard.indices[i - 1]) {
        return error("shard " + std::to_string(s) +
                     " indices must be strictly ascending");
      }
    }

    // Payload: raw lines until 'end shard s', checksummed over
    // LF-normalized bytes (a trailing CR is stripped) so a snapshot
    // re-saved with CRLF endings still verifies — matching the CRLF
    // tolerance of every other parser in the format.
    const std::string terminator = "end shard " + std::to_string(s);
    std::string payload;
    bool terminated = false;
    while (std::getline(is, raw)) {
      ++line_no;
      if (!raw.empty() && raw.back() == '\r') raw.pop_back();
      if (TrimWhitespace(raw) == terminator) {
        terminated = true;
        break;
      }
      payload += raw;
      payload += '\n';
    }
    if (!terminated) return error("unterminated shard " + std::to_string(s));
    if (Fnv1a64(payload) != checksum) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " checksum mismatch (expected " +
          checksum_str + ", payload hashes to " + ToHex64(Fnv1a64(payload)) +
          "): snapshot corrupted or hand-edited");
    }
    auto parsed = ParsePcSet(payload);
    if (!parsed.ok()) {
      return Status::InvalidArgument("shard " + std::to_string(s) + ": " +
                                     parsed.status().message());
    }
    shard.pcs = *std::move(parsed);
    if (shard.pcs.size() != pcs_count) {
      return error("shard " + std::to_string(s) + " payload has " +
                   std::to_string(shard.pcs.size()) + " pcs, header says " +
                   pcs_str);
    }
    if (!shard.pcs.empty() && snap.num_attrs > 0 &&
        shard.pcs.num_attrs() != snap.num_attrs) {
      return error("shard " + std::to_string(s) + " attribute count " +
                   std::to_string(shard.pcs.num_attrs()) +
                   " disagrees with schema");
    }
    snap.shards.push_back(std::move(shard));
  }

  if (!next_line() || line != "end pcxsnap") {
    return error("missing 'end pcxsnap' trailer");
  }

  // Global index consistency: exactly a permutation of 0..n-1.
  const size_t total = snap.total_pcs();
  std::vector<char> seen(total, 0);
  for (const SnapshotShard& shard : snap.shards) {
    for (size_t i : shard.indices) {
      if (i >= total) {
        return Status::InvalidArgument(
            "snapshot index " + std::to_string(i) + " out of range (total " +
            std::to_string(total) + " pcs)");
      }
      if (seen[i]) {
        return Status::InvalidArgument("snapshot index " + std::to_string(i) +
                                       " appears twice");
      }
      seen[i] = 1;
    }
  }
  return snap;
}

Status WriteSnapshot(const Snapshot& snapshot, const std::string& path) {
  return AtomicWriteFile(path, SerializeSnapshot(snapshot));
}

StatusOr<Snapshot> LoadSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open snapshot '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = ParseSnapshot(buf.str());
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  "'" + path + "': " + parsed.status().message());
  }
  return parsed;
}

}  // namespace pcx
