#ifndef PCX_SERVE_SNAPSHOT_H_
#define PCX_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "pc/pc_set.h"
#include "serve/partitioner.h"

namespace pcx {

/// Versioned on-disk snapshots of a partitioned predicate-constraint
/// set — the unit a pcx_serve process loads and answers queries from.
/// The paper's framing is that constraints are artifacts to be
/// "checked, versioned, and tested"; a snapshot adds the serving-side
/// half of that discipline: an epoch number that survives round-trips
/// (so replicas can agree on which constraint version answered a
/// query, in the spirit of Skeena's cross-engine snapshot epochs), a
/// schema digest that rejects files from a different table layout, and
/// per-shard checksums that catch truncation or hand-editing slips.
///
/// Layout (text, layered on pc/serialization's pcset format):
///
///   pcxsnap v1 shards=2 epoch=7
///   schema attrs=3 domains=int,int,cont digest=c0ffee0123456789
///   shard 0 pcs=2 indices=0,2 checksum=89abcdef01234567
///   pcset v1 attrs=3
///   pc pred={0:[0,24)} values={2:[0,5]} freq=[10,20]
///   pc pred={0:[24,48)} values={2:[0,9]} freq=[0,15]
///   end shard 0
///   shard 1 pcs=1 indices=1 checksum=...
///   ...
///   end shard 1
///   end pcxsnap
///
/// `indices` are positions in the original (unsharded) set; they let the
/// loader reassemble the exact global constraint order, which the
/// sharded solver's bit-identity guarantee depends on. Checksums and the
/// digest are FNV-1a 64 in hex; shard checksums cover the exact payload
/// bytes between the `shard` and `end shard` lines.
struct SnapshotShard {
  std::vector<size_t> indices;  ///< global PC ids, ascending
  PredicateConstraintSet pcs;   ///< same order as `indices`
};

struct Snapshot {
  uint64_t epoch = 0;
  size_t num_attrs = 0;
  std::vector<AttrDomain> domains;  ///< one entry per attribute
  std::vector<SnapshotShard> shards;

  size_t total_pcs() const;
  /// Reassembles the unsharded set in global order.
  PredicateConstraintSet Flatten() const;
};

/// Builds a snapshot from a set and a shard assignment (see
/// PartitionPcSet). `domains` shorter than the attribute count is padded
/// with kContinuous.
Snapshot MakeSnapshot(const PredicateConstraintSet& pcs,
                      const std::vector<AttrDomain>& domains,
                      const Partition& partition, uint64_t epoch);

std::string SerializeSnapshot(const Snapshot& snapshot);

/// Parses and *validates*: format version, schema digest, shard
/// checksums, per-shard counts, and that the shard indices are exactly a
/// permutation of 0..total-1. Returns InvalidArgument naming the
/// offending shard/line otherwise.
StatusOr<Snapshot> ParseSnapshot(const std::string& text);

/// Replaces `path` crash-safely (AtomicWriteFile): a crash or failed
/// write leaves any existing snapshot there byte-identical.
Status WriteSnapshot(const Snapshot& snapshot, const std::string& path);
StatusOr<Snapshot> LoadSnapshot(const std::string& path);

/// FNV-1a 64 of the canonical schema line ("attrs=N;domains=a,b,c").
uint64_t SchemaDigest(size_t num_attrs, const std::vector<AttrDomain>& domains);

/// FNV-1a 64 over raw bytes — the checksum primitive shared by the
/// snapshot format (shard checksums, schema digest) and the delta log
/// (per-record CRCs, chain links).
uint64_t Fnv1a64(const std::string& bytes);

/// 16-digit lowercase hex — the on-disk spelling of every checksum.
std::string ToHex64(uint64_t v);

/// Attribute-domain names as they appear in schema lines ("int"/"cont").
const char* AttrDomainName(AttrDomain d);
StatusOr<AttrDomain> ParseAttrDomain(const std::string& s);

}  // namespace pcx

#endif  // PCX_SERVE_SNAPSHOT_H_
