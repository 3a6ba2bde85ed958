// WAL log records (§2.2: index-level logical logging with no-steal/no-force
// buffering; §5.2: an extra "update bit" per delete/upsert records whether
// the old key lived in a disk component, so bitmap changes can be undone on
// abort and replayed on recovery).
#pragma once

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"

namespace auxlsm {

using Lsn = uint64_t;
inline constexpr Lsn kInvalidLsn = 0;

enum class LogRecordType : uint8_t {
  kInsert = 1,      ///< insert of a new record
  kUpsert = 2,      ///< upsert (blind or with old-record handling)
  kDelete = 3,      ///< delete by primary key
  kCommit = 4,
  kAbort = 5,
  kCheckpoint = 6,  ///< bitmap pages flushed up to this LSN
};

struct LogRecord {
  Lsn lsn = kInvalidLsn;
  uint64_t txn_id = 0;
  LogRecordType type = LogRecordType::kInsert;
  std::string key;    ///< primary key (empty for commit/abort/checkpoint)
  std::string value;  ///< serialized record (empty for deletes)
  Timestamp ts = 0;   ///< ingestion timestamp assigned to the operation
  /// §5.2: 1 iff the operation flipped a disk-component bitmap bit.
  bool update_bit = false;

  /// Binary encoding with a masked CRC-32C trailer.
  std::string Encode() const;
  /// Encode().size(), computed from the field sizes without encoding.
  size_t EncodedSize() const;
  static Status Decode(const Slice& data, LogRecord* out, size_t* consumed);
};

}  // namespace auxlsm
