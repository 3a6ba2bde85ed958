#include "txn/log_record.h"

#include "common/coding.h"
#include "common/crc32.h"

namespace auxlsm {

std::string LogRecord::Encode() const {
  std::string body;
  PutVarint64(&body, lsn);
  PutVarint64(&body, txn_id);
  body.push_back(static_cast<char>(type));
  body.push_back(static_cast<char>(update_bit ? 1 : 0));
  PutVarint64(&body, ts);
  PutLengthPrefixedSlice(&body, key);
  PutLengthPrefixedSlice(&body, value);

  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(body.size()));
  PutFixed32(&out, MaskCrc(Crc32c(body.data(), body.size())));
  out += body;
  return out;
}

size_t LogRecord::EncodedSize() const {
  // Header (fixed32 length + fixed32 crc), then the body fields in Encode's
  // order: the type and update bit take one byte each.
  return 8 + VarintLength(lsn) + VarintLength(txn_id) + 2 + VarintLength(ts) +
         VarintLength(key.size()) + key.size() + VarintLength(value.size()) +
         value.size();
}

Status LogRecord::Decode(const Slice& data, LogRecord* out, size_t* consumed) {
  if (data.size() < 8) return Status::Corruption("log record header");
  // size_t, not uint32_t: a length prefix near 2^32 must not wrap 8 + len
  // past the bounds check.
  const size_t len = DecodeFixed32(data.data());
  const uint32_t crc = UnmaskCrc(DecodeFixed32(data.data() + 4));
  if (data.size() < 8 + len) return Status::Corruption("log record truncated");
  const Slice body(data.data() + 8, len);
  if (Crc32c(body.data(), body.size()) != crc) {
    return Status::Corruption("log record checksum");
  }
  Slice p = body;
  uint64_t lsn = 0, txn = 0, ts = 0;
  if (!GetVarint64(&p, &lsn) || !GetVarint64(&p, &txn) || p.size() < 2) {
    return Status::Corruption("log record fields");
  }
  out->lsn = lsn;
  out->txn_id = txn;
  out->type = static_cast<LogRecordType>(p[0]);
  out->update_bit = p[1] != 0;
  p.remove_prefix(2);
  Slice key, value;
  if (!GetVarint64(&p, &ts) || !GetLengthPrefixedSlice(&p, &key) ||
      !GetLengthPrefixedSlice(&p, &value)) {
    return Status::Corruption("log record payload");
  }
  out->ts = ts;
  out->key = key.ToString();
  out->value = value.ToString();
  *consumed = 8 + len;
  return Status::OK();
}

}  // namespace auxlsm
