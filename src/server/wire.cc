#include "server/wire.h"

#include <cstring>

namespace skeena::server {

namespace {

// -- little-endian primitive writers/readers --------------------------------

void PutLE16(std::string* out, uint16_t v) {
  char b[2];
  std::memcpy(b, &v, 2);
  out->append(b, 2);
}

void PutLE32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutLE64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

/// Bounds-checked forward cursor over a frame body. Every Read* returns
/// false once any prior read ran past the end, so decoders can chain reads
/// and check once.
struct Reader {
  const char* p;
  size_t left;
  bool ok = true;

  explicit Reader(std::string_view s) : p(s.data()), left(s.size()) {}

  bool Take(void* dst, size_t n) {
    if (!ok || left < n) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }

  bool U8(uint8_t* v) { return Take(v, 1); }
  bool U16(uint16_t* v) { return Take(v, 2); }
  bool U32(uint32_t* v) { return Take(v, 4); }
  bool U64(uint64_t* v) { return Take(v, 8); }
  bool KeyBytes(Key* k) { return Take(k->data(), k->size()); }

  bool Bytes(std::string* out, size_t n) {
    if (!ok || left < n) {
      ok = false;
      return false;
    }
    out->assign(p, n);
    p += n;
    left -= n;
    return true;
  }

  bool AtEnd() const { return ok && left == 0; }
};

/// Starts a frame: header with a placeholder len, patched by Seal().
std::string BeginFrame(uint64_t request_id, Op op) {
  std::string out;
  PutLE32(&out, 0);  // len, patched in Seal()
  PutLE64(&out, request_id);
  out.push_back(static_cast<char>(op));
  return out;
}

std::string Seal(std::string frame) {
  uint32_t len = static_cast<uint32_t>(frame.size() - 4);
  std::memcpy(frame.data(), &len, 4);
  return frame;
}

}  // namespace

const char* ErrName(Err e) {
  switch (e) {
    case Err::kOk: return "OK";
    case Err::kNotFound: return "ERR_NOT_FOUND";
    case Err::kAborted: return "ERR_ABORTED";
    case Err::kSkeenaAbort: return "ERR_SKEENA_ABORT";
    case Err::kDeadlock: return "ERR_DEADLOCK";
    case Err::kTimedOut: return "ERR_TIMED_OUT";
    case Err::kBusy: return "ERR_BUSY";
    case Err::kInvalid: return "ERR_INVALID";
    case Err::kIo: return "ERR_IO";
    case Err::kCorrupt: return "ERR_CORRUPT";
    case Err::kNotSupported: return "ERR_NOT_SUPPORTED";
    case Err::kNoTxn: return "ERR_NO_TXN";
    case Err::kTxnOpen: return "ERR_TXN_OPEN";
    case Err::kBadMagic: return "ERR_BAD_MAGIC";
    case Err::kBadVersion: return "ERR_BAD_VERSION";
    case Err::kBadFrame: return "ERR_BAD_FRAME";
    case Err::kBadOpcode: return "ERR_BAD_OPCODE";
    case Err::kFrameTooBig: return "ERR_FRAME_TOO_BIG";
    case Err::kNotReady: return "ERR_NOT_READY";
  }
  return "ERR_UNKNOWN";
}

Err ErrFromStatus(const Status& s) {
  switch (s.code()) {
    case StatusCode::kOk: return Err::kOk;
    case StatusCode::kNotFound: return Err::kNotFound;
    case StatusCode::kAlreadyExists: return Err::kInvalid;
    case StatusCode::kAborted: return Err::kAborted;
    case StatusCode::kSkeenaAbort: return Err::kSkeenaAbort;
    case StatusCode::kDeadlock: return Err::kDeadlock;
    case StatusCode::kTimedOut: return Err::kTimedOut;
    case StatusCode::kBusy: return Err::kBusy;
    case StatusCode::kInvalidArgument: return Err::kInvalid;
    case StatusCode::kIOError: return Err::kIo;
    case StatusCode::kCorruption: return Err::kCorrupt;
    case StatusCode::kNotSupported: return Err::kNotSupported;
  }
  return Err::kInvalid;
}

Status ErrToStatus(Err e, std::string msg) {
  switch (e) {
    case Err::kOk: return Status::OK();
    case Err::kNotFound: return Status::NotFound(std::move(msg));
    case Err::kAborted: return Status::Aborted(std::move(msg));
    case Err::kSkeenaAbort: return Status::SkeenaAbort(std::move(msg));
    case Err::kDeadlock: return Status::Deadlock(std::move(msg));
    case Err::kTimedOut: return Status::TimedOut(std::move(msg));
    case Err::kBusy: return Status::Busy(std::move(msg));
    case Err::kIo: return Status::IOError(std::move(msg));
    case Err::kCorrupt: return Status::Corruption(std::move(msg));
    case Err::kNotSupported: return Status::NotSupported(std::move(msg));
    default:
      return Status::InvalidArgument(std::string(ErrName(e)) +
                                     (msg.empty() ? "" : ": " + msg));
  }
}

Stmt Stmt::Get(uint32_t table, const Key& key) {
  Stmt s;
  s.kind = Kind::kGet;
  s.table = table;
  s.key = key;
  return s;
}

Stmt Stmt::Put(uint32_t table, const Key& key, std::string_view value) {
  Stmt s;
  s.kind = Kind::kPut;
  s.table = table;
  s.key = key;
  s.value.assign(value.data(), value.size());
  return s;
}

Stmt Stmt::Delete(uint32_t table, const Key& key) {
  Stmt s;
  s.kind = Kind::kDelete;
  s.table = table;
  s.key = key;
  return s;
}

Stmt Stmt::Scan(uint32_t table, const Key& lower, uint32_t limit) {
  Stmt s;
  s.kind = Kind::kScan;
  s.table = table;
  s.key = lower;
  s.scan_limit = limit;
  return s;
}

// ------------------------------------------------------------- extraction

ParseResult ExtractFrame(std::string_view buf, size_t* consumed, Frame* frame,
                         Err* err, uint64_t* request_id_hint) {
  *request_id_hint = 0;
  if (buf.size() < 4) return ParseResult::kNeedMore;
  uint32_t len;
  std::memcpy(&len, buf.data(), 4);
  // Bounds are checked from the 4 header bytes alone: an oversized frame
  // is rejected before (and instead of) being buffered.
  if (len < kLenOverhead || len > kMaxFrameLen) {
    if (buf.size() >= kHeaderBytes) {
      std::memcpy(request_id_hint, buf.data() + 4, 8);
    }
    *err = len < kLenOverhead ? Err::kBadFrame : Err::kFrameTooBig;
    return ParseResult::kError;
  }
  size_t total = 4 + static_cast<size_t>(len);
  if (buf.size() < total) return ParseResult::kNeedMore;
  std::memcpy(&frame->request_id, buf.data() + 4, 8);
  frame->opcode = static_cast<uint8_t>(buf[12]);
  frame->body.assign(buf.data() + kHeaderBytes, len - kLenOverhead);
  *consumed += total;
  return ParseResult::kFrame;
}

// --------------------------------------------------------------- encoding

std::string EncodeHello(uint64_t request_id, uint8_t version) {
  std::string f = BeginFrame(request_id, Op::kHello);
  f.append(kMagic, sizeof(kMagic));
  f.push_back(static_cast<char>(version));
  f.push_back(0);  // flags
  return Seal(std::move(f));
}

std::string EncodeOpenTable(uint64_t request_id, std::string_view name) {
  std::string f = BeginFrame(request_id, Op::kOpenTable);
  PutLE16(&f, static_cast<uint16_t>(name.size()));
  f.append(name.data(), name.size());
  return Seal(std::move(f));
}

std::string EncodeBegin(uint64_t request_id, IsolationLevel iso) {
  std::string f = BeginFrame(request_id, Op::kBegin);
  f.push_back(static_cast<char>(iso));
  return Seal(std::move(f));
}

std::string EncodeExec(uint64_t request_id, const std::vector<Stmt>& stmts) {
  std::string f = BeginFrame(request_id, Op::kExec);
  PutLE16(&f, static_cast<uint16_t>(stmts.size()));
  for (const Stmt& s : stmts) {
    f.push_back(static_cast<char>(s.kind));
    PutLE32(&f, s.table);
    f.append(reinterpret_cast<const char*>(s.key.data()), s.key.size());
    if (s.kind == Stmt::Kind::kPut) {
      PutLE32(&f, static_cast<uint32_t>(s.value.size()));
      f.append(s.value);
    } else if (s.kind == Stmt::Kind::kScan) {
      PutLE32(&f, s.scan_limit);
    }
  }
  return Seal(std::move(f));
}

std::string EncodeCommit(uint64_t request_id) {
  return Seal(BeginFrame(request_id, Op::kCommit));
}

std::string EncodeAbort(uint64_t request_id) {
  return Seal(BeginFrame(request_id, Op::kAbort));
}

std::string EncodePing(uint64_t request_id) {
  return Seal(BeginFrame(request_id, Op::kPing));
}

std::string EncodeHelloOk(uint64_t request_id, uint8_t version,
                          uint8_t flags) {
  std::string f = BeginFrame(request_id, Op::kHelloOk);
  f.push_back(static_cast<char>(version));
  f.push_back(static_cast<char>(flags));
  return Seal(std::move(f));
}

std::string EncodeTableOk(uint64_t request_id, uint32_t table_token,
                          EngineKind engine) {
  std::string f = BeginFrame(request_id, Op::kTableOk);
  PutLE32(&f, table_token);
  f.push_back(static_cast<char>(engine));
  return Seal(std::move(f));
}

std::string EncodeBeginOk(uint64_t request_id, GlobalTxnId gtid) {
  std::string f = BeginFrame(request_id, Op::kBeginOk);
  PutLE64(&f, gtid);
  return Seal(std::move(f));
}

std::string EncodeExecOk(uint64_t request_id,
                         const std::vector<StmtResult>& results) {
  std::string f = BeginFrame(request_id, Op::kExecOk);
  PutLE16(&f, static_cast<uint16_t>(results.size()));
  for (const StmtResult& r : results) {
    f.push_back(static_cast<char>(r.status));
    if (r.status != Err::kOk) continue;
    switch (r.kind) {
      case Stmt::Kind::kGet:
        f.push_back(r.found ? 1 : 0);
        if (r.found) {
          PutLE32(&f, static_cast<uint32_t>(r.value.size()));
          f.append(r.value);
        }
        break;
      case Stmt::Kind::kPut:
      case Stmt::Kind::kDelete:
        break;  // status byte only
      case Stmt::Kind::kScan:
        PutLE32(&f, static_cast<uint32_t>(r.rows.size()));
        for (const auto& [key, value] : r.rows) {
          f.append(reinterpret_cast<const char*>(key.data()), key.size());
          PutLE32(&f, static_cast<uint32_t>(value.size()));
          f.append(value);
        }
        break;
    }
  }
  return Seal(std::move(f));
}

std::string EncodeErr(uint64_t request_id, Op op, Err code,
                      std::string_view msg) {
  std::string f = BeginFrame(request_id, op);
  f.push_back(static_cast<char>(code));
  PutLE32(&f, static_cast<uint32_t>(msg.size()));
  f.append(msg.data(), msg.size());
  return Seal(std::move(f));
}

std::string EncodeCommitOk(uint64_t request_id) {
  return Seal(BeginFrame(request_id, Op::kCommitOk));
}

std::string EncodeAbortOk(uint64_t request_id) {
  return Seal(BeginFrame(request_id, Op::kAbortOk));
}

std::string EncodePong(uint64_t request_id) {
  return Seal(BeginFrame(request_id, Op::kPong));
}

// --------------------------------------------------------------- decoding

bool DecodeHelloBody(std::string_view body, uint8_t* version, Err* err) {
  Reader r(body);
  char magic[4];
  uint8_t flags;
  if (!r.Take(magic, 4)) {
    *err = Err::kBadFrame;
    return false;
  }
  if (std::memcmp(magic, kMagic, 4) != 0) {
    *err = Err::kBadMagic;
    return false;
  }
  if (!r.U8(version) || !r.U8(&flags) || !r.AtEnd()) {
    *err = Err::kBadFrame;
    return false;
  }
  if (*version == 0) {
    *err = Err::kBadVersion;
    return false;
  }
  return true;
}

bool DecodeOpenTableBody(std::string_view body, std::string* name) {
  Reader r(body);
  uint16_t n;
  if (!r.U16(&n) || n == 0 || n > kMaxTableName) return false;
  return r.Bytes(name, n) && r.AtEnd();
}

bool DecodeBeginBody(std::string_view body, IsolationLevel* iso) {
  Reader r(body);
  uint8_t v;
  if (!r.U8(&v) || !r.AtEnd()) return false;
  if (v > static_cast<uint8_t>(IsolationLevel::kSerializable)) return false;
  *iso = static_cast<IsolationLevel>(v);
  return true;
}

bool DecodeExecBody(std::string_view body, std::vector<Stmt>* stmts) {
  Reader r(body);
  uint16_t count;
  if (!r.U16(&count) || count == 0 || count > kMaxStatements) return false;
  stmts->clear();
  stmts->reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    Stmt s;
    uint8_t kind;
    if (!r.U8(&kind) || kind < 1 || kind > 4) return false;
    s.kind = static_cast<Stmt::Kind>(kind);
    if (!r.U32(&s.table) || !r.KeyBytes(&s.key)) return false;
    if (s.kind == Stmt::Kind::kPut) {
      uint32_t vlen;
      if (!r.U32(&vlen) || !r.Bytes(&s.value, vlen)) return false;
    } else if (s.kind == Stmt::Kind::kScan) {
      if (!r.U32(&s.scan_limit)) return false;
    }
    stmts->push_back(std::move(s));
  }
  return r.AtEnd();  // trailing bytes after the last statement: malformed
}

bool DecodeHelloOkBody(std::string_view body, uint8_t* version,
                       uint8_t* flags) {
  Reader r(body);
  return r.U8(version) && r.U8(flags) && r.AtEnd();
}

bool DecodeTableOkBody(std::string_view body, uint32_t* table_token,
                       EngineKind* engine) {
  Reader r(body);
  uint8_t e;
  if (!r.U32(table_token) || !r.U8(&e) || !r.AtEnd()) return false;
  if (e >= kNumEngines) return false;
  *engine = static_cast<EngineKind>(e);
  return true;
}

bool DecodeBeginOkBody(std::string_view body, GlobalTxnId* gtid) {
  Reader r(body);
  return r.U64(gtid) && r.AtEnd();
}

bool DecodeExecOkBody(std::string_view body,
                      const std::vector<Stmt::Kind>& kinds,
                      std::vector<StmtResult>* results) {
  Reader r(body);
  uint16_t count;
  if (!r.U16(&count) || count != kinds.size()) return false;
  results->clear();
  results->reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    StmtResult res;
    res.kind = kinds[i];
    uint8_t status;
    if (!r.U8(&status)) return false;
    res.status = static_cast<Err>(status);
    if (res.status == Err::kOk) {
      switch (res.kind) {
        case Stmt::Kind::kGet: {
          uint8_t found;
          if (!r.U8(&found) || found > 1) return false;
          res.found = found == 1;
          if (res.found) {
            uint32_t vlen;
            if (!r.U32(&vlen) || !r.Bytes(&res.value, vlen)) return false;
          }
          break;
        }
        case Stmt::Kind::kPut:
        case Stmt::Kind::kDelete:
          break;
        case Stmt::Kind::kScan: {
          uint32_t rows;
          if (!r.U32(&rows)) return false;
          for (uint32_t j = 0; j < rows; ++j) {
            Key k;
            uint32_t vlen;
            std::string v;
            if (!r.KeyBytes(&k) || !r.U32(&vlen) || !r.Bytes(&v, vlen)) {
              return false;
            }
            res.rows.emplace_back(k, std::move(v));
          }
          break;
        }
      }
    }
    results->push_back(std::move(res));
  }
  return r.AtEnd();
}

bool DecodeErrBody(std::string_view body, Err* code, std::string* msg) {
  Reader r(body);
  uint8_t c;
  uint32_t n;
  if (!r.U8(&c) || !r.U32(&n) || !r.Bytes(msg, n) || !r.AtEnd()) return false;
  *code = static_cast<Err>(c);
  return true;
}

// ------------------------------------------------------------- replication

std::string EncodeReplHello(uint64_t request_id, const ReplHello& h) {
  std::string f = BeginFrame(request_id, Op::kReplHello);
  f.push_back(static_cast<char>(h.version));
  PutLE64(&f, h.mem_lsn);
  PutLE64(&f, h.stor_lsn);
  PutLE64(&f, h.csr_seq);
  return Seal(std::move(f));
}

std::string EncodeReplHelloOk(uint64_t request_id, uint8_t version) {
  std::string f = BeginFrame(request_id, Op::kReplHelloOk);
  f.push_back(static_cast<char>(version));
  return Seal(std::move(f));
}

std::string EncodeReplLog(uint64_t request_id, const ReplLogBatch& b) {
  std::string f = BeginFrame(request_id, Op::kReplLog);
  f.push_back(static_cast<char>(b.engine));
  PutLE64(&f, b.start_lsn);
  PutLE64(&f, b.end_lsn);
  PutLE32(&f, static_cast<uint32_t>(b.records.size()));
  for (const std::string& rec : b.records) {
    PutLE32(&f, static_cast<uint32_t>(rec.size()));
    f.append(rec);
  }
  return Seal(std::move(f));
}

std::string EncodeReplCsr(uint64_t request_id, const ReplCsrBatch& b) {
  std::string f = BeginFrame(request_id, Op::kReplCsr);
  PutLE64(&f, b.first_seq);
  PutLE32(&f, static_cast<uint32_t>(b.entries.size()));
  for (const auto& [key, value] : b.entries) {
    PutLE64(&f, key);
    PutLE64(&f, value);
  }
  return Seal(std::move(f));
}

std::string EncodeReplWatermark(uint64_t request_id, const ReplWatermark& w) {
  std::string f = BeginFrame(request_id, Op::kReplWatermark);
  PutLE64(&f, w.mem_horizon);
  PutLE64(&f, w.stor_horizon);
  PutLE64(&f, w.csr_seq);
  return Seal(std::move(f));
}

bool DecodeReplHelloBody(std::string_view body, ReplHello* h) {
  Reader r(body);
  return r.U8(&h->version) && r.U64(&h->mem_lsn) && r.U64(&h->stor_lsn) &&
         r.U64(&h->csr_seq) && r.AtEnd();
}

bool DecodeReplHelloOkBody(std::string_view body, uint8_t* version) {
  Reader r(body);
  return r.U8(version) && r.AtEnd();
}

bool DecodeReplLogBody(std::string_view body, ReplLogBatch* b) {
  Reader r(body);
  uint32_t count;
  if (!r.U8(&b->engine) || !r.U64(&b->start_lsn) || !r.U64(&b->end_lsn) ||
      !r.U32(&count)) {
    return false;
  }
  if (b->engine >= kNumEngines || b->end_lsn < b->start_lsn) return false;
  // Each record costs at least its u32 length prefix; an oversized count is
  // a malformed frame, rejected before the reserve can balloon.
  if (count > r.left / 4) return false;
  b->records.clear();
  b->records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len;
    std::string rec;
    if (!r.U32(&len) || !r.Bytes(&rec, len)) return false;
    b->records.push_back(std::move(rec));
  }
  return r.AtEnd();
}

bool DecodeReplCsrBody(std::string_view body, ReplCsrBatch* b) {
  Reader r(body);
  uint32_t count;
  if (!r.U64(&b->first_seq) || !r.U32(&count)) return false;
  if (count > r.left / 16) return false;  // 16 bytes per entry
  b->entries.clear();
  b->entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t key, value;
    if (!r.U64(&key) || !r.U64(&value)) return false;
    b->entries.emplace_back(key, value);
  }
  return r.AtEnd();
}

bool DecodeReplWatermarkBody(std::string_view body, ReplWatermark* w) {
  Reader r(body);
  return r.U64(&w->mem_horizon) && r.U64(&w->stor_horizon) &&
         r.U64(&w->csr_seq) && r.AtEnd();
}

}  // namespace skeena::server
