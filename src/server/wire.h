#ifndef SKEENA_SERVER_WIRE_H_
#define SKEENA_SERVER_WIRE_H_

// Codec for the SKNA wire protocol, version 1. This file is the single
// implementation of docs/PROTOCOL.md: every constant, offset and bound
// below is specified there, and tests/server_test.cc pins the two against
// each other byte by byte.
//
// The codec is pure (no I/O, no Database types beyond Key/Status): the
// server and the client library share it, and the malformed-input corpus
// exercises it directly.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/encoding.h"
#include "common/status.h"
#include "common/types.h"

namespace skeena::server {

inline constexpr uint8_t kProtocolVersion = 1;
/// "SKNA", the handshake magic at frame offset 13 (PROTOCOL.md).
inline constexpr char kMagic[4] = {'S', 'K', 'N', 'A'};
/// Frame header: u32 len + u64 request_id + u8 opcode.
inline constexpr size_t kHeaderBytes = 13;
/// Bytes counted by the `len` field beyond the body: request_id + opcode.
inline constexpr uint32_t kLenOverhead = 9;
/// Hard cap on the `len` field (1 MiB).
inline constexpr uint32_t kMaxFrameLen = 1u << 20;
/// EXEC statement-count bounds.
inline constexpr uint16_t kMaxStatements = 4096;
/// OPEN_TABLE name-length bound.
inline constexpr uint16_t kMaxTableName = 256;

enum class Op : uint8_t {
  // requests
  kHello = 0x01,
  kOpenTable = 0x02,
  kBegin = 0x03,
  kExec = 0x04,
  kCommit = 0x05,
  kAbort = 0x06,
  kPing = 0x07,
  // replication (docs/REPLICATION.md): replica -> primary
  kReplHello = 0x11,
  // responses
  kHelloOk = 0x81,
  kTableOk = 0x82,
  kBeginOk = 0x83,
  kExecOk = 0x84,
  kCommitOk = 0x85,
  kAbortOk = 0x86,
  kPong = 0x87,
  // replication: primary -> replica
  kReplHelloOk = 0x91,
  kReplLog = 0x92,
  kReplCsr = 0x93,
  kReplWatermark = 0x94,
  kTxnErr = 0xEE,
  kProtoErr = 0xEF,
};

/// PROTOCOL.md error-code table. 0..31 are request/statement-level
/// (TxnErr, statement status); 32+ are protocol-level (ProtoErr: the
/// server closes the connection after sending).
enum class Err : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kAborted = 2,
  kSkeenaAbort = 3,
  kDeadlock = 4,
  kTimedOut = 5,
  kBusy = 6,
  kInvalid = 7,
  kIo = 8,
  kCorrupt = 9,
  kNotSupported = 10,
  kNoTxn = 11,
  kTxnOpen = 12,
  kBadMagic = 32,
  kBadVersion = 33,
  kBadFrame = 34,
  kBadOpcode = 35,
  kFrameTooBig = 36,
  kNotReady = 37,
};

const char* ErrName(Err e);

/// Projects a library Status onto the wire code table (codes 1..10).
Err ErrFromStatus(const Status& s);
/// Lifts a wire code back into a Status (client side).
Status ErrToStatus(Err e, std::string msg);
/// True for the retryable abort band (codes 2..5 == Status::IsAnyAbort).
inline bool ErrIsAbort(Err e) {
  return e >= Err::kAborted && e <= Err::kTimedOut;
}

/// One EXEC statement (PROTOCOL.md "Statement encoding").
struct Stmt {
  enum class Kind : uint8_t { kGet = 1, kPut = 2, kDelete = 3, kScan = 4 };
  Kind kind = Kind::kGet;
  uint32_t table = 0;  // table_token from TABLE_OK
  Key key = {};        // for kScan: inclusive lower bound
  std::string value;   // kPut only
  uint32_t scan_limit = 0;  // kScan only; 0 = unlimited

  static Stmt Get(uint32_t table, const Key& key);
  static Stmt Put(uint32_t table, const Key& key, std::string_view value);
  static Stmt Delete(uint32_t table, const Key& key);
  static Stmt Scan(uint32_t table, const Key& lower, uint32_t limit);
};

/// One EXEC_OK statement result (PROTOCOL.md "Statement result encoding").
/// The wire shape of a successful result depends on the statement kind it
/// answers (GET carries `found`, SCAN carries rows, PUT/DELETE nothing),
/// so the result records its kind and the decoder is handed the request's
/// kinds — responses pair 1:1 with requests in order, per the pipelining
/// rules.
struct StmtResult {
  Stmt::Kind kind = Stmt::Kind::kGet;
  Err status = Err::kOk;
  bool found = false;       // kGet
  std::string value;        // kGet, when found
  std::vector<std::pair<Key, std::string>> rows;  // kScan
};

/// A decoded frame: header fields + raw body. Body interpretation is the
/// per-opcode Decode*Body functions below.
struct Frame {
  uint64_t request_id = 0;
  uint8_t opcode = 0;
  std::string body;
};

// ------------------------------------------------------------- extraction

enum class ParseResult {
  kNeedMore,  // buffer holds no complete frame yet
  kFrame,     // *frame filled, *consumed advanced
  kError,     // framing violation; *err says which, *consumed untouched
};

/// Pulls the first complete frame out of `buf`. On kError the connection
/// must be failed with ProtoErr(*err): `len` bounds violations poison the
/// stream (the parser cannot resynchronize). `*request_id_hint` carries
/// the offender's request id when at least the header was readable (0
/// otherwise) so the error frame can be correlated.
ParseResult ExtractFrame(std::string_view buf, size_t* consumed, Frame* frame,
                         Err* err, uint64_t* request_id_hint);

// --------------------------------------------------------------- encoding
// Each builder returns one complete frame, header included.

std::string EncodeHello(uint64_t request_id,
                        uint8_t version = kProtocolVersion);
std::string EncodeOpenTable(uint64_t request_id, std::string_view name);
std::string EncodeBegin(uint64_t request_id, IsolationLevel iso);
std::string EncodeExec(uint64_t request_id, const std::vector<Stmt>& stmts);
std::string EncodeCommit(uint64_t request_id);
std::string EncodeAbort(uint64_t request_id);
std::string EncodePing(uint64_t request_id);

std::string EncodeHelloOk(uint64_t request_id, uint8_t version,
                          uint8_t flags = 0);
std::string EncodeTableOk(uint64_t request_id, uint32_t table_token,
                          EngineKind engine);
std::string EncodeBeginOk(uint64_t request_id, GlobalTxnId gtid);
std::string EncodeExecOk(uint64_t request_id,
                         const std::vector<StmtResult>& results);
std::string EncodeCommitOk(uint64_t request_id);
std::string EncodeAbortOk(uint64_t request_id);
std::string EncodePong(uint64_t request_id);
std::string EncodeErr(uint64_t request_id, Op op, Err code,
                      std::string_view msg);

// --------------------------------------------------------------- decoding
// Body decoders return false on malformed input (the caller responds
// ERR_BAD_FRAME — or the specific handshake code for DecodeHelloBody).

/// Validates magic + version; *err is kBadMagic / kBadVersion / kBadFrame.
bool DecodeHelloBody(std::string_view body, uint8_t* version, Err* err);
bool DecodeOpenTableBody(std::string_view body, std::string* name);
bool DecodeBeginBody(std::string_view body, IsolationLevel* iso);
bool DecodeExecBody(std::string_view body, std::vector<Stmt>* stmts);

bool DecodeHelloOkBody(std::string_view body, uint8_t* version,
                       uint8_t* flags);
bool DecodeTableOkBody(std::string_view body, uint32_t* table_token,
                       EngineKind* engine);
bool DecodeBeginOkBody(std::string_view body, GlobalTxnId* gtid);
/// `kinds` are the statement kinds of the EXEC this frame answers, in
/// order; the result count on the wire must match kinds.size().
bool DecodeExecOkBody(std::string_view body,
                      const std::vector<Stmt::Kind>& kinds,
                      std::vector<StmtResult>* results);
bool DecodeErrBody(std::string_view body, Err* code, std::string* msg);

// ------------------------------------------------------------- replication
// The replication channel reuses the SKNA frame header + extraction; these
// are the REPL_* opcode bodies (docs/REPLICATION.md). The channel is a
// single ordered byte stream, so the stream position of each frame is the
// resume cursor: REPL_HELLO names where the replica wants each stream to
// restart and the shipper re-ships from exactly there.

/// REPL_HELLO (replica -> primary): resume cursors. Log cursors are
/// frame-aligned byte offsets into each engine's WAL; csr_seq counts CSR
/// install-journal entries already received.
struct ReplHello {
  uint8_t version = kProtocolVersion;
  Lsn mem_lsn = 0;
  Lsn stor_lsn = 0;
  uint64_t csr_seq = 0;
};

/// REPL_LOG (primary -> replica): a batch of whole WAL frames from one
/// engine's log covering device bytes [start_lsn, end_lsn). `records` are
/// the frame payloads (encoded LogRecords) in log order, re-framed as
/// [u32 len][bytes] so the replica never re-parses device framing.
struct ReplLogBatch {
  uint8_t engine = 0;
  Lsn start_lsn = 0;
  Lsn end_lsn = 0;
  std::vector<std::string> records;
};

/// REPL_CSR (primary -> replica): CSR install-journal entries
/// [first_seq, first_seq + entries.size()), each an (anchor key, other
/// engine value) install in primary install order.
struct ReplCsrBatch {
  uint64_t first_seq = 0;
  std::vector<std::pair<Timestamp, Timestamp>> entries;
};

/// REPL_WATERMARK (primary -> replica): commit horizons. Every commit with
/// mem cts <= mem_horizon (resp. stor ser <= stor_horizon) has all of its
/// log records in the bytes already shipped, and every CSR install by a
/// cross-engine commit below either horizon appears in journal entries
/// < csr_seq. The replica applies up to the horizons, then recomputes its
/// visibility gate (docs/REPLICATION.md "Visibility gating").
struct ReplWatermark {
  Timestamp mem_horizon = 0;
  Timestamp stor_horizon = 0;
  uint64_t csr_seq = 0;
};

std::string EncodeReplHello(uint64_t request_id, const ReplHello& h);
std::string EncodeReplHelloOk(uint64_t request_id, uint8_t version);
std::string EncodeReplLog(uint64_t request_id, const ReplLogBatch& b);
std::string EncodeReplCsr(uint64_t request_id, const ReplCsrBatch& b);
std::string EncodeReplWatermark(uint64_t request_id, const ReplWatermark& w);

bool DecodeReplHelloBody(std::string_view body, ReplHello* h);
bool DecodeReplHelloOkBody(std::string_view body, uint8_t* version);
bool DecodeReplLogBody(std::string_view body, ReplLogBatch* b);
bool DecodeReplCsrBody(std::string_view body, ReplCsrBatch* b);
bool DecodeReplWatermarkBody(std::string_view body, ReplWatermark* w);

}  // namespace skeena::server

#endif  // SKEENA_SERVER_WIRE_H_
