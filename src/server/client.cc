#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace skeena::server {

Err Response::err_code() const {
  Err code;
  std::string msg;
  if (!DecodeErrBody(body, &code, &msg)) return Err::kInvalid;
  return code;
}

std::string Response::err_message() const {
  Err code;
  std::string msg;
  if (!DecodeErrBody(body, &code, &msg)) return "mangled error body";
  return msg;
}

Status Response::ToStatus() const {
  if (!is_err()) return Status::OK();
  return ErrToStatus(err_code(), err_message());
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
  negotiated_version_ = 0;
}

Status Client::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IOError("connect: " + std::string(strerror(errno)));
    Close();
    return s;
  }
  // Handshake.
  Response rsp;
  Status s = Call(EncodeHello(next_request_id()), Op::kHelloOk, &rsp);
  if (!s.ok()) {
    Close();
    return s;
  }
  uint8_t flags;
  if (!DecodeHelloOkBody(rsp.body, &negotiated_version_, &flags)) {
    Close();
    return Status::Corruption("mangled HELLO_OK");
  }
  return Status::OK();
}

Status Client::WriteAll(std::string_view bytes) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError("send: " + std::string(strerror(errno)));
  }
  return Status::OK();
}

Status Client::RecvResponse(Response* rsp) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  for (;;) {
    size_t consumed = 0;
    Frame f;
    Err err;
    uint64_t hint;
    ParseResult r = ExtractFrame(inbuf_, &consumed, &f, &err, &hint);
    if (r == ParseResult::kFrame) {
      inbuf_.erase(0, consumed);
      rsp->request_id = f.request_id;
      rsp->op = static_cast<Op>(f.opcode);
      rsp->body = std::move(f.body);
      return Status::OK();
    }
    if (r == ParseResult::kError) {
      return Status::Corruption(std::string("server framing violation: ") +
                                ErrName(err));
    }
    char buf[16384];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      inbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) return Status::IOError("connection closed by server");
    return Status::IOError("recv: " + std::string(strerror(errno)));
  }
}

bool Client::ResponseBuffered() const {
  size_t consumed = 0;
  Frame f;
  Err err;
  uint64_t hint;
  return ExtractFrame(inbuf_, &consumed, &f, &err, &hint) !=
         ParseResult::kNeedMore;
}

Status Client::Call(std::string frame, Op expect, Response* rsp) {
  SKEENA_RETURN_NOT_OK(WriteAll(frame));
  SKEENA_RETURN_NOT_OK(RecvResponse(rsp));
  if (rsp->is_err()) return rsp->ToStatus();
  if (rsp->op != expect) {
    return Status::Corruption("unexpected response opcode");
  }
  return Status::OK();
}

Result<uint32_t> Client::OpenTable(const std::string& name) {
  Response rsp;
  SKEENA_RETURN_NOT_OK(Call(EncodeOpenTable(next_request_id(), name),
                            Op::kTableOk, &rsp));
  uint32_t token;
  EngineKind engine;
  if (!DecodeTableOkBody(rsp.body, &token, &engine)) {
    return Status::Corruption("mangled TABLE_OK");
  }
  return token;
}

Status Client::Begin(IsolationLevel iso, GlobalTxnId* gtid) {
  Response rsp;
  SKEENA_RETURN_NOT_OK(
      Call(EncodeBegin(next_request_id(), iso), Op::kBeginOk, &rsp));
  GlobalTxnId g;
  if (!DecodeBeginOkBody(rsp.body, &g)) {
    return Status::Corruption("mangled BEGIN_OK");
  }
  if (gtid != nullptr) *gtid = g;
  return Status::OK();
}

Result<std::vector<StmtResult>> Client::Exec(const std::vector<Stmt>& stmts) {
  Response rsp;
  SKEENA_RETURN_NOT_OK(
      Call(EncodeExec(next_request_id(), stmts), Op::kExecOk, &rsp));
  std::vector<Stmt::Kind> kinds;
  kinds.reserve(stmts.size());
  for (const Stmt& s : stmts) kinds.push_back(s.kind);
  std::vector<StmtResult> results;
  if (!DecodeExecOkBody(rsp.body, kinds, &results)) {
    return Status::Corruption("mangled EXEC_OK");
  }
  return results;
}

Status Client::Commit() {
  Response rsp;
  return Call(EncodeCommit(next_request_id()), Op::kCommitOk, &rsp);
}

Status Client::Abort() {
  Response rsp;
  return Call(EncodeAbort(next_request_id()), Op::kAbortOk, &rsp);
}

Status Client::Ping() {
  Response rsp;
  return Call(EncodePing(next_request_id()), Op::kPong, &rsp);
}

Status Client::Get(uint32_t table, const Key& key, std::string* value,
                   bool* found) {
  auto results = Exec({Stmt::Get(table, key)});
  if (!results.ok()) return results.status();
  const StmtResult& r = (*results)[0];
  if (r.status != Err::kOk) return ErrToStatus(r.status, "GET failed");
  *found = r.found;
  if (r.found && value != nullptr) *value = r.value;
  return Status::OK();
}

Status Client::Put(uint32_t table, const Key& key, std::string_view value) {
  auto results = Exec({Stmt::Put(table, key, value)});
  if (!results.ok()) return results.status();
  const StmtResult& r = (*results)[0];
  if (r.status != Err::kOk) return ErrToStatus(r.status, "PUT failed");
  return Status::OK();
}

uint64_t Client::SendBegin(IsolationLevel iso) {
  uint64_t rid = next_request_id();
  WriteAll(EncodeBegin(rid, iso));
  return rid;
}

uint64_t Client::SendExec(const std::vector<Stmt>& stmts) {
  uint64_t rid = next_request_id();
  WriteAll(EncodeExec(rid, stmts));
  return rid;
}

uint64_t Client::SendCommit() {
  uint64_t rid = next_request_id();
  WriteAll(EncodeCommit(rid));
  return rid;
}

uint64_t Client::SendAbort() {
  uint64_t rid = next_request_id();
  WriteAll(EncodeAbort(rid));
  return rid;
}

uint64_t Client::SendPing() {
  uint64_t rid = next_request_id();
  WriteAll(EncodePing(rid));
  return rid;
}

Status Client::SendRaw(std::string_view bytes) { return WriteAll(bytes); }

}  // namespace skeena::server
