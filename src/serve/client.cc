#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "core/output/sink.h"
#include "serve/protocol.h"
#include "util/strings.h"

namespace serve {

using pdgf::Status;
using pdgf::StatusOr;

StatusOr<ServeClient> ServeClient::Connect(int port, const std::string& host,
                                           int recv_buffer_bytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return pdgf::IoError(std::string("socket failed: ") +
                         std::strerror(errno));
  }
  if (recv_buffer_bytes > 0) {
    // Before connect() so the shrunken window is what gets negotiated.
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &recv_buffer_bytes,
                 sizeof(recv_buffer_bytes));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return pdgf::InvalidArgumentError("bad host \"" + host + "\"");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = pdgf::IoError(pdgf::StrPrintf(
        "connect to %s:%d failed: %s", host.c_str(), port,
        std::strerror(errno)));
    ::close(fd);
    return status;
  }
  // Requests go out without waiting on Nagle, like the daemon's replies
  // (ConfigureConnectionSocket in server.h).
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    Status status = pdgf::IoError(
        std::string("setsockopt(TCP_NODELAY) failed: ") +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  // A stuck daemon must fail the caller, not hang it: generous relative
  // to any test job, far below a CI timeout.
  timeval timeout{};
  timeout.tv_sec = 120;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return ServeClient(fd);
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Abort();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

ServeClient::~ServeClient() { Abort(); }

void ServeClient::Abort() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ServeClient::SendLine(const std::string& line) {
  if (fd_ < 0) return pdgf::FailedPreconditionError("client closed");
  return pdgf::WriteAllToFd(fd_, line + "\n");
}

StatusOr<std::string> ServeClient::ReadLine() {
  while (true) {
    size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return pdgf::IoError("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return pdgf::IoError(std::string("recv failed: ") +
                           std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

StatusOr<std::string> ServeClient::ReadBytes(size_t n) {
  while (buffer_.size() < n) {
    char chunk[65536];
    ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got == 0) return pdgf::IoError("server closed mid-payload");
    if (got < 0) {
      if (errno == EINTR) continue;
      return pdgf::IoError(std::string("recv failed: ") +
                           std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<size_t>(got));
  }
  std::string payload = buffer_.substr(0, n);
  buffer_.erase(0, n);
  return payload;
}

StatusOr<std::string> ServeClient::Request(const std::string& line) {
  PDGF_RETURN_IF_ERROR(SendLine(line));
  return ReadLine();
}

namespace {

uint64_t FieldU64(const std::map<std::string, std::string>& fields,
                  const std::string& key) {
  auto it = fields.find(key);
  if (it == fields.end()) return 0;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

std::string FieldStr(const std::map<std::string, std::string>& fields,
                     const std::string& key) {
  auto it = fields.find(key);
  return it == fields.end() ? std::string() : it->second;
}

}  // namespace

StatusOr<StreamedJob> ServeClient::RunJob(const std::string& request_line) {
  PDGF_RETURN_IF_ERROR(SendLine(request_line));
  return ConsumeJobStream();
}

StatusOr<StreamedJob> ServeClient::ConsumeJobStream() {
  StreamedJob job;

  PDGF_ASSIGN_OR_RETURN(std::string header, ReadLine());
  job.raw = header + "\n";
  PDGF_ASSIGN_OR_RETURN(auto header_fields, ParseFlatJsonObject(header));
  std::string status = FieldStr(header_fields, "status");
  if (status == "error") {
    job.ok = false;
    job.error_code = FieldStr(header_fields, "code");
    job.error_message = FieldStr(header_fields, "message");
    return job;
  }
  if (status != "streaming") {
    return pdgf::ParseError("expected a streaming header, got: " + header);
  }
  job.job_id = FieldU64(header_fields, "job");

  while (true) {
    PDGF_ASSIGN_OR_RETURN(std::string line, ReadLine());
    job.raw += line + "\n";
    PDGF_ASSIGN_OR_RETURN(auto fields, ParseFlatJsonObject(line));

    if (fields.count("table") != 0) {
      size_t bytes = static_cast<size_t>(FieldU64(fields, "bytes"));
      PDGF_ASSIGN_OR_RETURN(std::string payload, ReadBytes(bytes));
      job.raw += payload;
      job.table_payload[FieldStr(fields, "table")] += payload;
      continue;
    }
    if (fields.count("table_digest") != 0) {
      ReceivedDigest digest;
      digest.table = FieldStr(fields, "table_digest");
      digest.rows = FieldU64(fields, "rows");
      digest.bytes = FieldU64(fields, "bytes");
      digest.hex = FieldStr(fields, "digest");
      PDGF_ASSIGN_OR_RETURN(
          digest.state,
          pdgf::TableDigest::DeserializeState(FieldStr(fields, "state")));
      job.digests.push_back(std::move(digest));
      continue;
    }
    std::string line_status = FieldStr(fields, "status");
    if (line_status == "ok") {
      job.ok = true;
      job.rows = FieldU64(fields, "rows");
      job.bytes = FieldU64(fields, "bytes");
      job.seconds = std::strtod(FieldStr(fields, "seconds").c_str(), nullptr);
      return job;
    }
    if (line_status == "error") {
      job.ok = false;
      job.error_code = FieldStr(fields, "code");
      job.error_message = FieldStr(fields, "message");
      return job;
    }
    return pdgf::ParseError("unexpected stream line: " + line);
  }
}

}  // namespace serve
