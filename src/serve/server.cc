#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/output/sink.h"
#include "serve/connection.h"
#include "serve/protocol.h"
#include "util/files.h"
#include "util/strings.h"
#include "workloads/imdb.h"  // BuildBundledModel lives with the models

namespace serve {

using pdgf::Status;
using pdgf::StatusOr;

namespace {

Status SetSocketOption(int fd, int level, int name, const void* value,
                       socklen_t length, const char* label) {
  if (::setsockopt(fd, level, name, value, length) == 0) return Status::Ok();
  return pdgf::IoError(pdgf::StrPrintf("setsockopt(%s) failed: %s", label,
                                       std::strerror(errno)));
}

}  // namespace

Status ConfigureConnectionSocket(int fd, const ServeOptions& options) {
  timeval timeout{};
  timeout.tv_sec = options.request_timeout_seconds;
  PDGF_RETURN_IF_ERROR(SetSocketOption(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                                       sizeof(timeout), "SO_RCVTIMEO"));
  if (options.send_buffer_bytes > 0) {
    PDGF_RETURN_IF_ERROR(SetSocketOption(
        fd, SOL_SOCKET, SO_SNDBUF, &options.send_buffer_bytes,
        sizeof(options.send_buffer_bytes), "SO_SNDBUF"));
  }
  const int one = 1;
  return SetSocketOption(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one),
                         "TCP_NODELAY");
}

Server::Server(ServeOptions options)
    : options_(std::move(options)), queue_(options_.max_jobs) {}

Server::~Server() {
  RequestShutdown();
  Wait();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status Server::Start() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return pdgf::IoError(std::string("socket failed: ") +
                         std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return pdgf::InvalidArgumentError("bad bind address \"" +
                                      options_.bind_address + "\"");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = pdgf::IoError(pdgf::StrPrintf(
        "bind to %s:%d failed: %s", options_.bind_address.c_str(),
        options_.port, std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    Status status =
        pdgf::IoError(std::string("listen failed: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    Status status = pdgf::IoError(std::string("getsockname failed: ") +
                                  std::strerror(errno));
    ::close(fd);
    return status;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;

  if (!options_.port_file.empty()) {
    PDGF_RETURN_IF_ERROR(pdgf::WriteStringToFile(
        options_.port_file, std::to_string(port_) + "\n"));
  }

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::AcceptLoop() {
  while (!shutting_down()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EINVAL/EBADF: the listener was shut down under us — exit.
      break;
    }
    if (shutting_down()) {
      ::close(fd);
      break;
    }

    auto reject = [this, fd](const Status& reason) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      pdgf::WriteAllToFd(fd, FormatErrorLine(reason));
      ::close(fd);
    };
    // Fail closed: a connection without its idle bound or with Nagle
    // still on is refused like one over the connection limit.
    Status configured = ConfigureConnectionSocket(fd, options_);
    if (!configured.ok()) {
      reject(configured);
      continue;
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (active_connections_ >= options_.max_connections) {
        reject(pdgf::ResourceExhaustedError(
            "connection limit reached; retry later"));
        continue;
      }
      ++active_connections_;
      connection_fds_.insert(fd);
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);

    // Detached: connection threads outlive this loop's iteration and are
    // accounted for via active_connections_, which Wait() drains.
    std::thread([this, fd] {
      RunConnection(this, fd);
      std::lock_guard<std::mutex> lock(mu_);
      connection_fds_.erase(fd);
      ::close(fd);
      --active_connections_;
      drained_.notify_all();
    }).detach();
  }
}

void Server::RequestShutdown() {
  if (shutting_down_.exchange(true)) return;
  queue_.CancelAll();
  // Wake the accept loop and every blocked connection read/write; the
  // fds stay open (their owners close them) but refuse further I/O.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
}

void Server::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this] { return active_connections_ == 0; });
}

StatusOr<std::shared_ptr<const Server::ModelEntry>> Server::GetModel(
    const std::string& model, const std::string& scale_factor) {
  std::string key = model + "@" + scale_factor;
  std::lock_guard<std::mutex> lock(models_mu_);
  auto it = models_.find(key);
  if (it != models_.end()) return it->second;

  auto entry = std::make_shared<ModelEntry>();
  PDGF_ASSIGN_OR_RETURN(entry->schema, workloads::BuildBundledModel(model));
  std::map<std::string, std::string> overrides;
  if (!scale_factor.empty()) overrides["SF"] = scale_factor;
  PDGF_ASSIGN_OR_RETURN(
      entry->session,
      pdgf::GenerationSession::Create(&entry->schema, overrides));
  std::shared_ptr<const ModelEntry> shared = std::move(entry);
  models_.emplace(std::move(key), shared);
  return shared;
}

std::string Server::MetricsJson() {
  pdgf::ServeCounters counters;
  queue_.FillCounters(&counters);
  counters.max_connections = options_.max_connections;
  counters.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  counters.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters.active_connections = active_connections_;
  }
  std::string last_job = queue_.LastJobMetricsJson();
  return "{\"serve\":" + counters.ToJson(false) +
         ",\"last_job\":" + (last_job.empty() ? "null" : last_job) + "}";
}

}  // namespace serve
