#ifndef DBSYNTHPP_SERVE_SERVER_H_
#define DBSYNTHPP_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/status.h"
#include "core/session.h"
#include "serve/job_queue.h"

namespace serve {

// Configuration of one daemon instance. Every limit is a hard bound:
// the daemon refuses work past it instead of queueing unboundedly.
struct ServeOptions {
  int port = 0;                      // 0 = kernel-assigned ephemeral port
  std::string bind_address = "127.0.0.1";  // loopback only by default
  // When non-empty the daemon writes the bound port (decimal, one line)
  // here after listen() succeeds — how scripts find an ephemeral port.
  std::string port_file;
  uint64_t max_jobs = 4;             // admitted-but-unfinished jobs
  uint64_t max_connections = 32;     // concurrent client connections
  int max_workers_per_job = 4;       // clamp on the request's "workers"
  // Writer threads per job. 1 (the default) keeps each job's output
  // stream deterministic: one worker + one writer thread produce a
  // table-major frame order that repeats byte-identically across runs
  // (docs/serve.md, determinism guarantees).
  int writer_threads = 1;
  uint64_t work_package_rows = 10000;
  // Idle limit while waiting for a request line (SO_RCVTIMEO); a silent
  // client is disconnected so it cannot pin a connection slot forever.
  int request_timeout_seconds = 60;
  // SO_SNDBUF for accepted connections; 0 keeps the kernel default. The
  // failure tests shrink this so an unread stream applies backpressure
  // after a few KB instead of a few MB, making "job still running while
  // the client refuses to read" a deterministic state to assert on.
  int send_buffer_bytes = 0;
};

// Applies the per-connection socket options to an accepted fd: the
// SO_RCVTIMEO idle bound, SO_SNDBUF when set, and TCP_NODELAY. A reply
// is several writes (header, chunk frames, trailers); with Nagle on,
// each write after the first waits for the peer's delayed ACK (~40 ms).
// Any failing option is an error, so the caller can refuse the
// connection instead of serving it without the option.
pdgf::Status ConfigureConnectionSocket(int fd, const ServeOptions& options);

// The `dbsynthpp serve` daemon: accepts connections, parses line-
// delimited JSON requests (serve/protocol.h) and runs generation jobs
// through the standard GenerationEngine with a socket-backed sink per
// connection. One thread per connection; jobs gate on the JobQueue's
// admission control, so --max-jobs bounds the engine fan-out no matter
// how many clients connect.
class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens and starts the accept thread. Fails (without leaking
  // an fd) if the address is unavailable.
  pdgf::Status Start();

  // The bound port (differs from options().port when that was 0).
  int port() const { return port_; }

  // Idempotent, thread-safe: stops accepting, cancels running jobs and
  // shuts down live connection sockets so blocked reads/writes fail
  // fast. Returns without waiting; Wait() observes the drain.
  void RequestShutdown();

  // Joins the accept thread and blocks until every connection thread has
  // finished. Safe to call once after Start().
  void Wait();

  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_relaxed);
  }

  JobQueue& queue() { return queue_; }
  const ServeOptions& options() const { return options_; }

  // A bundled model resolved at a scale factor, cached across jobs.
  // The schema is owned here because the session keeps a pointer into
  // it; both are immutable after Create, so concurrent jobs share one
  // entry freely.
  struct ModelEntry {
    pdgf::SchemaDef schema;
    std::unique_ptr<pdgf::GenerationSession> session;
  };
  // `scale_factor` is the raw numeric token from the request ("" =
  // model default); it becomes the SF property override, exactly like
  // the CLI's --sf.
  pdgf::StatusOr<std::shared_ptr<const ModelEntry>> GetModel(
      const std::string& model, const std::string& scale_factor);

  // The metrics document (docs/serve.md): one compact JSON line
  // {"serve":<ServeCounters>,"last_job":<MetricsReport schema v2>|null}.
  std::string MetricsJson();

 private:
  void AcceptLoop();

  ServeOptions options_;
  JobQueue queue_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> shutting_down_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};

  mutable std::mutex mu_;
  std::condition_variable drained_;
  uint64_t active_connections_ = 0;  // guarded by mu_
  std::set<int> connection_fds_;     // guarded by mu_; live client fds

  std::mutex models_mu_;
  std::map<std::string, std::shared_ptr<const ModelEntry>> models_;
};

}  // namespace serve

#endif  // DBSYNTHPP_SERVE_SERVER_H_
