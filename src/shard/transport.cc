#include "shard/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <utility>

#include "util/crc32.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace csce {
namespace shard {
namespace {

/// strerror(3) keeps a static buffer; use the thread-safe variant so
/// concurrent transports (one per worker) cannot race on it. Handles
/// both the XSI and GNU strerror_r signatures.
std::string ErrnoString(int err) {
  char buf[128] = {0};
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  return std::string(strerror_r(err, buf, sizeof(buf)));
#else
  if (strerror_r(err, buf, sizeof(buf)) != 0) {
    return "errno " + std::to_string(err);
  }
  return std::string(buf);
#endif
}

TransportError MakeError(TransportFault fault, int sys_errno,
                         uint32_t frame_type, std::string context) {
  TransportError err;
  err.fault = fault;
  err.sys_errno = sys_errno;
  err.frame_type = frame_type;
  err.context = std::move(context);
  return err;
}

/// Shared state of a loopback pair: two directed frame queues. End A
/// sends into queue[0] and receives from queue[1]; end B the reverse.
struct LoopbackState {
  Mutex mu;
  CondVar cv;
  std::deque<wire::Frame> queue[2] CSCE_GUARDED_BY(mu);
  bool closed CSCE_GUARDED_BY(mu) = false;
};

class LoopbackEnd : public Transport {
 public:
  LoopbackEnd(std::shared_ptr<LoopbackState> state, int send_index)
      : state_(std::move(state)), send_index_(send_index) {}

  ~LoopbackEnd() override { Close(); }

  Status Send(const wire::Frame& frame) override {
    MutexLock lock(state_->mu);
    if (state_->closed) {
      return Fail(MakeError(TransportFault::kClosed, 0, frame.type,
                            "loopback send"));
    }
    state_->queue[send_index_].push_back(frame);
    state_->cv.NotifyAll();
    return Status::OK();
  }

  Status Recv(wire::Frame* frame) override {
    MutexLock lock(state_->mu);
    std::deque<wire::Frame>& q = state_->queue[send_index_ ^ 1];
    if (read_deadline_seconds_ <= 0.0) {
      while (q.empty() && !state_->closed) state_->cv.Wait(state_->mu);
    } else {
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::duration<double>(
                              read_deadline_seconds_));
      while (q.empty() && !state_->closed) {
        auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
          return Fail(MakeError(TransportFault::kTimeout, 0, 0,
                                "loopback read deadline"));
        }
        state_->cv.WaitFor(state_->mu, deadline - now);
      }
    }
    if (q.empty()) {
      return Fail(
          MakeError(TransportFault::kClosed, 0, 0, "loopback recv"));
    }
    *frame = std::move(q.front());
    q.pop_front();
    return Status::OK();
  }

  void Close() override {
    MutexLock lock(state_->mu);
    state_->closed = true;
    state_->cv.NotifyAll();
  }

  void set_read_deadline(double seconds) override {
    read_deadline_seconds_ = seconds;
  }

 private:
  /// The shared_ptr itself is set once at construction; the pointed-to
  /// state synchronizes via its own mu. The deadline is only touched by
  /// the single thread driving this end (strict request/reply).
  std::shared_ptr<LoopbackState> state_;
  int send_index_;
  double read_deadline_seconds_ = 0.0;
};

/// Blocks until `fd` is ready for `events` (POLLIN/POLLOUT) or the
/// deadline expires. deadline_seconds <= 0 waits forever. Returns 1 on
/// ready, 0 on timeout, -1 on poll error (errno set).
int PollFor(int fd, short events, double deadline_seconds) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(deadline_seconds));
  for (;;) {
    int timeout_ms = -1;
    if (deadline_seconds > 0.0) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return 0;
      timeout_ms = static_cast<int>(left.count());
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return 0;
    return 1;
  }
}

class FdTransport : public Transport {
 public:
  FdTransport(int fd, const TransportDeadlines& deadlines)
      : fd_(fd), deadlines_(deadlines) {}

  ~FdTransport() override { Close(); }

  Status Send(const wire::Frame& frame) override {
    std::string bytes;
    Status st = wire::EncodeFrame(frame, &bytes);
    if (!st.ok()) {
      return Fail(MakeError(TransportFault::kCorruption, 0, frame.type,
                            "encode: " + st.message()));
    }
    return WriteAll(bytes.data(), bytes.size(), frame.type);
  }

  Status Recv(wire::Frame* frame) override {
    char header[wire::kFrameHeaderBytes];
    CSCE_RETURN_IF_ERROR(ReadAll(header, sizeof(header)));
    uint64_t payload_len = 0;
    uint32_t payload_crc = 0;
    Status st = wire::DecodeFrameHeader(
        std::string_view(header, sizeof(header)), &frame->type, &payload_len,
        &payload_crc);
    if (!st.ok()) {
      return Fail(MakeError(TransportFault::kCorruption, 0, 0,
                            "frame header: " + st.message()));
    }
    frame->payload.resize(static_cast<size_t>(payload_len));
    if (payload_len > 0) {
      CSCE_RETURN_IF_ERROR(
          ReadAll(frame->payload.data(), frame->payload.size()));
    }
    if (util::Crc32(frame->payload) != payload_crc) {
      return Fail(MakeError(TransportFault::kCorruption, 0, frame->type,
                            "frame payload crc mismatch"));
    }
    return Status::OK();
  }

  void Close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void set_read_deadline(double seconds) override {
    deadlines_.read_seconds = seconds;
  }

 private:
  Status WriteAll(const char* data, size_t n, uint32_t frame_type) {
    if (fd_ < 0) {
      return Fail(MakeError(TransportFault::kClosed, 0, frame_type,
                            "fd transport closed"));
    }
    while (n > 0) {
      if (deadlines_.write_seconds > 0.0) {
        int ready = PollFor(fd_, POLLOUT, deadlines_.write_seconds);
        if (ready == 0) {
          return Fail(MakeError(TransportFault::kTimeout, 0, frame_type,
                                "write deadline"));
        }
        if (ready < 0) {
          return Fail(MakeError(TransportFault::kSyscall, errno, frame_type,
                                "poll(write)"));
        }
      }
      // MSG_NOSIGNAL: a peer that died mid-conversation must surface as
      // EPIPE for the recovery path, not kill the process with SIGPIPE
      // (no handler is ever installed — csce_lint signal-discipline).
      // Plain pipes reject send() with ENOTSOCK; fall back to write()
      // for them (their readers never vanish in our usage).
      ssize_t w = ::send(fd_, data, n, MSG_NOSIGNAL);
      if (w < 0 && errno == ENOTSOCK) w = ::write(fd_, data, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EPIPE || errno == ECONNRESET) {
          return Fail(MakeError(TransportFault::kClosed, errno, frame_type,
                                "write (peer closed)"));
        }
        return Fail(
            MakeError(TransportFault::kSyscall, errno, frame_type, "write"));
      }
      data += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status ReadAll(char* data, size_t n) {
    if (fd_ < 0) {
      return Fail(
          MakeError(TransportFault::kClosed, 0, 0, "fd transport closed"));
    }
    while (n > 0) {
      if (deadlines_.read_seconds > 0.0) {
        int ready = PollFor(fd_, POLLIN, deadlines_.read_seconds);
        if (ready == 0) {
          return Fail(
              MakeError(TransportFault::kTimeout, 0, 0, "read deadline"));
        }
        if (ready < 0) {
          return Fail(
              MakeError(TransportFault::kSyscall, errno, 0, "poll(read)"));
        }
      }
      ssize_t r = ::read(fd_, data, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) {
          return Fail(MakeError(TransportFault::kClosed, errno, 0,
                                "read (peer reset)"));
        }
        return Fail(MakeError(TransportFault::kSyscall, errno, 0, "read"));
      }
      if (r == 0) {
        return Fail(
            MakeError(TransportFault::kClosed, 0, 0, "peer closed"));
      }
      data += r;
      n -= static_cast<size_t>(r);
    }
    return Status::OK();
  }

  int fd_;
  TransportDeadlines deadlines_;
};

Status CloseAndFail(int fd, TransportError err) {
  if (fd >= 0) ::close(fd);
  return err.ToStatus();
}

}  // namespace

const char* TransportFaultName(TransportFault fault) {
  switch (fault) {
    case TransportFault::kNone:
      return "none";
    case TransportFault::kClosed:
      return "closed";
    case TransportFault::kTimeout:
      return "timeout";
    case TransportFault::kCorruption:
      return "corruption";
    case TransportFault::kHandshake:
      return "handshake";
    case TransportFault::kSyscall:
      return "syscall";
  }
  return "unknown";
}

Status TransportError::ToStatus() const {
  if (ok()) return Status::OK();
  std::string msg = "transport ";
  msg += TransportFaultName(fault);
  if (!context.empty()) {
    msg += ": ";
    msg += context;
  }
  if (sys_errno != 0) {
    msg += " (";
    msg += ErrnoString(sys_errno);
    msg += ")";
  }
  if (frame_type != 0) {
    msg += " [frame type " + std::to_string(frame_type) + "]";
  }
  if (shard != kNoShard) {
    msg += " [shard " + std::to_string(shard) + "]";
  }
  if (fault == TransportFault::kCorruption) return Status::Corruption(msg);
  return Status::IOError(msg);
}

void MakeLoopbackPair(std::unique_ptr<Transport>* a,
                      std::unique_ptr<Transport>* b) {
  auto state = std::make_shared<LoopbackState>();
  *a = std::make_unique<LoopbackEnd>(state, 0);
  *b = std::make_unique<LoopbackEnd>(state, 1);
}

std::unique_ptr<Transport> MakeFdTransport(int fd,
                                           const TransportDeadlines& deadlines) {
  return std::make_unique<FdTransport>(fd, deadlines);
}

// --- TCP --------------------------------------------------------------

Status TcpListener::Listen(const std::string& host, uint16_t port,
                           std::unique_ptr<TcpListener>* out) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket: " + ErrnoString(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::IOError("bind " + host + ":" + std::to_string(port) +
                                ": " + ErrnoString(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    Status st = Status::IOError("listen: " + ErrnoString(errno));
    ::close(fd);
    return st;
  }
  // Recover the ephemeral port when the caller bound port 0.
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  uint16_t actual_port = port;
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    actual_port = ntohs(bound.sin_port);
  }
  *out = std::make_unique<TcpListener>(Passkey{}, fd, actual_port);
  return Status::OK();
}

TcpListener::~TcpListener() { Close(); }

Status TcpListener::Accept(double timeout_seconds,
                           const TransportDeadlines& deadlines,
                           std::unique_ptr<Transport>* out) {
  if (fd_ < 0) {
    last_error_ = MakeError(TransportFault::kClosed, 0, 0, "listener closed");
    return last_error_.ToStatus();
  }
  int ready = PollFor(fd_, POLLIN, timeout_seconds);
  if (ready == 0) {
    last_error_ = MakeError(TransportFault::kTimeout, 0, 0, "accept deadline");
    return last_error_.ToStatus();
  }
  if (ready < 0) {
    last_error_ = MakeError(TransportFault::kSyscall, errno, 0, "poll(accept)");
    return last_error_.ToStatus();
  }
  int conn = -1;
  do {
    conn = ::accept(fd_, nullptr, nullptr);
  } while (conn < 0 && errno == EINTR);
  if (conn < 0) {
    last_error_ = MakeError(TransportFault::kSyscall, errno, 0, "accept");
    return last_error_.ToStatus();
  }
  int one = 1;
  ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *out = MakeFdTransport(conn, deadlines);
  return Status::OK();
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ConnectTcp(const std::string& host, uint16_t port,
                  const TransportDeadlines& deadlines,
                  std::unique_ptr<Transport>* out) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return CloseAndFail(-1,
                        MakeError(TransportFault::kSyscall, errno, 0, "socket"));
  }
  const std::string target = host + ":" + std::to_string(port);
  // Nonblocking connect + poll so a dead coordinator surfaces as a
  // bounded kTimeout instead of the kernel's minutes-long default.
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return CloseAndFail(fd, MakeError(TransportFault::kSyscall, errno, 0,
                                      "connect " + target));
  }
  if (rc != 0) {
    int ready = PollFor(fd, POLLOUT, deadlines.connect_seconds);
    if (ready == 0) {
      return CloseAndFail(fd, MakeError(TransportFault::kTimeout, 0, 0,
                                        "connect " + target));
    }
    if (ready < 0) {
      return CloseAndFail(
          fd, MakeError(TransportFault::kSyscall, errno, 0, "poll(connect)"));
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      return CloseAndFail(fd,
                          MakeError(TransportFault::kSyscall,
                                    err != 0 ? err : errno, 0,
                                    "connect " + target));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *out = MakeFdTransport(fd, deadlines);
  return Status::OK();
}

bool ParseHostPort(const std::string& spec, std::string* host,
                   uint16_t* port) {
  std::string host_part = "0.0.0.0";
  std::string port_part = spec;
  size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) host_part = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
  }
  if (port_part.empty()) return false;
  char* end = nullptr;
  unsigned long value = std::strtoul(port_part.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value > 65535) return false;
  *host = host_part;
  *port = static_cast<uint16_t>(value);
  return true;
}

}  // namespace shard
}  // namespace csce
