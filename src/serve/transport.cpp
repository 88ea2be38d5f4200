#include "serve/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "core/error.h"
#include "obs/telemetry.h"

namespace spiketune::serve {

namespace {

/// Blocks until `fd` is ready for `events` or `wake_fd` fires.  Returns 1
/// on ready, 0 on timeout (timeout_ms >= 0), -1 on wake or hard error.  A
/// signal landing mid-poll (EINTR) restarts the wait with the remaining
/// budget instead of surfacing as a spurious connection error.
int wait_io(int fd, short events, int wake_fd, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    struct pollfd pfds[2];
    pfds[0] = {fd, events, 0};
    pfds[1] = {wake_fd, POLLIN, 0};
    const nfds_t n = wake_fd >= 0 ? 2 : 1;
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      wait_ms = static_cast<int>(std::max<std::int64_t>(0, left.count()));
    }
    const int rc = poll(pfds, n, wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return 0;
    if (wake_fd >= 0 && (pfds[1].revents & (POLLIN | POLLERR | POLLHUP)))
      return -1;
    // POLLNVAL included: let the subsequent syscall fail loudly rather
    // than spinning on a descriptor that was closed under us.
    if (pfds[0].revents != 0) return 1;
  }
}

bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

sockaddr_in make_addr(const std::string& host, int port) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ST_REQUIRE(inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
             "bad IPv4 address: " + host);
  return addr;
}

}  // namespace

// --- TcpConnection ----------------------------------------------------------

TcpConnection::TcpConnection(int fd, std::string peer)
    : fd_(fd), peer_(std::move(peer)) {
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  touch_activity();
}

TcpConnection::~TcpConnection() { close(); }

void TcpConnection::touch_activity() {
  last_activity_ns_.store(obs::telemetry_now_ns(), std::memory_order_relaxed);
}

ssize_t TcpConnection::transport_recv(std::uint8_t* buf, std::size_t n) {
  return ::recv(fd_, buf, n, 0);
}

ssize_t TcpConnection::transport_send(const std::uint8_t* buf,
                                      std::size_t n) {
  return ::send(fd_, buf, n, MSG_DONTWAIT | MSG_NOSIGNAL);
}

bool TcpConnection::read_exact(std::uint8_t* buf, std::size_t n,
                               int wake_fd) {
  while (n > 0) {
    if (wait_io(fd_, POLLIN, wake_fd, -1) <= 0) return false;
    const ssize_t r = transport_recv(buf, n);
    if (r == 0) return false;  // clean EOF
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    buf += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool TcpConnection::read_frame(FrameHeader& header,
                               std::vector<std::uint8_t>& payload,
                               int wake_fd) {
  std::uint8_t raw[kHeaderBytes];
  if (!read_exact(raw, kHeaderBytes, wake_fd)) return false;
  // decode_header caps payload_bytes at kMaxPayloadBytes, so this resize
  // is bounded even for a hostile peer.
  header = decode_header(raw);
  payload.resize(header.payload_bytes);
  if (header.payload_bytes > 0 &&
      !read_exact(payload.data(), payload.size(), wake_fd))
    return false;
  touch_activity();
  return true;
}

bool TcpConnection::write_all_bounded(const std::uint8_t* p, std::size_t n,
                                      std::uint64_t deadline_ns) {
  while (n > 0) {
    const ssize_t w = transport_send(p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
      // Socket buffer full: the peer has stopped reading.  Wait for
      // POLLOUT up to the remaining budget; give up past the deadline.
      int wait_ms = -1;
      if (deadline_ns != 0) {
        const std::uint64_t now = obs::telemetry_now_ns();
        if (now >= deadline_ns) {
          errno = ETIMEDOUT;
          return false;
        }
        wait_ms = static_cast<int>((deadline_ns - now) / 1'000'000 + 1);
      }
      const int rc = wait_io(fd_, POLLOUT, -1, wait_ms);
      if (rc == 0) {
        errno = ETIMEDOUT;
        return false;
      }
      if (rc < 0) return false;
      continue;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool TcpConnection::write_frame(const std::vector<std::uint8_t>& frame) {
  const std::uint64_t deadline_ns =
      send_timeout_ms_ > 0
          ? obs::telemetry_now_ns() +
                static_cast<std::uint64_t>(send_timeout_ms_) * 1'000'000
          : 0;
  std::lock_guard<std::mutex> lock(write_mu_);
  if (fd_ < 0 || aborted_.load(std::memory_order_relaxed)) return false;
  errno = 0;
  if (write_all_bounded(frame.data(), frame.size(), deadline_ns)) {
    touch_activity();
    return true;
  }
  if (errno == ETIMEDOUT && timeout_sink_ != nullptr)
    timeout_sink_->fetch_add(1, std::memory_order_relaxed);
  // Whether timeout or peer error, the frame may be half-written and the
  // stream framing is lost: kill the connection so the reader unblocks and
  // no later frame lands on a corrupt boundary.
  if (!aborted_.exchange(true) && fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  return false;
}

void TcpConnection::abort() {
  if (!aborted_.exchange(true) && fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpConnection::close() {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

// --- TcpListener ------------------------------------------------------------

TcpListener::TcpListener(const std::string& host, int port,
                         TcpListenerOptions options) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ST_REQUIRE(fd_ >= 0, "socket() failed");
  const int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (options.sndbuf_bytes > 0) {
    // Accepted sockets inherit the listening socket's buffer sizes.
    setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &options.sndbuf_bytes,
               sizeof options.sndbuf_bytes);
  }
  sockaddr_in addr = make_addr(host, port);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(fd_, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error("cannot listen on " + host + ":" + std::to_string(port) +
                ": " + err);
  }
  socklen_t len = sizeof addr;
  getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() { close(); }

int TcpListener::accept_fd(int wake_fd, int timeout_ms, std::string* peer) {
  for (;;) {
    if (fd_ < 0) return -1;
    const int rc = wait_io(fd_, POLLIN, wake_fd, timeout_ms);
    if (rc <= 0) return -1;  // wake, timeout, or listener closed
    sockaddr_in addr = {};
    socklen_t len = sizeof addr;
    const int cfd = ::accept(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    if (cfd < 0) {
      // A connection aborted between poll and accept (or a signal) is not
      // fatal to the listener; try again.
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN)
        continue;
      return -1;
    }
    if (peer != nullptr) {
      char ip[INET_ADDRSTRLEN] = "?";
      inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof ip);
      *peer = std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
    }
    return cfd;
  }
}

std::shared_ptr<Connection> TcpListener::accept(int wake_fd,
                                                int timeout_ms) {
  std::string peer;
  const int cfd = accept_fd(wake_fd, timeout_ms, &peer);
  if (cfd < 0) return nullptr;
  return std::make_shared<TcpConnection>(cfd, std::move(peer));
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- TcpClient --------------------------------------------------------------

TcpClient::TcpClient(const std::string& host, int port, int retry_ms) {
  const sockaddr_in addr = make_addr(host, port);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(retry_ms);
  for (;;) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ST_REQUIRE(fd_ >= 0, "socket() failed");
    int rc = connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
    if (rc != 0 && errno == EINTR) {
      // A signal interrupted connect(); the handshake continues in the
      // background.  Wait for writability and read the final verdict.
      if (wait_io(fd_, POLLOUT, -1, retry_ms > 0 ? retry_ms : -1) > 0) {
        int err = 0;
        socklen_t len = sizeof err;
        getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) rc = 0;
        errno = err;
      }
    }
    if (rc == 0) {
      const int one = 1;
      setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return;
    }
    ::close(fd_);
    fd_ = -1;
    if (std::chrono::steady_clock::now() >= deadline)
      throw Error("cannot connect to " + host + ":" + std::to_string(port) +
                  ": " + std::strerror(errno));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TcpClient::~TcpClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool TcpClient::send_frame(const std::vector<std::uint8_t>& frame) {
  return fd_ >= 0 && write_all(fd_, frame.data(), frame.size());
}

TcpClient::Reply TcpClient::roundtrip(const InferRequest& request) {
  Reply reply;
  if (!send_frame(infer_request_frame(request))) {
    reply.disconnected = true;
    return reply;
  }

  FrameHeader rh;
  std::vector<std::uint8_t> rpayload;
  if (!read_reply_frame(rh, rpayload)) {
    reply.disconnected = true;
    return reply;
  }
  if (rh.kind == FrameKind::kInferResponse) {
    reply.ok = true;
    reply.response = decode_response(rh.request_id, rpayload);
  } else {
    ST_REQUIRE(rh.kind == FrameKind::kError,
               "unexpected frame kind in reply");
    reply.error = decode_error(rh.request_id, rpayload);
  }
  return reply;
}

bool TcpClient::read_reply_frame(FrameHeader& header,
                                 std::vector<std::uint8_t>& payload) {
  std::uint8_t rraw[kHeaderBytes];
  std::uint8_t* p = rraw;
  std::size_t want = kHeaderBytes;
  while (want > 0) {
    const ssize_t r = ::recv(fd_, p, want, 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    p += r;
    want -= static_cast<std::size_t>(r);
  }
  header = decode_header(rraw);
  payload.resize(header.payload_bytes);
  std::size_t off = 0;
  while (off < payload.size()) {
    const ssize_t r =
        ::recv(fd_, payload.data() + off, payload.size() - off, 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(r);
  }
  return true;
}

TcpClient::StatReply TcpClient::stat(std::uint64_t request_id) {
  StatReply reply;
  if (!send_frame(stat_request_frame(request_id))) {
    reply.disconnected = true;
    return reply;
  }
  FrameHeader rh;
  std::vector<std::uint8_t> rpayload;
  if (!read_reply_frame(rh, rpayload)) {
    reply.disconnected = true;
    return reply;
  }
  ST_REQUIRE(rh.kind == FrameKind::kStatResponse,
             "unexpected frame kind in STAT reply");
  reply.ok = true;
  reply.json = decode_stat(rpayload);
  return reply;
}

TcpClient::StreamAck TcpClient::stream_open(std::uint64_t stream_id,
                                            std::uint64_t request_id) {
  StreamAck ack;
  StreamControl c{request_id, stream_id};
  if (!send_frame(stream_open_frame(c))) {
    ack.disconnected = true;
    return ack;
  }
  FrameHeader rh;
  std::vector<std::uint8_t> rpayload;
  if (!read_reply_frame(rh, rpayload)) {
    ack.disconnected = true;
    return ack;
  }
  if (rh.kind == FrameKind::kStreamOpen) {
    const StreamControl echoed = decode_stream_control(rh.request_id, rpayload);
    ST_REQUIRE(echoed.stream_id == stream_id,
               "stream open ack for a different stream");
    ack.ok = true;
  } else {
    ST_REQUIRE(rh.kind == FrameKind::kError,
               "unexpected frame kind in stream open reply");
    ack.error = decode_error(rh.request_id, rpayload);
  }
  return ack;
}

TcpClient::Reply TcpClient::stream_step(std::uint64_t stream_id,
                                        const InferRequest& request) {
  Reply reply;
  StreamStepRequest step;
  step.stream_id = stream_id;
  step.request = request;
  if (!send_frame(stream_step_frame(step))) {
    reply.disconnected = true;
    return reply;
  }
  FrameHeader rh;
  std::vector<std::uint8_t> rpayload;
  if (!read_reply_frame(rh, rpayload)) {
    reply.disconnected = true;
    return reply;
  }
  if (rh.kind == FrameKind::kInferResponse) {
    reply.ok = true;
    reply.response = decode_response(rh.request_id, rpayload);
  } else {
    ST_REQUIRE(rh.kind == FrameKind::kError,
               "unexpected frame kind in stream step reply");
    reply.error = decode_error(rh.request_id, rpayload);
  }
  return reply;
}

TcpClient::StreamCloseResult TcpClient::stream_close(
    std::uint64_t stream_id, std::uint64_t request_id) {
  StreamCloseResult result;
  StreamControl c{request_id, stream_id};
  if (!send_frame(stream_close_frame(c))) {
    result.disconnected = true;
    return result;
  }
  FrameHeader rh;
  std::vector<std::uint8_t> rpayload;
  if (!read_reply_frame(rh, rpayload)) {
    result.disconnected = true;
    return result;
  }
  if (rh.kind == FrameKind::kStreamClose) {
    result.totals = decode_stream_close_reply(rh.request_id, rpayload);
    ST_REQUIRE(result.totals.stream_id == stream_id,
               "stream close reply for a different stream");
    result.ok = true;
  } else {
    ST_REQUIRE(rh.kind == FrameKind::kError,
               "unexpected frame kind in stream close reply");
    result.error = decode_error(rh.request_id, rpayload);
  }
  return result;
}

}  // namespace spiketune::serve
