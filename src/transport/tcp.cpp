#include "transport/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <limits>
#include <system_error>
#include <thread>

#include "common/clock.h"
#include "transport/epoll_channel.h"
#include "transport/reactor.h"

namespace adlp::transport {

namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// One connect attempt. Returns the connected fd, or -1 with errno set.
/// `timeout_ms <= 0` leaves the attempt bounded only by the kernel's own
/// connect timeout.
int ConnectOnce(const std::string& host, std::uint16_t port,
                std::int64_t timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    errno = EINVAL;
    return -1;
  }

  // Non-blocking connect + poll in the untimed case too: a blocking
  // connect() interrupted by a signal returns EINTR while the attempt keeps
  // progressing in the kernel, and re-calling connect() (or restarting the
  // attempt, as this code once did) forfeits the time already spent.
  // Polling for writability resumes the SAME attempt, and every EINTR
  // resume recomputes the remaining budget from a fixed deadline.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS && errno != EINTR) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  if (rc == 0) {  // immediate success (loopback fast path)
    ::fcntl(fd, F_SETFL, flags);
    return fd;
  }

  const std::int64_t deadline_ns =
      timeout_ms > 0 ? MonotonicNowNs() + timeout_ms * 1'000'000 : 0;
  while (true) {
    int poll_ms = -1;
    if (deadline_ns > 0) {
      const std::int64_t remaining_ms =
          (deadline_ns - MonotonicNowNs() + 999'999) / 1'000'000;
      if (remaining_ms <= 0) {
        ::close(fd);
        errno = ETIMEDOUT;
        return -1;
      }
      poll_ms = static_cast<int>(std::min<std::int64_t>(
          remaining_ms, std::numeric_limits<int>::max()));
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, poll_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      return -1;
    }
    if (ready == 0) {
      ::close(fd);
      errno = ETIMEDOUT;
      return -1;
    }
    break;
  }
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0 || err != 0) {
    const int saved = err != 0 ? err : errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  ::fcntl(fd, F_SETFL, flags);
  return fd;
}

int ConnectWithRetries(std::uint16_t port, const TcpConnectOptions& options) {
  std::int64_t delay_ms = options.retry_delay_ms;
  const int attempts = std::max(options.attempts, 1);
  for (int attempt = 0;; ++attempt) {
    const int fd = ConnectOnce(options.host, port, options.connect_timeout_ms);
    if (fd >= 0) return fd;
    if (attempt + 1 >= attempts) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    delay_ms = std::min(delay_ms * 2, options.max_retry_delay_ms);
  }
}

}  // namespace

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ThrowErrno("bind");
  }
  if (::listen(fd_, 64) < 0) ThrowErrno("listen");

  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    ThrowErrno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  Close();
  if (fd_ >= 0) ::close(fd_);
}

void TcpListener::Close() {
  // Shut down only (refuses later dials); the fd stays allocated until the
  // destructor so an acceptor still polling it never sees its fd number
  // recycled by an unrelated open().
  ::shutdown(fd_, SHUT_RDWR);
}

std::shared_ptr<AsyncChannel> TcpConnect(std::uint16_t port,
                                         const TcpConnectOptions& options) {
  const int fd = ConnectWithRetries(port, options);
  if (fd < 0) ThrowErrno("connect");
  return EpollChannel::Adopt(Reactor::Global(), fd);
}

std::shared_ptr<AsyncChannel> TryTcpConnect(std::uint16_t port,
                                            const TcpConnectOptions& options) {
  const int fd = ConnectWithRetries(port, options);
  if (fd < 0) return nullptr;
  return EpollChannel::Adopt(Reactor::Global(), fd);
}

int TryTcpConnectFd(std::uint16_t port, const TcpConnectOptions& options) {
  return ConnectWithRetries(port, options);
}

}  // namespace adlp::transport
