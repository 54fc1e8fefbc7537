#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace ssps::net {
namespace {

using Clock = std::chrono::steady_clock;

int ms_left(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

sockaddr_in local_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void prepare_fd(int fd) {
  // Children exec ssps_noded; leaked sockets there would hold peers'
  // connections half-open past their owner's death.
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool wait_readable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r > 0) return true;
    if (r == 0) return false;  // timeout
    if (errno != EINTR) return false;
  }
}

}  // namespace

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<Socket> Socket::connect_local(std::uint16_t port, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const sockaddr_in addr = local_addr(port);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return std::nullopt;
    prepare_fd(fd);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      return Socket(fd);
    }
    ::close(fd);
    if (ms_left(deadline) == 0) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

bool Socket::send_all(std::span<const std::uint8_t> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

int Socket::recv_into(FrameAssembler& into, int timeout_ms) {
  if (!wait_readable(fd_, timeout_ms)) return -1;
  std::uint8_t chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      into.feed({chunk, static_cast<std::size_t>(n)});
      return static_cast<int>(n);
    }
    if (n == 0) return 0;
    if (errno == EINTR) continue;
    return -1;
  }
}

std::optional<std::span<const std::uint8_t>> Socket::read_frame(FrameAssembler& from,
                                                                int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (auto frame = from.next()) return frame;
    if (from.failed()) return std::nullopt;
    const int left = ms_left(deadline);
    if (left == 0) return std::nullopt;
    const int n = recv_into(from, left);
    if (n <= 0) return std::nullopt;
  }
}

Listener& Listener::operator=(Listener&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = o.fd_;
    port_ = o.port_;
    o.fd_ = -1;
  }
  return *this;
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<Listener> Listener::bind_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = local_addr(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  Listener out;
  out.fd_ = fd;
  out.port_ = ntohs(addr.sin_port);
  return out;
}

std::optional<Socket> Listener::accept_one(int timeout_ms) {
  if (!wait_readable(fd_, timeout_ms)) return std::nullopt;
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      prepare_fd(fd);
      return Socket(fd);
    }
    if (errno != EINTR) return std::nullopt;
  }
}

}  // namespace ssps::net
