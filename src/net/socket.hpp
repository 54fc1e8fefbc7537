// Minimal localhost TCP wrappers for the multi-process deployment.
//
// Plain POSIX sockets, no external dependency: a move-only connected
// Socket (EINTR-safe full writes, chunked reads) and a loopback Listener
// with ephemeral-port discovery (bind port 0, read the real port back
// with getsockname — the orchestrator passes it to the daemons it
// spawns). Everything blocks with an explicit millisecond deadline; a
// deployment must fail loudly on a wedged peer, never hang a barrier
// forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/frame.hpp"

namespace ssps::net {

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  /// Connects to 127.0.0.1:port, retrying refused connections until the
  /// deadline (the orchestrator and its daemons race at startup).
  static std::optional<Socket> connect_local(std::uint16_t port, int timeout_ms);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Writes all of `data` (looping over short writes and EINTR).
  bool send_all(std::span<const std::uint8_t> data);

  /// Waits up to timeout_ms for readable data and feeds one recv's worth
  /// into `into`. Returns the byte count (> 0), 0 on orderly EOF, or -1
  /// on timeout/error.
  int recv_into(FrameAssembler& into, int timeout_ms);

  /// Reads until `from` yields one complete frame, a view into `from`'s
  /// buffer valid until its next feed (the next recv_into or read_frame
  /// on it). nullopt on EOF, timeout, stream failure (FrameAssembler cap)
  /// or socket error.
  std::optional<std::span<const std::uint8_t>> read_frame(FrameAssembler& from,
                                                          int timeout_ms);

 private:
  int fd_ = -1;
};

class Listener {
 public:
  Listener() = default;
  Listener(Listener&& o) noexcept : fd_(o.fd_), port_(o.port_) { o.fd_ = -1; }
  Listener& operator=(Listener&& o) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Binds 127.0.0.1:port (0 = kernel-assigned ephemeral port) and
  /// listens. port() reports the actual port either way.
  static std::optional<Listener> bind_local(std::uint16_t port);

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }

  /// Accepts one connection, waiting up to timeout_ms.
  std::optional<Socket> accept_one(int timeout_ms);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace ssps::net
