#include "net/transport.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace net {
namespace {

/// Write all of `bytes` to a nonblocking socket, waiting for POLLOUT
/// up to `deadline` when the kernel buffer is full.  Returns false on
/// peer loss or deadline expiry -- a worker that stops reading for
/// that long is as dead as one that hung up.  MSG_NOSIGNAL turns a
/// hung-up peer into EPIPE instead of SIGPIPE, whatever the process's
/// signal disposition.
bool write_all(int fd, std::string_view bytes, std::chrono::milliseconds deadline) {
  const auto give_up_at = std::chrono::steady_clock::now() + deadline;
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + written, bytes.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= give_up_at) return false;
      pollfd pfd{fd, POLLOUT, 0};
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(give_up_at - now);
      const int rc = ::poll(&pfd, 1, static_cast<int>(std::max<long long>(remaining.count(), 1)));
      if (rc < 0 && errno != EINTR) return false;
      continue;
    }
    return false;  // EPIPE, ECONNRESET, ...
  }
  return true;
}

}  // namespace

Transport::RecvStatus Transport::recv(std::string& out, std::chrono::milliseconds timeout) {
  const auto give_up_at = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (!pending_.empty()) {
      out = std::move(pending_.front());
      pending_.pop_front();
      return RecvStatus::ok;
    }
    if (recv_closed_) return RecvStatus::closed;
    const auto now = std::chrono::steady_clock::now();
    if (now >= give_up_at) return RecvStatus::timeout;
    pollfd pfd{poll_fd(), POLLIN, 0};
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(give_up_at - now);
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::max<long long>(remaining.count(), 1)));
    if (rc < 0) {
      if (errno == EINTR) continue;
      recv_closed_ = true;
      return RecvStatus::closed;
    }
    if (rc == 0) return RecvStatus::timeout;
    std::vector<std::string> messages;
    const bool open = drain(messages);
    for (auto& message : messages) pending_.push_back(std::move(message));
    if (!open) recv_closed_ = true;
  }
}

SocketTransport::SocketTransport(int fd, std::chrono::milliseconds write_deadline)
    : fd_(fd), write_deadline_(write_deadline) {
  if (fd >= 0) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

SocketTransport::~SocketTransport() { shutdown(); }

bool SocketTransport::send(std::string_view message) {
  const support::LockGuard lock(mutex_);
  if (fd_ < 0) return false;
  return write_all(fd_, encode_frame(message), write_deadline_);
}

bool SocketTransport::drain(std::vector<std::string>& out) {
  if (finished_) return false;
  int fd = -1;
  {
    // Snapshot the fd; the read loop itself must not hold the lock (a
    // send() blocked on a full kernel buffer would stall the caller's
    // whole poll loop).  A shutdown() racing the loop turns the read
    // into EBADF, which lands in the error branch below.
    const support::LockGuard lock(mutex_);
    fd = fd_;
  }
  char buffer[16384];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      if (!decoder_.feed(std::string_view(buffer, static_cast<std::size_t>(n)), out)) {
        finished_ = true;
        error_ = decoder_.error();
        return false;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    finished_ = true;
    if (n < 0 && errno != ECONNRESET) {
      error_ = "read: " + std::string(std::strerror(errno));
    } else if (decoder_.mid_frame()) {
      // The peer closed with a frame in flight: it died mid-send.
      error_ = "eof mid-frame";
    }
    // Otherwise a FIN, or a reset (a peer that closes with bytes it
    // never read -- a worker killed mid-lease, say -- resets the link
    // on TCP and AF_UNIX alike): the peer is gone, the stream was not
    // garbage.
    return false;
  }
}

void SocketTransport::shutdown() {
  const support::LockGuard lock(mutex_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

}  // namespace net
