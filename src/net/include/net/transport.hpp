#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.hpp"
#include "support/thread_annotations.hpp"

namespace net {

/// Message link between a sweep coordinator and one worker.  The one
/// production implementation is SocketTransport: length-delimited
/// frames (net/frame.hpp) over a connected stream socket -- TCP to a
/// remote worker, or one end of an AF_UNIX socketpair to a forked
/// local worker.  The coordinator and worker loops only ever see this
/// interface (tests substitute fakes behind it), so lease logic cannot
/// diverge between local and distributed runs.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Send one protocol message (no trailing newline; the transport
  /// frames it).  Thread-safe: the worker's heartbeat thread and main
  /// loop share one link.  Returns false once the peer is gone --
  /// callers treat that like a death and let the read side report it.
  [[nodiscard]] virtual bool send(std::string_view message) = 0;

  /// The fd to poll for readability (POLLIN) -- the coordinator
  /// multiplexes many links through one poll() set.
  [[nodiscard]] virtual int poll_fd() const = 0;

  /// Nonblocking read: decode everything currently buffered by the
  /// kernel and append complete messages to `out`.  Returns false when
  /// the peer is finished -- either cleanly (EOF, error() == "") or
  /// because the byte stream was garbage (error() nonempty).  Messages
  /// decoded before the failure are still appended.
  [[nodiscard]] virtual bool drain(std::vector<std::string>& out) = 0;

  /// Tear the link down now (close the fd).  Idempotent.  A
  /// coordinator hangs up on a misbehaving remote worker this way (a
  /// local one is also SIGKILLed).
  virtual void shutdown() = 0;

  /// Why drain() returned false: empty for a clean EOF (or a peer
  /// reset between frames), a framing diagnostic for a corrupt stream.
  [[nodiscard]] virtual const std::string& error() const = 0;

  enum class RecvStatus { ok, timeout, closed };

  /// Blocking single-message receive with a timeout, built on
  /// poll_fd()+drain() with an internal queue.  The worker side's main
  /// loop uses this; the coordinator never does (it poll()s many links
  /// at once and calls drain() directly -- mixing the two on one link
  /// would strand messages in the internal queue).
  [[nodiscard]] RecvStatus recv(std::string& out, std::chrono::milliseconds timeout);

 protected:
  std::deque<std::string> pending_;  ///< recv() lookahead only
  bool recv_closed_ = false;
};

/// One connected stream socket (TCP or AF_UNIX) carrying
/// length-delimited frames.  Owns the fd and makes it nonblocking.
class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(int fd,
                           std::chrono::milliseconds write_deadline = std::chrono::seconds(10));
  ~SocketTransport() override;

  [[nodiscard]] bool send(std::string_view message) override DLS_EXCLUDES(mutex_);
  [[nodiscard]] int poll_fd() const override DLS_EXCLUDES(mutex_) {
    const support::LockGuard lock(mutex_);
    return fd_;
  }
  [[nodiscard]] bool drain(std::vector<std::string>& out) override DLS_EXCLUDES(mutex_);
  void shutdown() override DLS_EXCLUDES(mutex_);
  [[nodiscard]] const std::string& error() const override { return error_; }

 private:
  /// Guards the fd (send() vs shutdown() cross-thread) and serializes
  /// whole frames so concurrent sends never interleave.  The decoder
  /// state below is NOT under it: drain() and error() belong to the
  /// single read-side thread by contract.
  mutable support::Mutex mutex_;
  int fd_ DLS_GUARDED_BY(mutex_);
  std::chrono::milliseconds write_deadline_;
  FrameDecoder decoder_;   ///< read-side thread only
  std::string error_;      ///< read-side thread only
  bool finished_ = false;  ///< read-side thread only
};

}  // namespace net
