// Minimal dependency-free HTTP/1.1 front door over the same wire schema
// as the stdio transport: POST one command envelope, stream event lines
// back.
//
//   POST /api HTTP/1.1            body: one command object (no newline
//   Content-Length: ...           framing needed — the body IS the line)
//
//   -> 200, Content-Type: application/x-ndjson, Transfer-Encoding:
//      chunked; each event line is one chunk, flushed as it happens, so
//      `curl -N` shows accepted/sample events live and the final `report`
//      ends the stream.
//
//   GET /stats                    -> 200, one `stats` event line.
//
// Protocol errors (bad JSON, unknown op, oversized body) answer 400 with
// one `error` event line; unknown paths/methods answer 404/405.
//
// Connections are persistent (HTTP/1.1 keep-alive): after a response —
// including a chunked stream, whose 0-length terminator delimits it — the
// handler loops for the next request on the same socket, so a client can
// POST many commands and poll /stats without paying a TCP handshake per
// call.  `Connection: close` (or HTTP/1.0 without keep-alive) closes
// after the response; a request whose HTTP framing itself is malformed
// always closes, since the byte stream is no longer synchronized.
//
// A client that disconnects mid-stream cancels its jobs: the write
// failure flips the connection's broken flag and the handler cancels
// before draining, so walkers never grind for a departed curl.
//
// Each connection runs on its own thread.  The accept loop joins the
// threads of finished connections before taking the next one, so a
// long-lived server holds threads (and their stacks) only for the
// connections still open.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <thread>
#include <unordered_set>

#include "serve/session.hpp"

namespace cspls::serve {

class HttpServer {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port() after start()
    std::size_t max_body_bytes = 1 << 20;
  };

  explicit HttpServer(Scheduler& scheduler)
      : HttpServer(scheduler, Options{}) {}
  HttpServer(Scheduler& scheduler, Options options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind 127.0.0.1 and start accepting.  Throws std::runtime_error when
  /// the socket cannot be bound.
  void start();

  /// The bound port (after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stop accepting, close the listener and join all connections
  /// (outstanding streams are cancelled).  Idempotent.
  void stop();

 private:
  /// One connection's handler thread; `done` is its last write.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void handle_connection(int fd);
  /// Join and drop the connections whose handlers have returned.
  void reap_finished();

  Scheduler& scheduler_;
  Options options_;
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex conn_m_;
  std::list<Connection> connections_;  ///< stable nodes: handlers hold one
  std::unordered_set<int> live_fds_;  ///< open sockets, for stop() to break
                                      ///< idle keep-alive reads
};

}  // namespace cspls::serve
