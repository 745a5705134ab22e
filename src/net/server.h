/**
 * @file
 * The network front door: a TCP server speaking SHRQ/SHRP in front of
 * a `ServingEngine`.
 *
 * This materializes the paper's deployment split (§1, §2.6): the edge
 * half runs on a device, the cloud half behind this listener. Each
 * accepted connection gets a reader thread (decode frame → submit to
 * the engine) and a writer thread (await the engine future → encode
 * response), so one connection can keep many requests in flight — the
 * pipelining an open-loop edge client needs — while responses still
 * carry the request id they answer. Both ends pay one syscall per
 * burst: the reader takes every frame a `recv` delivered from its
 * `FrameReader` buffer, and the writer sends the front response
 * together with every later one that is already answered.
 *
 * Trust boundary: every frame is parsed through the checked `wire`
 * readers (src/net/protocol.h). A malformed frame yields a best-effort
 * typed `kProtocolError` response and a connection close; a request
 * the engine rejects (unknown endpoint, bad shape, shutdown) yields a
 * typed error response and the connection KEEPS serving — one bad
 * client request must not cost the client its link, and one bad
 * client must never cost other clients theirs. The server never
 * crashes on network input.
 *
 * The same listener also answers plain HTTP `GET /metrics` with a
 * Prometheus text scrape (src/net/metrics.h): the reader peeks the
 * connection's first bytes and demuxes — `G` starts an HTTP exchange
 * (one response, then close), anything else is parsed as SHRQ. No
 * second port, so the scrape observes exactly the serving process.
 *
 * Lifecycle: the constructor binds and starts accepting; `stop()`
 * (idempotent, also run by the destructor) closes the listener,
 * shuts down every connection, and joins all threads. The engine is
 * borrowed and must outlive the server.
 */
#ifndef SHREDDER_NET_SERVER_H
#define SHREDDER_NET_SERVER_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/net/socket.h"
#include "src/runtime/serving_engine.h"

namespace shredder {
namespace net {

/** Listener knobs. */
struct ServerConfig
{
    /** Numeric IPv4 address to bind. */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (read back via `port()`). */
    std::uint16_t port = 0;
    /**
     * Frames a connection's reader may have in flight before it stops
     * reading — bounds the per-connection memory an aggressive client
     * can pin while responses drain.
     */
    std::int64_t max_inflight_per_connection = 256;
};

/** Wire-level counters (engine-level stats live in `ServingEngine`). */
struct ServerNetStats
{
    std::int64_t connections_accepted = 0;
    std::int64_t connections_active = 0;
    std::int64_t frames_served = 0;    ///< Responses written, any status.
    std::int64_t protocol_errors = 0;  ///< Malformed frames survived.
    std::int64_t http_requests = 0;    ///< HTTP GETs demuxed (any path).
    std::int64_t metrics_requests = 0; ///< GET /metrics scrapes served.
};

/** See file comment. */
class Server
{
  public:
    /**
     * Bind `config.host:config.port` and start accepting.
     * @throws runtime::ServingError `kNetwork` when the bind fails.
     */
    Server(runtime::ServingEngine& engine, const ServerConfig& config = {});

    /** Stops and joins everything. */
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** The bound TCP port (the actual one when 0 was configured). */
    std::uint16_t port() const { return listener_.port(); }

    /** Snapshot of the wire-level counters. */
    ServerNetStats stats() const;

    /**
     * Stop accepting, close every connection, join all threads.
     * Idempotent; in-flight engine futures are still answered before
     * their connections close.
     */
    void stop();

  private:
    struct Connection;

    /** Accept loop (its own thread). */
    void accept_loop();

    /** Per-connection frame→engine loop (reader thread). */
    void reader_loop(Connection* connection);

    /**
     * Serve one HTTP GET on a connection whose first peeked byte said
     * HTTP instead of SHRQ (`GET /metrics` → Prometheus scrape body,
     * anything else → 404), then close. Runs on the reader thread;
     * the writer never has pending entries on an HTTP connection, so
     * the reader is the connection's only sender here.
     */
    void serve_http(Connection* connection);

    /** Per-connection future→frame loop (writer thread). */
    void writer_loop(Connection* connection);

    /** Drop finished connections from the registry (joins them). */
    void reap_connections();

    runtime::ServingEngine& engine_;
    ServerConfig config_;
    Listener listener_;

    mutable std::mutex mutex_;  ///< Guards connections_ and stats_.
    std::list<std::unique_ptr<Connection>> connections_;
    ServerNetStats stats_;
    bool stopping_ = false;

    std::thread acceptor_;
};

}  // namespace net
}  // namespace shredder

#endif  // SHREDDER_NET_SERVER_H
