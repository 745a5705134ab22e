/**
 * @file
 * Implementation of the SHRQ/SHRP network server (see header).
 */
#include "src/net/server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <sstream>
#include <utility>

#include "src/net/metrics.h"
#include "src/net/protocol.h"
#include "src/runtime/logging.h"

namespace shredder {
namespace net {

using runtime::ServingError;
using runtime::ServingErrorCode;

namespace {

/** In-flight work: an engine future, or an already-typed reply. */
struct PendingReply
{
    bool is_ready = false;      ///< True: `ready` is the reply.
    std::future<Tensor> future; ///< Engine result (when !is_ready).
    Response ready;             ///< Pre-built (error) response.
};

/** True when `entry` can be answered without blocking. */
bool
is_resolved(const PendingReply& entry)
{
    return entry.is_ready ||
           entry.future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
}

/** Wait for `entry`'s answer and turn it into a response. */
Response
resolve(PendingReply& entry)
{
    if (entry.is_ready) {
        return std::move(entry.ready);
    }
    Response response;
    response.request_id = entry.ready.request_id;
    try {
        response.output = entry.future.get();
        response.status = WireStatus::kOk;
    } catch (const ServingError& e) {
        response.status = wire_status(e.code());
        response.message = e.what();
    } catch (const std::exception& e) {
        response.status = WireStatus::kInternal;
        response.message = e.what();
    }
    return response;
}

}  // namespace

/**
 * One accepted client link. The reader thread decodes frames and
 * submits them; the writer thread drains `pending` in submission
 * order (responses carry ids, so FIFO write order is a convenience,
 * not a contract) and is the connection's only sender.
 */
struct Server::Connection
{
    explicit Connection(Socket s) : socket(std::move(s)) {}

    Socket socket;
    std::thread reader;
    std::thread writer;

    std::mutex mutex;  ///< Guards pending + flags below.
    std::condition_variable cv;
    std::deque<PendingReply> pending;
    bool reader_done = false;  ///< No further pending entries will come.
    bool closing = false;      ///< stop() wants both loops gone.

    std::atomic<bool> reader_exited{false};
    std::atomic<bool> writer_exited{false};

    /** True once both loops returned (safe to join + destroy). */
    bool finished() const
    {
        return reader_exited.load(std::memory_order_acquire) &&
               writer_exited.load(std::memory_order_acquire);
    }
};

Server::Server(runtime::ServingEngine& engine, const ServerConfig& config)
    : engine_(engine), config_(config),
      listener_(config.host, config.port)
{
    SHREDDER_REQUIRE(config_.max_inflight_per_connection >= 1,
                     "max_inflight_per_connection must be >= 1, got ",
                     config_.max_inflight_per_connection);
    acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

ServerNetStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
Server::accept_loop()
{
    for (;;) {
        Socket client = listener_.accept();
        if (!client.valid()) {
            return;  // listener closed: shutdown
        }
        auto connection = std::make_unique<Connection>(std::move(client));
        Connection* raw = connection.get();
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            return;  // raced stop(); drop the socket on the floor
        }
        reap_connections();
        ++stats_.connections_accepted;
        ++stats_.connections_active;
        raw->reader = std::thread([this, raw] { reader_loop(raw); });
        raw->writer = std::thread([this, raw] { writer_loop(raw); });
        connections_.push_back(std::move(connection));
    }
}

void
Server::reap_connections()
{
    // Caller holds mutex_. Finished connections' threads have both
    // returned, so the joins below cannot block the accept loop.
    for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->finished()) {
            (*it)->reader.join();
            (*it)->writer.join();
            it = connections_.erase(it);
            --stats_.connections_active;
        } else {
            ++it;
        }
    }
}

void
Server::reader_loop(Connection* connection)
{
    const auto finish = [connection](bool note_protocol_error,
                                     Response error_response) {
        std::unique_lock<std::mutex> lock(connection->mutex);
        if (note_protocol_error) {
            PendingReply entry;
            entry.is_ready = true;
            entry.ready = std::move(error_response);
            connection->pending.push_back(std::move(entry));
        }
        connection->reader_done = true;
        lock.unlock();
        connection->cv.notify_all();
        connection->reader_exited.store(true, std::memory_order_release);
    };

    // Protocol demux: peek the first byte without consuming it. An
    // HTTP scrape starts "GET ", a SHRQ frame starts with its magic —
    // they differ in byte 0, so one peeked byte decides. The bytes
    // stay in the stream for whichever parser wins.
    try {
        char head = 0;
        const std::size_t peeked = connection->socket.peek(&head, 1);
        if (peeked == 0) {
            finish(false, Response{});
            return;  // clean close before any byte
        }
        if (head == 'G') {
            serve_http(connection);
            finish(false, Response{});
            return;  // HTTP is one exchange; the connection is done
        }
    } catch (const ServingError&) {
        finish(false, Response{});
        return;  // socket died before the first byte
    }

    FrameReader frames(connection->socket);
    std::string payload;
    for (;;) {
        try {
            if (!frames.next(kRequestMagic, &payload)) {
                finish(false, Response{});
                return;  // clean close between frames
            }
        } catch (const ServingError& e) {
            // Bad envelope or mid-frame disconnect. The stream
            // position is unknowable now, so the connection ends —
            // but with a best-effort typed response first when the
            // link still works (kProtocol), and never a crash.
            const bool answerable =
                e.code() == ServingErrorCode::kProtocol;
            if (answerable) {
                std::lock_guard<std::mutex> stats_lock(mutex_);
                ++stats_.protocol_errors;
            }
            Response response;
            response.status = WireStatus::kProtocolError;
            response.message = e.what();
            finish(answerable, std::move(response));
            return;
        }

        Request request;
        try {
            request = decode_request_payload(payload);
        } catch (const ServingError& e) {
            {
                std::lock_guard<std::mutex> stats_lock(mutex_);
                ++stats_.protocol_errors;
            }
            Response response;
            response.status = WireStatus::kProtocolError;
            response.message = e.what();
            finish(true, std::move(response));
            return;
        }

        PendingReply entry;
        // Quantized activations stay quantized into the engine: the
        // endpoint either consumes them directly (int8 GEMM) or
        // dequantizes on a worker, not on the reader thread.
        entry.future =
            request.is_quantized
                ? engine_.submit_quantized(request.endpoint,
                                           std::move(request.quantized),
                                           request.request_id)
                : engine_.submit(request.endpoint,
                                 std::move(request.activation),
                                 request.request_id);
        entry.ready.request_id = request.request_id;

        std::unique_lock<std::mutex> lock(connection->mutex);
        connection->cv.wait(lock, [this, connection] {
            return static_cast<std::int64_t>(
                       connection->pending.size()) <
                       config_.max_inflight_per_connection ||
                   connection->closing;
        });
        if (connection->closing) {
            connection->reader_done = true;
            lock.unlock();
            connection->cv.notify_all();
            connection->reader_exited.store(true,
                                            std::memory_order_release);
            return;
        }
        connection->pending.push_back(std::move(entry));
        lock.unlock();
        connection->cv.notify_all();
    }
}

void
Server::serve_http(Connection* connection)
{
    // Bounded header read: the exchange ends at CRLFCRLF. 8 KiB is
    // far beyond any scraper's GET; past it the request is hostile
    // and the connection simply closes.
    constexpr std::size_t kMaxHeader = 8192;
    std::string raw;
    bool complete = false;
    try {
        char chunk[512];
        while (raw.size() < kMaxHeader) {
            const std::size_t n =
                connection->socket.recv_some(chunk, sizeof chunk);
            if (n == 0) {
                return;  // client went away mid-request
            }
            raw.append(chunk, n);
            if (raw.find("\r\n\r\n") != std::string::npos) {
                complete = true;
                break;
            }
        }
    } catch (const ServingError&) {
        return;
    }
    if (!complete) {
        return;
    }

    // Request line: METHOD SP TARGET SP VERSION.
    std::istringstream line(raw.substr(0, raw.find("\r\n")));
    std::string method;
    std::string target;
    line >> method >> target;

    std::string status_line;
    std::string content_type;
    std::string body;
    if (method == "GET" &&
        (target == "/metrics" || target.rfind("/metrics?", 0) == 0)) {
        ServerNetStats net;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.http_requests;
            ++stats_.metrics_requests;
            net = stats_;
        }
        status_line = "HTTP/1.0 200 OK";
        content_type = "text/plain; version=0.0.4; charset=utf-8";
        body = render_metrics(engine_, net);
    } else {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.http_requests;
        status_line = "HTTP/1.0 404 Not Found";
        content_type = "text/plain; charset=utf-8";
        body = "not found\n";
    }

    std::ostringstream response;
    response << status_line << "\r\n"
             << "Content-Type: " << content_type << "\r\n"
             << "Content-Length: " << body.size() << "\r\n"
             << "Connection: close\r\n\r\n"
             << body;
    const std::string out = response.str();
    try {
        connection->socket.send_all(out.data(), out.size());
    } catch (const ServingError&) {
        // The scraper vanished mid-response; nothing left to do.
    }
}

void
Server::writer_loop(Connection* connection)
{
    // Responses that are already answered when the front one resolves
    // ride in the same send: one syscall per burst, never a wait to
    // fill one.
    constexpr std::size_t kMaxCoalescedBytes = 64u << 10;
    bool link_alive = true;
    std::string out;
    for (;;) {
        std::unique_lock<std::mutex> lock(connection->mutex);
        connection->cv.wait(lock, [connection] {
            return !connection->pending.empty() ||
                   connection->reader_done;
        });
        if (connection->pending.empty()) {
            break;  // reader_done and everything flushed
        }
        PendingReply entry = std::move(connection->pending.front());
        connection->pending.pop_front();
        lock.unlock();
        connection->cv.notify_all();  // reader may be at its bound

        out.clear();
        std::int64_t frames = 0;
        for (;;) {
            const Response response = resolve(entry);
            if (link_alive) {
                out += encode_response(response);
                ++frames;
            }
            if (out.size() >= kMaxCoalescedBytes) {
                break;
            }
            lock.lock();
            if (connection->pending.empty() ||
                !is_resolved(connection->pending.front())) {
                lock.unlock();
                break;
            }
            entry = std::move(connection->pending.front());
            connection->pending.pop_front();
            lock.unlock();
            connection->cv.notify_all();
        }

        if (!link_alive) {
            continue;  // keep consuming futures; nowhere to send
        }
        try {
            connection->socket.send_all(out.data(), out.size());
            std::lock_guard<std::mutex> stats_lock(mutex_);
            stats_.frames_served += frames;
        } catch (const ServingError&) {
            // The client went away. Stop sending but keep draining
            // the queue so already-submitted work is consumed.
            link_alive = false;
        }
    }
    // All responses flushed (or the link died): signal EOF so a
    // half-closed client's read loop terminates cleanly.
    connection->socket.shutdown_both();
    connection->writer_exited.store(true, std::memory_order_release);
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            return;
        }
        stopping_ = true;
    }
    listener_.close();
    if (acceptor_.joinable()) {
        acceptor_.join();
    }

    // The acceptor is gone, so connections_ is stable now.
    std::list<std::unique_ptr<Connection>> connections;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        connections.swap(connections_);
        stats_.connections_active = 0;
    }
    for (auto& connection : connections) {
        {
            std::lock_guard<std::mutex> lock(connection->mutex);
            connection->closing = true;
        }
        // Readers blocked in recv observe a clean close; loops at the
        // in-flight bound observe `closing`.
        connection->socket.shutdown_both();
        connection->cv.notify_all();
    }
    for (auto& connection : connections) {
        if (connection->reader.joinable()) {
            connection->reader.join();
        }
        if (connection->writer.joinable()) {
            connection->writer.join();
        }
    }
}

}  // namespace net
}  // namespace shredder
