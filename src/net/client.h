/**
 * @file
 * Blocking SHRQ/SHRP client — the edge device's side of the wire.
 *
 * A deployed edge runs the model's edge half locally, noises (or
 * defers noising of) the cut activation, and ships it to the cloud
 * front door (net::Server). This client speaks that protocol:
 *
 *   net::Client client("203.0.113.7", 9090);
 *   Tensor logits = client.infer("lenet", activation, request_id);
 *
 * `infer` is strictly request/response. For open-loop load (many
 * requests in flight on one connection) use the pipelined pair
 * `send` / `recv`: the server answers in submission order and every
 * response carries its request id, so the caller can match them up.
 *
 * Error discipline mirrors the server's: a non-kOk response status
 * maps back to a typed `runtime::ServingError` (`kUnknownEndpoint`,
 * `kInvalidShape`, `kShutdown`, `kProtocol`, `kNetwork`) thrown at the
 * caller; a malformed *response* frame — the server is across a trust
 * boundary from the edge, too — throws `kProtocol`.
 */
#ifndef SHREDDER_NET_CLIENT_H
#define SHREDDER_NET_CLIENT_H

#include <cstdint>
#include <string>

#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/tensor/tensor.h"

namespace shredder {
namespace net {

/** See file comment. */
class Client
{
  public:
    /**
     * Connect to a `net::Server` at `host:port`.
     * @throws runtime::ServingError `kNetwork` when the connection
     *         cannot be established.
     */
    Client(const std::string& host, std::uint16_t port);

    // The frame reader borrows `socket_`, so a client never moves.
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /**
     * One blocking round trip: ship `activation` to `endpoint` under
     * `request_id` (which keys the server-side noise draw), wait for
     * the response, return the logits.
     * @throws runtime::ServingError with the typed code the server
     *         reported (`serving_code` of the wire status), or
     *         `kProtocol`/`kNetwork` for a broken response stream.
     */
    Tensor infer(const std::string& endpoint, const Tensor& activation,
                 std::uint64_t request_id);

    /**
     * As `infer`, but the activation crosses the wire quantized to
     * `dtype` (int8 ships 4× fewer payload bytes than fp32). The
     * quantize-after-noise distortion this adds is the mechanism
     * `runtime::QuantizePolicy` reproduces for measurement. `dtype`
     * kF32 is the plain path.
     */
    Tensor infer(const std::string& endpoint, const Tensor& activation,
                 std::uint64_t request_id, WireDtype dtype);

    /**
     * Pipelined send: fire one request frame without waiting. Pair
     * with `recv`; keep the number in flight below the server's
     * per-connection bound (ServerConfig::max_inflight_per_connection).
     */
    void send(const std::string& endpoint, const Tensor& activation,
              std::uint64_t request_id);

    /** As `send`, quantizing the activation to `dtype` first. */
    void send(const std::string& endpoint, const Tensor& activation,
              std::uint64_t request_id, WireDtype dtype);

    /**
     * Receive the next response frame (any status — the caller
     * decides whether a typed failure ends the run).
     * @throws runtime::ServingError `kProtocol` for a malformed frame,
     *         `kNetwork` if the server closed the stream instead of
     *         answering.
     */
    Response recv();

    /** Close the connection (idempotent; also run by the destructor). */
    void close();

  private:
    Socket socket_;
    FrameReader reader_;  ///< Buffers `socket_`'s response frames.
};

}  // namespace net
}  // namespace shredder

#endif  // SHREDDER_NET_CLIENT_H
