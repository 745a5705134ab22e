/**
 * @file
 * Implementation of the blocking SHRQ/SHRP client (see header).
 */
#include "src/net/client.h"

namespace shredder {
namespace net {

using runtime::ServingError;
using runtime::ServingErrorCode;

Client::Client(const std::string& host, std::uint16_t port)
    : socket_(Socket::connect(host, port)), reader_(socket_)
{
}

void
Client::send(const std::string& endpoint, const Tensor& activation,
             std::uint64_t request_id)
{
    Request request;
    request.request_id = request_id;
    request.endpoint = endpoint;
    request.activation = activation;
    const std::string frame = encode_request(request);
    socket_.send_all(frame.data(), frame.size());
}

void
Client::send(const std::string& endpoint, const Tensor& activation,
             std::uint64_t request_id, WireDtype dtype)
{
    if (dtype == WireDtype::kF32) {
        send(endpoint, activation, request_id);
        return;
    }
    Request request;
    request.request_id = request_id;
    request.endpoint = endpoint;
    request.quantized = quantize(activation, dtype);
    request.is_quantized = true;
    const std::string frame = encode_request(request);
    socket_.send_all(frame.data(), frame.size());
}

Response
Client::recv()
{
    std::string payload;
    if (!reader_.next(kResponseMagic, &payload)) {
        throw ServingError(ServingErrorCode::kNetwork,
                           "server closed the connection while a "
                           "response was expected");
    }
    return decode_response_payload(payload);
}

Tensor
Client::infer(const std::string& endpoint, const Tensor& activation,
              std::uint64_t request_id)
{
    return infer(endpoint, activation, request_id, WireDtype::kF32);
}

Tensor
Client::infer(const std::string& endpoint, const Tensor& activation,
              std::uint64_t request_id, WireDtype dtype)
{
    send(endpoint, activation, request_id, dtype);
    Response response = recv();
    if (response.request_id != request_id) {
        throw ServingError(ServingErrorCode::kProtocol,
                           "response answers request " +
                               std::to_string(response.request_id) +
                               ", expected " +
                               std::to_string(request_id));
    }
    if (response.status != WireStatus::kOk) {
        throw ServingError(serving_code(response.status),
                           "server replied " +
                               std::string(to_string(response.status)) +
                               ": " + response.message);
    }
    return std::move(response.output);
}

void
Client::close()
{
    socket_.close();
}

}  // namespace net
}  // namespace shredder
