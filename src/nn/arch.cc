/**
 * @file
 * Implementation of the `SARC` architecture codec and its layer-tag
 * registry.
 */
#include "src/nn/arch.h"

#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "src/nn/activations.h"
#include "src/nn/conv2d.h"
#include "src/nn/dropout.h"
#include "src/nn/extras.h"
#include "src/nn/flatten.h"
#include "src/nn/linear.h"
#include "src/nn/lrn.h"
#include "src/nn/pool.h"
#include "src/runtime/logging.h"
#include "src/tensor/serialize.h"

namespace shredder {
namespace nn {

namespace {

constexpr std::uint32_t kArchMagic = 0x43524153;  // 'SARC'

/** Registry entry: config writer + factory for one layer kind. */
struct KindCodec
{
    /** Serialize the layer's static config (not its parameters). */
    void (*write_config)(std::ostream&, const Layer&);
    /** Rebuild the layer from its config; parameters loaded after. */
    LayerPtr (*read_config)(std::istream&);
};

/**
 * Weight-init randomness for factory-constructed layers. The values
 * are irrelevant — `load_arch` overwrites every parameter from the
 * stream right after construction — but the ctors require a source.
 */
Rng&
init_rng()
{
    thread_local Rng rng(0);
    return rng;
}

template <typename L>
LayerPtr
make_plain(std::istream&)
{
    return std::make_unique<L>();
}

void
write_nothing(std::ostream&, const Layer&)
{
}

std::int64_t
read_dim(std::istream& is, const char* what)
{
    const auto v = static_cast<std::int64_t>(wire::read_u64(is));
    if (v < 0 || v >= (1LL << 32)) {
        std::ostringstream oss;
        oss << "bad " << what << " " << v << " in layer config";
        throw SerializeError(oss.str());
    }
    return v;
}

const std::map<std::string, KindCodec>&
registry()
{
    static const std::map<std::string, KindCodec> reg = {
        {"relu", {write_nothing, make_plain<ReLU>}},
        {"tanh", {write_nothing, make_plain<Tanh>}},
        {"sigmoid", {write_nothing, make_plain<Sigmoid>}},
        {"softmax", {write_nothing, make_plain<Softmax>}},
        {"flatten", {write_nothing, make_plain<Flatten>}},
        {"identity", {write_nothing, make_plain<Identity>}},
        {"upsample2x", {write_nothing, make_plain<Upsample2x>}},
        {"leaky_relu",
         {[](std::ostream& os, const Layer& l) {
              wire::write_f32(os,
                              static_cast<const LeakyReLU&>(l).slope());
          },
          [](std::istream& is) -> LayerPtr {
              return std::make_unique<LeakyReLU>(wire::read_f32(is));
          }}},
        {"dropout",
         {[](std::ostream& os, const Layer& l) {
              wire::write_f32(
                  os, static_cast<const Dropout&>(l).drop_probability());
          },
          [](std::istream& is) -> LayerPtr {
              const float p = wire::read_f32(is);
              if (!(p >= 0.0f && p < 1.0f)) {
                  throw SerializeError("bad dropout probability");
              }
              return std::make_unique<Dropout>(p);
          }}},
        {"crop2d",
         {[](std::ostream& os, const Layer& l) {
              const auto& c = static_cast<const Crop2d&>(l);
              wire::write_u64(os, static_cast<std::uint64_t>(c.height()));
              wire::write_u64(os, static_cast<std::uint64_t>(c.width()));
          },
          [](std::istream& is) -> LayerPtr {
              const std::int64_t h = read_dim(is, "crop height");
              const std::int64_t w = read_dim(is, "crop width");
              if (h <= 0 || w <= 0) {
                  throw SerializeError("bad crop2d extent");
              }
              return std::make_unique<Crop2d>(h, w);
          }}},
        {"conv2d",
         {[](std::ostream& os, const Layer& l) {
              const Conv2dConfig& c =
                  static_cast<const Conv2d&>(l).config();
              wire::write_u64(os,
                              static_cast<std::uint64_t>(c.in_channels));
              wire::write_u64(os,
                              static_cast<std::uint64_t>(c.out_channels));
              wire::write_u64(os, static_cast<std::uint64_t>(c.kernel));
              wire::write_u64(os, static_cast<std::uint64_t>(c.stride));
              wire::write_u64(os, static_cast<std::uint64_t>(c.padding));
              wire::write_u8(os, c.bias ? 1 : 0);
          },
          [](std::istream& is) -> LayerPtr {
              Conv2dConfig c;
              c.in_channels = read_dim(is, "conv in_channels");
              c.out_channels = read_dim(is, "conv out_channels");
              c.kernel = read_dim(is, "conv kernel");
              c.stride = read_dim(is, "conv stride");
              c.padding = read_dim(is, "conv padding");
              c.bias = wire::read_u8(is) != 0;
              if (c.in_channels <= 0 || c.out_channels <= 0 ||
                  c.kernel <= 0 || c.stride <= 0 || c.padding < 0) {
                  throw SerializeError("bad conv2d geometry");
              }
              return std::make_unique<Conv2d>(c, init_rng());
          }}},
        {"linear",
         {[](std::ostream& os, const Layer& l) {
              const auto& lin = static_cast<const Linear&>(l);
              wire::write_u64(os,
                              static_cast<std::uint64_t>(lin.in_features()));
              wire::write_u64(
                  os, static_cast<std::uint64_t>(lin.out_features()));
              wire::write_u8(os, lin.has_bias() ? 1 : 0);
          },
          [](std::istream& is) -> LayerPtr {
              const std::int64_t in = read_dim(is, "linear in_features");
              const std::int64_t out = read_dim(is, "linear out_features");
              const bool bias = wire::read_u8(is) != 0;
              if (in <= 0 || out <= 0) {
                  throw SerializeError("bad linear geometry");
              }
              return std::make_unique<Linear>(in, out, init_rng(), bias);
          }}},
        {"maxpool2d",
         {[](std::ostream& os, const Layer& l) {
              const PoolConfig& c =
                  static_cast<const MaxPool2d&>(l).config();
              wire::write_u64(os, static_cast<std::uint64_t>(c.kernel));
              wire::write_u64(os, static_cast<std::uint64_t>(c.stride));
              wire::write_u64(os, static_cast<std::uint64_t>(c.padding));
          },
          [](std::istream& is) -> LayerPtr {
              PoolConfig c;
              c.kernel = read_dim(is, "pool kernel");
              c.stride = read_dim(is, "pool stride");
              c.padding = read_dim(is, "pool padding");
              if (c.kernel <= 0 || c.stride <= 0 || c.padding < 0 ||
                  c.padding >= c.kernel) {
                  throw SerializeError("bad maxpool2d geometry");
              }
              return std::make_unique<MaxPool2d>(c);
          }}},
        {"avgpool2d",
         {[](std::ostream& os, const Layer& l) {
              const PoolConfig& c =
                  static_cast<const AvgPool2d&>(l).config();
              wire::write_u64(os, static_cast<std::uint64_t>(c.kernel));
              wire::write_u64(os, static_cast<std::uint64_t>(c.stride));
              wire::write_u64(os, static_cast<std::uint64_t>(c.padding));
          },
          [](std::istream& is) -> LayerPtr {
              PoolConfig c;
              c.kernel = read_dim(is, "pool kernel");
              c.stride = read_dim(is, "pool stride");
              c.padding = read_dim(is, "pool padding");
              if (c.kernel <= 0 || c.stride <= 0 || c.padding < 0 ||
                  c.padding >= c.kernel) {
                  throw SerializeError("bad avgpool2d geometry");
              }
              return std::make_unique<AvgPool2d>(c);
          }}},
        {"lrn",
         {[](std::ostream& os, const Layer& l) {
              const LrnConfig& c =
                  static_cast<const LocalResponseNorm&>(l).config();
              wire::write_u64(os, static_cast<std::uint64_t>(c.size));
              wire::write_f32(os, c.alpha);
              wire::write_f32(os, c.beta);
              wire::write_f32(os, c.k);
          },
          [](std::istream& is) -> LayerPtr {
              LrnConfig c;
              c.size = read_dim(is, "lrn size");
              c.alpha = wire::read_f32(is);
              c.beta = wire::read_f32(is);
              c.k = wire::read_f32(is);
              if (c.size <= 0) {
                  throw SerializeError("bad lrn window size");
              }
              return std::make_unique<LocalResponseNorm>(c);
          }}},
    };
    return reg;
}

}  // namespace

void
save_arch(std::ostream& os, const Sequential& net)
{
    wire::write_u32(os, kArchMagic);
    wire::write_u32(os, static_cast<std::uint32_t>(net.size()));
    for (std::int64_t i = 0; i < net.size(); ++i) {
        const Layer& layer = net.layer(i);
        const std::string tag = layer.kind();
        const auto it = registry().find(tag);
        SHREDDER_REQUIRE(it != registry().end(),
                         "layer kind '", tag,
                         "' is not in the arch registry — register it "
                         "before bundling");
        wire::write_string(os, tag);
        std::ostringstream config(std::ios::binary);
        it->second.write_config(config, layer);
        wire::write_string(os, config.str());
        layer.save_params(os);
    }
    SHREDDER_CHECK(static_cast<bool>(os), "arch write failed");
}

std::unique_ptr<Sequential>
load_arch(std::istream& is)
{
    wire::expect_magic(is, kArchMagic, "arch");
    const std::uint32_t count = wire::read_u32(is);
    if (count > 4096) {
        throw SerializeError("implausible layer count in arch stream");
    }
    auto net = std::make_unique<Sequential>();
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::string tag = wire::read_string(is, /*max_len=*/256);
        const auto it = registry().find(tag);
        if (it == registry().end()) {
            throw SerializeError("unknown layer tag '" + tag +
                                 "' in arch stream");
        }
        const std::string config = wire::read_string(is);
        std::istringstream config_stream(config, std::ios::binary);
        LayerPtr layer = it->second.read_config(config_stream);
        // The reader must consume the blob exactly: leftovers mean the
        // writer and reader disagree about this kind's config layout.
        config_stream.peek();
        if (!config_stream.eof()) {
            throw SerializeError("layer '" + tag +
                                 "' config blob has trailing bytes");
        }
        for (Parameter* p : layer->parameters()) {
            Tensor loaded = read_tensor_checked(is);
            if (!(loaded.shape() == p->value.shape())) {
                throw SerializeError(
                    "parameter shape mismatch for '" + tag + "' (" +
                    loaded.shape().to_string() + " vs " +
                    p->value.shape().to_string() + ")");
            }
            p->value = std::move(loaded);
        }
        net->add(std::move(layer));
    }
    return net;
}

bool
arch_registry_knows(const std::string& kind)
{
    return registry().count(kind) > 0;
}

std::vector<std::string>
arch_registry_kinds()
{
    std::vector<std::string> kinds;
    for (const auto& [tag, codec] : registry()) {
        (void)codec;
        kinds.push_back(tag);
    }
    return kinds;
}

}  // namespace nn
}  // namespace shredder
