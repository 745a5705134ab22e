#include "trace.h"

#include <cstdio>

namespace perfbench {

std::int64_t
SpanBuffer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::int64_t parent, std::uint64_t request_id)
{
    if (spans_.size() == spans_.capacity()) {
        ++dropped_;
        return -1;
    }
    spans_.push_back(Span{name, start_ns, end_ns, parent, request_id});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

double
median_duration_ns(const SpanBuffer& buffer, const std::string& name)
{
    std::vector<double> d;
    for (const Span& s : buffer.spans()) {
        if (name == s.name) {
            d.push_back(static_cast<double>(s.duration_ns()));
        }
    }
    return median(std::move(d));
}

std::int64_t
write_spans(const std::string& path,
            const std::vector<const SpanBuffer*>& buffers)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return 0;
    }
    std::fprintf(f, "name,start_ns,end_ns,parent,request_id\n");
    std::int64_t offset = 0;
    for (const SpanBuffer* b : buffers) {
        for (const Span& s : b->spans()) {
            std::fprintf(f, "%s,%lld,%lld,%lld,%llu\n", s.name,
                         static_cast<long long>(s.start_ns),
                         static_cast<long long>(s.end_ns),
                         static_cast<long long>(
                             s.parent < 0 ? -1 : s.parent + offset),
                         static_cast<unsigned long long>(s.request_id));
        }
        offset += static_cast<std::int64_t>(b->spans().size());
    }
    std::fclose(f);
    return offset;
}

}  // namespace perfbench
