#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <stdexcept>
#include <utility>

namespace perfbench
{

double
Tracer::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
Tracer::begin(const std::string& name, long point)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.point = point;
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    spans_.back().start = now();
    return id;
}

void
Tracer::end(int id)
{
    const double t = now();
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order");
    open_.pop_back();
    spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span& s : spans_) {
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        // Union of the children's intervals, clipped to the parent.
        auto& iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double cur_lo = 0.0;
        double cur_hi = -std::numeric_limits<double>::infinity();
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, spans_[i].start);
            hi = std::min(hi, spans_[i].end);
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self[i] = (spans_[i].end - spans_[i].start) - covered;
    }
    return self;
}

void
Tracer::write(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    const std::vector<double> self = selfTimes();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"start\":" << s.start << ",\"end\":" << s.end
           << ",\"parent\":" << s.parent << ",\"point\":" << s.point
           << ",\"self\":" << self[i] << "}\n";
    }
    if (!os)
        throw std::runtime_error("failed writing spans to " + path);
}

} // namespace perfbench
