/**
 * @file
 * In-memory span recorder for the traced run. Spans are opened and
 * closed around calls into the simulator's public functions from the
 * harness; nothing is written until write() at the end of the run.
 */

#ifndef LAPSES_PERFBENCH_TRACE_HPP
#define LAPSES_PERFBENCH_TRACE_HPP

#include <chrono>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    double start = 0.0; //!< seconds since the recorder was created
    double end = 0.0;
    int parent = -1;    //!< index of the enclosing span, -1 for a root
    long point = -1;    //!< campaign run index the span belongs to
};

class Tracer
{
  public:
    Tracer() : origin_(std::chrono::steady_clock::now()) {}

    /** Open a span nested in the innermost open one; returns its id. */
    int begin(const std::string& name, long point);
    /** Close the innermost open span (must be `id`). */
    void end(int id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Duration of span i minus the part of it its children cover. */
    std::vector<double> selfTimes() const;

    /** Write every span as one JSON line (with its self time). */
    void write(const std::string& path) const;

  private:
    double now() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: opened by the constructor, closed by the destructor. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& t, const std::string& name, long point)
        : tracer_(t), id_(t.begin(name, point))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer& tracer_;
    int id_;
};

} // namespace perfbench

#endif // LAPSES_PERFBENCH_TRACE_HPP
