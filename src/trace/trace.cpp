#include "trace/trace.hpp"

#include <algorithm>

namespace a3 {

std::size_t
Trace::countOf(TraceEventKind kind) const
{
    return static_cast<std::size_t>(std::count_if(
        events.begin(), events.end(),
        [kind](const TraceEvent &e) { return e.kind == kind; }));
}

}  // namespace a3
