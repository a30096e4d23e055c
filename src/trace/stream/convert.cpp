#include "trace/stream/convert.hpp"

namespace em2 {

bool write_trace_stream(const std::string& path, const TraceSet& traces,
                        const TraceWriter::Options& opts) {
  std::vector<CoreId> natives;
  natives.reserve(traces.num_threads());
  for (const ThreadTrace& t : traces.threads()) {
    natives.push_back(t.native_core());
  }
  TraceWriter writer(path, traces.block_bytes(), natives, opts);
  for (std::size_t t = 0; t < traces.num_threads(); ++t) {
    traces.thread(t).for_each([&](const Access& a) { writer.append(t, a); });
  }
  return writer.close();
}

TraceSet read_trace_stream(const std::string& path,
                           const TraceStream::Options& opts) {
  return materialize(TraceStream(path, opts));
}

TraceSet materialize(const TraceSource& source) {
  if (const TraceSet* backing = source.backing_traces()) {
    return *backing;
  }
  TraceSet out(source.block_bytes());
  for (std::size_t t = 0; t < source.num_threads(); ++t) {
    ThreadTrace trace(static_cast<ThreadId>(t), source.native_core(t));
    auto cursor = source.make_cursor(t);
    while (const Access* a = cursor->next()) {
      trace.append(*a);
    }
    out.add_thread(std::move(trace));
  }
  return out;
}

bool equal_traces(const TraceSet& a, const TraceSet& b) {
  if (a.block_bytes() != b.block_bytes() ||
      a.num_threads() != b.num_threads()) {
    return false;
  }
  for (std::size_t t = 0; t < a.num_threads(); ++t) {
    const ThreadTrace& ta = a.thread(t);
    const ThreadTrace& tb = b.thread(t);
    if (ta.native_core() != tb.native_core() || ta.size() != tb.size()) {
      return false;
    }
    for (std::size_t i = 0; i < ta.size(); ++i) {
      if (ta[i] != tb[i]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace em2
