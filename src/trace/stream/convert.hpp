// TraceSet <-> EM2S converters.
//
// write_trace_stream + read_trace_stream round-trip a TraceSet through
// the streaming format bit-identically (addresses, ops, gaps, natives,
// block geometry); materialize() turns any TraceSource into a TraceSet
// for the whole-trace consumers (exec mode's program compiler, optimal
// mode's DP), reusing the backing set when the source already has one.
#pragma once

#include <string>

#include "trace/stream/reader.hpp"
#include "trace/stream/writer.hpp"
#include "trace/trace.hpp"

namespace em2 {

/// Writes `traces` to `path` in EM2S format.  Returns false if any write
/// failed (disk full, unwritable path).
bool write_trace_stream(const std::string& path, const TraceSet& traces,
                        const TraceWriter::Options& opts = {});

/// Loads a whole EM2S file into memory.  Throws TraceFormatError on any
/// format defect.
TraceSet read_trace_stream(const std::string& path,
                           const TraceStream::Options& opts = {});

/// Drains `source` into an in-memory TraceSet.  A TraceSet source is
/// copied directly; a streamed source is decoded through its cursors.
TraceSet materialize(const TraceSource& source);

/// True when both sets have identical geometry, natives, and per-thread
/// access sequences (addr, op, and gap all compared).
bool equal_traces(const TraceSet& a, const TraceSet& b);

}  // namespace em2
