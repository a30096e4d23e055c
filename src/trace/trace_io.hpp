// Trace persistence: a line-oriented text format (inspectable, diffable)
// and the chunked EM2S stream format (trace/stream/, for large traces).
//
// Text format:
//   # comment
//   blocksize <bytes>
//   thread <tid> native <core>
//   <R|W> <hex addr> [gap]
//
// Error contract: the readers validate EVERYTHING a file can lie about —
// malformed lines, non-power-of-two block sizes, negative or non-dense
// thread ids (and, for EM2S, truncation, bad magic/version, CRCs and
// record counts beyond what the file can hold) — and fail with
// TraceFormatError carrying a message that names the defect (the
// UnknownNameError pattern applied to file input).  Malformed input can
// never reach an internal assert or feed an attacker-controlled
// allocation.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "trace/trace.hpp"

namespace em2 {

/// Thrown by the trace readers on malformed, truncated, or implausibly
/// oversized input.  The message names the defect and, where useful, the
/// offending line or field.
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes `traces` in the text format.  Returns false on stream failure.
bool write_trace_text(std::ostream& os, const TraceSet& traces);

/// Parses the text format.  Throws TraceFormatError on malformed input.
TraceSet read_trace_text(std::istream& is);

/// File-path conveniences.  save_trace chooses the format by extension:
/// ".em2t" text, ".em2s" streaming EM2S (trace/stream/); any other
/// extension throws std::invalid_argument naming both.  It returns false
/// when the file cannot be written.  load_trace dispatches on the file's
/// CONTENT — the EM2S magic is decisive, leading printable bytes mean
/// text — so a trace saved under a misleading extension still loads
/// correctly; unidentifiable content throws TraceFormatError naming both
/// what the sniff found and what the extension suggested.  Also throws
/// when the file cannot be opened or fails to parse.
bool save_trace(const std::string& path, const TraceSet& traces);
TraceSet load_trace(const std::string& path);

}  // namespace em2
