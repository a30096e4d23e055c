#include "trace/trace.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace em2 {
namespace {

/// The whole thread is one batch: next() never leaves the inline fast
/// path until the stream ends.
class MemoryCursor final : public AccessCursor {
 public:
  explicit MemoryCursor(std::span<const Access> accesses) {
    cur_ = accesses.data();
    end_ = accesses.data() + accesses.size();
  }

 protected:
  void refill() override {}  // one batch; nothing more to load
};

}  // namespace

TraceSet::TraceSet(std::uint32_t block_bytes) {
  EM2_ASSERT(block_bytes >= 1 && std::has_single_bit(block_bytes),
             "block size must be a power of two");
  init_geometry(0, block_bytes);
}

void TraceSet::add_thread(ThreadTrace trace) {
  EM2_ASSERT(trace.thread() == static_cast<ThreadId>(threads_.size()),
             "thread traces must be added in dense id order");
  threads_.push_back(std::move(trace));
  init_geometry(threads_.size(), block_bytes());
}

std::unique_ptr<AccessCursor> TraceSet::make_cursor(
    std::size_t thread) const {
  return std::make_unique<MemoryCursor>(threads_[thread].accesses());
}

std::uint64_t TraceSet::total_accesses() const noexcept {
  std::uint64_t total = 0;
  for (const auto& t : threads_) {
    total += t.size();
  }
  return total;
}

std::vector<Addr> TraceSet::touched_blocks() const {
  std::vector<Addr> blocks;
  for (const auto& t : threads_) {
    for (const auto& a : t.accesses()) {
      blocks.push_back(block_of(a.addr));
    }
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  return blocks;
}

}  // namespace em2
