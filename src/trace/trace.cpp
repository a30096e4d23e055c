#include "trace/trace.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace em2 {
namespace detail {

/// A wide thread is one batch, walked in place: next() never leaves the
/// inline fast path until the stream ends.  A narrow thread is decoded
/// kBatch accesses at a time into the cursor's own buffer.
class MemoryCursor final : public AccessCursor {
 public:
  explicit MemoryCursor(const ThreadTrace& trace) : trace_(trace) {
    if (trace.wide()) {
      cur_ = trace.wide_.data();
      end_ = cur_ + trace.wide_.size();
    }
  }

 protected:
  void refill() override {
    const std::vector<ThreadTrace::Packed>& narrow = trace_.narrow_;
    const ThreadTrace::Bases bases = trace_.bases_;
    const std::size_t n = std::min(kBatch, narrow.size() - next_);
    for (std::size_t i = 0; i < n; ++i) {
      batch_[i] = ThreadTrace::unpack(narrow[next_ + i], bases);
    }
    next_ += n;
    cur_ = batch_;
    end_ = batch_ + n;
  }

 private:
  static constexpr std::size_t kBatch = 64;

  const ThreadTrace& trace_;
  std::size_t next_ = 0;  // first narrow record not yet decoded
  Access batch_[kBatch];
};

}  // namespace detail

void ThreadTrace::widen() {
  wide_.reserve(std::max(narrow_.capacity(), narrow_.size() + 1));
  for (const Packed p : narrow_) {
    wide_.push_back(unpack(p, bases_));
  }
  std::vector<Packed>().swap(narrow_);
}

TraceSet::TraceSet(std::uint32_t block_bytes) {
  EM2_ASSERT(block_bytes >= 1 && std::has_single_bit(block_bytes),
             "block size must be a power of two");
  init_geometry(0, block_bytes);
}

void TraceSet::add_thread(ThreadTrace trace) {
  EM2_ASSERT(trace.thread() == static_cast<ThreadId>(threads_.size()),
             "thread traces must be added in dense id order");
  threads_.push_back(std::move(trace));
  threads_.back().shrink_to_fit();
  init_geometry(threads_.size(), block_bytes());
}

std::unique_ptr<AccessCursor> TraceSet::make_cursor(
    std::size_t thread) const {
  return std::make_unique<detail::MemoryCursor>(threads_[thread]);
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
    t.for_each([&](const Access& a) { blocks.push_back(block_of(a.addr)); });
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  return blocks;
}

}  // namespace em2
