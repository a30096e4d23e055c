#include "workload/workload.hpp"

#include <utility>

namespace em2::workload {

Workload::Workload(std::string name, std::int32_t threads,
                   std::int32_t scale, std::uint64_t seed, TraceSet traces)
    : name_(std::move(name)),
      threads_(threads),
      scale_(scale),
      seed_(seed),
      traces_(std::make_shared<const TraceSet>(std::move(traces))) {}

std::string Workload::identity() const {
  return name_ + "@" + std::to_string(threads_) + "/" +
         std::to_string(scale_) + "/" + std::to_string(seed_);
}

}  // namespace em2::workload
