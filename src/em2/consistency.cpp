#include "em2/consistency.hpp"

namespace em2 {

void ConsistencyChecker::check_home(ThreadId thread, Addr addr, CoreId at,
                                    CoreId home) {
  if (at != home) {
    violations_.push_back(ConsistencyViolation{
        "access executed at core " + std::to_string(at) +
            " but the address is homed at core " + std::to_string(home),
        thread, addr});
  }
}

void ConsistencyChecker::on_store(ThreadId thread, Addr addr,
                                  std::uint32_t value, CoreId at,
                                  CoreId home) {
  ++checked_;
  check_home(thread, addr, at, home);
  last_value_.get(word_page_key(addr))[word_cell(addr)] = value;
}

void ConsistencyChecker::on_load(ThreadId thread, Addr addr,
                                 std::uint32_t value, CoreId at,
                                 CoreId home) {
  ++checked_;
  check_home(thread, addr, at, home);
  const auto* page = last_value_.find(word_page_key(addr));
  const std::uint32_t expected =
      page == nullptr ? 0u : (*page)[word_cell(addr)];
  if (value != expected) {
    violations_.push_back(ConsistencyViolation{
        "load returned " + std::to_string(value) + " but the latest store "
            "in global order wrote " + std::to_string(expected),
        thread, addr});
  }
}

}  // namespace em2
