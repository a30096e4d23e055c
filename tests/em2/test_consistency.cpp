#include "em2/consistency.hpp"

#include <gtest/gtest.h>

namespace em2 {
namespace {

TEST(Consistency, CleanSequenceIsOk) {
  ConsistencyChecker c;
  c.on_store(0, 0x100, 1, 2, 2);
  c.on_load(1, 0x100, 1, 2, 2);
  c.on_store(1, 0x100, 2, 2, 2);
  c.on_load(0, 0x100, 2, 2, 2);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.checked_accesses(), 4u);
}

TEST(Consistency, StaleReadDetected) {
  ConsistencyChecker c;
  c.on_store(0, 0x100, 5, 1, 1);
  c.on_load(1, 0x100, 4, 1, 1);  // wrong value
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.violations().size(), 1u);
  EXPECT_NE(c.violations()[0].what.find("load returned 4"),
            std::string::npos);
}

TEST(Consistency, UnwrittenAddressReadsZero) {
  ConsistencyChecker c;
  c.on_load(0, 0x500, 0, 3, 3);
  EXPECT_TRUE(c.ok());
  c.on_load(0, 0x500, 7, 3, 3);
  EXPECT_FALSE(c.ok());
}

TEST(Consistency, SingleHomeInvariantViolation) {
  ConsistencyChecker c;
  // Access executed at core 4 but homed at core 2: the EM2 invariant the
  // paper's SC argument rests on is broken.
  c.on_load(0, 0x100, 0, 4, 2);
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].what.find("homed at core 2"),
            std::string::npos);
}

TEST(Consistency, StoreAtWrongHomeDetected) {
  ConsistencyChecker c;
  c.on_store(0, 0x100, 1, 0, 7);
  EXPECT_FALSE(c.ok());
}

TEST(Consistency, PerAddressIndependence) {
  ConsistencyChecker c;
  c.on_store(0, 0x100, 1, 0, 0);
  c.on_store(0, 0x200, 2, 0, 0);
  c.on_load(0, 0x100, 1, 0, 0);
  c.on_load(0, 0x200, 2, 0, 0);
  EXPECT_TRUE(c.ok());
}

// The witness stores word cells in shared pages.  A wrong value in one
// cell must still be flagged when its page neighbours are all correct.
TEST(Consistency, LostWriteBesideACorrectNeighbourDetected) {
  ConsistencyChecker c;
  c.on_store(0, 0x200, 11, 3, 3);
  c.on_store(0, 0x204, 22, 3, 3);  // same page, next cell
  c.on_load(1, 0x204, 22, 3, 3);   // the neighbour reads back fine
  c.on_load(1, 0x200, 0, 3, 3);    // the write to 0x200 was lost
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].addr, 0x200u);
  EXPECT_NE(c.violations()[0].what.find("wrote 11"), std::string::npos);
}

TEST(Consistency, StaleReadBesideACorrectNeighbourDetected) {
  ConsistencyChecker c;
  c.on_store(0, 0x23C, 1, 3, 3);  // last cell of the page
  c.on_store(0, 0x238, 7, 3, 3);
  c.on_store(0, 0x23C, 2, 3, 3);
  c.on_load(1, 0x238, 7, 3, 3);   // the neighbour is current
  c.on_load(1, 0x23C, 1, 3, 3);   // stale: the second store was missed
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].addr, 0x23Cu);
  EXPECT_NE(c.violations()[0].what.find("load returned 1"),
            std::string::npos);
}

TEST(Consistency, UnalignedAddressIsItsOwnCell) {
  ConsistencyChecker c;
  c.on_store(0, 0x300, 9, 1, 1);
  c.on_load(0, 0x301, 0, 1, 1);  // a different byte address, never written
  c.on_load(0, 0x301, 9, 1, 1);  // so reading 9 there is a violation
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].addr, 0x301u);
}

}  // namespace
}  // namespace em2
