#include "support/deadline.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>

#include "support/error.hpp"

namespace cfpm {
namespace {

TEST(Deadline, UnsetDeadlineNeverThrows) {
  const Deadline none = deadline_after(std::nullopt);
  EXPECT_FALSE(none.has_value());
  for (int i = 0; i < 5000; ++i) check_deadline(none);
}

TEST(Deadline, ZeroDeadlineExpiresImmediately) {
  const Deadline d = deadline_after(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_LE(*d, std::chrono::steady_clock::now());
  EXPECT_THROW(check_deadline(d), DeadlineExceeded);
}

TEST(Deadline, GenerousDeadlineDoesNotFire) {
  const Deadline d = deadline_after(10 * 60 * 1000);
  for (int i = 0; i < 3000; ++i) check_deadline(d);
  EXPECT_GT(*d, std::chrono::steady_clock::now());
  // A budget beyond the clock's range saturates instead of wrapping into
  // the past.
  const Deadline far =
      deadline_after(std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(*far, std::chrono::steady_clock::time_point::max());
  check_deadline(far);
}

}  // namespace
}  // namespace cfpm
