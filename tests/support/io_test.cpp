// atomic_write_file: the write-temp-rename protocol, and its failure
// atomicity — a failed write must preserve the previous file bit for bit
// and leave no temp file behind. Failures are injected via failpoints.
#include "support/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace cfpm {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "<unreadable>";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool exists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

class AtomicWrite : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::disarm_all();
    // Unique per test: ctest -j runs each TEST_F as its own process, and
    // concurrent tests sharing one path delete it under each other.
    path_ = ::testing::TempDir() + "/atomic_write_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".txt";
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    failpoint::disarm_all();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
};

TEST_F(AtomicWrite, WritesAndOverwrites) {
  atomic_write_file(path_, [](std::ostream& os) { os << "first\n"; });
  EXPECT_EQ(slurp(path_), "first\n");
  EXPECT_FALSE(exists(path_ + ".tmp"));

  atomic_write_file(path_, [](std::ostream& os) { os << "second\n"; });
  EXPECT_EQ(slurp(path_), "second\n");
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(AtomicWrite, WriterExceptionPreservesTargetAndRemovesTemp) {
  atomic_write_file(path_, [](std::ostream& os) { os << "precious\n"; });
  EXPECT_THROW(atomic_write_file(path_,
                                 [](std::ostream& os) {
                                   os << "partial";
                                   throw IoError("writer died");
                                 }),
               IoError);
  EXPECT_EQ(slurp(path_), "precious\n");
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(AtomicWrite, UnwritablePathThrowsIoError) {
  EXPECT_THROW(atomic_write_file("/nonexistent-dir/sub/file.txt",
                                 [](std::ostream& os) { os << "x"; }),
               IoError);
}

TEST_F(AtomicWrite, InjectedWriteFailureIsAtomic) {
  atomic_write_file(path_, [](std::ostream& os) { os << "precious\n"; });
  failpoint::arm_from_spec("io.atomic_write.write=fail_io:1");
  EXPECT_THROW(
      atomic_write_file(path_, [](std::ostream& os) { os << "torn"; }),
      IoError);
  EXPECT_EQ(slurp(path_), "precious\n");
  EXPECT_FALSE(exists(path_ + ".tmp"));

  // Budget spent: the next write goes through.
  atomic_write_file(path_, [](std::ostream& os) { os << "recovered\n"; });
  EXPECT_EQ(slurp(path_), "recovered\n");
}

TEST_F(AtomicWrite, InjectedRenameFailureIsAtomic) {
  atomic_write_file(path_, [](std::ostream& os) { os << "precious\n"; });
  failpoint::arm_from_spec("io.atomic_write.rename=fail_io:1");
  EXPECT_THROW(
      atomic_write_file(path_, [](std::ostream& os) { os << "torn"; }),
      IoError);
  EXPECT_EQ(slurp(path_), "precious\n");
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(AtomicWrite, FirstWriteFailureLeavesNoFileAtAll) {
  failpoint::arm_from_spec("io.atomic_write.write=fail_io:1");
  EXPECT_THROW(
      atomic_write_file(path_, [](std::ostream& os) { os << "never"; }),
      IoError);
  EXPECT_FALSE(exists(path_));
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

}  // namespace
}  // namespace cfpm
