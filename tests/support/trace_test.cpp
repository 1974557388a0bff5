#include "support/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

namespace cfpm::trace {
namespace {

std::string dump() {
  std::ostringstream os;
  write_chrome_json(os);
  return os.str();
}

TEST(Trace, DisabledByDefaultAndSpansAreFree) {
  clear();
  ASSERT_FALSE(enabled());
  { CFPM_TRACE_SPAN("test.disabled"); }
  EXPECT_EQ(dump().find("test.disabled"), std::string::npos);
}

TEST(Trace, RecordsNestedSpansAsChromeEvents) {
  clear();
  set_enabled(true);
  {
    CFPM_TRACE_SPAN("test.outer");
    { CFPM_TRACE_SPAN("test.inner"); }
  }
  set_enabled(false);
  const std::string json = dump();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  clear();
}

TEST(Trace, SpansFromExitedThreadsSurvive) {
  clear();
  set_enabled(true);
  std::thread([] { CFPM_TRACE_SPAN("test.worker"); }).join();
  set_enabled(false);
  EXPECT_NE(dump().find("\"test.worker\""), std::string::npos);
  clear();
}

TEST(Trace, ClearDiscardsEverything) {
  set_enabled(true);
  { CFPM_TRACE_SPAN("test.cleared"); }
  set_enabled(false);
  clear();
  EXPECT_EQ(dump().find("test.cleared"), std::string::npos);
}

TEST(Trace, EnablementSampledAtConstruction) {
  clear();
  set_enabled(false);
  {
    CFPM_TRACE_SPAN("test.late");  // constructed while disabled
    set_enabled(true);
  }
  set_enabled(false);
  EXPECT_EQ(dump().find("test.late"), std::string::npos);
  clear();
}

}  // namespace
}  // namespace cfpm::trace
