#include "common/error.h"

#include <gtest/gtest.h>

namespace lopass {
namespace {

TEST(Error, CheckPassesOnTrue) {
  EXPECT_NO_THROW(LOPASS_CHECK(1 + 1 == 2, "arithmetic"));
}

TEST(Error, CheckThrowsWithExpressionAndDetail) {
  try {
    LOPASS_CHECK(false, "the detail text");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("the detail text"), std::string::npos);
    EXPECT_NE(what.find("test_error.cc"), std::string::npos);
  }
}

// An invariant names its file and line, but not the checkout's
// directory: two builds of one commit print the same text.
TEST(Error, CheckNamesItsFileWithoutDirectory) {
  try {
    LOPASS_CHECK(false, "detail");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_error.cc:"), std::string::npos) << what;
    EXPECT_EQ(what.find('/'), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace lopass
