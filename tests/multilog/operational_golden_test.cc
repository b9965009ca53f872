#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "operational_golden.h"

namespace multilog::ml {
namespace {

// Operational answers and rendered proofs for 336 point and listing
// goals (every level and belief mode, don't-care classifications
// included, each cross-checked against the reduced semantics) must stay
// byte-identical to the committed file, which was generated before the
// interpreter selected clauses through its head-argument index.
TEST(OperationalGolden, AnswersAndProofsMatchCommittedFile) {
  std::ifstream in(MULTILOG_OPERATIONAL_GOLDEN);
  ASSERT_TRUE(in.good()) << "cannot read " << MULTILOG_OPERATIONAL_GOLDEN;
  std::stringstream expected;
  expected << in.rdbuf();
  const std::string actual = RenderOperationalGolden();
  EXPECT_EQ(actual.find("error: "), std::string::npos);
  EXPECT_TRUE(actual == expected.str())
      << "operational answers or proofs changed; regenerate with "
         "operational_golden_gen only if the change is intended";
}

}  // namespace
}  // namespace multilog::ml
