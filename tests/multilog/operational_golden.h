#ifndef MULTILOG_TESTS_MULTILOG_OPERATIONAL_GOLDEN_H_
#define MULTILOG_TESTS_MULTILOG_OPERATIONAL_GOLDEN_H_

#include <string>

namespace multilog::ml {

/// Runs a fixed suite of point and listing goals over a seeded
/// Mission-style database at every level and belief mode, with the
/// operational and reduced semantics cross-checked, and renders every
/// goal's operational answers and proofs (RenderProof) as one text.
/// operational_golden_test compares it byte for byte with the committed
/// testdata/operational_golden.txt; operational_golden_gen prints it.
/// Failures render as "error: <status>" lines, so they show in the diff.
std::string RenderOperationalGolden();

}  // namespace multilog::ml

#endif  // MULTILOG_TESTS_MULTILOG_OPERATIONAL_GOLDEN_H_
