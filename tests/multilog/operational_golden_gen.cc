// Prints the operational golden text (see operational_golden.h). To
// regenerate the committed file after an intended change of answers or
// proofs, from the root of the checkout:
//
//   build/tests/multilog/operational_golden_gen >
//       tests/multilog/testdata/operational_golden.txt
#include <iostream>

#include "operational_golden.h"

int main() {
  std::cout << multilog::ml::RenderOperationalGolden();
  return 0;
}
