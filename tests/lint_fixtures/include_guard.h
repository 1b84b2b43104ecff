// Fixture: include-guard. A header must be guarded by the macro its path
// names (GNNDM_LINT_FIXTURE_INCLUDE_GUARD_H_ for this file); a guard
// under another name is a finding on the whole file. Minimal case: no
// commit has fixed one.
#ifndef FIXTURE_WRONG_GUARD_H_
#define FIXTURE_WRONG_GUARD_H_

namespace gnndm {

int FixtureValue();

}  // namespace gnndm

#endif  // FIXTURE_WRONG_GUARD_H_
