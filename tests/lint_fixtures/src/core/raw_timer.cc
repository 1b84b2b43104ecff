// Fixture: raw-timer. Its directory maps it to src/core/, one of the
// pipeline-stage directories where a WallTimer escapes the telemetry
// breakdown; the justified suppression is the escape (the loader's
// condvar-wait timer in src/core/batch_source.cc uses it). Minimal case:
// no commit has fixed one.
#include "common/timer.h"

namespace gnndm {

double TimeStage() {
  WallTimer stage;  // expect: flagged
  return stage.Seconds();
}

double TimeWait() {
  // gnndm-lint: suppress(raw-timer): fixture of the escape, not a stage
  WallTimer wait;
  return wait.Seconds();
}

}  // namespace gnndm
