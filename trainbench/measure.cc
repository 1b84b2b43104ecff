// The untraced run: the six end-to-end metrics, timed the way a user of
// gnndm sees them, with telemetry at its default and the tracer off.
#include <malloc.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "modes.h"
#include "report.h"
#include "workloads.h"

namespace trainbench {

namespace {

// Sessions per untraced run at the least, whatever --seconds allows: the
// medians of setup_s and time_to_target_s need that many samples.
constexpr int kMinSessions = 3;

struct Series {
  std::vector<double> epoch_s, eval_s, loss, acc;
};

// One epoch and one validation pass on `session`, counted as two
// operations: an epoch fails on a non-finite loss, an eval pass on an
// accuracy outside [0, 1].
void Step(Session& session, Series& series, Outcome& out) {
  gnndm::WallTimer timer;
  const double loss = session.TrainEpoch();
  series.epoch_s.push_back(timer.Seconds());
  timer.Restart();
  const double acc = session.EvaluateVal();
  series.eval_s.push_back(timer.Seconds());
  series.loss.push_back(loss);
  series.acc.push_back(acc);
  out.Attempt(std::isfinite(loss));
  out.Attempt(std::isfinite(acc) && acc >= 0.0 && acc <= 1.0);
}

}  // namespace

Outcome RunMeasured(const Workload& workload, const std::string& input_path,
                    double seconds) {
  Outcome out;
  const uint32_t epochs = kSessionEpochs;
  std::vector<double> setup_s, time_to_target_s, epoch_s, eval_s;
  std::vector<double> epoch_walls, eval_walls;  // every epoch, in order
  Series first;
  int target_epoch = -1;
  std::unique_ptr<Session> session;
  // Every session repeats the same deterministic training from a fresh
  // set-up, so the samples of each metric spread over the whole run and
  // over several loads of the input, and every session must reach the
  // same accuracies. Sessions repeat while the next one, judged by the
  // mean length of those before it, still ends within `seconds`, so a
  // run lasts about `seconds` however fast the host is.
  gnndm::WallTimer run_timer;
  int sessions = 0;
  for (; sessions < kMinSessions ||
         run_timer.Seconds() * (sessions + 1) <= seconds * sessions;
       ++sessions) {
    // Free the previous session first: peak RSS is that of one session.
    // Then hand the freed pages back to the kernel, so that every set-up
    // faults its memory in from the same heap state as the first one, the
    // way a cold start does, rather than reusing resident pages.
    session.reset();
    malloc_trim(0);
    double setup = 0.0;
    std::string check;
    session = Session::Open(workload, input_path, nullptr, setup, check);
    if (!check.empty()) out.Fail(check);
    if (session == nullptr) return out;
    setup_s.push_back(setup);

    Series series;
    gnndm::WallTimer to_target;
    int reached = -1;  // the epoch after which the target was first met
    while (series.epoch_s.size() < epochs) {
      Step(*session, series, out);
      if (reached < 0 && series.acc.back() >= workload.target_val_acc) {
        time_to_target_s.push_back(to_target.Seconds());
        reached = static_cast<int>(series.acc.size()) - 1;
      }
    }
    if (reached < 0) {
      out.Fail("validation accuracy never reached the target " +
               JsonNumber(workload.target_val_acc) + " in " +
               std::to_string(epochs) + " epochs");
      return out;
    }
    if (sessions == 0) {
      first = series;
      target_epoch = reached;
    } else if (series.acc != first.acc) {
      out.Fail("training is not deterministic: sessions of one seed "
               "reached different validation accuracies");
    }
    for (size_t e = kWarmupEpochs; e < epochs; ++e) {
      epoch_s.push_back(series.epoch_s[e]);
      eval_s.push_back(series.eval_s[e]);
    }
    epoch_walls.insert(epoch_walls.end(), series.epoch_s.begin(),
                       series.epoch_s.end());
    eval_walls.insert(eval_walls.end(), series.eval_s.begin(),
                      series.eval_s.end());
  }
  const double final_acc = first.acc.back();
  if (!(final_acc >= workload.target_val_acc)) {
    out.Fail("final validation accuracy is below the target");
  }

  out.Add("epoch_s", Median(epoch_s), "s");
  out.Add("eval_s", Median(eval_s), "s");
  out.Add("time_to_target_s", Median(time_to_target_s), "s");
  out.Add("final_val_acc", final_acc, "fraction");
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");

  const gnndm::Dataset& dataset = session->dataset();
  out.Record("input",
             "{\"vertices\": " + std::to_string(dataset.graph.num_vertices()) +
                 ", \"edges\": " + std::to_string(dataset.graph.num_edges()) +
                 ", \"feature_dim\": " +
                 std::to_string(dataset.features.dim()) +
                 ", \"classes\": " + std::to_string(dataset.num_classes) +
                 ", \"train\": " + std::to_string(dataset.split.train.size()) +
                 ", \"val\": " + std::to_string(dataset.split.val.size()) +
                 "}");
  out.Record("sessions", std::to_string(sessions));
  out.Record("epochs_per_session", std::to_string(epochs));
  out.Record("warmup_epochs", std::to_string(kWarmupEpochs));
  out.Record("target_val_acc", JsonNumber(workload.target_val_acc));
  out.Record("target_epoch", std::to_string(target_epoch));
  out.Record("epoch_s", TimingJson(epoch_s));
  out.Record("eval_s", TimingJson(eval_s));
  out.Record("setup_s", JsonArray(setup_s));
  out.Record("time_to_target_s", JsonArray(time_to_target_s));
  out.Record("epoch_walls", JsonArray(epoch_walls));
  out.Record("eval_walls", JsonArray(eval_walls));
  out.Record("train_loss", JsonArray(first.loss));
  out.Record("val_acc", JsonArray(first.acc));
  return out;
}

}  // namespace trainbench
