// Self-test of perf_bench's verification step: a correct answer passes,
// and a corrupted forest, a warm answer that differs from its cold oracle
// and a repeated answer that differs from the first are all counted as
// failed operations. run.py runs it before
// every benchmark run; `ctest` in the benchmark's build directory too.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "spf/forest.hpp"
#include "verify.hpp"

int main() {
  using namespace aspf;
  const scenario::BuiltScenario built(
      scenario::make(scenario::Shape::Hexagon, 5, 0, 4, 8, 7));
  const scenario::ScenarioInstance& sd = built.instance();
  const ForestResult forest =
      shortestPathForest(built.region(), sd.isSource, sd.isDest);

  perf::Answer good;
  good.parent = forest.parent;
  good.rounds = forest.rounds;

  // Drop a destination that is not a source from the forest.
  perf::Answer corrupted = good;
  for (const int t : sd.destinations) {
    if (sd.isSource[static_cast<std::size_t>(t)] == 0) {
      corrupted.parent[static_cast<std::size_t>(t)] = -2;
      break;
    }
  }
  perf::Answer warm = good;
  ++warm.rounds;

  perf::Tally tally;
  const auto verify = [&](long op, const perf::Answer& got,
                          const perf::Answer& oracle) {
    std::string problem = perf::checkForest(built.region(), got, sd.sources,
                                            sd.destinations);
    if (problem.empty()) problem = perf::compareAnswers(got, oracle);
    return tally.record(op, problem);
  };
  const bool goodPassed = verify(0, good, good);
  const bool corruptedPassed = verify(1, corrupted, good);
  const bool warmPassed = verify(2, warm, good);
  const std::optional<perf::Answer> first = good;
  const bool repeatPassed = tally.record(3, perf::againstFirst(warm, first));

  const bool ok = goodPassed && !corruptedPassed && !warmPassed &&
                  !repeatPassed && tally.attempted == 4 && tally.failed == 3;
  std::cout << "perf_verify_test: attempted=" << tally.attempted
            << " failed=" << tally.failed << " first=\"" << tally.firstFailure
            << "\" -> " << (ok ? "ok" : "FAILED") << "\n";
  return ok ? 0 : 1;
}
