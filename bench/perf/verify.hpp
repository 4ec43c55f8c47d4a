#pragma once
// Per-operation verification for perf_bench. Every answer the benchmark
// times is checked after its timer stopped; a failed check is counted in
// a Tally, never thrown, so one bad answer cannot stop a run.
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baselines/checker.hpp"
#include "sim/region.hpp"

namespace aspf::perf {

/// One answer of the library, as the benchmark saw it.
struct Answer {
  std::vector<int> parent;
  long rounds = 0;
  long delivers = 0;
  long beeps = 0;
  std::string error;  // non-empty when the call threw
};

/// Empty when `answer` is an (S,D)-shortest-path forest of `region` (the
/// five-property checker), else the reason it is not.
inline std::string checkForest(const Region& region, const Answer& answer,
                               std::span<const int> sources,
                               std::span<const int> dests) {
  if (!answer.error.empty()) return "threw: " + answer.error;
  const ForestCheck check =
      checkShortestPathForest(region, answer.parent, sources, dests);
  return check.ok ? std::string() : "checker: " + check.error;
}

/// Empty when `got` reproduces `want` bit for bit in every model-level
/// field (parent, rounds, delivers, beeps), else the first field that
/// differs. Compares a warm answer with its cold oracle, and a repeated
/// cold solve with the first solve of the same instance.
inline std::string compareAnswers(const Answer& got, const Answer& want) {
  if (!got.error.empty() || !want.error.empty())
    return "threw: " + got.error + want.error;
  if (got.parent != want.parent) return "parent differs";
  if (got.rounds != want.rounds) return "rounds differ";
  if (got.delivers != want.delivers) return "delivers differ";
  if (got.beeps != want.beeps) return "beeps differ";
  return {};
}

/// The verdict of a repeated operation: empty when `got` reproduces the
/// verified first answer of the same operation bit for bit.
inline std::string againstFirst(const Answer& got,
                                const std::optional<Answer>& first) {
  return first ? compareAnswers(got, *first)
               : std::string("its first answer failed verification");
}

/// Operations attempted and failed; keeps the first failure for the log.
struct Tally {
  long attempted = 0;
  long failed = 0;
  std::string firstFailure;

  /// Counts one operation whose verdict is `problem` (empty = passed) and
  /// returns whether it passed.
  bool record(long op, const std::string& problem) {
    ++attempted;
    if (problem.empty()) return true;
    if (failed++ == 0)
      firstFailure = "op " + std::to_string(op) + ": " + problem;
    return false;
  }
};

}  // namespace aspf::perf
