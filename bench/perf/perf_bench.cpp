// perf_bench: the repository benchmark (README.md next to this file has
// the metric table, the workloads and why each was chosen).
//
//   perf_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out PATH]
//
// One process runs one workload with one client thread in a closed loop:
// the next operation starts when the previous one returned. Inputs come
// from the seed through the scenario vocabulary; the library is driven
// through its public functions only and every call is timed from outside.
// A workload is a fixed pass of operations, replayed from a fresh set-up
// pass after pass; the end-to-end figures take each operation's fastest
// time over the passes after the first.
// Each answer is verified after its timer stopped, and a failed check is
// counted, never fatal: every forest by the checker, and every answer by a
// bit-compare with the verified answer the same operation gave first (on
// serve-mutate, that first answer is also compared with a cold oracle).
// The last stdout line is one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). A traced run measures the workload untraced for half its
// time, then replays the same operations with spans recorded, so it can
// report per-layer self times, the tracing overhead and whether the exact
// counts of both halves agree. The spans are written as Chrome
// trace-event JSON (opens in Perfetto or chrome://tracing).
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/amoebot_spf.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/serve.hpp"
#include "scenario/timeline.hpp"
#include "sim/comm.hpp"
#include "sim/sim_counters.hpp"
#include "spf/forest.hpp"
#include "spf/solve_cache.hpp"
#include "util/rng.hpp"
#include "verify.hpp"

namespace aspf::perf {
namespace {

using Clock = std::chrono::steady_clock;
using scenario::QueryKind;
using scenario::Scenario;
using scenario::Shape;

constexpr int kLanes = 4;  // aspf-run's default --lanes

// serve-mutate: every 8th step mutates the structure by this many
// single-arc cell steps; one pass is 48 steps.
constexpr long kMutateEvery = 8;
constexpr int kMutateCells = 4;
constexpr long kServePass = 48;
constexpr std::uint64_t kDeckSeed = 0xDEC4;

double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void addCounters(SimCounters& into, const SimCounters& d) {
  into.delivers += d.delivers;
  into.beeps += d.beeps;
  into.unions += d.unions;
  into.dirtyAmoebots += d.dirtyAmoebots;
  into.amoebotRounds += d.amoebotRounds;
  into.incrementalRounds += d.incrementalRounds;
  into.rebuildRounds += d.rebuildRounds;
  into.blockCompares += d.blockCompares;
  into.bitsetWordsScanned += d.bitsetWordsScanned;
}

void addPhases(ForestResult::Phases& into, const ForestResult::Phases& p) {
  into.preprocessing += p.preprocessing;
  into.split += p.split;
  into.base += p.base;
  into.decomposition += p.decomposition;
  into.merging += p.merging;
  into.prune += p.prune;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One call into a layer (a child span) or one whole operation (a root).
struct Span {
  const char* name = "";
  long op = -1;     // operation id; -1 during set-up
  int parent = -1;  // index of the enclosing span; -1 for a root
  double startUs = 0.0;
  double endUs = 0.0;
  SimCounters delta;
  long rounds = -1;  // model rounds of a solve span; -1 elsewhere

  double ms() const { return (endUs - startUs) / 1000.0; }
};

/// Keeps spans in memory during the traced phase; they are written out
/// when the run ends. Off, it records nothing.
class Tracer {
 public:
  Tracer(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

  int open(const char* name, long op) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    Span span;
    span.name = name;
    span.op = op;
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(span);
    open_.push_back(id);
    return id;
  }

  void close(int id, Clock::time_point start, Clock::time_point stop,
             const SimCounters& delta) {
    if (id < 0) return;
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.startUs = microsSinceOrigin(start);
    span.endUs = microsSinceOrigin(stop);
    span.delta = delta;
    open_.pop_back();
  }

  void setRounds(int id, long rounds) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].rounds = rounds;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double microsSinceOrigin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// One measured phase
// ---------------------------------------------------------------------------

/// Machine-independent counts over the first pass of a workload:
/// identical for identical seeds, on any host.
struct Exact {
  SimCounters sim;
  long rounds = 0;
  ForestResult::Phases phases;
  SolveCacheStats cache;
};

std::vector<long> exactFields(const Exact& e) {
  return {
      e.sim.delivers,
      e.sim.beeps,
      e.sim.unions,
      e.sim.dirtyAmoebots,
      e.sim.amoebotRounds,
      e.sim.incrementalRounds,
      e.sim.rebuildRounds,
      e.sim.blockCompares,
      e.sim.bitsetWordsScanned,
      e.rounds,
      e.phases.preprocessing,
      e.phases.split,
      e.phases.base,
      e.phases.decomposition,
      e.phases.merging,
      e.phases.prune,
      e.cache.hits,
      e.cache.misses,
      e.cache.invalidations,
      e.cache.savedUnions,
  };
}

struct Timed {
  double ms = 0.0;
  SimCounters delta;
  int span = -1;
};

struct Phase {
  explicit Phase(bool traced) : tracer(traced, Clock::now()) {}

  /// Records the timed part of successful operation `op`. The first pass
  /// warms up and gives no slot sample.
  void sample(long op, const Timed& t) {
    opMs.push_back(t.ms);
    const auto pass = static_cast<long>(slotMs.size());
    if (op >= pass)
      slotMs[static_cast<std::size_t>(op % pass)].push_back(t.ms);
  }

  Tracer tracer;
  std::vector<double> setupS;    // one sample per set-up
  std::vector<double> opMs;      // timed part of each successful operation
  std::vector<double> queryMs;   // serve-mutate: successful queries
  std::vector<double> mutateMs;  // serve-mutate: successful mutations
  // Per position in the pass, the samples of the passes after the first.
  std::vector<std::vector<double>> slotMs;
  double solveMs = 0.0;  // every timed solve, for ns per union
  long solveUnions = 0;
  Exact exact;
  Tally tally;
  long ops = 0;
};

/// Times one call into a library layer from outside (host time and the
/// simulator counter delta) and records it as a span when tracing.
template <class Body>
Timed timeCall(Phase& ph, const char* name, long op, Body&& body) {
  const int id = ph.tracer.open(name, op);
  const SimCounters before = simCounters();
  const Clock::time_point start = Clock::now();
  body();
  const Clock::time_point stop = Clock::now();
  const SimCounters delta = simCounters() - before;
  ph.tracer.close(id, start, stop, delta);
  return {msBetween(start, stop), delta, id};
}

// ---------------------------------------------------------------------------
// Library calls shared by the workloads
// ---------------------------------------------------------------------------

/// A materialized scenario, built through the three scenario-vocabulary
/// steps, each timed as its own layer.
struct Instance {
  std::unique_ptr<AmoebotStructure> structure;
  std::unique_ptr<Region> region;
  scenario::ScenarioInstance sd;
};

Instance buildInstance(const Scenario& sc, Phase& ph) {
  Instance in;
  timeCall(ph, "shapes.build", -1, [&] {
    in.structure =
        std::make_unique<AmoebotStructure>(scenario::buildShape(sc));
  });
  // The facade's constructor checks connectivity and hole-freeness.
  timeCall(ph, "core.validate", -1,
           [&] { static_cast<void>(Spf(*in.structure)); });
  timeCall(ph, "scenario.place", -1, [&] {
    in.region = std::make_unique<Region>(Region::whole(*in.structure));
    in.sd = scenario::placeSourcesAndDests(*in.region, sc);
  });
  return in;
}

/// A cold polylog (k,l)-SPF solve, as `aspf-run --algo polylog` runs it.
Answer coldSolve(const Region& region, const std::vector<char>& isSource,
                 const std::vector<char>& isDest,
                 ForestResult::Phases* phases) {
  Answer answer;
  const SimCounters before = simCounters();
  try {
    ForestResult r = shortestPathForest(region, isSource, isDest, kLanes);
    answer.parent = std::move(r.parent);
    answer.rounds = r.rounds;
    *phases = r.phases;
  } catch (const std::exception& e) {
    answer.error = e.what();
  }
  const SimCounters delta = simCounters() - before;
  answer.delivers = delta.delivers;
  answer.beeps = delta.beeps;
  return answer;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed, replacing earlier ones; a fresh
  /// set-up replays the same operation stream from its start.
  virtual void setup(Phase& ph) = 0;
  /// Runs operation `op` of the stream, then verifies its answer.
  virtual void step(long op, Phase& ph) = 0;
  /// Operations in one pass. Every pass starts from a fresh set-up and
  /// repeats the first; exact counts cover the first.
  virtual long passLength() const = 0;
};

/// static-large: sequential cold solves over a pool of
/// instances drawn from the seed, in whole passes. Every solve must pass
/// the checker and reproduce the first solve of its instance bit for bit.
class StaticSolves final : public Workload {
 public:
  explicit StaticSolves(std::vector<Scenario> scenarios)
      : scenarios_(std::move(scenarios)), first_(scenarios_.size()) {}

  void setup(Phase& ph) override {
    pool_.clear();
    for (const Scenario& sc : scenarios_)
      pool_.push_back(buildInstance(sc, ph));
  }

  long passLength() const override {
    return static_cast<long>(scenarios_.size());
  }

  void step(long op, Phase& ph) override {
    const auto i = static_cast<std::size_t>(op % passLength());
    const Instance& in = pool_[i];
    timeCall(ph, "op.solve", op, [&] {
      Answer got;
      ForestResult::Phases phases;
      const Timed solve = timeCall(ph, "spf.solve", op, [&] {
        got = coldSolve(*in.region, in.sd.isSource, in.sd.isDest, &phases);
      });
      ph.tracer.setRounds(solve.span, got.rounds);
      if (op < passLength()) {
        addCounters(ph.exact.sim, solve.delta);
        ph.exact.rounds += got.rounds;
        addPhases(ph.exact.phases, phases);
      }
      ph.solveMs += solve.ms;
      ph.solveUnions += solve.delta.unions;
      std::string problem;
      timeCall(ph, "baselines.check", op, [&] {
        problem = checkForest(*in.region, got, in.sd.sources,
                              in.sd.destinations);
      });
      if (problem.empty() && !first_[i]) first_[i] = got;
      if (problem.empty()) problem = againstFirst(got, first_[i]);
      if (ph.tally.record(op, problem)) ph.sample(op, solve);
    });
  }

 private:
  std::vector<Scenario> scenarios_;
  std::vector<Instance> pool_;
  std::vector<std::optional<Answer>> first_;
};

/// serve-mutate: one persistent structure answers a seeded stream of S/D
/// queries on a warm Comm with the session's SolveCache installed; every
/// 8th step mutates the structure instead (single-arc cell steps, then
/// materializeEpoch and Comm::rebind). After its timer stopped, each query
/// goes through the checker and must reproduce its answer of the first
/// pass bit for bit; in the first pass of a phase, a cold oracle solve
/// takes that role (the oracle costs several warm queries, so running it
/// once per operation leaves most of a run timed).
class ServeMutate final : public Workload {
 public:
  ServeMutate(Scenario base, std::uint64_t streamSeed)
      : base_(std::move(base)),
        streamSeed_(streamSeed),
        rng_(streamSeed),
        first_(kServePass) {}

  void setup(Phase& ph) override {
    comm_.reset();
    cache_ = SolveCache();
    rng_.reseed(streamSeed_);
    deckRng_.reseed(kDeckSeed);
    deck_.clear();
    occupied_.clear();
    sourceCoords_.clear();
    destCoords_.clear();
    const Instance in = buildInstance(base_, ph);
    const AmoebotStructure& st = *in.structure;
    for (int i = 0; i < st.size(); ++i) occupied_.insert(st.coordOf(i));
    for (const int s : in.sd.sources) sourceCoords_.insert(st.coordOf(s));
    for (const int t : in.sd.destinations) destCoords_.insert(st.coordOf(t));
    prev_ = {};
    timeCall(ph, "scenario.materialize", -1, [&] {
      cur_ =
          scenario::materializeEpoch(occupied_, sourceCoords_, destCoords_);
    });
    timeCall(ph, "sim.comm_setup", -1, [&] {
      comm_.emplace(*cur_.region, kLanes, CircuitEngine::Incremental, 1);
    });
  }

  long passLength() const override { return kServePass; }

  void step(long op, Phase& ph) override {
    const bool mutation = op % kMutateEvery == kMutateEvery - 1;
    Timed timed;
    if (mutation) {
      timeCall(ph, "op.mutate", op, [&] { timed = mutate(op, ph); });
    } else {
      timeCall(ph, "op.query", op, [&] { timed = query(op, ph); });
    }
    if (op < passLength()) {
      addCounters(ph.exact.sim, timed.delta);
      if (op == passLength() - 1) ph.exact.cache = cache_.stats();
    }
  }

 private:
  Timed query(long op, Phase& ph) {
    applyQuery(nextKind());
    Answer warm;
    const Timed solve = timeCall(ph, "spf.solve", op, [&] {
      comm_->clearPending();
      const ScopedSolveCache guard(&cache_);
      scenario::InstanceSolve r = scenario::solveInstance(
          *cur_.region, cur_.sources, cur_.dests, cur_.isSource,
          cur_.isDest, scenario::Algo::Polylog, scenario::RunOptions{},
          &*comm_);
      warm.parent = std::move(r.parent);
      warm.rounds = r.rounds;
      warm.delivers = r.delta.delivers;
      warm.beeps = r.delta.beeps;
      warm.error = std::move(r.error);
    });
    ph.tracer.setRounds(solve.span, warm.rounds);
    std::optional<Answer>& first =
        first_[static_cast<std::size_t>(op % kServePass)];
    std::string problem;
    timeCall(ph, "baselines.check", op, [&] {
      problem = checkForest(*cur_.region, warm, cur_.sources, cur_.dests);
    });
    ForestResult::Phases phases;
    if (op < passLength()) {
      Answer cold;
      timeCall(ph, "baselines.cold_oracle", op, [&] {
        cold = coldSolve(*cur_.region, cur_.isSource, cur_.isDest, &phases);
      });
      if (problem.empty()) problem = compareAnswers(warm, cold);
      if (problem.empty() && !first) first = warm;
    }
    if (problem.empty()) problem = againstFirst(warm, first);
    ph.solveMs += solve.ms;
    ph.solveUnions += solve.delta.unions;
    if (ph.tally.record(op, problem)) {
      ph.sample(op, solve);
      ph.queryMs.push_back(solve.ms);
    }
    if (op < passLength()) {
      ph.exact.rounds += warm.rounds;
      addPhases(ph.exact.phases, phases);
    }
    return solve;
  }

  Timed mutate(long op, Phase& ph) {
    for (int c = 0; c < kMutateCells; ++c) {
      if ((rng_.next() & 1) != 0) {
        scenario::detachCellStep(occupied_, sourceCoords_, destCoords_, rng_);
      } else {
        scenario::attachCellStep(occupied_, rng_);
      }
    }
    // The previous epoch stays alive until the next mutation: rebind()
    // consults the old adjacency.
    prev_ = std::move(cur_);
    std::string problem;
    const Timed materialize = timeCall(ph, "scenario.materialize", op, [&] {
      cur_ = scenario::materializeEpoch(occupied_, sourceCoords_, destCoords_);
    });
    std::vector<int> oldLocalOfNew(
        static_cast<std::size_t>(cur_.region->size()));
    for (int i = 0; i < cur_.region->size(); ++i)
      oldLocalOfNew[static_cast<std::size_t>(i)] =
          prev_.structure->idOf(cur_.structure->coordOf(i));
    const Timed rebind = timeCall(ph, "sim.rebind", op, [&] {
      try {
        comm_->rebind(*cur_.region, oldLocalOfNew);
      } catch (const std::exception& e) {
        problem = std::string("rebind threw: ") + e.what();
      }
    });
    Timed both{materialize.ms + rebind.ms, materialize.delta};
    addCounters(both.delta, rebind.delta);
    if (ph.tally.record(op, problem)) {
      ph.sample(op, both);
      ph.mutateMs.push_back(both.ms);
    }
    return both;
  }

  /// Query kinds come from a shuffled deck of all four, so every run
  /// sees them in equal shares. The shuffle does not depend on the seed:
  /// the order of kinds decides which queries hit the solve cache, and
  /// with it the pass's mix of ~3 ms hits and ~45 ms misses.
  QueryKind nextKind() {
    if (deck_.empty()) {
      deck_.assign(scenario::kAllQueryKinds.begin(),
                   scenario::kAllQueryKinds.end());
      for (std::size_t i = deck_.size() - 1; i > 0; --i)
        std::swap(deck_[i], deck_[deckRng_.below(i + 1)]);
    }
    const QueryKind kind = deck_.back();
    deck_.pop_back();
    return kind;
  }

  /// The S/D update of one query, applied to the local-id instance and
  /// its coordinate shadow (the same primitives QuerySession draws).
  void applyQuery(QueryKind kind) {
    switch (kind) {
      case QueryKind::DestSwap:
        unmarkAt(cur_.isDest, cur_.dests, destCoords_,
                 rng_.below(cur_.dests.size()));
        markRandom(cur_.isDest, cur_.dests, destCoords_);
        return;
      case QueryKind::DestAdd:
        markRandom(cur_.isDest, cur_.dests, destCoords_);
        return;
      case QueryKind::DestRemove:
        if (cur_.dests.size() > 1)
          unmarkAt(cur_.isDest, cur_.dests, destCoords_,
                   rng_.below(cur_.dests.size()));
        return;
      case QueryKind::ToggleSource:
        // Alternates add and remove, so |S| stays at k or k + 1: a random
        // walk would cross powers of two, where a solve's round count
        // jumps by half, and make the workload's cost depend on the seed.
        if (cur_.sources.size() > static_cast<std::size_t>(base_.k)) {
          unmarkAt(cur_.isSource, cur_.sources, sourceCoords_,
                   rng_.below(cur_.sources.size()));
        } else {
          markRandom(cur_.isSource, cur_.sources, sourceCoords_);
        }
        return;
    }
  }

  /// Marks one uniformly drawn unmarked cell, if any is left.
  void markRandom(std::vector<char>& flags, std::vector<int>& ids,
                  std::set<Coord>& coords) {
    const std::size_t eligible = flags.size() - ids.size();
    if (eligible == 0) return;
    std::uint64_t rank = rng_.below(eligible);
    int picked = 0;
    while (flags[static_cast<std::size_t>(picked)] != 0 || rank-- > 0)
      ++picked;
    flags[static_cast<std::size_t>(picked)] = 1;
    ids.insert(std::lower_bound(ids.begin(), ids.end(), picked), picked);
    coords.insert(cur_.structure->coordOf(picked));
  }

  void unmarkAt(std::vector<char>& flags, std::vector<int>& ids,
                std::set<Coord>& coords, std::uint64_t index) {
    const int picked = ids[index];
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(index));
    flags[static_cast<std::size_t>(picked)] = 0;
    coords.erase(cur_.structure->coordOf(picked));
  }

  Scenario base_;
  std::uint64_t streamSeed_;
  Rng rng_;
  Rng deckRng_{kDeckSeed};
  std::vector<QueryKind> deck_;
  std::set<Coord> occupied_;
  std::set<Coord> sourceCoords_;
  std::set<Coord> destCoords_;
  scenario::MaterializedEpoch cur_;
  scenario::MaterializedEpoch prev_;
  std::optional<Comm> comm_;
  SolveCache cache_;
  std::vector<std::optional<Answer>> first_;  // per position in the pass
};

/// Scenario seeds drawn from the benchmark seed (one stream per workload).
class SeedDraws {
 public:
  SeedDraws(std::uint64_t seed, std::uint64_t stream)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + stream) {}
  std::uint64_t next() { return 1 + rng_.below(1ULL << 30); }

 private:
  Rng rng_;
};

/// One scenario of the static-large pool and how many seeded instances
/// of it the pool holds.
struct PoolEntry {
  Shape shape;
  int a, b, k, l;
  int draws;
};

// The ten scenarios of the `large` registry suite, copied so that a
// registry edit cannot silently change the benchmark. Solve times form
// clusters (thin shapes ~8-20 ms, hexagon24/parallelogram/diamondchain
// ~40-50 ms, blob ~60 ms, hexagon32 ~80 ms on a 4-core Xeon). The draw
// counts give the slow families more instances, so that the slowest
// tenth of the pass (slow_op_ms) averages over several seeds of one.
constexpr PoolEntry kLargePool[] = {
    {Shape::Hexagon, 24, 0, 16, 32, 8},
    {Shape::Hexagon, 32, 0, 16, 32, 10},
    {Shape::Parallelogram, 64, 32, 16, 32, 8},
    {Shape::Line, 2048, 0, 8, 16, 4},
    {Shape::Comb, 16, 32, 8, 16, 4},
    {Shape::Staircase, 24, 6, 8, 16, 4},
    {Shape::RandomBlob, 2000, 0, 16, 32, 4},
    {Shape::RandomSpider, 8, 40, 8, 16, 4},
    {Shape::Zigzag, 48, 8, 8, 16, 4},
    {Shape::DiamondChain, 10, 6, 8, 16, 8},
};

std::unique_ptr<Workload> makeStaticLarge(std::uint64_t seed) {
  SeedDraws draws(seed, 0x51A7C1A26EULL);
  std::vector<Scenario> pool;
  for (const PoolEntry& e : kLargePool) {
    for (int d = 0; d < e.draws; ++d)
      pool.push_back(
          scenario::make(e.shape, e.a, e.b, e.k, e.l, draws.next()));
  }
  return std::make_unique<StaticSolves>(std::move(pool));
}

std::unique_ptr<Workload> makeServeMutate(std::uint64_t seed) {
  SeedDraws draws(seed, 0x5E77E5ULL);
  // hexagon24 (n = 1801) of the `large` suite. k and l sit mid-way
  // between powers of two: toggle-source moves |S| to k + 1 and the
  // destination queries walk |D| around l.
  Scenario base = scenario::make(Shape::Hexagon, 24, 0, 12, 24, draws.next());
  return std::make_unique<ServeMutate>(std::move(base), draws.next());
}

struct WorkloadSpec {
  std::string_view name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

constexpr std::array<WorkloadSpec, 2> kWorkloads{{
    {"static-large", &makeStaticLarge},
    {"serve-mutate", &makeServeMutate},
}};

// Each phase sets up this often before its first pass; setup_s is the
// median over these and the set-ups that start later passes, which spread
// the samples over the run. The first set-ups of a process run slower
// (page faults, cold allocator), so a short series makes the median
// depend on the process.
constexpr int kMinSetups = 25;

// A phase runs at least this many passes: the warm-up pass and two timed.
constexpr long kMinPasses = 3;

// ---------------------------------------------------------------------------
// Driving, statistics and output
// ---------------------------------------------------------------------------

/// Set-ups, then whole passes of operations until `seconds` passed (at
/// least kMinPasses), or exactly `fixedOps` when >= 0.
void runPhase(Workload& w, Phase& ph, double seconds, long fixedOps) {
  const auto setUp = [&] {
    ph.setupS.push_back(
        timeCall(ph, "op.setup", -1, [&] { w.setup(ph); }).ms / 1000.0);
  };
  while (ph.setupS.size() < kMinSetups) setUp();
  const long pass = w.passLength();
  ph.slotMs.assign(static_cast<std::size_t>(pass), {});
  const Clock::time_point start = Clock::now();
  long op = 0;
  const auto more = [&] {
    if (fixedOps >= 0) return op < fixedOps;
    return op < kMinPasses * pass || op % pass != 0 ||
           msBetween(start, Clock::now()) < seconds * 1000.0;
  };
  while (more()) {
    if (op > 0 && op % pass == 0) setUp();
    w.step(op++, ph);
  }
  ph.ops = op;
}

/// Nearest-rank percentile (p in (0, 100]); 0 for no samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample counts and the like, for the summary lines
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string samplesNote(const std::vector<double>& v) {
  return "n=" + std::to_string(v.size());
}

/// The pass seen through each operation's fastest time over the timed
/// passes. The host's neighbours only ever add time, in spells of tens of
/// seconds that a median over one run does not average out; the fastest
/// pass of an operation is its cost with the least of that added. The
/// aggregates over operations do not jump between the clusters of a mixed
/// pool the way a percentile over all operations does.
struct PassFigures {
  double opMs = 0.0;      // geometric mean of the fastest times
  double slowOpMs = 0.0;  // mean of the slowest tenth of them
  double opsPerS = 0.0;   // operations per second of their sum
  std::string note;
};

PassFigures passFigures(const std::vector<std::vector<double>>& slots) {
  std::vector<double> best;
  std::size_t passes = 0;
  for (const std::vector<double>& s : slots) {
    if (s.empty()) continue;
    best.push_back(*std::min_element(s.begin(), s.end()));
    passes = passes == 0 ? s.size() : std::min(passes, s.size());
  }
  PassFigures f;
  f.note = std::to_string(best.size()) + " operations, fastest of >= " +
           std::to_string(passes) + " passes";
  if (best.empty()) return f;
  double logSum = 0.0;
  for (const double m : best) logSum += std::log(std::max(m, 1e-6));
  const auto n = static_cast<double>(best.size());
  f.opMs = std::exp(logSum / n);
  std::sort(best.begin(), best.end(), std::greater<>());
  const std::size_t slow = (best.size() + 9) / 10;
  for (std::size_t i = 0; i < slow; ++i) f.slowOpMs += best[i];
  f.slowOpMs /= static_cast<double>(slow);
  f.opsPerS = ratio(n * 1000.0, sum(best));
  return f;
}

std::vector<Metric> endToEnd(const Phase& ph) {
  const PassFigures pass = passFigures(ph.slotMs);
  return {
      {"setup_s", median(ph.setupS), "s", samplesNote(ph.setupS)},
      {"op_ms", pass.opMs, "ms", pass.note},
      {"slow_op_ms", pass.slowOpMs, "ms", pass.note},
      {"ops_per_s", pass.opsPerS, "1/s", pass.note},
      {"model_rounds", static_cast<double>(ph.exact.rounds), "count", ""},
      {"peak_rss_mb", static_cast<double>(scenario::peakRssKb()) / 1024.0,
       "MB", "process high-water mark"},
  };
}

/// Per-layer metrics of the traced phase `b`; `a` is the untraced phase
/// that ran the same operations first.
std::vector<Metric> perLayer(const Phase& a, const Phase& b) {
  const std::vector<Span>& spans = b.tracer.spans();
  // Self time = duration minus the part covered by child spans.
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].ms();
    if (spans[i].parent >= 0)
      self[static_cast<std::size_t>(spans[i].parent)] -= spans[i].ms();
  }
  const auto setupTotalMs = [&](std::string_view name) {
    double total = 0.0;
    for (const Span& s : spans)
      if (s.op < 0 && name == s.name) total += s.ms();
    return total / static_cast<double>(b.setupS.size());
  };
  const auto opCallP50 = [&](std::string_view name) {
    std::vector<double> v;
    for (const Span& s : spans)
      if (s.op >= 0 && name == s.name) v.push_back(s.ms());
    return Metric{"", percentile(v, 50), "ms", samplesNote(v)};
  };
  const auto selfPerOp = [&](std::string_view name) {
    double total = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].op >= 0 && name == spans[i].name) total += self[i];
    return ratio(total, static_cast<double>(b.ops));
  };

  std::vector<Metric> out;
  for (const char* name : {"shapes.build", "core.validate", "scenario.place",
                           "sim.comm_setup"})
    out.push_back({std::string(name) + "_ms", setupTotalMs(name), "ms",
                   "per set-up"});
  for (const char* name : {"scenario.materialize", "sim.rebind",
                           "baselines.check", "baselines.cold_oracle"}) {
    Metric m = opCallP50(name);
    m.name = std::string(name) + "_ms";
    out.push_back(m);
  }
  out.push_back({"op_ms_p50", percentile(a.opMs, 50), "ms",
                 samplesNote(a.opMs) + ", untraced, every pass"});
  out.push_back({"op_ms_p90", percentile(a.opMs, 90), "ms",
                 samplesNote(a.opMs) + ", untraced, every pass"});
  out.push_back({"query_ms_p50", percentile(b.queryMs, 50), "ms",
                 samplesNote(b.queryMs)});
  out.push_back({"query_ms_p90", percentile(b.queryMs, 90), "ms",
                 samplesNote(b.queryMs)});
  out.push_back({"mutate_ms_p50", percentile(b.mutateMs, 50), "ms",
                 samplesNote(b.mutateMs)});
  for (const char* name :
       {"op.solve", "op.query", "op.mutate", "spf.solve",
        "scenario.materialize", "sim.rebind", "baselines.check",
        "baselines.cold_oracle"})
    out.push_back({std::string("self.") + name, selfPerOp(name), "ms/op",
                   "self time per operation"});

  const Exact& e = b.exact;
  const auto count = [](long v) { return static_cast<double>(v); };
  out.push_back({"sim.delivers", count(e.sim.delivers), "count", ""});
  out.push_back({"sim.beeps", count(e.sim.beeps), "count", ""});
  out.push_back({"sim.unions", count(e.sim.unions), "count", ""});
  out.push_back({"sim.rebuild_share",
                 ratio(count(e.sim.rebuildRounds), count(e.sim.delivers)),
                 "ratio", "rebuild rounds / delivers"});
  out.push_back({"sim.dirty_frac",
                 ratio(count(e.sim.dirtyAmoebots), count(e.sim.amoebotRounds)),
                 "ratio", ""});
  out.push_back(
      {"sim.block_compares", count(e.sim.blockCompares), "count", ""});
  out.push_back({"sim.bitset_words_scanned", count(e.sim.bitsetWordsScanned),
                 "count", ""});
  out.push_back({"sim.ns_per_union",
                 ratio(b.solveMs * 1e6, count(b.solveUnions)), "ns",
                 "timed solve time / unions"});
  const std::pair<const char*, long> phases[] = {
      {"preprocessing", e.phases.preprocessing},
      {"split", e.phases.split},
      {"base", e.phases.base},
      {"decomposition", e.phases.decomposition},
      {"merging", e.phases.merging},
      {"prune", e.phases.prune}};
  for (const auto& [name, rounds] : phases)
    out.push_back({std::string("spf.rounds.") + name, count(rounds), "count",
                   ""});
  out.push_back({"cache.hits", count(e.cache.hits), "count", ""});
  out.push_back({"cache.misses", count(e.cache.misses), "count", ""});
  out.push_back({"cache.hit_ratio",
                 ratio(count(e.cache.hits),
                       count(e.cache.hits + e.cache.misses)),
                 "ratio", ""});
  out.push_back(
      {"cache.invalidations", count(e.cache.invalidations), "count", ""});
  out.push_back(
      {"cache.saved_unions", count(e.cache.savedUnions), "count", ""});
  const double untracedMs = sum(a.opMs);
  out.push_back({"trace.overhead_pct",
                 ratio(sum(b.opMs) - untracedMs, untracedMs) * 100.0, "%",
                 "traced minus untraced timed-operation time"});
  return out;
}

/// Chrome trace-event JSON: one complete ("X") event per span.
bool writeTrace(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const SimCounters& d = s.delta;
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << (s.parent < 0 ? "op" : "layer")
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << number(s.startUs)
        << ",\"dur\":" << number(s.endUs - s.startUs)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"delivers\":" << d.delivers
        << ",\"beeps\":" << d.beeps << ",\"unions\":" << d.unions
        << ",\"rebuild_rounds\":" << d.rebuildRounds
        << ",\"dirty_amoebots\":" << d.dirtyAmoebots
        << ",\"block_compares\":" << d.blockCompares
        << ",\"bitset_words_scanned\":" << d.bitsetWordsScanned;
    if (s.rounds >= 0) out << ",\"rounds\":" << s.rounds;
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void printResult(bool correct, long attempted, long failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::cout << "# " << m.name << " = " << number(m.value) << " " << m.unit
              << (m.note.empty() ? "" : "  (" + m.note + ")") << "\n";
  std::cout << "# failed_frac = "
            << number(ratio(static_cast<double>(failed),
                            static_cast<double>(attempted)))
            << "  (" << failed << " of " << attempted << " operations)\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
}

constexpr const char* kUsage =
    "usage: perf_bench --workload static-large|serve-mutate\n"
    "                  --seed N --seconds S --trace 0|1 [--trace-out PATH]\n";

template <class T>
bool parseInt(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, *out);
  return res.ec == std::errc() && res.ptr == end;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  long seconds = 0;
  int trace = -1;
  std::string traceOut;
  bool haveSeed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ok = haveSeed = parseInt(value, &seed);
    } else if (flag == "--seconds") {
      ok = parseInt(value, &seconds) && seconds >= 1;
    } else if (flag == "--trace") {
      ok = parseInt(value, &trace) && (trace == 0 || trace == 1);
    } else if (flag == "--trace-out") {
      traceOut = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::cerr << "perf_bench: bad argument " << flag << " " << value
                << "\n" << kUsage;
      return 2;
    }
  }
  const auto spec = std::find_if(
      kWorkloads.begin(), kWorkloads.end(),
      [&](const WorkloadSpec& s) { return s.name == workload; });
  if (argc % 2 == 0 || spec == kWorkloads.end() || !haveSeed ||
      seconds < 1 || trace < 0) {
    std::cerr << kUsage;
    return 2;
  }

  const std::unique_ptr<Workload> w = spec->make(seed);
  std::cout << "# " << workload << " seed=" << seed << " seconds=" << seconds
            << " trace=" << trace << "\n";
  if (trace == 0) {
    Phase ph(false);
    runPhase(*w, ph, static_cast<double>(seconds), -1);
    if (ph.tally.failed > 0) std::cerr << ph.tally.firstFailure << "\n";
    std::cout << "# every operation of every pass: p50 = "
              << number(percentile(ph.opMs, 50))
              << " ms, p90 = " << number(percentile(ph.opMs, 90)) << " ms  ("
              << samplesNote(ph.opMs) << ")\n";
    printResult(ph.tally.failed == 0, ph.tally.attempted, ph.tally.failed,
                endToEnd(ph));
    return 0;
  }

  Phase a(false);
  runPhase(*w, a, static_cast<double>(seconds) / 2.0, -1);
  Phase b(true);
  runPhase(*w, b, 0.0, a.ops);
  const bool sameCounts = exactFields(a.exact) == exactFields(b.exact);
  if (!sameCounts)
    std::cerr << "perf_bench: traced exact counts differ from untraced\n";
  for (const Phase* ph : {&a, &b})
    if (ph->tally.failed > 0) std::cerr << ph->tally.firstFailure << "\n";
  if (traceOut.empty())
    traceOut = "perf-trace-" + workload + "-" + std::to_string(seed) + ".json";
  const bool written = writeTrace(traceOut, b.tracer);
  std::cout << "# trace: " << traceOut << " (" << b.tracer.spans().size()
            << " spans" << (written ? "" : ", WRITE FAILED") << ")\n";
  const long failed = a.tally.failed + b.tally.failed;
  printResult(failed == 0 && sameCounts && written,
              a.tally.attempted + b.tally.attempted, failed,
              perLayer(a, b));
  return 0;
}

}  // namespace
}  // namespace aspf::perf

int main(int argc, char** argv) {
  try {
    return aspf::perf::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perf_bench: " << e.what() << "\n";
    return 1;
  }
}
