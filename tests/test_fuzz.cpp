// Seeded mutation fuzzing of every byte stream the simulator reads back:
// spec JSON, result-journal lines and checkpoints. Mutants are truncated,
// bit-flipped or spliced (a chunk of a donor written over a random range)
// copies of valid inputs. Each must load or be rejected with an error;
// none may crash, which the sanitizer CI job checks for everything a
// mutant reaches. A checkpoint mutant is resealed first (its checksum
// rewritten), so the readers behind the checksum see it, and one that
// restores must then run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/ckpt_stream.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/orchestrator.hpp"
#include "core/spec.hpp"
#include "sim/network.hpp"
#include "traffic/generator.hpp"

namespace ofar {
namespace {

/// A mutant of `base`: truncated, one to four bits flipped, or a chunk of
/// `donor` spliced over a random range.
std::string mutate(const std::string& base, const std::string& donor,
                   Rng& rng) {
  std::string out = base;
  switch (rng.below(3)) {
    case 0:
      out.resize(rng.below(static_cast<u32>(out.size())));
      break;
    case 1:
      for (u32 n = 1 + rng.below(4); n > 0; --n)
        out[rng.below(static_cast<u32>(out.size()))] ^=
            static_cast<char>(1u << rng.below(8));
      break;
    default: {
      const u32 at = rng.below(static_cast<u32>(out.size()) + 1);
      const u32 len = std::min<u32>(rng.below(33),
                                    static_cast<u32>(out.size()) - at);
      const u32 from = rng.below(static_cast<u32>(donor.size()));
      const u32 take = std::min<u32>(rng.below(65),
                                     static_cast<u32>(donor.size()) - from);
      out.replace(at, len, donor, from, take);
    }
  }
  return out;
}

constexpr u64 kSeed = 20121010;

TEST(Fuzz, SpecMutantsLoadOrAreRejected) {
  const std::string steady = R"({
    "kind": "steady", "name": "f", "h": 2, "seeds": [1, 2],
    "config": {"vcs_local": 3, "thresholds": {"min_gap": 0.1},
               "ring": "embedded"},
    "mechanisms": [{"routing": "OFAR", "label": "O"},
                   {"routing": "PB", "ugal_bias_phits": -2}],
    "patterns": ["UN", "ADV+h", {"mix": [{"kind": "uniform", "weight": 1},
                                         {"kind": "adversarial",
                                          "offset": 1}], "name": "M"}],
    "loads": {"min": 0.1, "max": 0.5, "points": 3},
    "warmup": 100, "measure": 200})";
  const std::string others = R"({
    "kind": "transient", "h": 2, "mechanisms": [{"routing": "VAL"}],
    "transitions": [{"a": "UN", "b": "ADV+1", "load": 0.2, "name": "t"}],
    "switch_at": 100, "horizon": 50, "lead": 10, "drain": 20, "bucket": 5}
    {"kind": "burst", "h": 2, "mechanisms": [{"routing": "MIN"}],
     "workloads": ["stencil2d"], "packets": 3, "max_cycles": 999})";
  Rng rng(kSeed);
  u32 loaded = 0;
  for (int i = 0; i < 20'000; ++i) {
    const std::string text = mutate(steady, others, rng);
    JsonValue doc;
    std::string error;
    ExperimentSpec spec;
    if (json_parse(text, doc, error) && spec_from_json(doc, spec, error)) {
      ++loaded;
      for (const RunPoint& p : spec.expand())
        EXPECT_EQ(point_key(p).size(), 32u);
    } else {
      EXPECT_FALSE(error.empty()) << text;
    }
  }
  // Mutants that keep the document valid exist (a flipped bit in a
  // number), but most break it.
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, 10'000u);
}

TEST(Fuzz, JournalMutantsParseOrAreRejected) {
  RunPoint steady;
  PointOutcome o;
  o.key = std::string(32, 'a');
  o.steady.avg_latency = 123.25;
  o.steady.delivered_packets = 77;
  std::string journal = journal_line(steady, o) + "\n";
  RunPoint transient = steady;
  transient.kind = RunKind::kTransient;
  o.transient.series = {{-10, 1.5, 3}, {0, 2.5, 4}, {10, 0.0, 0}};
  journal += journal_line(transient, o) + "\n";
  RunPoint burst = steady;
  burst.kind = RunKind::kBurst;
  o.burst.completion = 999;
  o.burst.completed = true;
  journal += journal_line(burst, o) + "\n";

  Rng rng(kSeed);
  u32 parsed = 0;
  for (int i = 0; i < 20'000; ++i) {
    const std::string text = mutate(journal, journal, rng);
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      std::string key, error;
      RunKind kind = RunKind::kSteady;
      PointOutcome out;
      if (parse_journal_line(text.substr(start, end - start), key, kind, out,
                             error))
        ++parsed;
      else
        EXPECT_FALSE(error.empty());
      start = end + 1;
    }
  }
  EXPECT_GT(parsed, 0u);
}

TEST(Fuzz, ResealedCheckpointMutantsRestoreOrAreRejected) {
  SimConfig cfg;
  cfg.h = 1;
  cfg.seed = 7;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kPhysical;
  const auto traffic = [&cfg] {
    return std::make_unique<BernoulliSource>(TrafficPattern::uniform(), 0.1,
                                             cfg.seed);
  };
  const std::string path = ::testing::TempDir() + "ofar_fuzz.ckpt";
  std::string saved;
  {
    Network net(cfg);
    net.set_traffic(traffic());
    net.run(200);
    ASSERT_TRUE(CheckpointIO::save(net, path));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
      saved.append(buf, n);
    std::fclose(f);
  }

  Rng rng(kSeed);
  u32 restored = 0;
  for (int i = 0; i < 3'000; ++i) {
    std::string bytes = mutate(saved, saved, rng);
    if (bytes.size() >= sizeof(u64)) {
      CkptChecksum sum;
      sum.add(bytes.data(), bytes.size() - sizeof(u64));
      const u64 value = sum.value();
      std::memcpy(bytes.data() + bytes.size() - sizeof value, &value,
                  sizeof value);
    }
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    Network net(cfg);
    net.set_traffic(traffic());
    std::string error;
    if (CheckpointIO::restore(net, path, &error)) {
      ++restored;
      net.run(50);  // an accepted state must be one the kernel can run
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(restored, 0u);
}

}  // namespace
}  // namespace ofar
