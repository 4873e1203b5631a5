// Typed HMCA_* environment surface: parsing, off-values, error paths and
// the unknown-variable typo guard. Tests mutate the process environment,
// so each one restores what it touches.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "osu/env.hpp"

namespace hmca::osu {
namespace {

/// setenv/unsetenv pair that restores the prior value on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

TEST(Env, UnsetAndEmptyReadAsNullopt) {
  ScopedEnv unset(Env::kAllgatherAlgo, nullptr);
  EXPECT_FALSE(Env::allgather_algo().has_value());
  ScopedEnv empty(Env::kAllreduceAlgo, "");
  EXPECT_FALSE(Env::allreduce_algo().has_value());
}

TEST(Env, StringVariablesPassThrough) {
  ScopedEnv algo(Env::kAllgatherAlgo, "ring");
  ScopedEnv faults(Env::kFaults, "kill:0.0@10us");
  EXPECT_EQ(Env::allgather_algo().value(), "ring");
  EXPECT_EQ(Env::faults().value(), "kill:0.0@10us");
}

TEST(Env, ConformanceSeedParsesBase0) {
  {
    ScopedEnv seed(Env::kConformanceSeed, "12345");
    EXPECT_EQ(Env::conformance_seed().value(), 12345u);
  }
  {
    ScopedEnv seed(Env::kConformanceSeed, "0x2a");
    EXPECT_EQ(Env::conformance_seed().value(), 42u);
  }
  {
    ScopedEnv seed(Env::kConformanceSeed, "18446744073709551615");
    EXPECT_EQ(Env::conformance_seed().value(), UINT64_MAX);
  }
  // Digit-free garbage, trailing characters, a sign, leading blanks and
  // values past 2^64-1 are refused, not read as some other seed.
  for (const char* bad : {"banana", "12abc", "1e9", "0x", "-1", "+5", " 7",
                          "18446744073709551616", "0x1ffffffffffffffff"}) {
    ScopedEnv seed(Env::kConformanceSeed, bad);
    EXPECT_THROW(Env::conformance_seed(), std::invalid_argument) << bad;
  }
}

TEST(Env, SimcoreSeedSharesTheSeedParser) {
  {
    ScopedEnv seed(Env::kSimcoreSeed, nullptr);
    EXPECT_FALSE(Env::simcore_seed().has_value());
  }
  {
    ScopedEnv seed(Env::kSimcoreSeed, "0x51EDC04E");
    EXPECT_EQ(Env::simcore_seed().value(), 0x51EDC04Eu);
  }
  {
    ScopedEnv seed(Env::kSimcoreSeed, "12abc");
    EXPECT_THROW(Env::simcore_seed(), std::invalid_argument);
  }
}

TEST(Env, StatsFormatParsing) {
  EXPECT_EQ(parse_stats_format("", "--stats"), StatsFormat::kText);
  EXPECT_EQ(parse_stats_format("1", "--stats"), StatsFormat::kText);
  EXPECT_EQ(parse_stats_format("text", "--stats"), StatsFormat::kText);
  EXPECT_EQ(parse_stats_format("json", "--stats"), StatsFormat::kJson);
  EXPECT_EQ(parse_stats_format("csv", "--stats"), StatsFormat::kCsv);
  EXPECT_THROW(parse_stats_format("yaml", "--stats"), std::invalid_argument);
}

TEST(Env, StatsVariableHonorsOffValues) {
  {
    ScopedEnv stats(Env::kStats, "json");
    ASSERT_TRUE(Env::stats().has_value());
    EXPECT_EQ(*Env::stats(), StatsFormat::kJson);
  }
  {
    ScopedEnv stats(Env::kStats, "off");
    EXPECT_FALSE(Env::stats().has_value());
  }
  {
    ScopedEnv stats(Env::kStats, "0");
    EXPECT_FALSE(Env::stats().has_value());
  }
  {
    ScopedEnv stats(Env::kStats, "bogus");
    EXPECT_THROW(Env::stats(), std::invalid_argument);
  }
}

TEST(Env, WarnUnknownFlagsTypoedVariables) {
  ScopedEnv typo("HMCA_ALGGATHER_ALGO", "ring");  // transposed letters
  ScopedEnv known(Env::kStats, "json");           // must NOT be flagged
  std::ostringstream os;
  EXPECT_GE(Env::warn_unknown(os), 1);
  EXPECT_NE(os.str().find("HMCA_ALGGATHER_ALGO"), std::string::npos)
      << os.str();
  // Known variables are never flagged (they do appear in each warning's
  // "(known: ...)" suffix, so match the full "variable <name>" form).
  EXPECT_EQ(os.str().find("variable HMCA_STATS"), std::string::npos)
      << os.str();
}

TEST(Env, WarnUnknownFlagsRetiredChunkBytes) {
  // The chunk size is fixed policy now; a leftover setting must not pass
  // silently as if it still applied.
  ScopedEnv retired("HMCA_CHUNK_BYTES", "4096");
  std::ostringstream os;
  EXPECT_GE(Env::warn_unknown(os), 1);
  EXPECT_NE(os.str().find("variable HMCA_CHUNK_BYTES"), std::string::npos)
      << os.str();
}

TEST(Env, WarnUnknownListsEveryKnownVariable) {
  ScopedEnv typo("HMCA_STATZ", "json");
  std::ostringstream os;
  ASSERT_GE(Env::warn_unknown(os), 1);
  const std::string known =
      std::string("(known: ") + Env::kAllgatherAlgo + ", " +
      Env::kAllreduceAlgo + ", " + Env::kAlltoallAlgo + ", " +
      Env::kReduceScatterAlgo + ", " + Env::kFaults + ", " +
      Env::kConformanceSeed + ", " + Env::kSimcoreSeed + ", " +
      Env::kStats + ", " + Env::kHierarchy + ", " + Env::kGitSha + ")\n";
  const std::string line =
      "hmca: warning: unknown environment variable HMCA_STATZ " + known;
  EXPECT_NE(os.str().find(line), std::string::npos) << os.str();
}

TEST(Env, WarnUnknownSilentWhenEnvironmentIsClean) {
  std::ostringstream os;
  const int n = Env::warn_unknown(os);
  if (n == 0) {
    EXPECT_TRUE(os.str().empty());
  }
}

}  // namespace
}  // namespace hmca::osu
