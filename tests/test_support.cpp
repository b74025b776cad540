// Unit tests for the support layer: RNG, stats, tables, CSV, env, pool.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <set>
#include <stdexcept>

#include "support/assert.h"
#include "support/csv.h"
#include "support/env.h"
#include "support/record_reader.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace aheft {
namespace {

// ----- assert ------------------------------------------------------------

TEST(Assert, ThrowsAssertionErrorWithContext) {
  try {
    AHEFT_ASSERT(1 == 2, "one is not two");
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
  }
}

TEST(Assert, RequireThrowsInvalidArgument) {
  EXPECT_THROW(AHEFT_REQUIRE(false, "bad arg"), std::invalid_argument);
}

// ----- rng ---------------------------------------------------------------

TEST(Rng, SameSeedSameSequence) {
  RngStream a(42);
  RngStream b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  RngStream a(1);
  RngStream b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ChildStreamsAreIndependentOfParentDraws) {
  RngStream parent(7);
  const RngStream child_before = parent.child("x");
  parent.next_u64();
  parent.next_u64();
  const RngStream child_after = parent.child("x");
  EXPECT_EQ(child_before.seed(), child_after.seed());
}

TEST(Rng, ChildTagsProduceDistinctStreams) {
  RngStream parent(7);
  EXPECT_NE(parent.child("a").seed(), parent.child("b").seed());
  EXPECT_NE(parent.child(1).seed(), parent.child(2).seed());
}

TEST(Rng, UniformRespectsBounds) {
  RngStream rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.5, 7.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(Rng, Uniform01MeanIsAboutHalf) {
  RngStream rng(11);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += rng.uniform01();
  }
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  RngStream rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.uniform_int(1, 6);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 6);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntRejectsBadRange) {
  RngStream rng(5);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, IndexStaysBelowBound) {
  RngStream rng(5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, NormalMeanAndSpread) {
  RngStream rng(13);
  double total = 0.0;
  double total_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    total += x;
    total_sq += x * x;
  }
  const double mean = total / n;
  const double var = total_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  RngStream rng(17);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += rng.exponential(4.0);
  }
  EXPECT_NEAR(total / n, 4.0, 0.2);
}

TEST(Rng, ShuffleIsAPermutation) {
  RngStream rng(19);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, Hash64IsStableAndSpread) {
  EXPECT_EQ(hash64("abc"), hash64("abc"));
  EXPECT_NE(hash64("abc"), hash64("abd"));
  EXPECT_NE(hash64(""), hash64("a"));
}

// ----- stats ---------------------------------------------------------------

TEST(Stats, MeanVarianceMinMax) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, MergeMatchesSequential) {
  OnlineStats all;
  OnlineStats left;
  OnlineStats right;
  RngStream rng(23);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 100);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
}

TEST(Stats, MergeWithEmpty) {
  OnlineStats a;
  OnlineStats b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(Stats, ImprovementRate) {
  EXPECT_NEAR(improvement_rate(4939.3, 3933.1), 0.2037, 1e-3);
  EXPECT_DOUBLE_EQ(improvement_rate(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement_rate(10.0, 12.0), -0.2);
}

TEST(Stats, JainFairnessIndexOnKnownVectors) {
  // Perfect equality — index 1 regardless of the common value.
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({7.5, 7.5}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({42.0}), 1.0);
  // One of n served: index 1/n.
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 0.0, 0.0, 0.0}), 0.25);
  // {1, 3}: (1+3)^2 / (2 * (1+9)) = 0.8.
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 3.0}), 0.8);
  // {4, 2, 2}: 64 / (3 * 24).
  EXPECT_DOUBLE_EQ(jain_fairness_index({4.0, 2.0, 2.0}), 64.0 / 72.0);
  // Scale invariance.
  EXPECT_DOUBLE_EQ(jain_fairness_index({10.0, 30.0}),
                   jain_fairness_index({1.0, 3.0}));
  // Degenerate inputs count as perfectly fair.
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0, 0.0}), 1.0);
}

TEST(Stats, NormalCdfOnKnownValues) {
  EXPECT_DOUBLE_EQ(normal_cdf(0.0), 0.5);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.96), 0.024997895148220435, 1e-12);
  EXPECT_NEAR(normal_cdf(6.0), 1.0, 1e-9);
}

TEST(Stats, LogNormalAndWeibullClosedForms) {
  const LogNormalParams ln{1.0, 0.5};
  // CDF at the median exp(mu) is exactly one half.
  EXPECT_DOUBLE_EQ(ln.cdf(std::exp(1.0)), 0.5);
  EXPECT_DOUBLE_EQ(ln.quantile_from_normal(0.0), std::exp(1.0));
  EXPECT_NEAR(ln.mean(), std::exp(1.0 + 0.25 / 2.0), 1e-12);

  const WeibullParams wb{2.0, 3.0};
  // CDF at the scale is 1 - 1/e for every shape.
  EXPECT_NEAR(wb.cdf(3.0), 1.0 - std::exp(-1.0), 1e-12);
  // quantile is the exact inverse of cdf.
  for (const double u : {0.05, 0.5, 0.95}) {
    EXPECT_NEAR(wb.cdf(wb.quantile(u)), u, 1e-12);
  }
}

TEST(Stats, FitLogNormalRecoversParameters) {
  RngStream rng(42);
  std::vector<double> sample;
  sample.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    sample.push_back(rng.log_normal(2.0, 0.75));
  }
  const LogNormalParams fitted = fit_log_normal(sample);
  EXPECT_NEAR(fitted.mu, 2.0, 0.02);
  EXPECT_NEAR(fitted.sigma, 0.75, 0.02);
  // MLE on a log-normal sample beats the Weibull alternative in KS.
  const WeibullParams wrong = fit_weibull(sample);
  const double ks_right = ks_distance(
      sample, [&](double x) { return fitted.cdf(x); });
  const double ks_wrong = ks_distance(
      sample, [&](double x) { return wrong.cdf(x); });
  EXPECT_LT(ks_right, ks_wrong);
}

TEST(Stats, FitWeibullRecoversParameters) {
  RngStream rng(7);
  std::vector<double> sample;
  sample.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    sample.push_back(rng.weibull(1.6, 300.0));
  }
  const WeibullParams fitted = fit_weibull(sample);
  EXPECT_NEAR(fitted.shape, 1.6, 0.03);
  EXPECT_NEAR(fitted.scale, 300.0, 5.0);
}

TEST(Stats, FittersRejectNonPositiveSamples) {
  EXPECT_THROW((void)fit_log_normal({}), std::invalid_argument);
  EXPECT_THROW((void)fit_log_normal({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)fit_weibull({1.0, -2.0}), std::invalid_argument);
}

TEST(Stats, EmpiricalQuantileMatchesR) {
  // R's default (type 7) on 1..5: quantile(x, .25) = 2, .5 = 3, .1 = 1.4.
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(empirical_quantile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(empirical_quantile(sorted, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(empirical_quantile(sorted, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(empirical_quantile(sorted, 1.0), 5.0);
  EXPECT_NEAR(empirical_quantile(sorted, 0.1), 1.4, 1e-12);
}

TEST(Stats, KsDistanceOnKnownVectors) {
  // Sample {0.25, 0.75} vs U(0,1): sup gap is 0.25 at both points.
  const double d = ks_distance({0.25, 0.75}, [](double x) { return x; });
  EXPECT_DOUBLE_EQ(d, 0.25);
  // Identical two-sample inputs: distance 0; disjoint ones: distance 1.
  EXPECT_DOUBLE_EQ(ks_distance({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}), 0.0);
  EXPECT_DOUBLE_EQ(ks_distance({1.0, 2.0}, {10.0, 20.0}), 1.0);
  // Known partial overlap: {1,2} vs {2,3} -> sup |F1 - F2| = 1/2 at 1.
  EXPECT_DOUBLE_EQ(ks_distance({1.0, 2.0}, {2.0, 3.0}), 0.5);
}

TEST(Rng, LogNormalWeibullGeometricMoments) {
  RngStream rng(11);
  double ln_sum = 0.0;
  double wb_sum = 0.0;
  double geo_sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ln_sum += rng.log_normal(0.0, 0.5);
    wb_sum += rng.weibull(2.0, 1.0);
    geo_sum += static_cast<double>(rng.geometric(0.25));
  }
  EXPECT_NEAR(ln_sum / n, std::exp(0.125), 0.02);        // exp(sigma^2/2)
  EXPECT_NEAR(wb_sum / n, std::sqrt(std::numbers::pi) / 2.0,
              0.01);                                     // Gamma(1.5)
  EXPECT_NEAR(geo_sum / n, 4.0, 0.05);                   // 1/p
  EXPECT_EQ(RngStream(3).geometric(1.0), 1u);
  EXPECT_THROW((void)RngStream(3).geometric(0.0), std::invalid_argument);
}

// ----- table ---------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  AsciiTable table({"name", "value"});
  table.add_row({"alpha", "1.5"});
  table.add_row({"b", "22.25"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| name  |"), std::string::npos);
  EXPECT_NE(out.find("  1.5 |"), std::string::npos);  // right-aligned number
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  AsciiTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(4075.0, 0), "4075");
  EXPECT_EQ(format_percent(0.204, 1), "20.4%");
}

// ----- csv -----------------------------------------------------------------

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/aheft_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    csv.write_row({"1", "2"});
    EXPECT_THROW(csv.write_row({"only"}), std::invalid_argument);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

// ----- env -----------------------------------------------------------------

TEST(Env, ScaleRoundTrip) {
  EXPECT_EQ(parse_scale("smoke"), Scale::kSmoke);
  EXPECT_EQ(parse_scale("default"), Scale::kDefault);
  EXPECT_EQ(parse_scale("paper"), Scale::kPaper);
  EXPECT_EQ(parse_scale("full"), Scale::kPaper);
  EXPECT_FALSE(parse_scale("bogus").has_value());
  EXPECT_EQ(to_string(Scale::kPaper), "paper");
}

TEST(Env, ArgParserParsesOptionsAndPositionals) {
  const char* argv[] = {"prog", "--scale=smoke", "--jobs=40", "--flag",
                        "positional"};
  ArgParser args(5, argv);
  EXPECT_EQ(args.scale(), Scale::kSmoke);
  EXPECT_EQ(args.get_int("jobs", 0), 40);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(args.get_double("ccr", 1.5), 1.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Env, ParseUnsignedTakesDigitsOnly) {
  EXPECT_EQ(parse_unsigned("0"), 0u);
  EXPECT_EQ(parse_unsigned("42"), 42u);
  EXPECT_EQ(parse_unsigned("007"), 7u);
  EXPECT_EQ(parse_unsigned("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  // Each of these used to wrap, throw or truncate on its way to a thread
  // count or seed.
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "3abc", "abc", "1.5",
                          "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(parse_unsigned(bad).has_value()) << "'" << bad << "'";
  }
}

// ----- record reader ---------------------------------------------------------

/// The line number a RecordReader's error names right now.
std::size_t error_line(const RecordReader& reader) {
  try {
    reader.fail("probe");
  } catch (const RecordParseError& error) {
    return error.line();
  }
  return 0;
}

/// Every line a RecordReader yields, and the line its errors name once
/// the text is used up.
std::pair<std::vector<std::string>, std::size_t> lines_of(
    std::string_view text) {
  RecordReader reader("test", text);
  std::vector<std::string> lines;
  while (reader.next_line()) {
    lines.emplace_back(reader.line());
    EXPECT_EQ(error_line(reader), lines.size());
  }
  return {lines, error_line(reader)};
}

TEST(RecordReader, SplitsLinesLikeGetline) {
  for (const std::string& text :
       {std::string(""), std::string("\n"), std::string("a"),
        std::string("a\n"), std::string("a\n\nb"), std::string("\n\n"),
        std::string("a\r\nb\r\n"), std::string("x\0y\nz", 5)}) {
    std::istringstream in(text);
    std::vector<std::string> expected;
    for (std::string line; std::getline(in, line);) {
      expected.push_back(line);
    }
    const auto [lines, last] = lines_of(text);
    EXPECT_EQ(lines, expected);
    EXPECT_EQ(last, std::max<std::size_t>(expected.size(), 1));
  }
}

TEST(RecordReader, SplitsFieldsOnCLocaleWhitespace) {
  using namespace std::string_view_literals;
  RecordReader reader("test", " a\tb\v\fc\r\x01" "d e#f #g h\0i"sv);
  ASSERT_TRUE(reader.next_line());
  std::array<std::string_view, 3> fields;
  // All fields are counted; only the first three are stored.
  EXPECT_EQ(reader.split(fields), 7u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
  // A field that starts with the comment byte ends the line; one that
  // only contains it does not.
  std::array<std::string_view, 8> all;
  ASSERT_EQ(reader.split(all, '#'), 5u);
  EXPECT_EQ(all[3], "\x01" "d");
  EXPECT_EQ(all[4], "e#f");
  EXPECT_EQ(reader.split(all, 'z'), 7u);
  EXPECT_EQ(all[6], "h\0i"sv);
}

TEST(RecordReader, NumbersMustFillTheirField) {
  EXPECT_EQ(parse_number<std::int64_t>("-12"), -12);
  EXPECT_EQ(parse_number<double>("inf"),
            std::numeric_limits<double>::infinity());
  for (const char* bad : {"", "5abc", " 5", "+5", "1e999", "0x1p3"}) {
    EXPECT_FALSE(parse_number<double>(bad).has_value()) << bad;
  }
  EXPECT_FALSE(parse_number<std::uint32_t>("4294967296").has_value());

  RecordReader reader("demo", "\n7 x7\n");
  ASSERT_TRUE(reader.next_line());
  ASSERT_TRUE(reader.next_line());
  EXPECT_EQ(reader.number<int>("7", "count"), 7);
  try {
    (void)reader.number<int>("x7", "count");
    FAIL() << "expected RecordParseError";
  } catch (const RecordParseError& error) {
    EXPECT_EQ(error.line(), 2u);
    EXPECT_EQ(error.format(), "demo");
    EXPECT_STREQ(error.what(), "demo line 2: malformed count 'x7'");
  }
}

TEST(RecordWriter, FormatsExactlyAndLikePrintf) {
  for (const double value :
       {0.0, -0.0, 1.0, 120.0, 0.1, 1.0 / 3.0, 1e-300, 1e300, 123456789e7,
        5e-324, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.17g", value);
    EXPECT_EQ(format_significant(value), expected);
    std::snprintf(expected, sizeof(expected), "%g", value);
    EXPECT_EQ(format_significant(value, 6), expected);
    if (std::isfinite(value)) {
      EXPECT_EQ(parse_number<double>(format_significant(value)), value);
    }
  }
  RecordWriter writer;
  writer.field("job").field(std::int64_t{-1}).field(2.5).end_record();
  writer.field(std::uint32_t{7}).end_record();
  EXPECT_EQ(writer.take(), "job -1 2.5\n7\n");
}

int g_counted_reads = 0;

std::string counted_read(const std::string& path) {
  ++g_counted_reads;
  return read_text_file(path, "test");
}

TEST(RecordReader, ReadOnceParsesEachPathOnce) {
  const std::string path = ::testing::TempDir() + "/read_once.txt";
  write_text_file(path, "test", "first");
  EXPECT_EQ(read_once<&counted_read>(path), "first");
  // A rewrite mid-process keeps serving the first parse.
  write_text_file(path, "test", "second");
  EXPECT_EQ(read_once<&counted_read>(path), "first");
  EXPECT_EQ(g_counted_reads, 1);
  EXPECT_EQ(read_text_file(path, "test"), "second");
  // A file that cannot be read throws each time and caches nothing.
  const std::string missing = ::testing::TempDir() + "/no/such/file";
  EXPECT_THROW((void)read_once<&counted_read>(missing), std::runtime_error);
  EXPECT_THROW((void)read_once<&counted_read>(missing), std::runtime_error);
  EXPECT_EQ(g_counted_reads, 3);
  std::remove(path.c_str());
}

// ----- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(&pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForInlineWithoutPool) {
  std::vector<int> hits(50, 0);
  parallel_for(nullptr, hits.size(), [&hits](std::size_t i) { hits[i] = 1; });
  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(&pool, 100,
                   [](std::size_t i) {
                     if (i == 37) {
                       throw std::runtime_error("boom");
                     }
                   }),
      std::runtime_error);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  parallel_for(&pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForPropagatesExceptionWithUnitChunks) {
  // chunk_size=1 is the sharded simulator's epoch-barrier configuration:
  // every index is its own pool task, and a throwing shard drain must
  // still surface at the barrier after the other chunks settle.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(
                   &pool, 16,
                   [&ran](std::size_t i) {
                     ran.fetch_add(1);
                     if (i == 3) {
                       throw std::runtime_error("shard failed");
                     }
                   },
                   /*chunk_size=*/1),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPool, WaitIdleCoversTasksSubmittedByTasks) {
  // A task that fans out further tasks (rescheduling cascades) must be
  // fully settled — children included — when wait_idle() returns.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &done] {
      pool.submit([&pool, &done] {
        pool.submit([&done] { done.fetch_add(1); });
        done.fetch_add(1);
      });
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 24);
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  // The destructor contract: outstanding tasks run before the workers
  // join, so work queued behind a slow task is never dropped.
  std::atomic<int> completed{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&completed] { completed.fetch_add(1); });
    }
    // No wait_idle(): destruction itself must flush the queue.
  }
  EXPECT_EQ(completed.load(), 32);
}

}  // namespace
}  // namespace aheft
