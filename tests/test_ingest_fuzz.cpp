// Differential fuzzer for the record readers. Seeded mutants of the SWF
// fixtures (tests/data/sample_*.swf) and the gridtrace fixture
// (tests/data/sample.gridtrace) go through the shipped readers and the
// reference readers in tests/reference/. The two must agree: both accept
// with `==` results, or both reject with the same line() and what().
// Every accepted mutant must also round-trip parse -> write -> parse, and
// the shipped writers must print what the reference writers print.
//
// Two classes of input are read differently on purpose, and each is
// checked exactly rather than skipped:
//   (a) SWF: a line that is blank, or a ';' comment, except for '\v' or
//       '\f' before its first other byte. The shipped reader treats those
//       like the ' ', '\t' and '\r' it always skipped; the reference
//       rejected such a line as a record of 0 fields. The oracle runs on
//       the mutant with those leading '\v'/'\f' turned into spaces.
//   (b) gridtrace: a name holding '#' or a control byte. The reference
//       accepted it and its writer rewrote the byte to '_', so it could
//       not round-trip; the shipped reader rejects it on its line. When
//       that error fires on line L, the reference must accept the first L
//       lines and take an offending name from line L.
// The mutant count is fixed, so the test runs the same inputs every time.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "archive/swf_reader.h"
#include "reference/reference_readers.h"
#include "support/record_reader.h"
#include "support/rng.h"
#include "traces/trace_format.h"

namespace aheft {
namespace {

constexpr std::uint64_t kSeed = 0x5eed2007;
constexpr std::size_t kMutantsPerFixture = 2000;

std::string fixture(const std::string& name) {
  return read_text_file(std::string(AHEFT_TEST_DATA_DIR) + "/" + name,
                        "fixture");
}

/// Printable form of a mutant for failure messages.
std::string escaped(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '\n' || (byte >= 0x20 && byte < 0x7f && c != '\\')) {
      out += c;
    } else {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\x%02x", byte);
      out += buffer;
    }
  }
  return out;
}

/// One reader's verdict on one input.
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::size_t line = 0;
  std::string what;

  bool operator==(const Outcome&) const = default;

  [[nodiscard]] std::string describe() const {
    return value ? "accepted"
                 : "rejected at line " + std::to_string(line) + ": " + what;
  }
};

template <typename Error, typename Parse>
auto run(Parse parse, std::string_view text) {
  using T = decltype(parse(text));
  try {
    return Outcome<T>{parse(text), 0, ""};
  } catch (const Error& error) {
    return Outcome<T>{std::nullopt, error.line(), error.what()};
  }
}

Outcome<archive::SwfLog> shipped_swf(std::string_view text) {
  return run<RecordParseError>(archive::read_swf_string, text);
}
Outcome<archive::SwfLog> reference_swf(std::string_view text) {
  return run<reference::SwfParseError>(reference::read_swf_string, text);
}
Outcome<traces::GridTrace> shipped_trace(std::string_view text) {
  return run<RecordParseError>(traces::read_trace_string, text);
}
Outcome<traces::GridTrace> reference_trace(std::string_view text) {
  return run<reference::TraceParseError>(reference::read_trace_string, text);
}

// ------------------------------------------------------------ mutator --

constexpr std::array<std::string_view, 17> kHugeNumbers = {
    "1e308",  "1.7976931348623157e308", "1e309",     "-1e309",
    "1e-320", "99999999999999999999",   "-1",        "-0",
    "0.5",    "-9223372036854775808",   "-9223372036854775809",
    "9223372036854775807",              "4294967295", "4294967296",
    "-5",     "00000000000000000000000000000007", "1e18"};
constexpr std::array<std::string_view, 8> kNonFinite = {
    "nan", "-nan", "NaN", "inf", "-inf", "infinity", "INF", "nan(7)"};
constexpr std::array<char, 8> kOddBytes = {'\v', '\f', '\t', '\r',
                                           '\0', ';',  '#',  '\x01'};

/// Seeded structure-aware mutations: byte flips, truncation, field
/// duplication and deletion, huge and non-finite numbers, CRLF, tabs,
/// '\v'/'\f', NUL and other control bytes, and ';'/'#' placement.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string text) {
    const std::size_t rounds = 1 + rng_.index(4);
    for (std::size_t i = 0; i < rounds; ++i) {
      mutate_once(text);
    }
    return text;
  }

 private:
  std::size_t position(const std::string& text) {
    return rng_.index(text.size() + 1);
  }

  /// Start of a random line.
  std::size_t line_start(const std::string& text) {
    const std::size_t at = position(text);
    const std::size_t newline = text.rfind('\n', at == 0 ? 0 : at - 1);
    return at == 0 || newline == std::string::npos ? 0 : newline + 1;
  }

  /// [begin, end) of the field at or after a random position; begin ==
  /// end when there is none.
  std::pair<std::size_t, std::size_t> field(const std::string& text) {
    std::size_t begin = text.find_first_not_of(kFieldSpace, position(text));
    if (begin == std::string::npos) {
      return {text.size(), text.size()};
    }
    while (begin > 0 &&
           kFieldSpace.find(text[begin - 1]) == std::string_view::npos) {
      --begin;
    }
    const std::size_t end =
        std::min(text.find_first_of(kFieldSpace, begin), text.size());
    return {begin, end};
  }

  template <typename Pool>
  typename Pool::value_type pick(const Pool& pool) {
    return pool[rng_.index(pool.size())];
  }

  void mutate_once(std::string& text) {
    const std::size_t kind = rng_.index(14);
    switch (kind) {
      case 0: {  // flip one bit of one byte
        if (!text.empty()) {
          text[rng_.index(text.size())] ^=
              static_cast<char>(1u << rng_.index(8));
        }
        break;
      }
      case 1:  // truncate
        text.resize(position(text));
        break;
      case 2: {  // duplicate a field
        const auto [begin, end] = field(text);
        text.insert(end, " " + text.substr(begin, end - begin));
        break;
      }
      case 3: {  // delete a field
        const auto [begin, end] = field(text);
        text.erase(begin, end - begin);
        break;
      }
      case 4: {  // huge, tiny or negative number
        const auto [begin, end] = field(text);
        text.replace(begin, end - begin, pick(kHugeNumbers));
        break;
      }
      case 5: {  // nan / inf
        const auto [begin, end] = field(text);
        text.replace(begin, end - begin, pick(kNonFinite));
        break;
      }
      case 6: {  // CRLF line ends, everywhere or on one line
        const bool all = rng_.bernoulli(0.5);
        for (std::size_t at = text.find('\n', all ? 0 : position(text));
             at != std::string::npos; at = text.find('\n', at + 2)) {
          text.insert(at, "\r");
          if (!all) {
            break;
          }
        }
        break;
      }
      case 7: {  // a separator becomes a tab, '\v' or '\f'
        const std::size_t at = text.find(' ', position(text));
        if (at != std::string::npos) {
          text[at] = "\t\v\f"[rng_.index(3)];
        }
        break;
      }
      case 8:    // an odd byte at the start of a line
      case 9: {  // an odd byte anywhere, inside fields included
        // Draws are sequenced one per statement, so every compiler makes
        // the same mutants.
        const std::size_t at = kind == 8 ? line_start(text) : position(text);
        text.insert(at, 1, pick(kOddBytes));
        break;
      }
      case 10: {  // a line of '\v'/'\f' padding, alone or before a comment
        const char blank = rng_.bernoulli(0.5) ? '\v' : '\f';
        const std::string pad(1 + rng_.index(2), blank);
        const std::size_t at = line_start(text);
        text.insert(at, rng_.bernoulli(0.5) ? pad + "\n" : pad);
        break;
      }
      case 11: {  // duplicate or delete a whole line
        const std::size_t begin = line_start(text);
        const std::size_t end =
            std::min(text.find('\n', begin), text.size() - 1) + 1;
        if (begin < text.size()) {
          if (rng_.bernoulli(0.5)) {
            text.insert(end, text.substr(begin, end - begin));
          } else {
            text.erase(begin, end - begin);
          }
        }
        break;
      }
      case 12:  // a random byte anywhere
        if (!text.empty()) {
          text[rng_.index(text.size())] = static_cast<char>(rng_.index(256));
        }
        break;
      default:  // drop the final newline or add a blank line
        if (!text.empty() && text.back() == '\n' && rng_.bernoulli(0.5)) {
          text.pop_back();
        } else {
          text.insert(line_start(text), "\n");
        }
        break;
    }
  }

  RngStream rng_;
};

// ---------------------------------------------------------------- SWF --

/// Class (a): every line's leading '\v'/'\f' become spaces.
std::string blank_leading_vf(std::string text) {
  bool leading = true;
  for (char& c : text) {
    if (c == '\n') {
      leading = true;
    } else if (kFieldSpace.find(c) == std::string_view::npos) {
      leading = false;
    } else if (leading && (c == '\v' || c == '\f')) {
      c = ' ';
    }
  }
  return text;
}

struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t exempt = 0;  ///< class (a) for SWF, (b) for gridtrace
};

::testing::AssertionResult check_swf(const std::string& text, Tally& tally) {
  const Outcome<archive::SwfLog> got = shipped_swf(text);
  const std::string oracle_text = blank_leading_vf(text);
  const Outcome<archive::SwfLog> want = reference_swf(oracle_text);
  if (!(got == want)) {
    return ::testing::AssertionFailure()
           << "mutant:\n" << escaped(text) << "\nshipped: " << got.describe()
           << "\nreference: " << want.describe();
  }
  if (oracle_text != text && !(reference_swf(text) == want)) {
    ++tally.exempt;
  }
  if (!got.value) {
    ++tally.rejected;
    return ::testing::AssertionSuccess();
  }
  ++tally.accepted;
  const std::string written = archive::write_swf_string(*got.value);
  if (written != reference::write_swf_string(*got.value)) {
    return ::testing::AssertionFailure()
           << "writers differ on the log read from:\n" << escaped(text);
  }
  const Outcome<archive::SwfLog> reread = shipped_swf(written);
  if (!(reread.value == got.value) ||
      archive::write_swf_string(*reread.value) != written) {
    return ::testing::AssertionFailure()
           << "no exact round trip for:\n" << escaped(text)
           << "\nwritten:\n" << escaped(written) << "\n"
           << reread.describe();
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------- gridtrace --

bool dirty(const std::string& name) {
  return std::any_of(name.begin(), name.end(), [](char c) {
    return static_cast<unsigned char>(c) <= ' ' || c == '#';
  });
}

/// Names the reference reader accepted that a write would rewrite.
std::size_t dirty_names(const Outcome<traces::GridTrace>& outcome) {
  if (!outcome.value) {
    return 0;
  }
  std::size_t count = dirty(outcome.value->name) ? 1 : 0;
  for (const auto& resource : outcome.value->resources) {
    count += dirty(resource.name) ? 1 : 0;
  }
  for (const auto& job : outcome.value->jobs) {
    count += dirty(job.name) ? 1 : 0;
  }
  return count;
}

/// The first `lines` lines of `text`, with their line ends.
std::string_view first_lines(std::string_view text, std::size_t lines) {
  std::size_t end = 0;
  for (std::size_t i = 0; i < lines && end < text.size(); ++i) {
    end = std::min(text.find('\n', end), text.size() - 1) + 1;
  }
  return text.substr(0, end);
}

/// Class (b): the shipped reader refused a name on line L that the
/// reference read from line L.
bool refused_dirty_name(std::string_view text,
                        const Outcome<traces::GridTrace>& got) {
  if (got.value ||
      got.what.find("names must not contain '#' or control bytes") ==
          std::string::npos) {
    return false;
  }
  const auto through = reference_trace(first_lines(text, got.line));
  const auto before = reference_trace(first_lines(text, got.line - 1));
  return through.value && dirty_names(through) > dirty_names(before);
}

::testing::AssertionResult check_trace(const std::string& text,
                                       Tally& tally) {
  const Outcome<traces::GridTrace> got = shipped_trace(text);
  const Outcome<traces::GridTrace> want = reference_trace(text);
  if (!(got == want)) {
    if (refused_dirty_name(text, got)) {
      ++tally.exempt;
      ++tally.rejected;
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "mutant:\n" << escaped(text) << "\nshipped: " << got.describe()
           << "\nreference: " << want.describe();
  }
  if (!got.value) {
    ++tally.rejected;
    return ::testing::AssertionSuccess();
  }
  ++tally.accepted;
  const std::string written = traces::write_trace_string(*got.value);
  if (written != reference::write_trace_string(*got.value)) {
    return ::testing::AssertionFailure()
           << "writers differ on the trace read from:\n" << escaped(text);
  }
  const Outcome<traces::GridTrace> reread = shipped_trace(written);
  if (!(reread.value == got.value) ||
      traces::write_trace_string(*reread.value) != written) {
    return ::testing::AssertionFailure()
           << "no exact round trip for:\n" << escaped(text)
           << "\nwritten:\n" << escaped(written) << "\n"
           << reread.describe();
  }
  return ::testing::AssertionSuccess();
}

// -------------------------------------------------------------- tests --

template <typename Check>
Tally fuzz(const std::string& name, Check check) {
  const std::string seed_text = fixture(name);
  Tally tally;
  EXPECT_TRUE(check(seed_text, tally)) << "unmutated " << name;
  Mutator mutator(mix64(kSeed, hash64(name)));
  for (std::size_t i = 0; i < kMutantsPerFixture; ++i) {
    const ::testing::AssertionResult result =
        check(mutator.mutate(seed_text), tally);
    if (!result) {
      ADD_FAILURE() << name << " mutant " << i << ": " << result.message();
      break;  // one counterexample is enough to read
    }
  }
  std::printf("%s: %zu accepted, %zu rejected, %zu exempt\n", name.c_str(),
              tally.accepted, tally.rejected, tally.exempt);
  // A fuzzer that never accepts or never rejects compares nothing.
  EXPECT_GT(tally.accepted, 0u) << name;
  EXPECT_GT(tally.rejected, 0u) << name;
  return tally;
}

TEST(IngestFuzz, SwfMatchesReference) {
  std::size_t exempt = 0;
  for (const char* name : {"sample_clean.swf", "sample_malformed.swf"}) {
    exempt += fuzz(name, check_swf).exempt;
  }
  // The mutator does reach class (a), so its exemption is exercised.
  EXPECT_GT(exempt, 0u);
}

TEST(IngestFuzz, GridtraceMatchesReference) {
  // The mutator does reach class (b), so its exemption is exercised.
  EXPECT_GT(fuzz("sample.gridtrace", check_trace).exempt, 0u);
}

TEST(IngestFuzz, ExemptClassesAreExactlyTheDocumentedOnes) {
  // (a): '\f'/'\v'-only and '\v'-indented comment lines.
  const std::string swf =
      "\f\n\v; MaxNodes: 4\n"
      "1 0 5 120 2 -1 -1 2 300 -1 1 101 10 7 1 -1 -1 -1\n";
  const auto reference = reference_swf(swf);
  ASSERT_FALSE(reference.value);
  EXPECT_EQ(reference.what,
            "swf line 1: expected 18 fields (SWF job record), got 0");
  const auto shipped = shipped_swf(swf);
  ASSERT_TRUE(shipped.value);
  EXPECT_EQ(shipped.value->header.max_nodes(), 4u);
  EXPECT_EQ(shipped.value->jobs.size(), 1u);

  // (b): the reference read "a#b" and wrote it back as "a_b".
  const std::string trace = "gridtrace v1 t\nresource 0 0 inf a#b\n";
  const auto accepted = reference_trace(trace);
  ASSERT_TRUE(accepted.value);
  EXPECT_EQ(reference::read_trace_string(
                reference::write_trace_string(*accepted.value))
                .resources[0]
                .name,
            "a_b");
  const auto refused = shipped_trace(trace);
  ASSERT_FALSE(refused.value);
  EXPECT_EQ(refused.line, 2u);
  EXPECT_TRUE(refused_dirty_name(trace, refused));
}

}  // namespace
}  // namespace aheft
