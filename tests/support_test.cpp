// Unit tests for the support subsystem: RNG streams, special functions,
// CSV, options, logging and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/csv.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/math.h"
#include "support/options.h"
#include "support/rng.h"
#include "support/thread_pool.h"

#if defined(__SANITIZE_ADDRESS__)
// A pool helper that touched a parallel_for frame after the call returned
// would read dead stack, which ASan reports only with fake stacks on.
extern "C" const char* __asan_default_options() {
  return "detect_stack_use_after_return=1";
}
#endif

namespace mood::support {
namespace {

// ---------------------------------------------------------------- RNG --

TEST(RngStream, SameSeedSameSequence) {
  RngStream a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngStream, KnownAnswerSequence) {
  // The xoshiro256** step and the 53-bit conversion are pinned: every LPPM
  // output, and so every published figure, depends on these exact values.
  RngStream raw(42);
  EXPECT_EQ(raw.next(), 0x5c8961e1f2055d33ULL);
  EXPECT_EQ(raw.next(), 0xe182e8e848466886ULL);
  EXPECT_EQ(raw.next(), 0x9f7313650e290a18ULL);
  EXPECT_EQ(raw.next(), 0xe6c0f551804ef0bbULL);
  RngStream unit(42);
  EXPECT_EQ(unit.uniform(), 0x1.72258787c8156p-2);
  EXPECT_EQ(unit.uniform(), 0x1.c305d1d0908cdp-1);
  EXPECT_EQ(unit.uniform(), 0x1.3ee626ca1c521p-1);
  EXPECT_EQ(unit.uniform(), 0x1.cd81eaa3009dep-1);
  RngStream ranged(42);
  EXPECT_EQ(ranged.uniform(-3.0, 5.0), -0x1.bb4f0f06fd54p-4);
  EXPECT_EQ(ranged.uniform(-3.0, 5.0), 0x1.0305d1d0908cdp+2);
}

TEST(RngStream, DifferentSeedsDiverge) {
  RngStream a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(RngStream, ForkIsDeterministicAndLabelled) {
  const RngStream root(42);
  RngStream a = root.fork("alpha");
  RngStream a2 = root.fork("alpha");
  RngStream b = root.fork("beta");
  EXPECT_EQ(a.next(), a2.next());
  EXPECT_NE(a.seed(), b.seed());
}

TEST(RngStream, ForkWithIndexGivesIndependentStreams) {
  const RngStream root(42);
  EXPECT_NE(root.fork("x", 0).next(), root.fork("x", 1).next());
}

TEST(RngStream, ForkDoesNotAdvanceParent) {
  RngStream root(7);
  RngStream copy = root;
  (void)root.fork("child");
  EXPECT_EQ(root.next(), copy.next());
}

TEST(RngStream, UniformWithinBounds) {
  RngStream rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngStream, UniformRejectsInvertedBounds) {
  RngStream rng(9);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
}

TEST(RngStream, UniformIndexCoversRangeUniformly) {
  RngStream rng(11);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) counts[rng.uniform_index(10)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 10, draws / 10 * 0.15);
  }
}

TEST(RngStream, UniformIndexRejectsZero) {
  RngStream rng(1);
  EXPECT_THROW(rng.uniform_index(0), PreconditionError);
}

TEST(RngStream, NormalMomentsMatch) {
  RngStream rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngStream, NormalScaled) {
  RngStream rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
}

TEST(RngStream, ExponentialMeanMatches) {
  RngStream rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
}

TEST(RngStream, BernoulliFrequency) {
  RngStream rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_THROW(rng.bernoulli(1.5), PreconditionError);
}

TEST(SeedDerivation, StableAndLabelSensitive) {
  EXPECT_EQ(derive_seed(1, "a"), derive_seed(1, "a"));
  EXPECT_NE(derive_seed(1, "a"), derive_seed(1, "b"));
  EXPECT_NE(derive_seed(1, "a", 0), derive_seed(1, "a", 1));
  EXPECT_NE(derive_seed(1, "a"), derive_seed(2, "a"));
}

// ----------------------------------------------------------- Lambert W --

TEST(LambertW, SatisfiesDefiningEquation) {
  // W_{-1}(x) e^{W_{-1}(x)} = x over a log-spaced sweep of the domain.
  for (double x = -0.3678; x < -1e-10; x /= 1.7) {
    const double w = lambert_w_minus1(x);
    EXPECT_LE(w, -1.0);
    EXPECT_NEAR(w * std::exp(w), x, std::abs(x) * 1e-9) << "x=" << x;
  }
}

TEST(LambertW, BranchPoint) {
  EXPECT_NEAR(lambert_w_minus1(-1.0 / std::exp(1.0)), -1.0, 1e-6);
}

TEST(LambertW, KnownValue) {
  // W_{-1}(-2 e^{-2}) = -2 by construction.
  EXPECT_NEAR(lambert_w_minus1(-2.0 * std::exp(-2.0)), -2.0, 1e-9);
  EXPECT_NEAR(lambert_w_minus1(-5.0 * std::exp(-5.0)), -5.0, 1e-9);
}

TEST(LambertW, RejectsOutsideDomain) {
  EXPECT_THROW(lambert_w_minus1(0.0), PreconditionError);
  EXPECT_THROW(lambert_w_minus1(0.5), PreconditionError);
  EXPECT_THROW(lambert_w_minus1(-0.5), PreconditionError);
  EXPECT_THROW(lambert_w_minus1(std::nan("")), PreconditionError);
  // Subnormals: e^w underflows before Halley converges (-denorm_min came
  // out NaN, -1e-320 with a relative residual of 0.1), so the domain ends
  // at -DBL_MIN, where the residual is still below 1e-12.
  constexpr double kMin = std::numeric_limits<double>::min();
  const double w = lambert_w_minus1(-kMin);
  EXPECT_LT(std::abs(w * std::exp(w) + kMin), kMin * 1e-12);
  const std::string message =
      "lambert_w_minus1: argument outside [-1/e, -DBL_MIN]";
  for (const double x : {-std::numeric_limits<double>::denorm_min(), -1e-320,
                         -kMin / 2.0, -0.0}) {
    SCOPED_TRACE(x);
    try {
      (void)lambert_w_minus1(x);
      ADD_FAILURE() << "scalar form accepted it";
    } catch (const PreconditionError& e) {
      EXPECT_EQ(e.what(), message);
    }
    // The span form rejects it with the same message, wherever it sits,
    // before writing any output.
    const std::vector<double> xs = {-0.2, -0.1, x, -0.3, -0.05};
    std::vector<double> out(xs.size(), 7.0);
    try {
      lambert_w_minus1(xs, out);
      ADD_FAILURE() << "span form accepted it";
    } catch (const PreconditionError& e) {
      EXPECT_EQ(e.what(), message);
    }
    EXPECT_EQ(out, std::vector<double>(xs.size(), 7.0));
  }
  std::vector<double> two(2);
  EXPECT_THROW(lambert_w_minus1(std::vector<double>{-0.2, -0.1, -0.3}, two),
               PreconditionError);
}

/// W_{-1} as the scalar loop computed it before the lanes, verbatim, with
/// the Halley steps it took: the bit-for-bit oracle of both forms.
double ReferenceLambertW(double x, int* iterations = nullptr) {
  constexpr double kMinusOneOverE = -0.367879441171442321595;  // -1/e
  if (iterations != nullptr) *iterations = 0;

  // At the branch point the value is exactly -1.
  if (x <= kMinusOneOverE + 1e-16) return -1.0;

  // Initial guess. Near the branch point use the square-root expansion
  // w = -1 - p - p^2/3 with p = sqrt(2(1 + e x)); elsewhere the asymptotic
  // log-log series w = L1 - L2 + L2/L1.
  double w;
  const double p2 = 2.0 * (1.0 + std::exp(1.0) * x);
  if (p2 < 0.25) {
    const double p = -std::sqrt(p2);
    w = -1.0 + p - p2 / 6.0;
  } else {
    const double l1 = std::log(-x);
    const double l2 = std::log(-l1);
    w = l1 - l2 + l2 / l1;
  }

  // Halley iterations.
  for (int iter = 0; iter < 32; ++iter) {
    if (iterations != nullptr) *iterations = iter + 1;
    const double ew = std::exp(w);
    const double f = w * ew - x;
    const double denominator =
        ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0);
    const double step = f / denominator;
    w -= step;
    if (std::abs(step) < 1e-14 * (1.0 + std::abs(w))) break;
  }
  return w;
}

/// The W_{-1} argument GeoI passes for a uniform draw p.
double geoi_argument(double p) {
  if (p > 1.0 - 1e-12) p = 1.0 - 1e-12;
  return (p - 1.0) / std::exp(1.0);
}

/// Both forms against the oracle, with ==: the span form over all of x
/// at once (so its lanes mix whatever x holds) and the scalar form per
/// element.
void expect_lanes_match_reference(const std::vector<double>& x) {
  std::vector<double> lanes(x.size());
  lambert_w_minus1(x, lanes);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double expected = ReferenceLambertW(x[i]);
    ASSERT_EQ(lanes[i], expected) << "i=" << i << " x=" << x[i];
    ASSERT_EQ(lambert_w_minus1(x[i]), expected) << "i=" << i << " x=" << x[i];
  }
}

TEST(LambertW, LanesMatchScalarBitForBit) {
  // 2^20 seed-7 arguments drawn as GeoI draws them (bearing, then p).
  RngStream rng(7);
  std::vector<double> draws(std::size_t{1} << 20);
  int capped = 0;
  for (double& x : draws) {
    (void)rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    x = geoi_argument(rng.uniform());
    int iterations = 0;
    (void)ReferenceLambertW(x, &iterations);
    capped += iterations == 32;
  }
  EXPECT_GE(capped, 1) << "no draw reached the 32-step cap";
  expect_lanes_match_reference(draws);

  // The branch point and its neighbourhood (returns -1 without a step).
  constexpr double kMinusOneOverE = -0.367879441171442321595;
  std::vector<double> branch = {kMinusOneOverE,
                                std::nextafter(kMinusOneOverE, 0.0),
                                kMinusOneOverE + 1e-16, kMinusOneOverE + 2e-16,
                                kMinusOneOverE + 1e-12};
  expect_lanes_match_reference(branch);

  // p2 = 2 (1 + e x) < 0.25: the square-root initial guess, and its edge.
  std::vector<double> near_branch;
  for (double p = 1e-15; p < 0.2; p *= 1.37) {
    near_branch.push_back(geoi_argument(p));
  }
  expect_lanes_match_reference(near_branch);

  // Near-branch draws that run all 32 Halley steps, each in a block with
  // lanes that leave after a few: a lane's cap and exit are its own.
  const double capped_x = geoi_argument(1.0376658482247336e-05);
  int iterations = 0;
  (void)ReferenceLambertW(capped_x, &iterations);
  ASSERT_EQ(iterations, 32);
  const double fast_x = geoi_argument(0.5);
  for (std::size_t slot = 0; slot < 4; ++slot) {
    std::vector<double> block(4, fast_x);
    block[slot] = capped_x;
    expect_lanes_match_reference(block);
  }
  expect_lanes_match_reference(
      {fast_x, capped_x, kMinusOneOverE, -1e-300, capped_x, fast_x});

  // Every span length 0..9: full groups of lanes and every remainder (from
  // length 4 on, the span holds draw 950, which runs 32 steps).
  (void)ReferenceLambertW(draws[950], &iterations);
  ASSERT_EQ(iterations, 32);
  for (std::size_t n = 0; n <= 9; ++n) {
    SCOPED_TRACE(n);
    expect_lanes_match_reference(
        std::vector<double>(draws.begin() + 947, draws.begin() + 947 + n));
  }
  std::vector<double> none;
  lambert_w_minus1(none, none);
}

// ----------------------------------------------------------------- CSV --

TEST(Csv, ParsesPlainFields) {
  const auto fields = parse_csv_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(Csv, ParsesQuotedFieldsWithCommasAndQuotes) {
  const auto fields = parse_csv_line(R"(x,"a,b","he said ""hi""")");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "a,b");
  EXPECT_EQ(fields[2], "he said \"hi\"");
}

TEST(Csv, ParsesEmptyFields) {
  const auto fields = parse_csv_line(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(Csv, StripsCarriageReturn) {
  const auto fields = parse_csv_line("a,b\r");
  EXPECT_EQ(fields[1], "b");
}

TEST(Csv, ToleratesCrlfLineEndings) {
  // Windows-exported event files: exactly one trailing \r per line, in
  // every position a final field can end — bare, empty, and quoted.
  EXPECT_EQ(parse_csv_line("a,b,c\r"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(parse_csv_line("a,\r"), (std::vector<std::string>{"a", ""}));
  EXPECT_EQ(parse_csv_line("a,\"b\"\r"),
            (std::vector<std::string>{"a", "b"}));
}

TEST(Csv, PreservesInteriorCarriageReturns) {
  // Only the line-terminating \r is CRLF noise; a \r inside a field (or a
  // quoted one) is data and must survive the round trip.
  EXPECT_EQ(parse_csv_line("a\rb,c\r"),
            (std::vector<std::string>{"a\rb", "c"}));
  EXPECT_EQ(parse_csv_line("\"a\rb\",c"),
            (std::vector<std::string>{"a\rb", "c"}));
}

TEST(Csv, ReadsCrlfStreams) {
  std::stringstream buffer("user,lat\r\nu1,45.5\r\n\r\nu2,46.0\r\n");
  const auto rows = read_csv(buffer);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"user", "lat"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"u1", "45.5"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"u2", "46.0"}));
}

TEST(Csv, RejectsUnterminatedQuote) {
  EXPECT_THROW(parse_csv_line("\"unterminated"), IoError);
}

TEST(Csv, RejectsEmbeddedNulBytes) {
  // A NUL can only arrive from binary garbage spliced into a text file;
  // it must fail loudly rather than silently terminating the field.
  const std::string nul_plain{"a,b\0c,d", 7};
  EXPECT_THROW(parse_csv_line(nul_plain), IoError);
  const std::string nul_quoted{"a,\"b\0c\"", 7};
  EXPECT_THROW(parse_csv_line(nul_quoted), IoError);
  const std::string nul_leading{"\0a,b", 4};
  EXPECT_THROW(parse_csv_line(nul_leading), IoError);
}

TEST(Csv, RejectsOverlongFields) {
  // A missing delimiter (or quote desync) turns the rest of a file into
  // one field; the cap stops that before it becomes a giant allocation.
  const std::string overlong(kMaxCsvFieldBytes + 1, 'x');
  EXPECT_THROW(parse_csv_line(overlong), IoError);
  EXPECT_THROW(parse_csv_line("ok," + overlong), IoError);
  EXPECT_THROW(parse_csv_line("\"" + overlong + "\""), IoError);
  // One byte under the cap still parses: the limit is on field length,
  // not line length.
  const std::string max_field(kMaxCsvFieldBytes - 1, 'y');
  const auto fields = parse_csv_line("a," + max_field);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1].size(), kMaxCsvFieldBytes - 1);
}

TEST(Csv, FormatQuotesOnlyWhenNeeded) {
  EXPECT_EQ(format_csv_line({"a", "b c", "d,e", "f\"g"}),
            "a,b c,\"d,e\",\"f\"\"g\"");
}

TEST(Csv, QuotesCarriageReturns) {
  // A last field ending in '\r' used to lose it: unquoted, it ended the
  // line, and parse_csv_line strips one trailing '\r' (CRLF tolerance).
  EXPECT_EQ(format_csv_line({"u1", "x\r"}), "u1,\"x\r\"");
  const std::vector<std::string> fields{"u1", "x\r"};
  EXPECT_EQ(parse_csv_line(format_csv_line(fields)), fields);
}

TEST(Csv, FormatThenParseRoundTripsRandomFields) {
  // parse_csv_line(format_csv_line(f)) == f for any non-empty field list
  // without '\n' or NUL, drawn here from the bytes that steer quoting.
  const std::string alphabet = "ab ,\"\r\t;'\\x\xe9";
  RngStream rng(4181);
  for (int it = 0; it < 2000; ++it) {
    std::vector<std::string> fields(1 + rng.uniform_index(6));
    for (auto& field : fields) {
      for (std::size_t n = rng.uniform_index(8); n > 0; --n) {
        field.push_back(alphabet[rng.uniform_index(alphabet.size())]);
      }
    }
    ASSERT_EQ(parse_csv_line(format_csv_line(fields)), fields)
        << "iteration " << it;
  }
}

TEST(Csv, RoundTripThroughStreams) {
  const std::vector<std::vector<std::string>> rows{
      {"user", "lat", "note"},
      {"u1", "45.5", "plain"},
      {"u2", "46.1", "with,comma"},
  };
  std::stringstream buffer;
  write_csv(buffer, rows);
  EXPECT_EQ(read_csv(buffer), rows);
}

TEST(Csv, ReadSkipsBlankLines) {
  std::stringstream buffer("a,b\n\n\nc,d\n");
  EXPECT_EQ(read_csv(buffer).size(), 2u);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/definitely/missing.csv"), IoError);
}

// ------------------------------------------------------------- Options --

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--scale=0.5", "--verbose", "positional"};
  const Options options(4, argv);
  EXPECT_EQ(options.get_double("scale", 1.0), 0.5);
  EXPECT_TRUE(options.get_bool("verbose", false));
  ASSERT_EQ(options.positional().size(), 1u);
  EXPECT_EQ(options.positional()[0], "positional");
}

TEST(Options, FallsBackToDefaults) {
  const Options options;
  EXPECT_EQ(options.get_string("missing", "dft"), "dft");
  EXPECT_EQ(options.get_int("missing", 7), 7);
  EXPECT_FALSE(options.get_bool("missing", false));
}

TEST(Options, EnvironmentFallback) {
  ::setenv("MOOD_TEST_OPTION_X", "42", 1);
  const Options options;
  EXPECT_EQ(options.get_int("test-option-x", 0), 42);
  ::unsetenv("MOOD_TEST_OPTION_X");
}

TEST(Options, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--count=abc", "--ratio=1.2.3", "--flag=maybe"};
  const Options options(4, argv);
  EXPECT_THROW(static_cast<void>(options.get_int("count", 0)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(options.get_double("ratio", 0.0)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(options.get_bool("flag", false)),
               PreconditionError);
}

TEST(Options, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=0", "--c=false"};
  const Options options(4, argv);
  EXPECT_TRUE(options.get_bool("a", false));
  EXPECT_FALSE(options.get_bool("b", true));
  EXPECT_FALSE(options.get_bool("c", true));
}

TEST(Options, ExposesCommandLineKeys) {
  const char* argv[] = {"prog", "--beta=1", "--alpha", "pos"};
  const Options options(4, argv);
  EXPECT_EQ(options.keys(), (std::vector<std::string>{"alpha", "beta"}));
}

// --------------------------------------------------------------- FlagSet --

FlagSet make_flags() {
  FlagSet flags("prog test", "A test command.");
  flags.add_string("name", "default-name", "a string");
  flags.add_double("ratio", 0.5, "a number");
  flags.add_int("count", 4, "an integer");
  flags.add_bool("fast", false, "a boolean");
  return flags;
}

TEST(FlagSet, DefaultsAndOverrides) {
  FlagSet flags = make_flags();
  const char* argv[] = {"prog", "--ratio=0.75", "--fast", "input.csv"};
  flags.parse(4, argv);
  EXPECT_EQ(flags.get_string("name"), "default-name");
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.75);
  EXPECT_EQ(flags.get_int("count"), 4);
  EXPECT_TRUE(flags.get_bool("fast"));
  EXPECT_FALSE(flags.get_bool("help"));  // auto-registered
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
}

TEST(FlagSet, RejectsUnknownFlag) {
  FlagSet flags = make_flags();
  const char* argv[] = {"prog", "--typo=1"};
  EXPECT_THROW(flags.parse(2, argv), UsageError);
}

TEST(FlagSet, RejectsMistypedValueAtParseTime) {
  FlagSet flags = make_flags();
  const char* argv[] = {"prog", "--count=three"};
  EXPECT_THROW(flags.parse(2, argv), UsageError);
}

TEST(FlagSet, RejectsDuplicateDeclaration) {
  FlagSet flags = make_flags();
  EXPECT_THROW(flags.add_int("count", 1, "again"), PreconditionError);
}

TEST(FlagSet, UndeclaredAccessIsLoud) {
  FlagSet flags = make_flags();
  flags.parse(0, nullptr);
  EXPECT_THROW(static_cast<void>(flags.get_int("never-declared")),
               PreconditionError);
  // Wrong-type access of a declared flag is also a programming error.
  EXPECT_THROW(static_cast<void>(flags.get_int("name")), PreconditionError);
}

TEST(FlagSet, HelpListsEveryFlagWithDefault) {
  const FlagSet flags = make_flags();
  const std::string help = flags.help();
  EXPECT_NE(help.find("usage: prog test"), std::string::npos);
  EXPECT_NE(help.find("--name=<string>"), std::string::npos);
  EXPECT_NE(help.find("default: default-name"), std::string::npos);
  EXPECT_NE(help.find("--ratio=<number>"), std::string::npos);
  EXPECT_NE(help.find("default: 0.5"), std::string::npos);
  EXPECT_NE(help.find("--count=<int>"), std::string::npos);
  EXPECT_NE(help.find("--fast"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(FlagSet, EnvironmentFallbackStillApplies) {
  ::setenv("MOOD_RATIO", "0.25", 1);
  FlagSet flags = make_flags();
  flags.parse(0, nullptr);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.25);
  ::unsetenv("MOOD_RATIO");
}

TEST(FlagSet, DoubleDefaultKeepsFullPrecision) {
  // The default must survive exactly, not through a 6-decimal text render.
  FlagSet flags("prog", "precision");
  flags.add_double("epsilon", 1e-7, "tiny");
  flags.parse(0, nullptr);
  EXPECT_DOUBLE_EQ(flags.get_double("epsilon"), 1e-7);
  EXPECT_NE(flags.help().find("1e-07"), std::string::npos) << flags.help();
}

TEST(FlagSet, RejectPositionalsThrowsUsageError) {
  FlagSet flags = make_flags();
  const char* argv[] = {"prog", "--fast", "stray.csv"};
  flags.parse(3, argv);
  EXPECT_THROW(flags.reject_positionals(), UsageError);
  FlagSet clean = make_flags();
  clean.parse(0, nullptr);
  EXPECT_NO_THROW(clean.reject_positionals());
}

// --------------------------------------------------------- Thread pool --

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&] { counter++; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesZeroAndOneIteration) {
  std::atomic<int> count{0};
  parallel_for(0, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  parallel_for(1, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(100,
                   [&](std::size_t i) {
                     if (i == 50) throw std::runtime_error("halt");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, NestedCallsDegradeGracefully) {
  std::atomic<int> counter{0};
  parallel_for(8, [&](std::size_t) {
    parallel_for(8, [&](std::size_t) { counter++; });
  });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelFor, CallerIterationsNestSerially) {
  // The caller runs a share of the outer loop as pool work: a parallel_for
  // nested in one of its iterations stays on its thread, as one nested in
  // a worker's does, instead of queueing helpers behind the outer loop.
  // Workers' outer iterations are short, so they soon run out of outer work
  // and would take any helper task the caller's nested loop queued. The
  // sleeps wait on no other task.
  const std::thread::id caller = std::this_thread::get_id();
  const std::size_t outer = 4 * (ThreadPool::shared().size() + 1);
  std::atomic<int> caller_iterations{0};
  std::atomic<int> strays{0};
  // The caller almost always takes an outer index before the woken workers
  // drain them all; retry the rare run where it took none.
  for (int attempt = 0; attempt < 10 && caller_iterations.load() == 0;
       ++attempt) {
    parallel_for(outer, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return;
      }
      caller_iterations++;
      parallel_for(8, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (std::this_thread::get_id() != caller) strays++;
      });
    });
  }
  EXPECT_GT(caller_iterations.load(), 0);
  EXPECT_EQ(strays.load(), 0);
}

TEST(ParallelFor, RespectsGrainParameter) {
  std::atomic<int> counter{0};
  parallel_for(1000, [&](std::size_t) { counter++; }, 128);
  EXPECT_EQ(counter.load(), 1000);
}

// Submits one task per worker that holds it until `gate` opens; returns
// once every worker holds one.
std::vector<std::future<void>> hold_workers(ThreadPool& pool,
                                            std::shared_future<void> gate) {
  auto held = std::make_shared<std::atomic<std::size_t>>(0);
  std::vector<std::future<void>> holds;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    holds.push_back(pool.submit([held, gate] {
      ++*held;
      gate.wait();
    }));
  }
  while (held->load() < pool.size()) std::this_thread::yield();
  return holds;
}

// Returns once every task queued before the call has finished: the queue
// is FIFO, and one barrier task per worker, all running at once, leaves no
// worker inside an earlier task.
void wait_until_drained(ThreadPool& pool) {
  auto arrived = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t workers = pool.size();
  std::vector<std::future<void>> barriers;
  for (std::size_t w = 0; w < workers; ++w) {
    barriers.push_back(pool.submit([arrived, workers] {
      ++*arrived;
      while (arrived->load() < workers) std::this_thread::yield();
    }));
  }
  for (auto& barrier : barriers) barrier.get();
}

TEST(ParallelFor, ReturnsOnlyAfterEveryClaimedIterationRan) {
  // Iterations a helper claimed outlast the caller's own share by far: the
  // caller must wait for them, not return once the cursor runs out. The
  // flags are plain ints, so TSan also checks that the caller's return
  // happens after their writes.
  const std::thread::id caller = std::this_thread::get_id();
  const std::size_t count = ThreadPool::shared().size() + 1;
  std::atomic<int> helper_iterations{0};
  std::vector<int> done;
  // Helpers almost always claim an index while the caller sleeps in its
  // first one; retry the rare run where the caller ran them all.
  for (int attempt = 0; attempt < 10 && helper_iterations.load() == 0;
       ++attempt) {
    done.assign(count, 0);
    parallel_for(count, [&](std::size_t i) {
      if (std::this_thread::get_id() == caller) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      } else {
        helper_iterations++;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      done[i] = 1;
    });
    EXPECT_EQ(done, std::vector<int>(count, 1));
  }
  EXPECT_GT(helper_iterations.load(), 0);
}

TEST(ParallelFor, LateHelpersTouchNoFreedState) {
  // Every worker is held while the loop runs, so the caller runs every
  // iteration itself and returns with its helpers still queued. They start
  // after the loop's frame, its fn and fn's captures are gone, and must
  // touch none of them (ASan reports it, fake stacks included, if they do).
  ThreadPool& pool = ThreadPool::shared();
  std::promise<void> open;
  auto holds = hold_workers(pool, open.get_future().share());
  std::vector<int> seen;
  {
    auto hits = std::make_unique<std::vector<int>>(16, 0);
    auto fn = std::make_unique<std::function<void(std::size_t)>>(
        [hits = hits.get()](std::size_t i) { ++(*hits)[i]; });
    parallel_for(hits->size(), *fn);
    seen = *hits;
  }
  open.set_value();
  for (auto& hold : holds) hold.get();
  wait_until_drained(pool);
  EXPECT_EQ(seen, std::vector<int>(16, 1));
}

TEST(ParallelFor, RethrowsAHelpersExceptionAfterItsIterationEnds) {
  // The helper's iteration is still unwinding (a destructor sleeps) when
  // the caller's own share ends; the exception must reach the caller, and
  // only after the unwinding finished.
  struct SetWhenUnwound {
    bool& unwound;
    ~SetWhenUnwound() {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      unwound = true;
    }
  };
  const std::thread::id caller = std::this_thread::get_id();
  const std::size_t count = ThreadPool::shared().size() + 1;
  bool helper_threw = false;
  for (int attempt = 0; attempt < 10 && !helper_threw; ++attempt) {
    std::atomic<bool> thrown{false};
    bool unwound = false;
    try {
      parallel_for(count, [&](std::size_t) {
        if (std::this_thread::get_id() == caller) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          return;
        }
        if (thrown.exchange(true)) return;
        const SetWhenUnwound guard{unwound};
        throw std::runtime_error("helper");
      });
    } catch (const std::runtime_error&) {
      helper_threw = true;
      EXPECT_TRUE(unwound);
    }
  }
  EXPECT_TRUE(helper_threw);
}

TEST(ThreadPool, RunsTasksSubmittedWhileSpinningAndAfterParking) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  // Right after a task its worker spins for the next one: a burst lands on
  // spinning workers.
  pool.submit([&] { ran++; }).get();
  std::vector<std::future<void>> burst;
  for (int i = 0; i < 64; ++i) burst.push_back(pool.submit([&] { ran++; }));
  for (auto& f : burst) f.get();
  // After an idle gap far beyond the spin bound every worker is parked,
  // and a task must still wake one.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto after_idle = pool.submit([&] { ran++; });
  EXPECT_EQ(after_idle.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(ran.load(), 66);
}

TEST(ThreadPool, DestructorJoinsIdleSpinningAndParkedWorkers) {
  using Clock = std::chrono::steady_clock;
  const auto join_time = [](const std::function<void(ThreadPool&)>& setup) {
    Clock::time_point start;
    {
      ThreadPool pool(4);
      setup(pool);
      start = Clock::now();
    }
    return Clock::now() - start;
  };
  const auto prompt = std::chrono::seconds(2);
  // Just started, spinning right after a task, parked after a long gap.
  EXPECT_LT(join_time([](ThreadPool&) {}), prompt);
  EXPECT_LT(join_time([](ThreadPool& pool) { pool.submit([] {}).get(); }),
            prompt);
  EXPECT_LT(join_time([](ThreadPool&) {
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }),
            prompt);
}

TEST(ThreadPool, ConfigureSharedAfterFirstUseFailsLoudly) {
  // The shared pool is built lazily on first use and can never be resized
  // afterwards: late reconfiguration (e.g. a --jobs flag parsed after
  // parallel work already ran) must throw instead of being silently
  // ignored. Touch the pool first so this regression test is independent
  // of suite ordering.
  ThreadPool::shared();
  EXPECT_THROW(ThreadPool::configure_shared(2), PreconditionError);
  EXPECT_THROW(ThreadPool::configure_shared(0), PreconditionError);
}

// ------------------------------------------------------------- Logging --

TEST(Logging, LevelFilteringIsMonotone) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(LogLevel::kOff);
  log_error("this must not crash even when off");
  set_log_level(saved);
}

// --------------------------------------------------------------- Error --

TEST(Error, HierarchyCatchable) {
  EXPECT_THROW(expects(false, "msg"), PreconditionError);
  EXPECT_THROW(ensures(false, "msg"), LogicError);
  try {
    expects(false, "precondition text");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("precondition text"),
              std::string::npos);
  }
  EXPECT_NO_THROW(expects(true, "fine"));
  EXPECT_NO_THROW(ensures(true, "fine"));
}

}  // namespace
}  // namespace mood::support
