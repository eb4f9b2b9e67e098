// Signature-index serialization tests: round trips, size expectations, and
// malformed-input rejection.

#include <gtest/gtest.h>

#include <cstdio>

#include "gen/persons.h"
#include "gen/random_graph.h"
#include "schema/index_io.h"

namespace rdfsr::schema {
namespace {

void ExpectSameIndex(const SignatureIndex& a, const SignatureIndex& b) {
  ASSERT_EQ(a.num_properties(), b.num_properties());
  for (std::size_t p = 0; p < a.num_properties(); ++p) {
    EXPECT_EQ(a.property_name(p), b.property_name(p));
  }
  ASSERT_EQ(a.num_signatures(), b.num_signatures());
  for (std::size_t i = 0; i < a.num_signatures(); ++i) {
    EXPECT_EQ(a.signature(i).count, b.signature(i).count);
    EXPECT_EQ(a.signature(i).support(), b.signature(i).support());
  }
}

TEST(IndexIoTest, RoundTripsRandomIndexes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 6;
    spec.num_properties = 5;
    spec.seed = seed;
    const SignatureIndex index = gen::GenerateRandomIndex(spec);
    auto parsed = ParseIndex(SerializeIndex(index));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectSameIndex(index, *parsed);
  }
}

TEST(IndexIoTest, RoundTripsPersonsAndIsSmall) {
  const SignatureIndex index = gen::GeneratePersons();
  const std::string text = SerializeIndex(index);
  // The paper's pitch: the whole view fits in a few KB.
  EXPECT_LT(text.size(), 4096u);
  auto parsed = ParseIndex(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSameIndex(index, *parsed);
}

TEST(IndexIoTest, PropertyNamesMayContainSpaces) {
  std::vector<Signature> sigs = {{{0, 1}, 3}};
  const SignatureIndex index = SignatureIndex::FromSignatures(
      {"has name", "http://x/p with space"}, sigs);
  auto parsed = ParseIndex(SerializeIndex(index));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSameIndex(index, *parsed);
}

TEST(IndexIoTest, FileRoundTrip) {
  const SignatureIndex index = gen::GeneratePersons({.num_subjects = 300});
  const std::string path = "/tmp/rdfsr_index_io_test.sig";
  ASSERT_TRUE(WriteIndexFile(index, path).ok());
  auto parsed = ReadIndexFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSameIndex(index, *parsed);
  std::remove(path.c_str());
}

TEST(IndexIoTest, MissingFileIsNotFound) {
  auto r = ReadIndexFile("/nonexistent/index.sig");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(IndexIoTest, RejectsMalformedInput) {
  const char* cases[] = {
      "",                                          // empty
      "wrong header\n",                            // bad header
      "# rdfsr-signature-index v1\nnope\n",        // bad properties line
      "# rdfsr-signature-index v1\nproperties 1\n",  // truncated names
      // Unused property:
      "# rdfsr-signature-index v1\nproperties 2\na\nb\nsignatures 1\n"
      "3 1 0\n",
      // Decreasing support:
      "# rdfsr-signature-index v1\nproperties 2\na\nb\nsignatures 1\n"
      "3 2 1 0\n",
      // Out-of-range property id:
      "# rdfsr-signature-index v1\nproperties 1\na\nsignatures 1\n3 1 5\n",
      // Zero count:
      "# rdfsr-signature-index v1\nproperties 1\na\nsignatures 1\n0 1 0\n",
      // Trailing tokens:
      "# rdfsr-signature-index v1\nproperties 1\na\nsignatures 1\n3 1 0 9\n",
      // Truncated support list:
      "# rdfsr-signature-index v1\nproperties 2\na\nb\nsignatures 1\n3 2 0\n",
      // Duplicate property name:
      "# rdfsr-signature-index v1\nproperties 2\np\np\nsignatures 1\n"
      "3 2 0 1\n",
      // Two rows with the same support:
      "# rdfsr-signature-index v1\nproperties 1\na\nsignatures 2\n"
      "3 1 0\n4 1 0\n",
      // Counts summing past INT64_MAX:
      "# rdfsr-signature-index v1\nproperties 2\na\nb\nsignatures 2\n"
      "9223372036854775807 1 0\n9223372036854775807 1 1\n",
  };
  for (const char* text : cases) {
    auto r = ParseIndex(text);
    EXPECT_EQ(r.status().code(), StatusCode::kParseError)
        << "accepted: " << text;
  }
}

TEST(IndexIoTest, CanonicalOrderSurvivesSerialization) {
  // Serialization is in canonical order, so parse(serialize(x)) compares
  // equal element-wise even if x was built from shuffled input.
  std::vector<Signature> sigs = {{{1}, 2}, {{0}, 9}, {{0, 1}, 5}};
  const SignatureIndex index =
      SignatureIndex::FromSignatures({"a", "b"}, sigs);
  auto parsed = ParseIndex(SerializeIndex(index));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->signature(0).count, 9);  // largest first
}

}  // namespace
}  // namespace rdfsr::schema
