// Unit tests for schema/: signatures, the signature index, restriction
// (implicit-sort views), and ASCII rendering.

#include <gtest/gtest.h>

#include "dense_matrix_oracle.h"
#include "schema/ascii_view.h"
#include "schema/signature_index.h"

namespace rdfsr::schema {
namespace {

oracle::DenseMatrix SampleMatrix() {
  // Fig 1b-like: s0 has p and q, s1/s2 only p.
  return oracle::DenseMatrix::FromRows({{1, 1}, {1, 0}, {1, 0}},
                                       {"s0", "s1", "s2"}, {"p", "q"});
}

SignatureIndex SampleIndex(bool keep_subject_names) {
  return oracle::IndexOf(SampleMatrix(), keep_subject_names);
}

TEST(SignatureIndexTest, GroupsIdenticalRows) {
  const SignatureIndex index = SampleIndex(true);
  ASSERT_EQ(index.num_signatures(), 2u);
  // Canonical order: larger signature set first.
  EXPECT_EQ(index.signature(0).count, 2);  // {p} x2
  EXPECT_EQ(index.signature(1).count, 1);  // {p,q}
  EXPECT_EQ(index.total_subjects(), 3);
}

TEST(SignatureIndexTest, HasAndPropertyCount) {
  const SignatureIndex index = SampleIndex(true);
  const int p = index.FindProperty("p");
  const int q = index.FindProperty("q");
  ASSERT_GE(p, 0);
  ASSERT_GE(q, 0);
  EXPECT_TRUE(index.Has(0, p));
  EXPECT_FALSE(index.Has(0, q));
  EXPECT_TRUE(index.Has(1, q));
  EXPECT_EQ(index.PropertyCount(p), 3);
  EXPECT_EQ(index.PropertyCount(q), 1);
}

TEST(SignatureIndexTest, SubjectSignatureLookup) {
  const SignatureIndex index = SampleIndex(true);
  EXPECT_EQ(index.FindSubjectSignature("s0"), 1);
  EXPECT_EQ(index.FindSubjectSignature("s1"), 0);
  EXPECT_EQ(index.FindSubjectSignature("nope"), -1);
  EXPECT_EQ(index.CountNamedSubjects({"s0", "s1", "s2"}, 0), 2);
  EXPECT_EQ(index.CountNamedSubjects({"s0"}, 1), 1);
}

TEST(SignatureIndexTest, NamesNotKeptMeansNoLookup) {
  const SignatureIndex index = SampleIndex(false);
  EXPECT_EQ(index.FindSubjectSignature("s0"), -1);
}

TEST(SignatureIndexTest, FromSignaturesValidates) {
  std::vector<Signature> sigs;
  sigs.push_back({{0, 1}, 10});
  sigs.push_back({{0}, 5});
  const SignatureIndex index =
      SignatureIndex::FromSignatures({"a", "b"}, sigs);
  EXPECT_EQ(index.num_signatures(), 2u);
  EXPECT_EQ(index.total_subjects(), 15);
}

TEST(SignatureIndexTest, RestrictDropsUnusedColumns) {
  // Signature 0: {p0}, signature 1: {p1,p2}; restricting to sig 0 keeps p0.
  std::vector<Signature> sigs;
  sigs.push_back({{0}, 10});
  sigs.push_back({{1, 2}, 5});
  const SignatureIndex index =
      SignatureIndex::FromSignatures({"p0", "p1", "p2"}, sigs);
  // Canonical order puts count-10 first.
  std::vector<int> kept;
  const SignatureIndex sub = index.Restrict({0}, &kept);
  EXPECT_EQ(sub.num_signatures(), 1u);
  EXPECT_EQ(sub.num_properties(), 1u);
  EXPECT_EQ(sub.property_name(0), "p0");
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], 0);
  EXPECT_EQ(sub.total_subjects(), 10);
}

TEST(SignatureIndexTest, RestrictKeepsSubjectNames) {
  const SignatureIndex index = SampleIndex(true);
  const SignatureIndex sub = index.Restrict({1});  // the {p,q} signature
  EXPECT_EQ(sub.FindSubjectSignature("s0"), 0);
}

TEST(SignatureIndexTest, DenseExpansionRoundTripsCounts) {
  const SignatureIndex index = SampleIndex(true);
  const oracle::Expansion expansion = oracle::ExpandIndex(index);
  const oracle::DenseMatrix& m = expansion.matrix;
  EXPECT_EQ(m.num_subjects(), 3u);
  EXPECT_EQ(m.num_properties(), 2u);
  int ones = 0;
  for (std::size_t r = 0; r < m.num_subjects(); ++r) {
    for (std::size_t p = 0; p < m.num_properties(); ++p) ones += m.At(r, p);
  }
  EXPECT_EQ(ones, 4);
  const oracle::Grouping again = oracle::GroupRows(m);
  ASSERT_EQ(again.counts.size(), index.num_signatures());
  for (std::size_t i = 0; i < index.num_signatures(); ++i) {
    EXPECT_EQ(again.counts[i], index.signature(i).count);
    EXPECT_EQ(again.supports[i], index.signature(i).support());
  }
  EXPECT_EQ(again.row_signature, expansion.row_signature);
}

TEST(SignatureIndexTest, CanonicalOrderIsDeterministic) {
  // Same content presented in different input orders yields identical
  // indexes.
  std::vector<Signature> sigs1 = {{{0}, 5}, {{1}, 5}, {{0, 1}, 9}};
  std::vector<Signature> sigs2 = {{{0, 1}, 9}, {{1}, 5}, {{0}, 5}};
  const SignatureIndex a = SignatureIndex::FromSignatures({"x", "y"}, sigs1);
  const SignatureIndex b = SignatureIndex::FromSignatures({"x", "y"}, sigs2);
  ASSERT_EQ(a.num_signatures(), b.num_signatures());
  for (std::size_t i = 0; i < a.num_signatures(); ++i) {
    EXPECT_EQ(a.signature(i).support(), b.signature(i).support());
    EXPECT_EQ(a.signature(i).count, b.signature(i).count);
  }
}

TEST(SignatureIndexTest, RandomMatrixGroupingPreservesSubjects) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    oracle::RandomMatrixSpec spec;
    spec.num_subjects = 20;
    spec.num_properties = 5;
    spec.seed = seed;
    const SignatureIndex index =
        oracle::IndexOf(oracle::GenerateRandomMatrix(spec));
    EXPECT_EQ(index.total_subjects(), 20);
    // Sizes are non-increasing in canonical order.
    for (std::size_t i = 1; i < index.num_signatures(); ++i) {
      EXPECT_GE(index.signature(i - 1).count, index.signature(i).count);
    }
  }
}

TEST(AsciiViewTest, AbbreviateProperty) {
  EXPECT_EQ(AbbreviateProperty("http://xmlns.com/foaf/0.1/name"), "name");
  EXPECT_EQ(AbbreviateProperty("http://x#frag"), "frag");
  EXPECT_EQ(AbbreviateProperty("plain"), "plain");
  EXPECT_EQ(AbbreviateProperty("averyveryverylongpropertyname", 8).size(), 8u);
}

TEST(AsciiViewTest, RendersSignatureView) {
  const SignatureIndex index = SampleIndex(false);
  const std::string view = RenderSignatureView(index);
  EXPECT_NE(view.find("subjects=3"), std::string::npos);
  EXPECT_NE(view.find("#."), std::string::npos);   // {p} row
  EXPECT_NE(view.find("##"), std::string::npos);   // {p,q} row
}

TEST(AsciiViewTest, RendersRefinementView) {
  const SignatureIndex index = SampleIndex(false);
  const std::string view = RenderRefinementView(index, {{0}, {1}});
  EXPECT_NE(view.find("sort 1"), std::string::npos);
  EXPECT_NE(view.find("sort 2"), std::string::npos);
}

}  // namespace
}  // namespace rdfsr::schema
