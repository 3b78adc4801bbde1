#include <gtest/gtest.h>

#include "dls/params.hpp"
#include "dls/technique.hpp"

namespace {

using dls::Kind;

TEST(Params, NamesRoundTripForEveryKind) {
  for (Kind k : dls::all_kinds()) {
    EXPECT_EQ(dls::kind_from_string(dls::to_string(k)), k);
  }
}

TEST(Params, PaperNamesAreCanonical) {
  EXPECT_EQ(dls::to_string(Kind::kStatic), "STAT");
  EXPECT_EQ(dls::to_string(Kind::kSS), "SS");
  EXPECT_EQ(dls::to_string(Kind::kFSC), "FSC");
  EXPECT_EQ(dls::to_string(Kind::kGSS), "GSS");
  EXPECT_EQ(dls::to_string(Kind::kTSS), "TSS");
  EXPECT_EQ(dls::to_string(Kind::kFAC), "FAC");
  EXPECT_EQ(dls::to_string(Kind::kFAC2), "FAC2");
  EXPECT_EQ(dls::to_string(Kind::kBOLD), "BOLD");
  EXPECT_EQ(dls::to_string(Kind::kTAP), "TAP");
  EXPECT_EQ(dls::to_string(Kind::kWF), "WF");
  EXPECT_EQ(dls::to_string(Kind::kAWF), "AWF");
  EXPECT_EQ(dls::to_string(Kind::kAWFB), "AWF-B");
  EXPECT_EQ(dls::to_string(Kind::kAWFC), "AWF-C");
  EXPECT_EQ(dls::to_string(Kind::kAF), "AF");
}

TEST(Params, UnknownNameThrows) {
  EXPECT_THROW((void)dls::kind_from_string("XYZ"), std::invalid_argument);
  EXPECT_THROW((void)dls::kind_from_string("gss"), std::invalid_argument);
}

TEST(Params, BoldPublicationKindsMatchPaperOrder) {
  const std::vector<Kind> expected = {Kind::kStatic, Kind::kSS,  Kind::kFSC,  Kind::kGSS,
                                      Kind::kTSS,    Kind::kFAC, Kind::kFAC2, Kind::kBOLD};
  EXPECT_EQ(dls::bold_publication_kinds(), expected);
}

TEST(Params, RequiresToStringFormats) {
  using namespace dls::requires_bit;
  EXPECT_EQ(dls::requires_to_string(0), "-");
  EXPECT_EQ(dls::requires_to_string(kP | kN), "p,n");
  EXPECT_EQ(dls::requires_to_string(kP | kR | kH | kMu | kSigma | kM), "p,r,h,mu,sigma,m");
}

TEST(Params, MakeTechniqueValidatesBasics) {
  dls::Params p;
  p.p = 0;
  p.n = 10;
  EXPECT_THROW((void)dls::make_technique(Kind::kSS, p), std::invalid_argument);
  p.p = 2;
  p.n = 0;
  EXPECT_THROW((void)dls::make_technique(Kind::kSS, p), std::invalid_argument);
}

TEST(Params, MakeTechniqueByNameWorks) {
  dls::Params p;
  p.p = 2;
  p.n = 10;
  const auto t = dls::make_technique("FAC2", p);
  EXPECT_EQ(t->kind(), Kind::kFAC2);
  EXPECT_EQ(t->name(), "FAC2");
}

TEST(Params, TechniqueRejectsBadSpecificParams) {
  dls::Params p;
  p.p = 2;
  p.n = 10;
  p.mu = 0.0;
  EXPECT_THROW((void)dls::make_technique(Kind::kFAC, p), std::invalid_argument);
  EXPECT_THROW((void)dls::make_technique(Kind::kBOLD, p), std::invalid_argument);
  EXPECT_THROW((void)dls::make_technique(Kind::kTAP, p), std::invalid_argument);
  p.mu = 1.0;
  p.sigma = -1.0;
  EXPECT_THROW((void)dls::make_technique(Kind::kFAC, p), std::invalid_argument);
  p.sigma = 1.0;
  p.weights = {1.0};  // wrong size for p = 2
  EXPECT_THROW((void)dls::make_technique(Kind::kWF, p), std::invalid_argument);
  p.weights = {1.0, -1.0};
  EXPECT_THROW((void)dls::make_technique(Kind::kWF, p), std::invalid_argument);
}

TEST(Params, EqualityCoversEveryField) {
  // The runtime backend reuses a cached executor while its Params
  // compare equal, so every field must take part in the comparison.
  const dls::Params base;
  EXPECT_EQ(base, dls::Params{});
  dls::Params weighted = base;
  weighted.weights = {1.0, 2.0};
  EXPECT_NE(weighted, base);
  dls::Params reseeded = base;
  reseeded.rnd_seed = base.rnd_seed + 1;
  EXPECT_NE(reseeded, base);
}

TEST(Params, RequestValidatesPeRange) {
  dls::Params p;
  p.p = 2;
  p.n = 10;
  const auto t = dls::make_technique(Kind::kSS, p);
  EXPECT_THROW((void)t->next_chunk(dls::Request{2, 0.0}), std::invalid_argument);
}

TEST(Params, OverCompletionThrows) {
  dls::Params p;
  p.p = 2;
  p.n = 10;
  const auto t = dls::make_technique(Kind::kSS, p);
  (void)t->next_chunk(dls::Request{0, 0.0});
  EXPECT_THROW(t->on_chunk_complete(dls::ChunkFeedback{0, 5, 1.0, 1.0}), std::logic_error);
}

}  // namespace
