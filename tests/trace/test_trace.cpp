// Tracer span bookkeeping, busy/overlap accounting, renderers.
#include <gtest/gtest.h>

#include <sstream>

#include "trace/trace.hpp"

namespace hmca::trace {
namespace {

TEST(Tracer, OpenCloseRecordsSpan) {
  Tracer t;
  const std::size_t idx =
      t.open_span({3, Kind::kNicXfer, 1.0, 1.0, 7, 4096, "x"});
  t.close_span(idx, 2.5);
  ASSERT_EQ(t.spans().size(), 1u);
  const auto& s = t.spans()[0];
  EXPECT_EQ(s.rank, 3);
  EXPECT_EQ(s.peer, 7);
  EXPECT_EQ(s.bytes, 4096u);
  EXPECT_DOUBLE_EQ(s.t0, 1.0);
  EXPECT_DOUBLE_EQ(s.t1, 2.5);
}

TEST(Tracer, BusyTimeMergesOverlappingSpans) {
  Tracer t;
  t.record({0, Kind::kCmaCopy, 0.0, 2.0, -1, 0, ""});
  t.record({0, Kind::kCmaCopy, 1.0, 3.0, -1, 0, ""});
  t.record({0, Kind::kCmaCopy, 5.0, 6.0, -1, 0, ""});
  EXPECT_DOUBLE_EQ(t.busy_time(0, Kind::kCmaCopy), 4.0);
  EXPECT_DOUBLE_EQ(t.busy_time(0, Kind::kNicXfer), 0.0);
  EXPECT_DOUBLE_EQ(t.busy_time(1, Kind::kCmaCopy), 0.0);
}

TEST(Tracer, OverlapTimeBetweenKinds) {
  Tracer t;
  t.record({0, Kind::kNicXfer, 0.0, 4.0, -1, 0, ""});
  t.record({1, Kind::kCopyOut, 2.0, 6.0, -1, 0, ""});
  EXPECT_DOUBLE_EQ(t.overlap_time(0, Kind::kNicXfer, 1, Kind::kCopyOut), 2.0);
  EXPECT_DOUBLE_EQ(t.overlap_time(1, Kind::kCopyOut, 0, Kind::kNicXfer), 2.0);
  EXPECT_DOUBLE_EQ(t.overlap_time(0, Kind::kNicXfer, 1, Kind::kCopyIn), 0.0);
}

TEST(Tracer, AsciiRendererShowsAllRanks) {
  Tracer t;
  t.record({0, Kind::kNicXfer, 0.0, 1.0, 1, 64, ""});
  t.record({1, Kind::kWait, 0.0, 1.0, 0, 0, ""});
  std::ostringstream os;
  t.render_ascii(os, 40);
  const std::string out = os.str();
  EXPECT_NE(out.find("rank 0"), std::string::npos);
  EXPECT_NE(out.find("rank 1"), std::string::npos);
  EXPECT_NE(out.find('='), std::string::npos);
  EXPECT_NE(out.find('.'), std::string::npos);
}

TEST(Tracer, EmptyTraceRenders) {
  Tracer t;
  std::ostringstream os;
  t.render_ascii(os);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(Tracer, CsvHasHeaderAndRows) {
  Tracer t;
  t.record({2, Kind::kCopyIn, 1e-6, 3e-6, -1, 128, "chunk0"});
  std::ostringstream os;
  t.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("rank,kind,t0_us"), std::string::npos);
  EXPECT_NE(out.find("2,copy_in,1,3,-1,128,chunk0"), std::string::npos);
}

TEST(Tracer, GlyphsAreDistinct) {
  EXPECT_NE(kind_glyph(Kind::kIsend), kind_glyph(Kind::kIrecv));
  EXPECT_NE(kind_glyph(Kind::kCopyIn), kind_glyph(Kind::kCopyOut));
  EXPECT_NE(kind_glyph(Kind::kNicXfer), kind_glyph(Kind::kCmaCopy));
}

TEST(Tracer, ClearResets) {
  Tracer t;
  t.record({0, Kind::kWait, 0, 1, -1, 0, ""});
  t.clear();
  EXPECT_TRUE(t.spans().empty());
}

}  // namespace
}  // namespace hmca::trace
