// Tests for XML serialization (compact and pretty-printed) and the
// Serialize I/O operator's file output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/algebra/op.h"
#include "src/runtime/eval.h"
#include "src/xml/serializer.h"
#include "src/xml/xml_parser.h"
#include "test_util.h"

namespace xqc {
namespace {

using testutil::MustParseXml;

TEST(SerializerTest, CompactRoundTripsStructure) {
  const char* kDocs[] = {
      "<a/>",
      "<a x=\"1\" y=\"2\"/>",
      "<a><b><c>deep</c></b></a>",
      "<a>text<b/>tail</a>",
      "<a><!--c--><?pi data?></a>",
      "<a>&amp;&lt;&gt;</a>",
  };
  for (const char* xml : kDocs) {
    XmlParseOptions opts;
    opts.strip_boundary_whitespace = false;
    Result<NodePtr> doc = ParseXml(xml, opts);
    ASSERT_OK(doc);
    EXPECT_EQ(SerializeNode(*doc.value()), xml);
  }
}

TEST(SerializerTest, IndentedOutput) {
  NodePtr doc = MustParseXml("<a><b><c>x</c></b><d/></a>");
  SerializeOptions opts;
  opts.indent = true;
  EXPECT_EQ(SerializeNode(*doc, opts),
            "<a>\n"
            "  <b>\n"
            "    <c>x</c>\n"
            "  </b>\n"
            "  <d/>\n"
            "</a>");
}

TEST(SerializerTest, TextOnlyElementsStayInline) {
  NodePtr doc = MustParseXml("<a><b>only text</b></a>");
  SerializeOptions opts;
  opts.indent = true;
  EXPECT_EQ(SerializeNode(*doc, opts), "<a>\n  <b>only text</b>\n</a>");
}

TEST(SerializerTest, AttributeNodeAlone) {
  NodePtr attr = NewAttribute(Symbol("k"), "v\"w");
  EXPECT_EQ(SerializeNode(*attr), "k=\"v&quot;w\"");
}

TEST(SerializerTest, RepairsCommentDoubleHyphen) {
  // "--" is illegal inside an XML comment; the serializer breaks the pair
  // with a space so the output is well-formed and re-parses.
  EXPECT_EQ(SerializeNode(*NewComment("a--b")), "<!--a- -b-->");
  EXPECT_EQ(SerializeNode(*NewComment("a----b")), "<!--a- - - -b-->");
  // A trailing "-" would produce "--->"; a space is appended.
  EXPECT_EQ(SerializeNode(*NewComment("ends-")), "<!--ends- -->");
  EXPECT_EQ(SerializeNode(*NewComment("clean")), "<!--clean-->");
}

TEST(SerializerTest, RepairsPIEndMarker) {
  EXPECT_EQ(SerializeNode(*NewPI(Symbol("foo"), "x?>y")), "<?foo x? >y?>");
  EXPECT_EQ(SerializeNode(*NewPI(Symbol("foo"), "plain")), "<?foo plain?>");
}

TEST(SerializerTest, RepairedCommentAndPIReparse) {
  NodePtr doc = MustParseXml("<r/>");
  doc->children[0]->children.push_back(NewComment("a--b-"));
  doc->children[0]->children.push_back(NewPI(Symbol("p"), "q?>r"));
  std::string xml = SerializeNode(*doc);
  NodePtr again = MustParseXml(xml);
  EXPECT_EQ(SerializeNode(*again), xml);
}

TEST(SerializerTest, SequenceSpacingRules) {
  NodePtr doc = MustParseXml("<x/>");
  // atomic atomic -> space; atomic node -> no space; node atomic -> none.
  Sequence s = {AtomicValue::Integer(1), AtomicValue::Integer(2),
                doc->children[0], AtomicValue::String("t")};
  EXPECT_EQ(SerializeSequence(s), "1 2<x/>t");
  EXPECT_EQ(SerializeSequence({}), "");
}

TEST(SerializeOperatorTest, WritesFileAndReturnsEmpty) {
  std::string path = ::testing::TempDir() + "/xqc_serialize_test.xml";
  std::remove(path.c_str());

  OpPtr elem = MakeOp(OpKind::kElement);
  elem->name = Symbol("out");
  elem->inputs = {OpScalar(AtomicValue::Integer(42))};
  OpPtr ser = MakeOp(OpKind::kSerialize);
  ser->inputs = {OpScalar(AtomicValue::String(path)), elem};

  DynamicContext ctx;
  CompiledQuery q;
  q.plan = ser;
  PlanEvaluator eval(&q, &ctx, testutil::kMaterializeOptions);
  Result<Sequence> r = eval.Run();
  ASSERT_OK(r);
  EXPECT_TRUE(r.value().empty());  // Serialize(URI, S(i)) -> ()

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "<out>42</out>");
  std::remove(path.c_str());
}

TEST(SerializeOperatorTest, ErrorsOnUnwritablePath) {
  OpPtr ser = MakeOp(OpKind::kSerialize);
  ser->inputs = {OpScalar(AtomicValue::String("/no/such/dir/file.xml")),
                 OpScalar(AtomicValue::Integer(1))};
  DynamicContext ctx;
  CompiledQuery q;
  q.plan = ser;
  PlanEvaluator eval(&q, &ctx, testutil::kMaterializeOptions);
  Result<Sequence> r = eval.Run();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), "FODC0002");
}

TEST(ParseSerializeRoundTrip, FileSystem) {
  // Serialize then Parse from the filesystem round-trips.
  std::string path = ::testing::TempDir() + "/xqc_roundtrip.xml";
  {
    std::ofstream out(path);
    out << "<data><v>7</v><v>9</v></data>";
  }
  Result<NodePtr> doc = ParseXmlFile(path);
  ASSERT_OK(doc);
  EXPECT_EQ(SerializeNode(*doc.value()), "<data><v>7</v><v>9</v></data>");
  std::remove(path.c_str());
  EXPECT_FALSE(ParseXmlFile(path).ok());  // deleted -> IO error
}

}  // namespace
}  // namespace xqc
