#include "workloads.h"

#include <algorithm>
#include <utility>

#include "src/clio/clio.h"
#include "src/xmark/xmark.h"

namespace xqc_bench {

namespace {

// The queries declare their document `external`; the server binds it by
// URI instead, so the prolog names the registered document.
std::string BindToDoc(std::string query, const std::string& var,
                      const std::string& uri) {
  const std::string decl = "declare variable " + var + " external;";
  query.replace(query.find(decl), decl.size(),
                "declare variable " + var + " := doc(\"" + uri + "\");");
  return query;
}

DocInput AuctionDoc(size_t bytes) {
  xqc::XMarkOptions xo;
  xo.target_bytes = bytes;
  return {"auction.xml", xqc::GenerateXMarkXml(xo)};
}

DocInput DblpDoc(size_t bytes) {
  xqc::ClioOptions co;
  co.target_bytes = bytes;
  return {"dblp.xml", xqc::GenerateDblpXml(co)};
}

}  // namespace

PaperSpec MakePaperSpec() {
  PaperSpec spec;
  // Table 3 default (256 KB) and Table 5's 250 KB DBLP document.
  spec.docs = {AuctionDoc(256 * 1024), DblpDoc(250 * 1024)};
  for (int q = 1; q <= 23; q++) {
    Shape s;
    s.name = kPaperShapeNames[q - 1];
    s.text = q <= 20 ? BindToDoc(xqc::XMarkQuery(q), "$auction", "auction.xml")
                     : BindToDoc(xqc::ClioQuery(q - 19), "$dblp", "dblp.xml");
    spec.shapes.push_back(std::move(s));
  }
  return spec;
}

ShapeStream::ShapeStream(size_t shapes, uint64_t seed)
    : rng_(seed ^ 0x73747265616dull), round_(shapes), pos_(shapes) {
  for (size_t i = 0; i < shapes; i++) round_[i] = static_cast<int>(i);
}

int ShapeStream::Next() {
  if (pos_ == round_.size()) {
    pos_ = 0;
    for (size_t i = round_.size(); i > 1; i--) {
      std::swap(round_[i - 1], round_[rng_.Below(i)]);
    }
  }
  return round_[pos_++];
}

// --- store_churn -----------------------------------------------------------

ChurnSpec MakeChurnSpec(uint64_t seed) {
  ChurnSpec spec;
  spec.seed = seed;
  for (int d = 0; d < spec.num_docs; d++) {
    std::vector<std::string> versions;
    for (int v = 0; v < 2; v++) {
      xqc::XMarkOptions xo;
      xo.seed = 1000 * (v + 1) + static_cast<uint64_t>(d);
      xo.target_bytes = spec.doc_bytes;
      versions.push_back(xqc::GenerateXMarkXml(xo));
    }
    spec.versions.push_back(std::move(versions));
  }
  Rng rng(seed ^ 0x6c69746572616cull);
  for (int i = 0; i < 4; i++) {
    spec.person_ids.push_back("person" + std::to_string(rng.Below(40)));
  }
  spec.thresholds = {50, 100, 150};
  return spec;
}

std::string ChurnDocName(int d) {
  return std::string("doc_") + (d < 10 ? "0" : "") + std::to_string(d) +
         ".xml";
}

std::string ChurnReadQuery(const std::string& doc_path,
                           const std::string& person_id) {
  return "doc(\"" + doc_path + "\")/site/people/person[@id = \"" +
         person_id + "\"]/name/text()";
}

std::string ChurnCollectionQuery(const std::string& source, int threshold) {
  return "for $c in " + source +
         "//closed_auction where number($c/price) >= " +
         std::to_string(threshold) + " return string($c/itemref/@item)";
}

ChurnStream::ChurnStream(const ChurnSpec& spec, uint64_t seed)
    : spec_(spec), rng_(seed ^ 0x636875726eull) {
  // Zipf(s = 1) over document ranks; a seeded permutation maps ranks to
  // documents so that hot documents are not always the first URIs.
  double total = 0;
  for (int r = 1; r <= spec.num_docs; r++) {
    total += 1.0 / r;
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  for (int d = 0; d < spec.num_docs; d++) rank_to_doc_.push_back(d);
  for (size_t i = rank_to_doc_.size(); i > 1; i--) {
    std::swap(rank_to_doc_[i - 1], rank_to_doc_[rng_.Below(i)]);
  }
}

int ChurnStream::ZipfDoc() {
  const double u = rng_.Unit();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return rank_to_doc_[std::min(rank, rank_to_doc_.size() - 1)];
}

ChurnRequest ChurnStream::Next() {
  ChurnRequest r;
  const double u = rng_.Unit();
  if (u < 0.05) {
    r.kind = ChurnKind::kRewrite;
    r.doc = ZipfDoc();
  } else if (u < 0.10) {
    r.kind = ChurnKind::kCollection;
    r.literal = static_cast<int>(rng_.Below(spec_.thresholds.size()));
  } else {
    r.kind = ChurnKind::kRead;
    r.doc = ZipfDoc();
    r.literal = static_cast<int>(rng_.Below(spec_.person_ids.size()));
  }
  return r;
}

}  // namespace xqc_bench
