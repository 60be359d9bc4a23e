// Inputs of the layered end-to-end benchmark: generated documents, query
// shapes with their literal domains, and the seeded request streams.
//
// Everything a workload sends derives from the --seed argument (request
// order, literals, Zipf draws, the rewrite schedule) except the documents
// themselves, which use the generators' fixed seeds so that every seed
// measures the same data (the paper's Table 3 document at 256 KB, the
// Table 5 DBLP document at 250 KB, the store corpus).
#ifndef XQC_BENCH_E2E_WORKLOADS_H_
#define XQC_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xqc_bench {

/// splitmix64: a small deterministic generator for every seeded choice.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// A document registered with xqc_httpd (or with the reference context).
struct DocInput {
  std::string uri;
  std::string text;
};

/// One of the paper's query shapes, bound to its registered document.
struct Shape {
  std::string name;
  std::string text;
};

/// The paper's 23 shapes in order: XMark Q1-Q20, then Clio N2-N4.
inline constexpr const char* kPaperShapeNames[23] = {
    "Q1",  "Q2",  "Q3",  "Q4",  "Q5",  "Q6",  "Q7",  "Q8",
    "Q9",  "Q10", "Q11", "Q12", "Q13", "Q14", "Q15", "Q16",
    "Q17", "Q18", "Q19", "Q20", "N2",  "N3",  "N4"};

/// paper_suite: the documents registered with xqc_httpd and the shapes
/// sent to it.
struct PaperSpec {
  std::vector<DocInput> docs;
  std::vector<Shape> shapes;
  /// Warm-up requests sent during set-up (a fixed count, never "until
  /// stable").
  int warmup_requests = 2 * 23;
};

PaperSpec MakePaperSpec();

/// The seeded interleaving: rounds of seeded permutations of the shapes.
class ShapeStream {
 public:
  ShapeStream(size_t shapes, uint64_t seed);
  int Next();

 private:
  Rng rng_;
  std::vector<int> round_;
  size_t pos_;
};

// --- store_churn -----------------------------------------------------------

enum class ChurnKind { kRead, kRewrite, kCollection };

struct ChurnRequest {
  ChurnKind kind = ChurnKind::kRead;
  int doc = 0;      // read / rewrite target
  int literal = 0;  // read: person id index; collection: threshold index
};

struct ChurnSpec {
  int num_docs = 16;
  size_t doc_bytes = 64 * 1024;
  /// versions[d][v]: the two generated texts of corpus document d.
  std::vector<std::vector<std::string>> versions;
  std::vector<std::string> person_ids;  // read-query literal domain
  std::vector<int> thresholds;          // collection-query literal domain
  uint64_t seed = 0;
};

ChurnSpec MakeChurnSpec(uint64_t seed);

/// File name of corpus document d (sorted-URI order == index order).
std::string ChurnDocName(int d);
std::string ChurnReadQuery(const std::string& doc_path,
                           const std::string& person_id);
/// `source` is `fn:collection("dir")` or `doc("path")`: the collection
/// result is the concatenation of the per-document results in URI order.
std::string ChurnCollectionQuery(const std::string& source, int threshold);

/// ~90% Zipf-skewed reads, ~5% rewrites, ~5% collection aggregates.
class ChurnStream {
 public:
  ChurnStream(const ChurnSpec& spec, uint64_t seed);
  ChurnRequest Next();

 private:
  int ZipfDoc();
  const ChurnSpec& spec_;
  Rng rng_;
  std::vector<double> cdf_;
  std::vector<int> rank_to_doc_;
};

}  // namespace xqc_bench

#endif  // XQC_BENCH_E2E_WORKLOADS_H_
