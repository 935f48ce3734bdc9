#include "matrix/surrogates.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "matrix/matrix_market.hpp"

namespace pbs::mtx {

namespace {

enum class Recipe { kBanded, kEr, kWebHybrid };

struct RecipeEntry {
  SuiteEntry stats;
  Recipe recipe;
};

// Published Table VI numbers.  "K"/"M" expanded; flops/nnz_c rounded as
// printed in the paper — except offshore's nnz(C), which the paper prints
// as 69.8M although its own cf column (3.05 = flops/nnz(C)) and the same
// experiment in Nagasaka et al. [12] both give 23.4M; we store the
// consistent value.
const std::vector<RecipeEntry>& recipes() {
  static const std::vector<RecipeEntry> table = {
      {{"2cubes_sphere", 101492, 1647264, 16.23, 27500000, 9000000, 3.06}, Recipe::kBanded},
      {{"amazon0505", 410236, 3356824, 8.18, 31900000, 16100000, 1.98}, Recipe::kBanded},
      {{"cage12", 130228, 2032536, 15.61, 34600000, 15200000, 2.14}, Recipe::kBanded},
      {{"cant", 62451, 4007383, 64.17, 269500000, 17400000, 15.45}, Recipe::kBanded},
      {{"hood", 220542, 9895422, 44.87, 562000000, 34200000, 16.41}, Recipe::kBanded},
      {{"m133_b3", 200200, 800800, 4.00, 3200000, 3200000, 1.01}, Recipe::kEr},
      {{"majorbasis", 160000, 1750416, 10.94, 19200000, 8200000, 2.33}, Recipe::kBanded},
      {{"mc2depi", 525825, 2100225, 3.99, 8400000, 5200000, 1.6}, Recipe::kBanded},
      {{"offshore", 259789, 4242673, 16.33, 71300000, 23400000, 3.05}, Recipe::kBanded},
      {{"patents_main", 240547, 560943, 2.33, 2600000, 2300000, 1.14}, Recipe::kEr},
      {{"scircuit", 170998, 958936, 5.61, 8700000, 5200000, 1.66}, Recipe::kBanded},
      {{"web_Google", 916428, 5105039, 5.57, 60700000, 29700000, 2.04}, Recipe::kWebHybrid},
  };
  return table;
}

// Half-bandwidth that makes a banded A's square have the published cf:
// flop/row ≈ d², output row support ≈ 4w, so cf ≈ d²/(4w).
index_t banded_halfwidth(double d, double cf) {
  const double w = d * d / (4.0 * std::max(cf, 1.0));
  // The window must be able to host d distinct entries.
  return static_cast<index_t>(std::max({2.0, std::ceil(d / 2.0) + 1.0, std::round(w)}));
}

CsrMatrix build_surrogate(const SuiteEntry& e, Recipe recipe, double shrink) {
  const double f = std::max(1.0, shrink);
  const auto n = static_cast<index_t>(
      std::max<double>(64.0, std::round(static_cast<double>(e.n) / f)));
  const std::uint64_t seed = 0x5eedULL ^ std::hash<std::string>{}(e.name);

  switch (recipe) {
    case Recipe::kEr:
      return coo_to_csr(generate_er(n, n, e.d, seed));
    case Recipe::kBanded:
      return coo_to_csr(
          generate_banded(n, e.d, banded_halfwidth(e.d, e.cf), seed));
    case Recipe::kWebHybrid: {
      // Web graphs mix locality (link clusters) with power-law hubs.  Pure
      // Graph500-skew R-MAT over-squares (hub² flop explodes); a=0.45 skew
      // plus a thin band reproduces the degree tail and keeps flop(A²)
      // near the published value scaled by `shrink`.  The one fidelity gap:
      // cf lands ~1.1 instead of web-Google's 2.04 (real link-collision
      // structure resists synthetic mimicry); see README.md, "Host
      // substitutions".
      const double band_d = std::min(3.5, e.d * 0.6);
      CooMatrix banded = generate_banded(n, band_d, 3, seed);
      RmatParams p;
      p.scale = std::max(6, ceil_log2(static_cast<std::uint64_t>(n)));
      p.edge_factor = std::max(0.5, e.d - band_d);
      p.a = 0.45;
      p.b = p.c = (1.0 - 0.45) / 3.0;
      p.seed = seed + 1;
      const CooMatrix rmat = generate_rmat(p);
      // R-MAT dimensions are the next power of two >= n; clamp its ids.
      CooMatrix merged(n, n);
      merged.row = std::move(banded.row);
      merged.col = std::move(banded.col);
      merged.val = std::move(banded.val);
      for (nnz_t i = 0; i < rmat.nnz(); ++i) {
        merged.add(rmat.row[i] % n, rmat.col[i] % n, rmat.val[i]);
      }
      merged.canonicalize();
      return coo_to_csr(merged);
    }
  }
  throw std::logic_error("unreachable recipe");
}

}  // namespace

const std::vector<SuiteEntry>& table6_suite() {
  static const std::vector<SuiteEntry> suite = [] {
    std::vector<SuiteEntry> s;
    s.reserve(recipes().size());
    for (const auto& r : recipes()) s.push_back(r.stats);
    return s;
  }();
  return suite;
}

std::vector<SuiteEntry> table6_sorted_by_cf() {
  std::vector<SuiteEntry> s = table6_suite();
  std::sort(s.begin(), s.end(),
            [](const SuiteEntry& a, const SuiteEntry& b) { return a.cf < b.cf; });
  return s;
}

const SuiteEntry& suite_entry(const std::string& name) {
  for (const auto& e : table6_suite()) {
    if (e.name == name) return e;
  }
  throw std::invalid_argument("unknown suite matrix: " + name);
}

SuiteMatrix load_suite_matrix(const SuiteEntry& entry, double shrink,
                              std::optional<std::string> dir_override) {
  SuiteMatrix out;
  out.entry = entry;

  std::string dir;
  if (dir_override) {
    dir = *dir_override;
  } else if (const char* env = std::getenv("PBS_MATRIX_DIR")) {
    dir = env;
  }
  if (!dir.empty()) {
    const std::filesystem::path path =
        std::filesystem::path(dir) / (entry.name + ".mtx");
    if (std::filesystem::exists(path)) {
      out.matrix = coo_to_csr(read_matrix_market(path.string()));
      out.from_file = true;
      return out;
    }
  }

  const Recipe recipe = [&] {
    for (const auto& r : recipes()) {
      if (r.stats.name == entry.name) return r.recipe;
    }
    throw std::invalid_argument("unknown suite matrix: " + entry.name);
  }();
  out.matrix = build_surrogate(entry, recipe, shrink);
  return out;
}

}  // namespace pbs::mtx
