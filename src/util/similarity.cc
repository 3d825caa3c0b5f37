#include "util/similarity.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"
#include "util/token_dictionary.h"

namespace ltee::util {

namespace {

/// Intersection size of two sorted duplicate-free id ranges.
size_t SortedIntersectionSize(std::span<const uint32_t> a,
                              std::span<const uint32_t> b) {
  size_t inter = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  return inter;
}

}  // namespace

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size(), m = b.size();
  if (n == 0) return static_cast<int>(m);
  std::vector<int> prev(n + 1), cur(n + 1);
  for (size_t i = 0; i <= n; ++i) prev[i] = static_cast<int>(i);
  for (size_t j = 1; j <= m; ++j) {
    cur[0] = static_cast<int>(j);
    for (size_t i = 1; i <= n; ++i) {
      int sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  size_t inter = 0;
  for (const auto& t : sa) inter += sb.count(t);
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double JaccardSimilarity(std::span<const uint32_t> a_sorted,
                         std::span<const uint32_t> b_sorted) {
  if (a_sorted.empty() && b_sorted.empty()) return 1.0;
  const size_t inter = SortedIntersectionSize(a_sorted, b_sorted);
  const size_t uni = a_sorted.size() + b_sorted.size() - inter;
  return uni == 0 ? 1.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

double MongeElkanLevenshtein(const std::vector<std::string>& a,
                             const std::vector<std::string>& b) {
  return MongeElkan(
      a.size(), b.size(), [&](size_t i, size_t j) { return a[i] == b[j]; },
      [&](size_t i, size_t j) { return LevenshteinSimilarity(a[i], b[j]); });
}

double MongeElkanLevenshtein(std::string_view a, std::string_view b) {
  return MongeElkanLevenshtein(Tokenize(a), Tokenize(b));
}

double MongeElkanLevenshtein(std::span<const uint32_t> a,
                             std::span<const uint32_t> b,
                             const TokenDictionary& dict) {
  std::vector<std::string_view> a_str(a.size()), b_str(b.size());
  for (size_t i = 0; i < a.size(); ++i) a_str[i] = dict.token(a[i]);
  for (size_t j = 0; j < b.size(); ++j) b_str[j] = dict.token(b[j]);
  return MongeElkan(
      a.size(), b.size(), [&](size_t i, size_t j) { return a[i] == b[j]; },
      [&](size_t i, size_t j) {
        return LevenshteinSimilarity(a_str[i], b_str[j]);
      });
}

double CosineBinary(const std::unordered_set<std::string>& a,
                    const std::unordered_set<std::string>& b) {
  if (a.empty() || b.empty()) return 0.0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  size_t inter = 0;
  for (const auto& t : small) inter += large.count(t);
  return static_cast<double>(inter) /
         (std::sqrt(static_cast<double>(a.size())) *
          std::sqrt(static_cast<double>(b.size())));
}

double CosineBinary(std::span<const uint32_t> a_sorted,
                    std::span<const uint32_t> b_sorted) {
  if (a_sorted.empty() || b_sorted.empty()) return 0.0;
  const size_t inter = SortedIntersectionSize(a_sorted, b_sorted);
  return static_cast<double>(inter) /
         (std::sqrt(static_cast<double>(a_sorted.size())) *
          std::sqrt(static_cast<double>(b_sorted.size())));
}

double CosineSparse(const std::unordered_map<uint32_t, double>& a,
                    const std::unordered_map<uint32_t, double>& b) {
  if (a.empty() || b.empty()) return 0.0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  double dot = 0.0;
  for (const auto& [k, v] : small) {
    auto it = large.find(k);
    if (it != large.end()) dot += v * it->second;
  }
  double na = 0.0, nb = 0.0;
  for (const auto& [k, v] : a) na += v * v;
  for (const auto& [k, v] : b) nb += v * v;
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double CosineDense(const std::vector<double>& a, const std::vector<double>& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace ltee::util
