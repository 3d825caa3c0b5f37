#ifndef LTEE_UTIL_SIMILARITY_H_
#define LTEE_UTIL_SIMILARITY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ltee::util {

class TokenDictionary;

/// Levenshtein edit distance between `a` and `b`.
int LevenshteinDistance(std::string_view a, std::string_view b);

/// Normalized Levenshtein similarity in [0, 1]:
/// 1 - distance / max(|a|, |b|). Two empty strings are fully similar.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Jaccard similarity of two token sets.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// Jaccard similarity of two interned token sets. Both spans must be
/// sorted and duplicate-free (see util::SortedUnique). Numerically
/// identical to the string overload on the same token sets.
double JaccardSimilarity(std::span<const uint32_t> a_sorted,
                         std::span<const uint32_t> b_sorted);

/// The Monge-Elkan loop every LABEL similarity shares: ME(x, y) is the
/// mean over the `nx` tokens of x of their best inner similarity against
/// the `ny` tokens of y (1 when both are empty, 0 when only y is).
/// `same(i, j)` says token i of x equals token j of y; the pair then
/// scores 1.0, the maximum, without calling `sim(i, j)`, the inner
/// similarity in [0, 1].
template <typename Same, typename Sim>
inline double MongeElkanDirected(size_t nx, size_t ny, const Same& same,
                                 const Sim& sim) {
  if (nx == 0) return ny == 0 ? 1.0 : 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < nx; ++i) {
    double best = 0.0;
    for (size_t j = 0; j < ny; ++j) {
      if (same(i, j)) {
        best = 1.0;
        break;
      }
      best = std::max(best, sim(i, j));
    }
    sum += best;
  }
  return sum / static_cast<double>(nx);
}

/// max(ME(a, b), ME(b, a)) with `same` and `sim` indexed (token of a,
/// token of b) in both directions, so `sim` must be symmetric.
template <typename Same, typename Sim>
inline double MongeElkan(size_t na, size_t nb, const Same& same,
                         const Sim& sim) {
  return std::max(
      MongeElkanDirected(na, nb, same, sim),
      MongeElkanDirected(
          nb, na, [&](size_t j, size_t i) { return same(i, j); },
          [&](size_t j, size_t i) { return sim(i, j); }));
}

/// Monge-Elkan similarity with Levenshtein as the inner similarity
/// function, as used by the paper's LABEL metrics: the mean over tokens of
/// `a` of the best inner similarity against tokens of `b`. The returned
/// value is symmetrized: max(ME(a,b), ME(b,a)).
double MongeElkanLevenshtein(const std::vector<std::string>& a,
                             const std::vector<std::string>& b);

/// Convenience overload operating on raw strings (tokenizes internally).
double MongeElkanLevenshtein(std::string_view a, std::string_view b);

/// Monge-Elkan over interned token lists (ordered, duplicates kept, like
/// Tokenize output). Ids are resolved through `dict` for the inner
/// Levenshtein similarity; equal ids short-circuit to 1.0. Numerically
/// identical to the string overload on the same token lists.
double MongeElkanLevenshtein(std::span<const uint32_t> a,
                             std::span<const uint32_t> b,
                             const TokenDictionary& dict);

/// Cosine similarity of two *binary* term vectors represented as sets.
double CosineBinary(const std::unordered_set<std::string>& a,
                    const std::unordered_set<std::string>& b);

/// Cosine similarity of binary term vectors as sorted-unique interned
/// token sets. Numerically identical to the set-of-strings overload.
double CosineBinary(std::span<const uint32_t> a_sorted,
                    std::span<const uint32_t> b_sorted);

/// Cosine similarity of two sparse real vectors keyed by uint32 ids.
double CosineSparse(const std::unordered_map<uint32_t, double>& a,
                    const std::unordered_map<uint32_t, double>& b);

/// Cosine similarity of two dense vectors (must be equal length).
double CosineDense(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace ltee::util

#endif  // LTEE_UTIL_SIMILARITY_H_
