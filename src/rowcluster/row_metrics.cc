#include "rowcluster/row_metrics.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "types/type_similarity.h"
#include "util/metrics.h"
#include "util/similarity.h"
#include "util/trace.h"

namespace ltee::rowcluster {

const char* RowMetricName(RowMetric metric) {
  switch (metric) {
    case RowMetric::kLabel: return "LABEL";
    case RowMetric::kBow: return "BOW";
    case RowMetric::kPhi: return "PHI";
    case RowMetric::kAttribute: return "ATTRIBUTE";
    case RowMetric::kImplicitAtt: return "IMPLICIT_ATT";
    case RowMetric::kSameTable: return "SAME_TABLE";
  }
  return "?";
}

std::vector<bool> FirstKMetrics(int k) {
  std::vector<bool> mask(kNumRowMetrics, false);
  for (int i = 0; i < std::min(k, kNumRowMetrics); ++i) mask[i] = true;
  return mask;
}

namespace {

/// Vocabularies larger than this skip the LABEL precompute: the quadratic
/// similarity matrix would cost more than it saves.
constexpr size_t kMaxLabelVocab = 2048;

}  // namespace

RowMetricBank::RowMetricBank(const ClassRowSet& rows,
                             std::vector<bool> enabled)
    : rows_(&rows), enabled_(std::move(enabled)) {
  util::trace::ScopedSpan span("rowcluster.metric_bank");
  span.AddArg("rows", rows.rows.size());
  enabled_.resize(kNumRowMetrics, false);
  for (bool b : enabled_) num_enabled_ += b ? 1 : 0;

  if (enabled_[static_cast<int>(RowMetric::kLabel)] && rows.dict != nullptr) {
    // Dense remap of every token id appearing in a row label, in first
    // appearance order (the order does not affect the similarity values).
    std::unordered_map<uint32_t, uint32_t> local_of;
    label_local_.reserve(rows.rows.size());
    for (const auto& row : rows.rows) {
      std::vector<uint32_t> local(row.label_tokens.size());
      for (size_t t = 0; t < row.label_tokens.size(); ++t) {
        auto [it, inserted] = local_of.emplace(
            row.label_tokens[t], static_cast<uint32_t>(local_of.size()));
        local[t] = it->second;
      }
      label_local_.push_back(std::move(local));
    }
    vocab_ = local_of.size();
    if (vocab_ == 0 || vocab_ > kMaxLabelVocab) {
      vocab_ = 0;
      label_local_.clear();
    } else {
      std::vector<std::string_view> token_str(vocab_);
      for (const auto& [id, local] : local_of) {
        token_str[local] = rows.dict->token(id);
      }
      util::Metrics()
          .GetGauge("ltee.rowcluster.metric_bank.token_sim_bytes")
          .Max(static_cast<double>(vocab_ * vocab_ * sizeof(double)));
      token_sim_.assign(vocab_ * vocab_, 1.0);
      for (size_t x = 0; x < vocab_; ++x) {
        for (size_t y = x + 1; y < vocab_; ++y) {
          const double sim =
              util::LevenshteinSimilarity(token_str[x], token_str[y]);
          token_sim_[x * vocab_ + y] = sim;
          token_sim_[y * vocab_ + x] = sim;
        }
      }
    }
  }

  if (enabled_[static_cast<int>(RowMetric::kPhi)]) {
    num_tables_ = rows.table_phi.size();
    util::Metrics()
        .GetGauge("ltee.rowcluster.metric_bank.phi_sim_bytes")
        .Max(static_cast<double>(num_tables_ * num_tables_ * sizeof(double)));
    phi_sim_.assign(num_tables_ * num_tables_, 0.0);
    // Both ordered directions are computed: CosineSparse accumulates the
    // dot product over whichever map it iterates first, so (x, y) and
    // (y, x) can differ in the last bit when the maps have equal size.
    for (size_t x = 0; x < num_tables_; ++x) {
      for (size_t y = 0; y < num_tables_; ++y) {
        phi_sim_[x * num_tables_ + y] =
            util::CosineSparse(rows.table_phi[x], rows.table_phi[y]);
      }
    }
  }
  span.AddArg("label_vocab", vocab_);
  span.AddArg("phi_tables", num_tables_);
}

double RowMetricBank::LabelSimilarity(int i, int j) const {
  if (vocab_ == 0) {
    return util::MongeElkanLevenshtein(rows_->rows[i].label_tokens,
                                       rows_->rows[j].label_tokens,
                                       *rows_->dict);
  }
  const std::vector<uint32_t>& ta = label_local_[i];
  const std::vector<uint32_t>& tb = label_local_[j];
  // The loop util::MongeElkanLevenshtein runs, with the inner similarity
  // read from the symmetric precomputed matrix: the doubles match the
  // dict-resolving implementation bit for bit.
  return util::MongeElkan(
      ta.size(), tb.size(),
      [&](size_t x, size_t y) { return ta[x] == tb[y]; },
      [&](size_t x, size_t y) { return token_sim_[ta[x] * vocab_ + tb[y]]; });
}

std::vector<std::string> RowMetricBank::EnabledNames() const {
  std::vector<std::string> out;
  for (int m = 0; m < kNumRowMetrics; ++m) {
    if (enabled_[m]) out.push_back(RowMetricName(static_cast<RowMetric>(m)));
  }
  return out;
}

namespace {

const types::TypeSimilarityOptions kSimOptions;

/// ATTRIBUTE: average type-equality of overlapping value pairs, with the
/// number of compared pairs as confidence.
std::pair<double, double> AttributeSimilarity(const RowFeature& a,
                                              const RowFeature& b) {
  int pairs = 0;
  double sum = 0.0;
  for (const auto& rv : a.values) {
    const types::Value* other = b.ValueOf(rv.property);
    if (other == nullptr) continue;
    ++pairs;
    sum += types::ValuesEqual(rv.value, *other, kSimOptions) ? 1.0 : 0.0;
  }
  if (pairs == 0) return {-1.0, 0.0};
  return {sum / pairs, static_cast<double>(pairs)};
}

/// One direction of IMPLICIT_ATT: implicit attributes of `a`'s table
/// against column values and implicit attributes of `b`.
void CompareImplicitDirected(const ClassRowSet& rows, const RowFeature& a,
                             const RowFeature& b, double* sum, double* count,
                             double* confidence) {
  for (const auto& implicit : rows.table_implicit[a.table_index]) {
    // Overlap against b's explicit column values.
    const types::Value* value = b.ValueOf(implicit.property);
    bool compared = false;
    double equal = 0.0;
    if (value != nullptr) {
      compared = true;
      equal = types::ValuesEqual(implicit.value, *value, kSimOptions) ? 1.0
                                                                      : 0.0;
    } else {
      // Overlap against b's table-level implicit attributes.
      for (const auto& other : rows.table_implicit[b.table_index]) {
        if (other.property != implicit.property) continue;
        compared = true;
        equal = types::ValuesEqual(implicit.value, other.value, kSimOptions)
                    ? 1.0
                    : 0.0;
        break;
      }
    }
    if (compared) {
      *sum += equal;
      *count += 1.0;
      *confidence += implicit.score;
    }
  }
}

std::pair<double, double> ImplicitSimilarity(const ClassRowSet& rows,
                                             const RowFeature& a,
                                             const RowFeature& b) {
  if (a.table_index == b.table_index) return {-1.0, 0.0};
  double sum = 0.0, count = 0.0, confidence = 0.0;
  CompareImplicitDirected(rows, a, b, &sum, &count, &confidence);
  CompareImplicitDirected(rows, b, a, &sum, &count, &confidence);
  if (count == 0.0) return {-1.0, 0.0};
  return {sum / count, confidence};
}

}  // namespace

ml::ScoredFeatures RowMetricBank::Compare(int i, int j) const {
  const RowFeature& a = rows_->rows[i];
  const RowFeature& b = rows_->rows[j];
  ml::ScoredFeatures out;
  out.sims.reserve(num_enabled_);
  out.confs.reserve(num_enabled_);

  auto push = [&out](double sim, double conf) {
    out.sims.push_back(sim);
    out.confs.push_back(conf);
  };

  if (enabled_[static_cast<int>(RowMetric::kLabel)]) {
    push(LabelSimilarity(i, j), 0.0);
  }
  if (enabled_[static_cast<int>(RowMetric::kBow)]) {
    push(util::CosineBinary(a.bow, b.bow), 0.0);
  }
  if (enabled_[static_cast<int>(RowMetric::kPhi)]) {
    push(num_tables_ == 0
             ? util::CosineSparse(rows_->table_phi[a.table_index],
                                  rows_->table_phi[b.table_index])
             : phi_sim_[a.table_index * num_tables_ + b.table_index],
         0.0);
  }
  if (enabled_[static_cast<int>(RowMetric::kAttribute)]) {
    auto [sim, conf] = AttributeSimilarity(a, b);
    push(sim, conf);
  }
  if (enabled_[static_cast<int>(RowMetric::kImplicitAtt)]) {
    auto [sim, conf] = ImplicitSimilarity(*rows_, a, b);
    push(sim, conf);
  }
  if (enabled_[static_cast<int>(RowMetric::kSameTable)]) {
    push(a.table_index == b.table_index ? 0.0 : 1.0, 0.0);
  }
  return out;
}

}  // namespace ltee::rowcluster
