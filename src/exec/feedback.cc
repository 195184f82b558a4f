#include "exec/feedback.h"

#include "algebra/descriptor_store.h"
#include "common/strings.h"

namespace prairie::exec {

using common::Status;

namespace {

Status AppendLines(const algebra::Expr& plan, const OpStats& stats,
                   algebra::DescriptorStore* store, std::string* out) {
  std::string key;
  plan.Fingerprint(store, &key);
  static constexpr char kHex[] = "0123456789abcdef";
  *out += "{\"key\":\"";
  for (const char c : key) {
    const auto b = static_cast<unsigned char>(c);
    *out += kHex[b >> 4];
    *out += kHex[b & 0xf];
  }
  *out += "\"";
  if (stats.est_rows >= 0) {
    *out += ",\"est_rows\":" + common::FormatDouble(stats.est_rows);
  }
  *out += ",\"actual_rows\":" + std::to_string(stats.rows) + "}\n";
  size_t next_stats_child = 0;
  for (size_t i = 0; i < plan.num_children(); ++i) {
    if (plan.child(i).is_file()) continue;
    if (next_stats_child >= stats.children.size() ||
        stats.children[next_stats_child]->child_index !=
            static_cast<int>(i)) {
      return Status::Internal(
          "cardinality feedback: stats tree does not match the plan under "
          "algorithm '" +
          stats.alg + "'");
    }
    PRAIRIE_RETURN_NOT_OK(AppendLines(
        plan.child(i), *stats.children[next_stats_child], store, out));
    ++next_stats_child;
  }
  if (next_stats_child != stats.children.size()) {
    return Status::Internal(
        "cardinality feedback: stats tree has extra children under "
        "algorithm '" +
        stats.alg + "'");
  }
  return Status::OK();
}

}  // namespace

common::Result<std::string> FeedbackJson(const algebra::Expr& plan,
                                         const ExecStats& stats,
                                         algebra::DescriptorStore* store) {
  std::string out;
  if (stats.root() == nullptr) return out;  // Nothing collected.
  if (plan.is_file()) {
    return Status::Internal(
        "cardinality feedback: plan root is a stored file");
  }
  PRAIRIE_RETURN_NOT_OK(AppendLines(plan, *stats.root(), store, &out));
  return out;
}

}  // namespace prairie::exec
