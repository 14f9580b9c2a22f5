#include "core/query.h"

#include "util/string_util.h"

namespace urbane::core {

Status AggregationQuery::Validate() const {
  if (points == nullptr) {
    return Status::InvalidArgument("query has no point data set");
  }
  if (regions == nullptr) {
    return Status::InvalidArgument("query has no region set");
  }
  if (aggregate.NeedsAttribute()) {
    if (aggregate.attribute.empty()) {
      return Status::InvalidArgument(
          std::string(AggregateKindToString(aggregate.kind)) +
          " requires an attribute");
    }
    if (!points->schema().HasAttribute(aggregate.attribute)) {
      return Status::InvalidArgument("unknown aggregate attribute: " +
                                     aggregate.attribute);
    }
  }
  for (const AttributeRange& range : filter.attribute_ranges) {
    if (!points->schema().HasAttribute(range.attribute)) {
      return Status::InvalidArgument("unknown filter attribute: " +
                                     range.attribute);
    }
    if (range.lo > range.hi) {
      return Status::InvalidArgument("empty filter range on attribute: " +
                                     range.attribute);
    }
  }
  if (filter.time_range && filter.time_range->begin > filter.time_range->end) {
    return Status::InvalidArgument("empty time range");
  }
  return Status::OK();
}

std::string AggregationQuery::ToString() const {
  std::string out = "SELECT ";
  out += AggregateKindToString(aggregate.kind);
  out += "(";
  out += aggregate.NeedsAttribute() ? aggregate.attribute : "*";
  out += ") FROM P, R WHERE P.loc INSIDE R.geometry";
  if (filter.spatial_window) {
    out += StringPrintf(" AND P.loc INSIDE BOX [%g, %g, %g, %g]",
                        filter.spatial_window->min_x,
                        filter.spatial_window->min_y,
                        filter.spatial_window->max_x,
                        filter.spatial_window->max_y);
  }
  if (filter.time_range) {
    out += StringPrintf(" AND P.t IN [%lld, %lld)",
                        static_cast<long long>(filter.time_range->begin),
                        static_cast<long long>(filter.time_range->end));
  }
  for (const AttributeRange& range : filter.attribute_ranges) {
    out += StringPrintf(" AND P.%s IN [%g, %g]", range.attribute.c_str(),
                        range.lo, range.hi);
  }
  out += " GROUP BY R.id";
  return out;
}

StatusOr<QueryResult> SpatialAggregationExecutor::Execute(
    const AggregationQuery& query) const {
  URBANE_ASSIGN_OR_RETURN(PartialResult partial, ExecutePartial(query));
  return partial.Finalize(query.aggregate.kind);
}

}  // namespace urbane::core
