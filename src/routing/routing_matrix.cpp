#include "routing/routing_matrix.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace netmon::routing {

namespace {

using PairRows = std::vector<std::vector<std::pair<topo::LinkId, double>>>;
using Span = std::pair<std::size_t, std::size_t>;

// Orders OD rows by source (stable within a source) so each distinct
// source needs exactly one Dijkstra.
void sort_by_source(const std::vector<OdPair>& ods,
                    std::vector<std::size_t>& rows) {
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    if (ods[a].src != ods[b].src) return ods[a].src < ods[b].src;
    return a < b;
  });
}

// Routes `rows` (in sort_by_source order) over single shortest paths
// around `failed`, one Dijkstra per distinct source reused in place. All
// paths land in one LinkId arena sorted by link id, row k's at
// spans[k]: allocation count stays flat in the OD count.
void route_rows(const topo::Graph& graph, const std::vector<OdPair>& ods,
                const std::vector<std::size_t>& rows, const LinkSet& failed,
                std::vector<topo::LinkId>& arena, std::vector<Span>& spans) {
  SpfResult spf;
  for (std::size_t pos = 0; pos < rows.size(); ++pos) {
    const std::size_t k = rows[pos];
    if (pos == 0 || ods[k].src != ods[rows[pos - 1]].src)
      dijkstra_into(graph, ods[k].src, failed, spf);
    const std::size_t begin = arena.size();
    extract_path_into(spf, graph, ods[k].dst, arena);
    spans[k] = {begin, arena.size()};
    std::sort(arena.begin() + static_cast<std::ptrdiff_t>(begin),
              arena.end());
  }
}

}  // namespace

RoutingMatrix RoutingMatrix::single_path(const topo::Graph& graph,
                                         std::vector<OdPair> ods,
                                         const LinkSet& failed) {
  RoutingMatrix matrix;
  matrix.ods_ = std::move(ods);
  matrix.single_path_ = true;
  matrix.failed_ = failed;
  const std::size_t count = matrix.ods_.size();

  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  sort_by_source(matrix.ods_, order);
  std::vector<topo::LinkId> arena;
  arena.reserve(count * 8);
  std::vector<Span> spans(count);
  route_rows(graph, matrix.ods_, order, failed, arena, spans);

  linalg::CsrBuilder builder(graph.link_count());
  builder.reserve(count, arena.size());
  for (const auto& [begin, end] : spans) {
    for (std::size_t i = begin; i < end; ++i) builder.push(arena[i], 1.0);
    builder.finish_row();
  }
  matrix.csr_ = builder.build();
  matrix.csc_ = matrix.csr_.transpose();
  return matrix;
}

RoutingMatrix RoutingMatrix::reroute(const RoutingMatrix& base,
                                     const topo::Graph& graph,
                                     const LinkSet& failed) {
  NETMON_REQUIRE(base.single_path_, "reroute needs a single-path base");
  NETMON_REQUIRE(base.link_count() == graph.link_count(),
                 "reroute base was built over another graph");
  RoutingMatrix matrix;
  matrix.ods_ = base.ods_;
  matrix.single_path_ = true;
  matrix.failed_ = base.failed_;
  matrix.failed_.insert(failed.begin(), failed.end());
  const std::size_t count = matrix.ods_.size();

  // The rows whose path crosses a newly failed link. Ids outside the
  // graph name no link, as in single_path.
  std::vector<char> affected(count, 0);
  std::vector<std::size_t> rows;
  for (topo::LinkId id : failed) {
    if (id >= base.link_count()) continue;
    for (const auto& [k, fraction] : base.ods_on_link(id)) {
      if (!affected[k]) {
        affected[k] = 1;
        rows.push_back(k);
      }
    }
  }
  if (rows.empty()) {
    matrix.csr_ = base.csr_;
    matrix.csc_ = base.csc_;
    return matrix;
  }

  sort_by_source(matrix.ods_, rows);
  std::vector<topo::LinkId> arena;
  std::vector<Span> spans(count);
  route_rows(graph, matrix.ods_, rows, matrix.failed_, arena, spans);

  // Splice: recomputed rows from the arena, every other row from base.
  linalg::CsrBuilder builder(graph.link_count());
  builder.reserve(count, base.csr_.nnz() + arena.size());
  for (std::size_t k = 0; k < count; ++k) {
    if (affected[k]) {
      for (std::size_t i = spans[k].first; i < spans[k].second; ++i)
        builder.push(arena[i], 1.0);
    } else {
      for (const auto& [link, fraction] : base.csr_.row(k))
        builder.push(link, fraction);
    }
    builder.finish_row();
  }
  matrix.csr_ = builder.build();
  matrix.csc_ = matrix.csr_.transpose();
  return matrix;
}

RoutingMatrix RoutingMatrix::ecmp(const topo::Graph& graph,
                                  std::vector<OdPair> ods,
                                  const LinkSet& failed) {
  RoutingMatrix matrix;
  matrix.ods_ = std::move(ods);
  matrix.failed_ = failed;
  PairRows rows(matrix.ods_.size());
  for (std::size_t k = 0; k < matrix.ods_.size(); ++k) {
    auto row = ecmp_fractions(graph, matrix.ods_[k].src, matrix.ods_[k].dst,
                              failed);
    NETMON_REQUIRE(!row.empty(),
                   "OD pair destination unreachable: " +
                       graph.node(matrix.ods_[k].dst).name);
    std::sort(row.begin(), row.end());
    rows[k] = std::move(row);
  }
  matrix.csr_ = linalg::SparseCsr::from_rows(graph.link_count(), rows);
  matrix.csc_ = matrix.csr_.transpose();
  return matrix;
}

RoutingMatrix::RowView RoutingMatrix::row(std::size_t k) const {
  NETMON_REQUIRE(k < csr_.rows(), "OD row index out of range");
  return csr_.row(k);
}

RoutingMatrix::RowView RoutingMatrix::ods_on_link(topo::LinkId link) const {
  NETMON_REQUIRE(link < csc_.rows(), "link id out of range");
  return csc_.row(link);
}

double RoutingMatrix::fraction(std::size_t k, topo::LinkId link) const {
  const RowView r = row(k);
  const std::span<const linalg::SparseCsr::Index> cols = r.cols();
  const auto it = std::lower_bound(cols.begin(), cols.end(), link);
  if (it == cols.end() || *it != link) return 0.0;
  return r.values()[static_cast<std::size_t>(it - cols.begin())];
}

std::vector<topo::LinkId> RoutingMatrix::links_used() const {
  std::size_t used = 0;
  for (topo::LinkId id = 0; id < csc_.rows(); ++id) {
    if (!csc_.row(id).empty()) ++used;
  }
  std::vector<topo::LinkId> links;
  links.reserve(used);
  for (topo::LinkId id = 0; id < csc_.rows(); ++id) {
    if (!csc_.row(id).empty()) links.push_back(id);
  }
  return links;
}

}  // namespace netmon::routing
