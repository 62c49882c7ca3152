#include "io/instance_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/assert.h"

namespace cdst {

void write_instance(std::ostream& os, const CostDistanceInstance& inst) {
  inst.validate();
  CDST_CHECK_MSG(inst.graph != nullptr,
                 "instance files need an explicit CSR graph (materialize "
                 "the window first)");
  const Graph& g = *inst.graph;
  os << "cdst-instance 1\n";
  os << "graph " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  os.precision(17);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    os << g.tail(e) << ' ' << g.head(e) << ' ' << (*inst.cost)[e] << ' '
       << (*inst.delay)[e] << '\n';
  }
  os << "root " << inst.root << '\n';
  os << "penalty " << inst.dbif << ' ' << inst.eta << '\n';
  os << "sinks " << inst.sinks.size() << '\n';
  for (const Terminal& t : inst.sinks) {
    os << t.vertex << ' ' << t.weight << '\n';
  }
}

void write_instance_file(const std::string& path,
                         const CostDistanceInstance& inst) {
  std::ofstream f(path);
  CDST_CHECK_MSG(f.good(), "cannot open " + path + " for writing");
  write_instance(f, inst);
}

OwnedInstance read_instance(std::istream& is) {
  std::string tag;
  int version = 0;
  is >> tag >> version;
  CDST_CHECK_MSG(tag == "cdst-instance" && version == 1,
                 "not a cdst instance file");
  std::size_t n = 0, m = 0;
  is >> tag >> n >> m;
  CDST_CHECK_MSG(tag == "graph", "malformed instance: expected 'graph'");

  OwnedInstance out;
  GraphBuilder builder(n);
  out.cost.reserve(m);
  out.delay.reserve(m);
  for (std::size_t e = 0; e < m; ++e) {
    VertexId a = 0, b = 0;
    double c = 0.0, d = 0.0;
    is >> a >> b >> c >> d;
    CDST_CHECK_MSG(is.good(), "malformed instance: truncated edge list");
    builder.add_edge(a, b);
    out.cost.push_back(c);
    out.delay.push_back(d);
  }
  out.graph = std::make_unique<Graph>(builder);

  VertexId root = 0;
  is >> tag >> root;
  CDST_CHECK_MSG(tag == "root", "malformed instance: expected 'root'");
  double dbif = 0.0, eta = 0.5;
  is >> tag >> dbif >> eta;
  CDST_CHECK_MSG(tag == "penalty", "malformed instance: expected 'penalty'");
  std::size_t k = 0;
  is >> tag >> k;
  CDST_CHECK_MSG(tag == "sinks", "malformed instance: expected 'sinks'");

  out.instance.graph = out.graph.get();
  out.instance.cost = &out.cost;
  out.instance.delay = &out.delay;
  out.instance.root = root;
  out.instance.dbif = dbif;
  out.instance.eta = eta;
  for (std::size_t i = 0; i < k; ++i) {
    Terminal t;
    is >> t.vertex >> t.weight;
    CDST_CHECK_MSG(!is.fail(), "malformed instance: truncated sink list");
    out.instance.sinks.push_back(t);
  }
  out.instance.validate();
  return out;
}

OwnedInstance read_instance_file(const std::string& path) {
  std::ifstream f(path);
  CDST_CHECK_MSG(f.good(), "cannot open " + path);
  return read_instance(f);
}

}  // namespace cdst
