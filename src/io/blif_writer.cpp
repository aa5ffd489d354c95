#include "io/blif_writer.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "io/io_error.h"

namespace step::io {

namespace {

std::string node_net(const aig::Aig& a, std::uint32_t node) {
  if (a.is_input(node)) return a.input_name(a.input_index(node));
  return std::string("n").append(std::to_string(node));
}

}  // namespace

std::string write_blif(const aig::Aig& a, const std::string& model_name) {
  std::ostringstream os;
  os << ".model " << model_name << '\n';
  os << ".inputs";
  for (std::uint32_t i = 0; i < a.num_inputs(); ++i) os << ' ' << a.input_name(i);
  os << '\n';
  os << ".outputs";
  for (std::uint32_t i = 0; i < a.num_outputs(); ++i) os << ' ' << a.output_name(i);
  os << '\n';

  // Emit only gates in the cones of outputs.
  std::vector<char> needed(a.num_nodes(), 0);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t i = 0; i < a.num_outputs(); ++i) {
    stack.push_back(aig::node_of(a.output(i)));
  }
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (needed[n]) continue;
    needed[n] = 1;
    if (a.is_and(n)) {
      stack.push_back(aig::node_of(a.fanin0(n)));
      stack.push_back(aig::node_of(a.fanin1(n)));
    }
  }

  for (std::uint32_t n = 1; n < a.num_nodes(); ++n) {
    if (!needed[n] || !a.is_and(n)) continue;
    const aig::Lit f0 = a.fanin0(n);
    const aig::Lit f1 = a.fanin1(n);
    os << ".names " << node_net(a, aig::node_of(f0)) << ' '
       << node_net(a, aig::node_of(f1)) << ' ' << node_net(a, n) << '\n';
    os << (aig::is_complemented(f0) ? '0' : '1')
       << (aig::is_complemented(f1) ? '0' : '1') << " 1\n";
  }

  // Output buffers/inverters (also handles constant and input drivers).
  for (std::uint32_t i = 0; i < a.num_outputs(); ++i) {
    const aig::Lit drv = a.output(i);
    const std::uint32_t n = aig::node_of(drv);
    if (a.is_const(n)) {
      os << ".names " << a.output_name(i) << '\n';
      if (aig::is_complemented(drv)) os << "1\n";  // constant true
      continue;
    }
    os << ".names " << node_net(a, n) << ' ' << a.output_name(i) << '\n';
    os << (aig::is_complemented(drv) ? "0 1\n" : "1 1\n");
  }
  os << ".end\n";
  return os.str();
}

void write_blif_file(const aig::Aig& a, const std::string& path,
                     const std::string& model_name) {
  std::ofstream out(path);
  if (!out) throw IoError("blif: cannot write '" + path + "'");
  out << write_blif(a, model_name);
  if (!out) throw IoError("blif: write failed for '" + path + "'");
}

}  // namespace step::io
