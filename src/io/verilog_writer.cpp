#include "io/verilog_writer.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "io/io_error.h"

namespace step::io {

namespace {

/// Sanitises an arbitrary net name into a Verilog identifier.
std::string ident(const std::string& name) {
  std::string out;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '$';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out = "n_" + out;
  return out;
}

}  // namespace

std::string write_verilog(const aig::Aig& a, const std::string& module_name) {
  std::ostringstream os;

  // Unique port names (sanitisation may collide; suffix on demand).
  std::unordered_set<std::string> used;
  auto unique_ident = [&](const std::string& base) {
    std::string name = ident(base);
    while (!used.insert(name).second) name += "_x";
    return name;
  };
  std::vector<std::string> in_names(a.num_inputs());
  for (std::uint32_t i = 0; i < a.num_inputs(); ++i) {
    in_names[i] = unique_ident(a.input_name(i));
  }
  std::vector<std::string> out_names(a.num_outputs());
  for (std::uint32_t i = 0; i < a.num_outputs(); ++i) {
    out_names[i] = unique_ident(a.output_name(i));
  }

  os << "module " << ident(module_name) << " (";
  for (std::uint32_t i = 0; i < a.num_inputs(); ++i) {
    os << in_names[i] << ", ";
  }
  for (std::uint32_t i = 0; i < a.num_outputs(); ++i) {
    os << out_names[i] << (i + 1 < a.num_outputs() ? ", " : "");
  }
  os << ");\n";
  for (std::uint32_t i = 0; i < a.num_inputs(); ++i) {
    os << "  input " << in_names[i] << ";\n";
  }
  for (std::uint32_t i = 0; i < a.num_outputs(); ++i) {
    os << "  output " << out_names[i] << ";\n";
  }

  // Gates in the cones of the outputs only.
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

  auto net_of = [&](std::uint32_t node) -> std::string {
    if (a.is_const(node)) return "1'b0";
    if (a.is_input(node)) return in_names[a.input_index(node)];
    return std::string("g").append(std::to_string(node));
  };
  auto edge = [&](aig::Lit l) {
    const std::string n = net_of(aig::node_of(l));
    return aig::is_complemented(l) ? "~" + n : n;
  };

  for (std::uint32_t n = 1; n < a.num_nodes(); ++n) {
    if (needed[n] && a.is_and(n)) os << "  wire g" << n << ";\n";
  }
  for (std::uint32_t n = 1; n < a.num_nodes(); ++n) {
    if (!needed[n] || !a.is_and(n)) continue;
    os << "  assign g" << n << " = " << edge(a.fanin0(n)) << " & "
       << edge(a.fanin1(n)) << ";\n";
  }
  for (std::uint32_t i = 0; i < a.num_outputs(); ++i) {
    const aig::Lit drv = a.output(i);
    if (aig::node_of(drv) == 0) {
      os << "  assign " << out_names[i] << " = "
         << (aig::is_complemented(drv) ? "1'b1" : "1'b0") << ";\n";
    } else {
      os << "  assign " << out_names[i] << " = " << edge(drv) << ";\n";
    }
  }
  os << "endmodule\n";
  return os.str();
}

void write_verilog_file(const aig::Aig& a, const std::string& path,
                        const std::string& module_name) {
  std::ofstream out(path);
  if (!out) throw IoError("verilog: cannot write '" + path + "'");
  out << write_verilog(a, module_name);
  if (!out) throw IoError("verilog: write failed for '" + path + "'");
}

}  // namespace step::io
