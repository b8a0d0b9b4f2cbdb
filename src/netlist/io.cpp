#include "netlist/io.hpp"

#include <cstddef>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/args.hpp"

namespace mcopt::netlist {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("netlist parse error at line " +
                           std::to_string(line) + ": " + what);
}

/// Fails unless nothing but blanks is left on the line.
void expect_line_end(std::istringstream& ls, std::size_t line) {
  std::string extra;
  if (ls >> extra) fail(line, "unexpected '" + extra + "' at end of line");
}

}  // namespace

void write_netlist(std::ostream& out, const Netlist& nl) {
  out << "mcnl 1\n";
  out << "cells " << nl.num_cells() << '\n';
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    out << "net";
    for (const CellId c : nl.pins(n)) out << ' ' << c;
    out << '\n';
  }
}

Netlist read_netlist(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  bool saw_magic = false;
  std::optional<Netlist::Builder> builder;
  std::vector<CellId> pins;

  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls{line};
    std::string keyword;
    if (!(ls >> keyword) || keyword[0] == '#') continue;

    if (!saw_magic) {
      int version = 0;
      if (keyword != "mcnl" || !(ls >> version) || version != 1) {
        fail(line_no, "expected header 'mcnl 1'");
      }
      expect_line_end(ls, line_no);
      saw_magic = true;
    } else if (keyword == "cells") {
      if (builder) fail(line_no, "duplicate 'cells' line");
      std::string count;
      ls >> count;
      expect_line_end(ls, line_no);
      std::size_t n = 0;
      try {
        n = util::parse_u64("cell count", count, 1, kMaxCells);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      builder.emplace(n);
    } else if (keyword == "net") {
      if (!builder) fail(line_no, "'net' before 'cells'");
      pins.clear();
      unsigned long long c = 0;
      while (ls >> c) {
        if (c >= builder->num_cells()) fail(line_no, "pin out of range");
        pins.push_back(static_cast<CellId>(c));
      }
      if (!ls.eof()) fail(line_no, "non-numeric pin");
      try {
        builder->add_net(pins);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (!saw_magic) throw std::runtime_error("netlist parse error: empty input");
  if (!builder) throw std::runtime_error("netlist parse error: missing 'cells'");
  return builder->build();
}

std::string to_string(const Netlist& nl) {
  std::ostringstream os;
  write_netlist(os, nl);
  return os.str();
}

Netlist from_string(const std::string& text) {
  std::istringstream is{text};
  return read_netlist(is);
}

}  // namespace mcopt::netlist
