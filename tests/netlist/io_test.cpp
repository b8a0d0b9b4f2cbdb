#include "netlist/io.hpp"

#include <gtest/gtest.h>
#include <string>

#include <exception>
#include <stdexcept>

#include "netlist/generator.hpp"

namespace mcopt::netlist {
namespace {

TEST(IoTest, WritesCanonicalForm) {
  Netlist::Builder b{3};
  b.add_net({0, 1});
  b.add_net({0, 1, 2});
  EXPECT_EQ(to_string(b.build()), "mcnl 1\ncells 3\nnet 0 1\nnet 0 1 2\n");
}

TEST(IoTest, RoundTripsTiny) {
  Netlist::Builder b{4};
  b.add_net({0, 3});
  b.add_net({1, 2, 3});
  const Netlist original = b.build();
  const Netlist parsed = from_string(to_string(original));
  EXPECT_EQ(to_string(parsed), to_string(original));
}

TEST(IoTest, RoundTripsRandomInstances) {
  util::Rng rng{99};
  const Netlist nola = random_nola(NolaParams{15, 150, 2, 6}, rng);
  EXPECT_EQ(to_string(from_string(to_string(nola))), to_string(nola));
}

TEST(IoTest, IgnoresCommentsAndBlankLines) {
  const Netlist nl = from_string(
      "mcnl 1\n"
      "# a comment\n"
      "\n"
      "cells 2\n"
      "   \n"
      "net 0 1\n"
      "# trailing comment\n");
  EXPECT_EQ(nl.num_cells(), 2u);
  EXPECT_EQ(nl.num_nets(), 1u);
}

TEST(IoTest, RejectsEmptyInput) {
  EXPECT_THROW((void)from_string(""), std::runtime_error);
  EXPECT_THROW((void)from_string("# only a comment\n"), std::runtime_error);
}

TEST(IoTest, RejectsMissingHeader) {
  EXPECT_THROW(from_string("cells 2\nnet 0 1\n"), std::runtime_error);
}

TEST(IoTest, RejectsWrongVersion) {
  EXPECT_THROW(from_string("mcnl 2\ncells 2\n"), std::runtime_error);
}

TEST(IoTest, RejectsNetBeforeCells) {
  EXPECT_THROW(from_string("mcnl 1\nnet 0 1\n"), std::runtime_error);
}

TEST(IoTest, RejectsDuplicateCellsLine) {
  EXPECT_THROW(from_string("mcnl 1\ncells 2\ncells 3\n"), std::runtime_error);
}

TEST(IoTest, RejectsPinOutOfRange) {
  EXPECT_THROW(from_string("mcnl 1\ncells 2\nnet 0 2\n"), std::runtime_error);
}

TEST(IoTest, RejectsNonNumericPin) {
  EXPECT_THROW(from_string("mcnl 1\ncells 2\nnet 0 x\n"), std::runtime_error);
}

TEST(IoTest, RejectsUnknownKeyword) {
  EXPECT_THROW(from_string("mcnl 1\ncells 2\nfoo 1\n"), std::runtime_error);
}

TEST(IoTest, RejectsMissingCells) {
  EXPECT_THROW(from_string("mcnl 1\n"), std::runtime_error);
}

TEST(IoTest, ErrorMentionsLineNumber) {
  try {
    (void)from_string("mcnl 1\ncells 2\nnet 0 9\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos)
        << e.what();
  }
}

// A bad header or cells line is a parse error naming its line, never the
// Builder's std::invalid_argument or a count wrapped from a negative one.
TEST(IoTest, BadHeaderAndCountLinesNameTheirLine) {
  const struct {
    const char* text;
    const char* line;
  } cases[] = {
      {"mcnl 1\ncells 4294967296\n", "line 2"},
      {"mcnl 1\ncells 18446744073709551615\n", "line 2"},
      {"mcnl 1\n# comment\ncells -1\n", "line 3"},
      {"mcnl 1\ncells 3 junk\nnet 0 1\n", "line 2"},
      {"mcnl 1 junk\ncells 3\n", "line 1"},
  };
  for (const auto& c : cases) {
    try {
      (void)from_string(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(c.line), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a parse error: " << e.what();
    }
  }
}

TEST(IoTest, RejectsSinglePinNetInFile) {
  EXPECT_THROW(from_string("mcnl 1\ncells 3\nnet 1\n"), std::runtime_error);
}

}  // namespace
}  // namespace mcopt::netlist
