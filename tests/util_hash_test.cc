#include "util/hash.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/table_printer.h"

namespace flowercdn {
namespace {

TEST(HashTest, DeterministicAcrossCalls) {
  EXPECT_EQ(Hash64("flower"), Hash64("flower"));
  EXPECT_EQ(Mix64(123), Mix64(123));
}

TEST(HashTest, DistinctInputsDistinctOutputs) {
  std::set<uint64_t> hashes;
  for (int i = 0; i < 10000; ++i) {
    hashes.insert(Hash64("key-" + std::to_string(i)));
  }
  EXPECT_EQ(hashes.size(), 10000u);  // no collision in a small sample
}

TEST(HashTest, EmptyStringHashesStably) {
  EXPECT_EQ(Hash64(""), Hash64(std::string()));
}

TEST(HashTest, SmallChangesAvalanche) {
  uint64_t a = Hash64("object-1");
  uint64_t b = Hash64("object-2");
  int differing_bits = __builtin_popcountll(a ^ b);
  EXPECT_GT(differing_bits, 16);  // strong diffusion
}

TEST(HashTest, Mix64AvalanchesSingleBitFlips) {
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t x = 0x1234567890abcdefULL;
    int differing = __builtin_popcountll(Mix64(x) ^ Mix64(x ^ (1ULL << bit)));
    EXPECT_GT(differing, 12) << "weak avalanche at bit " << bit;
  }
}

TEST(HashTest, CombineIsOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_EQ(HashCombine(1, 2), HashCombine(1, 2));
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "22"});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TablePrinterTest, RaggedRowsRenderSafely) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"1"});
  table.AddRow({"1", "2", "3", "4"});
  std::ostringstream os;
  table.Print(os);
  EXPECT_FALSE(os.str().empty());
}

TEST(FormatDoubleTest, RespectsDigits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(0.5, 3), "0.500");
}

}  // namespace
}  // namespace flowercdn
