/// Checksums (checkpoint integrity) and atomic file replacement (every
/// machine-readable artifact greensph writes).

#include "util/atomic_file.hpp"
#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace gsph::util {
namespace {

/// The bytewise table-driven CRC-32 that crc32() computed before it read
/// eight bytes per step; kept as the reference it must match.
std::uint32_t reference_crc32(std::string_view data)
{
    std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        table[i] = c;
    }
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const char ch : data) {
        crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
    }
    return crc ^ 0xFFFFFFFFu;
}

TEST(Checksum, Crc32KnownVectors)
{
    // The standard IEEE 802.3 check value — any polynomial, reflection or
    // init mistake changes it.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0x00000000u);
    EXPECT_NE(crc32("a"), crc32("b"));
    // Embedded NUL bytes are data, not terminators.
    const std::string with_nul("a\0b", 3);
    EXPECT_NE(crc32(with_nul), crc32("ab"));
}

TEST(Checksum, Crc32MatchesBytewiseReference)
{
    // Every length up to 64 and one ~1 MB buffer, each from start offsets 0
    // to 7: every tail length after the 8-byte steps, at every alignment.
    std::string bytes((1u << 20) + 13 + 8, '\0');
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    for (char& c : bytes) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        c = static_cast<char>(state >> 56);
    }
    const std::string_view all(bytes);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 64; ++length) {
            const std::string_view piece = all.substr(offset, length);
            EXPECT_EQ(crc32(piece), reference_crc32(piece))
                << "offset " << offset << " length " << length;
        }
        const std::string_view big = all.substr(offset, bytes.size() - 8);
        EXPECT_EQ(crc32(big), reference_crc32(big)) << "offset " << offset;
    }
}

TEST(Checksum, Fnv1a64KnownVectors)
{
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL); // offset basis
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Checksum, HexRenderingIsFixedWidthLowercase)
{
    EXPECT_EQ(hex32(0u), "00000000");
    EXPECT_EQ(hex32(0xCBF43926u), "cbf43926");
    EXPECT_EQ(hex64(0u), "0000000000000000");
    EXPECT_EQ(hex64(0xDEADBEEF01ULL), "000000deadbeef01");
}

TEST(AtomicFile, WriteAndOverwrite)
{
    char pattern[] = "/tmp/gsph_atomic_XXXXXX";
    const char* dir = ::mkdtemp(pattern);
    ASSERT_NE(dir, nullptr);
    const std::string path = std::string(dir) + "/out.json";

    ASSERT_TRUE(atomic_write_file(path, "first"));
    std::ifstream first(path);
    std::ostringstream buf1;
    buf1 << first.rdbuf();
    EXPECT_EQ(buf1.str(), "first");

    ASSERT_TRUE(atomic_write_file(path, "second, longer content"));
    std::ifstream second(path);
    std::ostringstream buf2;
    buf2 << second.rdbuf();
    EXPECT_EQ(buf2.str(), "second, longer content");

    // No leftover temp files after successful writes.
    int entries = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1); // just out.json

    const std::string rm = "rm -rf '" + std::string(dir) + "'";
    (void)std::system(rm.c_str());
}

TEST(AtomicFile, FailurePathsReturnFalse)
{
    EXPECT_FALSE(atomic_write_file("", "x"));
    EXPECT_FALSE(atomic_write_file("/nonexistent_dir_gsph/file", "x"));
}

} // namespace
} // namespace gsph::util
