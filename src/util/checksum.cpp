#include "util/checksum.hpp"

#include <array>

namespace gsph::util {

namespace {

/// Slicing-by-8 tables: table[0] is the bytewise CRC-32 table, and
/// table[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// input bytes fold into the running CRC with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables()
{
    CrcTables table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        table[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
        for (std::size_t k = 1; k < 8; ++k) {
            const std::uint32_t prev = table[k - 1][i];
            table[k][i] = (prev >> 8) ^ table[0][prev & 0xFFu];
        }
    }
    return table;
}

/// Little-endian 32-bit load; byte order is fixed by the CRC, not the host.
std::uint32_t load_le32(const unsigned char* p)
{
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t crc32(std::string_view data)
{
    static const CrcTables table = make_crc_tables();
    const auto* p = reinterpret_cast<const unsigned char*>(data.data());
    std::size_t n = data.size();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = load_le32(p) ^ crc;
        const std::uint32_t hi = load_le32(p + 4);
        crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
              table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
              table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
              table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) {
        crc = table[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    }
    return crc ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(std::string_view data)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char ch : data) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

namespace {

std::string to_hex(std::uint64_t value, int digits)
{
    static const char* kDigits = "0123456789abcdef";
    std::string out(static_cast<std::size_t>(digits), '0');
    for (int i = digits - 1; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[value & 0xFu];
        value >>= 4;
    }
    return out;
}

} // namespace

std::string hex32(std::uint32_t value) { return to_hex(value, 8); }
std::string hex64(std::uint64_t value) { return to_hex(value, 16); }

} // namespace gsph::util
