/// StateWriter/StateReader: the checkpoint section format must round-trip
/// every value bit-exactly (doubles included) and reject malformed payloads
/// with errors that name the section and key.

#include "checkpoint/state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

namespace gsph::checkpoint {
namespace {

double bits_to_double(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::uint64_t double_to_bits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

TEST(CheckpointState, F64EncodingIsBitExact)
{
    const double cases[] = {
        0.0,
        -0.0,
        1.0,
        -1.0 / 3.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        bits_to_double(0x7ff80000deadbeefULL), // NaN with payload
    };
    for (const double value : cases) {
        const std::string text = encode_f64(value);
        EXPECT_EQ(double_to_bits(decode_f64(text)), double_to_bits(value))
            << "encoding " << text;
    }
    EXPECT_EQ(encode_f64(0.0), "x0000000000000000");
    EXPECT_EQ(encode_f64(-0.0), "x8000000000000000");
    EXPECT_THROW(decode_f64("3.14"), CheckpointError);
    EXPECT_THROW(decode_f64("x123"), CheckpointError);
    EXPECT_THROW(decode_f64("xzzzzzzzzzzzzzzzz"), CheckpointError);
}

TEST(CheckpointState, ScalarRoundTrip)
{
    StateWriter w;
    w.put_f64("energy", -1.0 / 3.0);
    w.put_i64("count", -42);
    w.put_u64("big", 0xffffffffffffffffULL);
    w.put_bool("on", true);
    w.put_bool("off", false);
    w.put_str("name", "hello world");
    EXPECT_EQ(w.str(), "energy=xbfd5555555555555\ncount=-42\nbig=18446744073709551615\n"
                       "on=1\noff=0\nname=hello world\n");

    const StateReader r("test", w.str());
    EXPECT_EQ(double_to_bits(r.get_f64("energy")), double_to_bits(-1.0 / 3.0));
    EXPECT_EQ(r.get_i64("count"), -42);
    EXPECT_EQ(r.get_u64("big"), 0xffffffffffffffffULL);
    EXPECT_TRUE(r.get_bool("on"));
    EXPECT_FALSE(r.get_bool("off"));
    EXPECT_EQ(r.get_str("name"), "hello world");
    EXPECT_TRUE(r.has("energy"));
    EXPECT_FALSE(r.has("missing"));
}

TEST(CheckpointState, StringsSurviveHostileBytes)
{
    // Strings may carry '=' (the line separator), '%' (the escape), control
    // characters, newlines and arbitrary non-ASCII bytes.
    const std::string hostile = "a=b%c\nd\te\x01\x7f\xffz";
    StateWriter w;
    w.put_str("s", hostile);
    w.put_str("empty", "");
    const StateReader r("test", w.str());
    EXPECT_EQ(r.get_str("s"), hostile);
    EXPECT_EQ(r.get_str("empty"), "");
}

TEST(CheckpointState, VectorRoundTrip)
{
    StateWriter w;
    w.put_f64_vec("f", {1.5, -0.0, bits_to_double(0x7ff80000deadbeefULL)});
    w.put_f64_vec("f_empty", {});
    w.put_u64_vec("u", {0, 1, 0xffffffffffffffffULL});
    w.put_u64_vec("u_empty", {});
    w.put_i64_vec("i", {0, -1, std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max()});
    w.put_i64_vec("i_empty", {});
    EXPECT_EQ(w.str(), "f=x3ff8000000000000 x8000000000000000 x7ff80000deadbeef\n"
                       "f_empty=\nu=0 1 18446744073709551615\nu_empty=\n"
                       "i=0 -1 -9223372036854775808 9223372036854775807\ni_empty=\n");

    const StateReader r("test", w.str());
    const auto f = r.get_f64_vec("f");
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(double_to_bits(f[0]), double_to_bits(1.5));
    EXPECT_EQ(double_to_bits(f[1]), double_to_bits(-0.0));
    EXPECT_EQ(double_to_bits(f[2]), 0x7ff80000deadbeefULL);
    EXPECT_TRUE(r.get_f64_vec("f_empty").empty());
    EXPECT_EQ(r.get_u64_vec("u"),
              (std::vector<std::uint64_t>{0, 1, 0xffffffffffffffffULL}));
    EXPECT_TRUE(r.get_u64_vec("u_empty").empty());
    EXPECT_EQ(r.get_i64_vec("i"),
              (std::vector<std::int64_t>{0, -1, std::numeric_limits<std::int64_t>::min(),
                                         std::numeric_limits<std::int64_t>::max()}));
    EXPECT_TRUE(r.get_i64_vec("i_empty").empty());
}

TEST(CheckpointState, MissingKeyNamesSectionAndKey)
{
    const StateReader r("gpu.3", "a=1\n");
    try {
        r.get_i64("energy_j");
        FAIL() << "expected CheckpointError";
    }
    catch (const CheckpointError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("gpu.3"), std::string::npos) << what;
        EXPECT_NE(what.find("energy_j"), std::string::npos) << what;
    }
}

TEST(CheckpointState, MalformedPayloadRejected)
{
    EXPECT_THROW(StateReader("s", "no_equals_sign\n"), CheckpointError);
    EXPECT_THROW(StateReader("s", "dup=1\ndup=2\n"), CheckpointError);

    const StateReader r("s", "i=12x\nu=-3\nb=2\nf=1.0\niv=1 +2\niw=1  2\nix=9223372036854775808\n");
    EXPECT_THROW(r.get_i64("i"), CheckpointError);  // trailing bytes
    EXPECT_THROW(r.get_i64_vec("iv"), CheckpointError); // sign not written by put_i64_vec
    EXPECT_THROW(r.get_i64_vec("iw"), CheckpointError); // empty item
    EXPECT_THROW(r.get_i64_vec("ix"), CheckpointError); // past int64
    EXPECT_THROW(r.get_u64("u"), CheckpointError);  // negative for unsigned
    EXPECT_THROW(r.get_bool("b"), CheckpointError); // not 0/1
    EXPECT_THROW(r.get_f64("f"), CheckpointError);  // not hex-encoded
}

TEST(CheckpointState, IntegerGettersParseTheWholeToken)
{
    // The writer never writes a '+', a space around a number or trailing
    // bytes; every integer getter rejects them and holds its type's limits.
    const StateReader r("s",
                        "plus=+5\nlead= 5\ntrail=5 \nsuffix=5x\nempty=\nneg=-1\n"
                        "i64min=-9223372036854775808\ni64max=9223372036854775807\n"
                        "i64over=9223372036854775808\ni64under=-9223372036854775809\n"
                        "u64max=18446744073709551615\nu64over=18446744073709551616\n"
                        "vplus=1 +2\nvlead= 1 2\nvtrail=1 2 \nvsuffix=1 5x\n");
    for (const char* key : {"plus", "lead", "trail", "suffix", "empty"}) {
        EXPECT_THROW(r.get_i64(key), CheckpointError) << key;
        EXPECT_THROW(r.get_u64(key), CheckpointError) << key;
    }
    for (const char* key :
         {"plus", "lead", "trail", "suffix", "vplus", "vlead", "vtrail", "vsuffix"}) {
        EXPECT_THROW(r.get_i64_vec(key), CheckpointError) << key;
        EXPECT_THROW(r.get_u64_vec(key), CheckpointError) << key;
    }

    constexpr auto i64_min = std::numeric_limits<std::int64_t>::min();
    constexpr auto i64_max = std::numeric_limits<std::int64_t>::max();
    constexpr auto u64_max = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(r.get_i64("i64min"), i64_min);
    EXPECT_EQ(r.get_i64("i64max"), i64_max);
    EXPECT_EQ(r.get_i64("neg"), -1);
    EXPECT_THROW(r.get_i64("i64over"), CheckpointError);
    EXPECT_THROW(r.get_i64("i64under"), CheckpointError);
    EXPECT_EQ(r.get_i64_vec("i64min"), std::vector<std::int64_t>{i64_min});
    EXPECT_EQ(r.get_i64_vec("i64max"), std::vector<std::int64_t>{i64_max});
    EXPECT_THROW(r.get_i64_vec("i64over"), CheckpointError);
    EXPECT_THROW(r.get_i64_vec("i64under"), CheckpointError);

    EXPECT_EQ(r.get_u64("u64max"), u64_max);
    EXPECT_EQ(r.get_u64("i64over"), std::uint64_t{1} << 63);
    EXPECT_THROW(r.get_u64("u64over"), CheckpointError);
    EXPECT_THROW(r.get_u64("neg"), CheckpointError);
    EXPECT_EQ(r.get_u64_vec("u64max"), std::vector<std::uint64_t>{u64_max});
    EXPECT_THROW(r.get_u64_vec("u64over"), CheckpointError);
    EXPECT_THROW(r.get_u64_vec("neg"), CheckpointError);
    EXPECT_THROW(r.get_u64_vec("i64min"), CheckpointError);
}

TEST(CheckpointState, CachedColumnsWriteWhatPutVecWrites)
{
    const std::vector<double> f = {1.5, -0.0, bits_to_double(0x7ff80000deadbeefULL)};
    const std::vector<std::int64_t> i = {0, -1, std::numeric_limits<std::int64_t>::min()};
    const std::vector<std::uint64_t> u = {7, 0, 0xffffffffffffffffULL};
    StateWriter plain;
    plain.put_f64_vec("f", f);
    plain.put_i64_vec("i", i);
    plain.put_u64_vec("u", u);
    plain.put_u64_vec("empty", {});
    plain.put_str("line.0", "a b%");
    plain.put_u64("line.1", 3);

    // Cache the first entries, then write the rest as an uncached tail.
    EncodeCache cf, ci, cu, lines, tf, ti, tu;
    cf.push_f64(f[0]);
    cf.push_f64(f[1]);
    tf.push_f64(f[2]);
    ci.push_i64(i[0]);
    ti.push_i64(i[1]);
    ti.push_i64(i[2]);
    for (const std::uint64_t v : u) cu.push_u64(v);
    StateWriter entry;
    entry.put_str("line.0", "a b%");
    lines.push_lines(entry);
    entry = StateWriter();
    entry.put_u64("line.1", 3);
    lines.push_lines(entry);
    EXPECT_EQ(cf.size(), 2u);
    EXPECT_EQ(lines.size(), 2u);

    StateWriter cached;
    cached.put_vec("f", cf, tf);
    cached.put_vec("i", ci, ti);
    cached.put_vec("u", cu, EncodeCache());
    cached.put_vec("empty", EncodeCache());
    cached.put_lines(lines);
    EXPECT_EQ(cached.str(), plain.str());

    const std::string taken = cached.take();
    EXPECT_EQ(taken, plain.str());
    EXPECT_TRUE(cached.str().empty());
    cf.clear();
    EXPECT_EQ(cf.size(), 0u);
    cached.put_vec("f", cf, tf);
    EXPECT_EQ(cached.str(), "f=x7ff80000deadbeef\n");
}

TEST(CheckpointState, KeysWithPrefixInFileOrder)
{
    StateWriter w;
    w.put_i64("offset.1.key", 1);
    w.put_i64("offset.0.key", 0);
    w.put_i64("other", 9);
    const StateReader r("s", w.str());
    const auto keys = r.keys_with_prefix("offset.");
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "offset.1.key");
    EXPECT_EQ(keys[1], "offset.0.key");
}

} // namespace
} // namespace gsph::checkpoint
