/**
 * @file
 * The grammar of base/number's parseNumber, table by table: the forms
 * every boundary accepts, each lenient form no boundary may accept
 * (whitespace, '+', base prefixes, hex floats, trailing text), and
 * out-of-range text told apart from malformed text for every integer
 * width and for double.
 */
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "base/number.h"

namespace fsmoe {
namespace {

using Status = NumberParse::Status;

const char *
statusName(Status s)
{
    switch (s) {
      case Status::Ok: return "Ok";
      case Status::Malformed: return "Malformed";
      case Status::OutOfRange: return "OutOfRange";
    }
    return "?";
}

/** Parse @p text as T and check the status and, on Ok, the value. */
template <typename T>
void
expectParse(const std::string &text, Status want, T value = T{},
            int base = 10)
{
    SCOPED_TRACE("'" + text + "'");
    T out = T{7};
    const NumberParse r = parseNumber(text, &out, base);
    EXPECT_STREQ(statusName(r.status), statusName(want));
    EXPECT_EQ(static_cast<bool>(r), want == Status::Ok);
    EXPECT_EQ(r.outOfRange(), want == Status::OutOfRange);
    // *out is written only on success.
    EXPECT_EQ(out, want == Status::Ok ? value : T{7});
}

struct IntCase
{
    const char *text;
    Status status;
    int64_t value;
};

TEST(ParseNumber, Int64AcceptsPlainDecimalOnly)
{
    const IntCase cases[] = {
        {"0", Status::Ok, 0},
        {"42", Status::Ok, 42},
        {"-42", Status::Ok, -42},
        {"007", Status::Ok, 7},
        {"9223372036854775807", Status::Ok, INT64_MAX},
        {"-9223372036854775808", Status::Ok, INT64_MIN},
        // Every lenient form some boundary used to accept.
        {"", Status::Malformed, 0},
        {" 2", Status::Malformed, 0},
        {"\t2", Status::Malformed, 0},
        {"2 ", Status::Malformed, 0},
        {"+2", Status::Malformed, 0},
        {" +2", Status::Malformed, 0},
        {"-", Status::Malformed, 0},
        {"--2", Status::Malformed, 0},
        {"0x1e", Status::Malformed, 0},
        {"1e3", Status::Malformed, 0},
        {"4.5", Status::Malformed, 0},
        {"12abc", Status::Malformed, 0},
        {"abc", Status::Malformed, 0},
        // Overflow is reported, never saturated.
        {"9223372036854775808", Status::OutOfRange, 0},
        {"-9223372036854775809", Status::OutOfRange, 0},
        {"99999999999999999999", Status::OutOfRange, 0},
        // Trailing text outranks the overflow.
        {"99999999999999999999x", Status::Malformed, 0},
    };
    for (const IntCase &c : cases)
        expectParse<int64_t>(c.text, c.status, c.value);
}

TEST(ParseNumber, EveryIntegerWidthReportsItsOwnRange)
{
    expectParse<int>("2147483647", Status::Ok, INT32_MAX);
    expectParse<int>("-2147483648", Status::Ok, INT32_MIN);
    expectParse<int>("2147483648", Status::OutOfRange);
    expectParse<int>("-2147483649", Status::OutOfRange);

    expectParse<long long>("-9223372036854775808", Status::Ok,
                           std::numeric_limits<long long>::min());
    expectParse<long long>("9223372036854775808", Status::OutOfRange);

    expectParse<unsigned>("4294967295", Status::Ok, UINT32_MAX);
    expectParse<unsigned>("4294967296", Status::OutOfRange);
    expectParse<unsigned>("-1", Status::Malformed);

    expectParse<uint64_t>("18446744073709551615", Status::Ok, UINT64_MAX);
    expectParse<uint64_t>("18446744073709551616", Status::OutOfRange);
    expectParse<uint64_t>("-1", Status::Malformed); // no wrap-around
    expectParse<uint64_t>("+1", Status::Malformed);

    expectParse<size_t>("12", Status::Ok, 12u);
    expectParse<size_t>(" 12", Status::Malformed);
}

TEST(ParseNumber, HexIntegersTakeDigitsWithoutPrefix)
{
    expectParse<uint64_t>("00000000deadbeef", Status::Ok, 0xdeadbeefULL, 16);
    expectParse<uint64_t>("FFFFFFFFFFFFFFFF", Status::Ok, UINT64_MAX, 16);
    expectParse<uint64_t>("10000000000000000", Status::OutOfRange, 0, 16);
    expectParse<uint64_t>("0x1f", Status::Malformed, 0, 16);
    expectParse<uint64_t>("1g", Status::Malformed, 0, 16);
    expectParse<uint64_t>(" 1f", Status::Malformed, 0, 16);
    // The same digits in base 10 are malformed.
    expectParse<uint64_t>("1f", Status::Malformed, 0, 10);
}

struct DoubleCase
{
    const char *text;
    Status status;
    double value;
};

uint64_t
bitsOf(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

TEST(ParseNumber, DoubleAcceptsDecimalAndExponentForms)
{
    const double kMax = std::numeric_limits<double>::max();
    const double kDenormMin = std::numeric_limits<double>::denorm_min();
    const DoubleCase cases[] = {
        {"0", Status::Ok, 0.0},
        {"1.5", Status::Ok, 1.5},
        {"-2.25", Status::Ok, -2.25},
        {".5", Status::Ok, 0.5},
        {"3.", Status::Ok, 3.0},
        {"1e3", Status::Ok, 1000.0},
        {"1E-2", Status::Ok, 0.01},
        {"2.5e+1", Status::Ok, 25.0},
        {"0.10000000000000001", Status::Ok, 0.1},
        {"1.7976931348623157e308", Status::Ok, kMax},
        {"4.9406564584124654e-324", Status::Ok, kDenormMin},
        {"inf", Status::Ok, HUGE_VAL},
        {"-inf", Status::Ok, -HUGE_VAL},
        // Lenient forms.
        {"", Status::Malformed, 0.0},
        {" 1.5", Status::Malformed, 0.0},
        {"1.5 ", Status::Malformed, 0.0},
        {"+1.5", Status::Malformed, 0.0},
        {"0x1e", Status::Malformed, 0.0},
        {"0x1p3", Status::Malformed, 0.0},
        {"1e", Status::Malformed, 0.0},
        {"1,5", Status::Malformed, 0.0},
        {"big", Status::Malformed, 0.0},
        // Beyond binary64 either way.
        {"1e999", Status::OutOfRange, 0.0},
        {"-1e999", Status::OutOfRange, 0.0},
        {"1.7976931348623159e308", Status::OutOfRange, 0.0},
        {"1e-400", Status::OutOfRange, 0.0},
        {"1e999x", Status::Malformed, 0.0},
    };
    for (const DoubleCase &c : cases) {
        SCOPED_TRACE(std::string("'") + c.text + "'");
        double out = 7.0;
        const NumberParse r = parseNumber(c.text, &out);
        EXPECT_STREQ(statusName(r.status), statusName(c.status));
        // Bit-exact, so -0 and subnormals are checked too.
        EXPECT_EQ(bitsOf(out), bitsOf(c.status == Status::Ok ? c.value
                                                             : 7.0));
    }
}

TEST(ParseNumber, DoubleKeepsNegativeZeroAndNan)
{
    double out = 1.0;
    ASSERT_TRUE(parseNumber("-0", &out));
    EXPECT_TRUE(out == 0.0 && std::signbit(out));
    ASSERT_TRUE(parseNumber("nan", &out));
    EXPECT_TRUE(std::isnan(out));
}

} // namespace
} // namespace fsmoe
