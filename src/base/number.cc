#include "base/number.h"

#include <charconv>
#include <type_traits>

namespace fsmoe {

namespace {

template <typename T, typename... Base>
NumberParse
fromChars(std::string_view text, T *out, Base... base)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto parsed = std::from_chars(text.data(), end, v, base...);
    // Trailing text makes "1e999x" malformed, not out of range.
    if (parsed.ec == std::errc::invalid_argument || parsed.ptr != end)
        return {NumberParse::Status::Malformed};
    if (parsed.ec == std::errc::result_out_of_range)
        return {NumberParse::Status::OutOfRange};
    *out = v;
    return {NumberParse::Status::Ok};
}

} // namespace

template <typename Int>
NumberParse
parseNumber(std::string_view text, Int *out, int base)
{
    static_assert(std::is_integral_v<Int>);
    return fromChars(text, out, base);
}

template NumberParse parseNumber(std::string_view, int *, int);
template NumberParse parseNumber(std::string_view, long *, int);
template NumberParse parseNumber(std::string_view, long long *, int);
template NumberParse parseNumber(std::string_view, unsigned *, int);
template NumberParse parseNumber(std::string_view, unsigned long *, int);
template NumberParse parseNumber(std::string_view, unsigned long long *,
                                 int);

NumberParse
parseNumber(std::string_view text, double *out)
{
    return fromChars(text, out);
}

} // namespace fsmoe
