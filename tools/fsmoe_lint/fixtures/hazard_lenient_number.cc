// Fixture: hand-rolled text-to-number conversions. Each one skips
// leading whitespace, takes '+' (strtod also takes hex floats), and
// saturates, wraps or throws on overflow, so two boundaries that
// parse the same text disagree. Every number goes through
// fsmoe::parseNumber (base/number.h). Expected findings: 4
// lenient-number.
#include <cstdlib>
#include <string>

long
flagValue(const char *arg)
{
    char *end = nullptr;
    return std::strtol(arg, &end, 10); // BAD: " +2" parses as 2
}

double
rate(const std::string &text)
{
    return strtod(text.c_str(), nullptr); // BAD: "0x1e" parses as 30
}

int
count(const char *arg)
{
    return std::atoi(arg); // BAD: no error at all
}

unsigned long long
digest(const std::string &hex)
{
    return std::stoull(hex, nullptr, 16); // BAD: throws, takes " +ff"
}
