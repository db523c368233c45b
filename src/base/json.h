/**
 * @file
 * Minimal JSON support shared by every persistence surface: a value
 * model with a recursive-descent parser, plus the two formatting
 * helpers that make serialised artifacts deterministic and bit-exact.
 *
 * Extracted from runtime/result_store.cc so the sweep result store,
 * the tuner's advisor cache, and any future persisted schema parse and
 * print identically. The parser is deliberately small: it accepts
 * exactly the JSON our writers emit (objects, arrays, strings with
 * \u00xx control escapes, IEEE numbers, bool, null) plus arbitrary
 * whitespace, preserves object member order, and guards recursion
 * depth so attacker-shaped nesting cannot overflow the stack.
 *
 * Determinism contract: fmtDouble prints 17 significant digits, which
 * IEEE-754 binary64 guarantees to re-parse to the identical bit
 * pattern, so a parse -> re-serialise round trip reproduces the
 * original bytes. Thread-safety: everything here is a pure function of
 * its arguments.
 */
#ifndef FSMOE_BASE_JSON_H
#define FSMOE_BASE_JSON_H

#include <string>
#include <utility>
#include <vector>

namespace fsmoe::json {

/** One parsed JSON value; a tagged union over the seven JSON kinds. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    /// Members in document order; duplicate names are kept as written.
    std::vector<std::pair<std::string, Value>> object;

    /** First member named @p name, or nullptr (non-objects: nullptr). */
    const Value *find(const char *name) const
    {
        for (const auto &kv : object)
            if (kv.first == name)
                return &kv.second;
        return nullptr;
    }
};

/**
 * Parse @p text into *out. On failure returns false and, when @p error
 * is non-null, describes the problem with a byte offset.
 */
bool parse(const std::string &text, Value *out, std::string *error);

// ------------------------------------------------- typed member access

/** *out = v's string; false unless @p v is a String. */
bool asString(const Value *v, std::string *out);

/** *out = v's number; false unless @p v is a Number. */
bool asNumber(const Value *v, double *out);

/** v's number as an int64; false unless it is integral and in range. */
bool asInt(const Value *v, int64_t *out);

/** *out = v's boolean; false unless @p v is a Bool. */
bool asBool(const Value *v, bool *out);

// --------------------------------------------------------- formatting

/**
 * Shortest printf form that re-parses to the identical bit pattern:
 * the bytes of "%.17g", printed by std::to_chars. 17 significant
 * digits are sufficient (and necessary in the worst case) for
 * IEEE-754 binary64.
 */
std::string fmtDouble(double v);

/** Escape @p s for embedding inside a JSON string literal. */
std::string escape(const std::string &s);

} // namespace fsmoe::json

#endif // FSMOE_BASE_JSON_H
