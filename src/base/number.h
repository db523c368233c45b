/**
 * @file
 * The one text-to-number parser. Every number that crosses a trust
 * boundary goes through it: CLI flags, job specs, fault specs,
 * schedule-spec parameters, journal records, protocol frames, CSV
 * fields and JSON numbers. One grammar means a value one boundary
 * accepts is accepted by all of them, and one rejected everywhere is
 * rejected the same way.
 *
 * The grammar is std::from_chars's:
 *   - the whole text must be consumed, and empty text is malformed;
 *   - no leading whitespace, no '+', no base prefix ("0x"), no hex
 *     floats; a '-' is taken only by signed and floating types;
 *   - integers are read in @p base (10 unless a caller stores hex);
 *   - doubles take decimal and exponent forms plus "inf"/"nan";
 *   - a value the type cannot hold is OutOfRange, never saturated or
 *     wrapped: an integer beyond its width, a double beyond DBL_MAX
 *     ("1e999") or below the smallest subnormal ("1e-400").
 *
 * Range checks beyond the type's own (a batch must be > 0, a rate in
 * [0, 1]) and error messages stay with each caller. Thread-safety:
 * pure functions.
 */
#ifndef FSMOE_BASE_NUMBER_H
#define FSMOE_BASE_NUMBER_H

#include <string_view>

namespace fsmoe {

/** parseNumber's outcome; converts to true exactly on success. */
struct NumberParse
{
    enum class Status { Ok, Malformed, OutOfRange };
    Status status = Status::Malformed;

    explicit operator bool() const { return status == Status::Ok; }
    bool outOfRange() const { return status == Status::OutOfRange; }
};

/**
 * Parse all of @p text as an integer in @p base (2..36). *out is
 * written only on success. Instantiated for every standard signed and
 * unsigned integer type from int up.
 */
template <typename Int>
NumberParse parseNumber(std::string_view text, Int *out, int base = 10);

/** Parse all of @p text as a double. *out is written only on success. */
NumberParse parseNumber(std::string_view text, double *out);

} // namespace fsmoe

#endif // FSMOE_BASE_NUMBER_H
