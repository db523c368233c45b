/**
 * @file
 * The open schedule-plugin API: a string-keyed registry of schedule
 * factories with declared, validated tunable parameters.
 *
 * Every schedule — the six built-ins under src/core/schedules/ and any
 * out-of-tree plugin — registers a ScheduleInfo (canonical name,
 * aliases, description, declared params) together with a factory that
 * builds an instance from a validated parameter bag. Users then select
 * schedules by *spec string*:
 *
 *     "fsmoe"                      bare name (or any alias, any case,
 *                                  separators ignored)
 *     "tutel?degree=4"             one tunable pinned
 *     "lina?chunkMB=60&degree=2"   several, '&'-separated
 *
 * Specs are parsed and validated against the declared parameters at
 * create/canonicalize time — unknown schedules, unknown parameter
 * keys, malformed values, and out-of-range values are all reported as
 * errors, never silently ignored — so parameterized variants can be
 * first-class sweep axes with stable, diffable persisted keys (model
 * and cluster presets take the same grammar through ParamDecl). A
 * caller that already holds typed values (the tuner) skips the text:
 * tryCreate(name, ScheduleParams) runs the same checks and gives the
 * same canonical spec, and a spec string is parsed into exactly such
 * a bag before it takes that path.
 *
 * Registration:
 *  - Built-ins register from their own .cc via the registration hooks
 *    in schedules/builtins.h, called once when the registry is first
 *    used (a static archive drops unreferenced translation units, so
 *    pure static-initializer self-registration would be lost at link
 *    time for library code; the hook call is the reference that keeps
 *    each plugin file alive).
 *  - Out-of-tree plugins compiled into the executable can self-register
 *    at static-initialization time with a file-scope ScheduleRegistrar
 *    (object files handed directly to the linker are always kept), or
 *    call ScheduleRegistry::instance().registerSchedule() explicitly
 *    from main(). examples/schedule_explorer.cpp demonstrates both the
 *    registrar and sweeping the custom schedule against the built-ins.
 *
 * Thread-safety: ScheduleRegistry is fully thread-safe — every method
 * takes the internal lock, and validation and factories run outside
 * it (a lookup shares the registered entry, which is immutable), so a
 * factory may itself consult the registry. ScheduleInfo,
 * ScheduleParams, and ScheduleSpec are plain value types.
 */
#ifndef FSMOE_CORE_SCHEDULES_SCHEDULE_REGISTRY_H
#define FSMOE_CORE_SCHEDULES_SCHEDULE_REGISTRY_H

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fsmoe::core {

class Schedule;

/**
 * Value type of a declared schedule parameter. Int values are
 * validated to fit a 32-bit int (factories consume them as `int`
 * knobs); Double values must be finite.
 */
enum class ScheduleParamType
{
    Int,
    Double,
    Bool
};

/** Printable name of a parameter type ("int", "double", ...). */
const char *scheduleParamTypeName(ScheduleParamType type);

/** One declared tunable of a schedule. */
struct ScheduleParamInfo
{
    std::string key;         ///< Canonical spelling, e.g. "chunkMB".
    ScheduleParamType type = ScheduleParamType::Int;
    std::string defaultValue; ///< Printable default, for discovery.
    std::string description;
    /// Numeric lower bound (inclusive); ignored for Bool.
    double minValue = std::numeric_limits<double>::lowest();
    /// Numeric upper bound (inclusive); ignored for Bool.
    double maxValue = std::numeric_limits<double>::max();
    /**
     * Whether an auto-tuner may search over this parameter. Tunable
     * numeric params must declare finite min/max bounds (that pair is
     * the search interval); modeling overrides and debug knobs should
     * set this false so the tuner leaves them at their defaults.
     */
    bool tunable = true;

    /// Whether both numeric bounds are finite (a searchable interval).
    bool bounded() const
    {
        return minValue > std::numeric_limits<double>::lowest() &&
               maxValue < std::numeric_limits<double>::max();
    }
};

/** A schedule plugin's metadata. */
struct ScheduleInfo
{
    std::string name;                 ///< Canonical name, e.g. "Tutel".
    std::vector<std::string> aliases; ///< Extra accepted names.
    std::string description;         ///< One line for --list-schedules.
    std::vector<ScheduleParamInfo> params; ///< Declared tunables.
};

/**
 * A bag of typed schedule parameters (int64, double or bool values).
 * It comes in two forms:
 *  - one a caller fills with setInt/setDouble/setBool and hands to
 *    ScheduleRegistry::tryCreate(name, params, error), the typed way
 *    to build a schedule (the tuner builds every candidate this way);
 *  - the validated bag the registry hands a schedule factory: one
 *    slot per declared parameter, in declared order, each flagged as
 *    given or not, every given value already checked against its
 *    declared type and bounds.
 * Key lookup uses the same normalization as schedule names
 * (case-insensitive, separators ignored).
 */
class ScheduleParams
{
  public:
    /**
     * Give @p key a value, replacing any value given before under the
     * same normalized key. Types and bounds are checked when the bag
     * is validated; an Int value given for a Double parameter is
     * converted to a double.
     */
    ScheduleParams &setInt(const std::string &key, int64_t value);
    ScheduleParams &setDouble(const std::string &key, double value);
    ScheduleParams &setBool(const std::string &key, bool value);

    /** Whether @p key was given a value. */
    bool has(const std::string &key) const;

    /** Typed getters; @p fallback is returned for absent keys. */
    int64_t getInt(const std::string &key, int64_t fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

  private:
    friend class ParamDecl;

    struct Value
    {
        std::string key;  ///< As given, or the declared spelling.
        std::string norm; ///< Normalized key.
        ScheduleParamType type = ScheduleParamType::Int;
        bool given = false;
        int64_t intValue = 0;
        double doubleValue = 0.0;
        bool boolValue = false;
    };
    std::vector<Value> values_;

    /** The given value under @p key, or nullptr. */
    const Value *find(const std::string &key) const;
    /** The slot for @p key (appended when new), marked given. */
    Value &slot(const std::string &key, ScheduleParamType type);
};

/**
 * A parsed (but not yet validated) spec string: "name?k=v&k2=v2"
 * split into its name and raw key=value pairs.
 */
struct ScheduleSpec
{
    std::string name;
    /// (key, value) pairs in written order, whitespace-trimmed.
    std::vector<std::pair<std::string, std::string>> params;

    /**
     * Split @p text into name and parameters. Fails (with a message in
     * *error) on an empty name, an empty parameter list after '?', or
     * a parameter missing its '=' or key.
     */
    static bool parse(const std::string &text, ScheduleSpec *out,
                      std::string *error);
};

/**
 * A spec's name and declared parameters, with the one parse, validate
 * and format path every spec takes: ScheduleRegistry holds one per
 * schedule, runtime::ScenarioRegistry one per model and cluster
 * preset. Immutable once made.
 */
class ParamDecl
{
  public:
    /**
     * Declare @p info's parameters; false, with *error set, on an empty
     * name, an empty or repeated key, min > max, or a default that does
     * not parse or validate. @p kind names the declared thing in
     * messages ("schedule", "model preset", ...).
     */
    static bool make(std::string kind, ScheduleInfo info, ParamDecl *out,
                     std::string *error);

    const ScheduleInfo &info() const { return info_; }

    /**
     * Check @p given into the validated bag (*validated: one slot per
     * declared parameter, in declared order) and the canonical spec
     * (*canonical); both optional. Messages quote (*spelled)[i] for the
     * i-th given value when @p spelled is set, else its canonical text.
     */
    bool validate(const ScheduleParams &given,
                  const std::vector<std::string> *spelled,
                  ScheduleParams *validated, std::string *canonical,
                  std::string *error) const;

    /**
     * Parse @p spec's values as their declared types, rejecting unknown
     * and repeated keys, then validate() them.
     */
    bool resolve(const ScheduleSpec &spec, ScheduleParams *validated,
                 std::string *canonical, std::string *error) const;

    /**
     * @p canonical, validate()'s spec of bag @p validated, with each
     * parameter it leaves out but that declares a default filled in.
     */
    std::string defaultedSpec(const ScheduleParams &validated,
                              const std::string &canonical) const;

  private:
    /** Format @p slots; @p fill_defaults adds ungiven defaulted ones. */
    std::string formatSpec(const std::vector<ScheduleParams::Value> &slots,
                           bool fill_defaults) const;
    /** The canonical text of a value: what a spec prints and re-parses. */
    static std::string valueText(const ScheduleParams::Value &v);

    std::string kind_;
    ScheduleInfo info_;
    std::vector<std::string> paramKeys_; ///< Normalized, declared order.
    /// One slot per declared parameter, given at its declared default.
    ScheduleParams defaults_;
};

class ScheduleRegistry
{
  public:
    /** Builds a schedule instance from a validated parameter bag. */
    using Factory =
        std::function<std::unique_ptr<Schedule>(const ScheduleParams &)>;

    /** The process-wide registry, with the built-ins pre-registered. */
    static ScheduleRegistry &instance();

    /**
     * Register a plugin. Fails (returns false and warns) when the
     * canonical name or any alias collides with an already-registered
     * name, when the name is empty, when the factory is null, or when
     * a declared parameter is malformed (empty key, duplicate key,
     * min > max, or a default that does not parse as its declared type
     * or break its bounds). A failed registration leaves the registry
     * unchanged.
     */
    bool registerSchedule(ScheduleInfo info, Factory factory);

    /** Whether @p name (canonical or alias, any spelling) is known. */
    bool has(const std::string &name) const;

    /** Every plugin's metadata, in registration order. */
    std::vector<ScheduleInfo> list() const;

    /** Canonical names only, in registration order. */
    std::vector<std::string> names() const;

    /**
     * Look up one plugin's metadata by name or alias.
     * @return true and fills *info on a match.
     */
    bool info(const std::string &name, ScheduleInfo *info) const;

    /**
     * Parse @p spec, validate it, and build the schedule. On success
     * the instance's name() is the canonical schedule name and its
     * spec() the canonical spec string. On failure returns nullptr and
     * describes the problem in *error (unknown schedule names include
     * the list of known ones). Parsing turns the spec's values into a
     * typed bag; the rest is the typed tryCreate below.
     */
    std::unique_ptr<Schedule> tryCreate(const std::string &spec,
                                        std::string *error) const;

    /**
     * Validate @p params against schedule @p name's declared
     * parameters and build the schedule, with no spec text to parse.
     * The checks and error text are the spec path's: an unknown key,
     * a value of the wrong type, an Int beyond 32 bits, a non-finite
     * Double or a bound violation is rejected, naming the value as
     * its canonical spec text would. On success spec() is the
     * canonical spec the same values give on the spec path.
     */
    std::unique_ptr<Schedule> tryCreate(const std::string &name,
                                        const ScheduleParams &params,
                                        std::string *error) const;

    /** tryCreate that is fatal on any error (CLI-driver convenience). */
    std::unique_ptr<Schedule> create(const std::string &spec) const;

    /**
     * Normalize @p spec to its canonical form — canonical name
     * spelling, declared-order parameters with canonical key spelling
     * and re-serialized values — without building the schedule:
     * "TUTEL?degree=04" -> "Tutel?degree=4". Explicitly-given
     * parameters are preserved even when they equal the default, so a
     * sweep axis {"tutel", "tutel?degree=0"} keeps two distinct keys.
     * Returns false and sets *error on any validation failure.
     */
    bool canonicalize(const std::string &spec, std::string *out,
                      std::string *error) const;

  private:
    ScheduleRegistry();

    /** Registered once, then shared read-only by every lookup. */
    struct Entry
    {
        ParamDecl decl;
        Factory factory;
    };

    /** The entry @p name names, or nullptr with *error set. */
    std::shared_ptr<const Entry> find(const std::string &name,
                                      std::string *error) const;

    /**
     * Run the factory on validated bag @p params with canonical spec
     * @p canonical: the one construction path, which also sets the
     * instance's spec and default graph key.
     */
    static std::unique_ptr<Schedule>
    construct(const Entry &entry, const ScheduleParams &params,
              std::string canonical, std::string *error);

    mutable std::mutex mu_;
    std::vector<std::shared_ptr<const Entry>> entries_;
    /// normalized name/alias -> index into entries_.
    std::unordered_map<std::string, size_t> index_;
};

/**
 * Static-initialization self-registration for plugins whose object
 * files are linked directly into the executable:
 *
 *     static core::ScheduleRegistrar reg(myInfo(), myFactory);
 *
 * (For code that lands in a static library, register from an
 * explicitly-called hook instead — see the file comment.)
 */
class ScheduleRegistrar
{
  public:
    ScheduleRegistrar(ScheduleInfo info, ScheduleRegistry::Factory factory);
};

} // namespace fsmoe::core

#endif // FSMOE_CORE_SCHEDULES_SCHEDULE_REGISTRY_H
