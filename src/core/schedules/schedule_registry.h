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
 * first-class sweep axes with stable, diffable persisted keys.
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
 * takes the internal lock, and factories run outside it, so a factory
 * may itself consult the registry. ScheduleInfo, ScheduleParams, and
 * ScheduleSpec are plain value types.
 */
#ifndef FSMOE_CORE_SCHEDULES_SCHEDULE_REGISTRY_H
#define FSMOE_CORE_SCHEDULES_SCHEDULE_REGISTRY_H

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
 * The validated parameter bag handed to a schedule factory: only
 * declared keys, every value already checked against its declared type
 * and bound. Key lookup uses the same normalization as schedule names
 * (case-insensitive, separators ignored).
 */
class ScheduleParams
{
  public:
    bool has(const std::string &key) const;

    /** Typed getters; @p fallback is returned for absent keys. */
    int64_t getInt(const std::string &key, int64_t fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

  private:
    friend class ScheduleRegistry;
    /// (normalized key, canonical value text), declared order.
    std::vector<std::pair<std::string, std::string>> values_;

    const std::string *findValue(const std::string &key) const;
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
     * a declared parameter is malformed (empty key, duplicate key, or
     * a default that does not parse as its declared type). A failed
     * registration leaves the registry unchanged.
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
     * the list of known ones).
     */
    std::unique_ptr<Schedule> tryCreate(const std::string &spec,
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

    struct Entry
    {
        ScheduleInfo info;
        Factory factory;
    };

    bool validate(const ScheduleSpec &spec, Entry *entry,
                  ScheduleParams *params, std::string *canonical,
                  std::string *error) const;

    mutable std::mutex mu_;
    std::vector<Entry> entries_;
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
