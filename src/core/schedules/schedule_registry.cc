#include "core/schedules/schedule_registry.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "base/logging.h"
#include "base/number.h"
#include "core/schedules/builtins.h"
#include "core/schedules/schedule.h"

namespace fsmoe::core {

namespace {

/** Lowercase and drop separators, so "PipeMoE+Lina" == "pipemoe-lina"
 *  == "pipemoelina". Used for schedule names and parameter keys. */
std::string
normalizeName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

std::string
trim(const std::string &s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return s.substr(begin, end - begin);
}

bool
parseBoolValue(const std::string &text, bool *out)
{
    const std::string t = normalizeName(text);
    if (t == "true" || t == "1" || t == "yes" || t == "on") {
        *out = true;
        return true;
    }
    if (t == "false" || t == "0" || t == "no" || t == "off") {
        *out = false;
        return true;
    }
    return false;
}

/**
 * Parse @p raw per @p param and re-serialize it canonically
 * ("04" -> "4", "Yes" -> "true", "60.0" -> "60"), so equal values
 * always produce equal spec strings. Returns false on a value that
 * does not parse as the declared type or violates the bound.
 */
bool
canonicalValue(const ScheduleParamInfo &param, const std::string &raw,
               std::string *out, std::string *why)
{
    switch (param.type) {
      case ScheduleParamType::Int: {
        // Factories consume Int params as 32-bit ints; a wider value
        // would silently wrap into a different configuration than the
        // canonical spec claims, so it is out of range here.
        int v;
        const NumberParse parsed = parseNumber(raw, &v);
        if (!parsed) {
            *why = parsed.outOfRange()
                       ? "out of range (must fit a 32-bit int)"
                       : "expected an integer";
            return false;
        }
        if (static_cast<double>(v) < param.minValue) {
            *why = "must be >= " + std::to_string(
                       static_cast<int64_t>(param.minValue));
            return false;
        }
        if (static_cast<double>(v) > param.maxValue) {
            *why = "must be <= " + std::to_string(
                       static_cast<int64_t>(param.maxValue));
            return false;
        }
        *out = std::to_string(v);
        return true;
      }
      case ScheduleParamType::Double: {
        double v;
        if (!parseNumber(raw, &v)) {
            *why = "expected a number";
            return false;
        }
        // NaN compares false against any bound, and an infinite knob
        // is never a meaningful configuration: require finiteness
        // before the bound check.
        if (!std::isfinite(v)) {
            *why = "expected a finite number";
            return false;
        }
        if (v < param.minValue) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%g", param.minValue);
            *why = std::string("must be >= ") + buf;
            return false;
        }
        if (v > param.maxValue) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%g", param.maxValue);
            *why = std::string("must be <= ") + buf;
            return false;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        *out = buf;
        return true;
      }
      case ScheduleParamType::Bool: {
        bool v;
        if (!parseBoolValue(raw, &v)) {
            *why = "expected true/false";
            return false;
        }
        *out = v ? "true" : "false";
        return true;
      }
    }
    *why = "unknown parameter type";
    return false;
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : ", ") + n;
    return out;
}

} // namespace

const char *
scheduleParamTypeName(ScheduleParamType type)
{
    switch (type) {
      case ScheduleParamType::Int: return "int";
      case ScheduleParamType::Double: return "double";
      case ScheduleParamType::Bool: return "bool";
    }
    return "?";
}

// ------------------------------------------------------ ScheduleParams

const std::string *
ScheduleParams::findValue(const std::string &key) const
{
    const std::string norm = normalizeName(key);
    for (const auto &kv : values_)
        if (kv.first == norm)
            return &kv.second;
    return nullptr;
}

bool
ScheduleParams::has(const std::string &key) const
{
    return findValue(key) != nullptr;
}

int64_t
ScheduleParams::getInt(const std::string &key, int64_t fallback) const
{
    const std::string *v = findValue(key);
    if (v == nullptr)
        return fallback;
    int64_t out = 0;
    FSMOE_ASSERT(parseNumber(*v, &out), "validated int param '", key,
                 "' no longer parses: '", *v, "'");
    return out;
}

double
ScheduleParams::getDouble(const std::string &key, double fallback) const
{
    const std::string *v = findValue(key);
    if (v == nullptr)
        return fallback;
    double out = 0.0;
    FSMOE_ASSERT(parseNumber(*v, &out), "validated double param '",
                 key, "' no longer parses: '", *v, "'");
    return out;
}

bool
ScheduleParams::getBool(const std::string &key, bool fallback) const
{
    const std::string *v = findValue(key);
    if (v == nullptr)
        return fallback;
    bool out = false;
    FSMOE_ASSERT(parseBoolValue(*v, &out), "validated bool param '", key,
                 "' no longer parses: '", *v, "'");
    return out;
}

// -------------------------------------------------------- ScheduleSpec

bool
ScheduleSpec::parse(const std::string &text, ScheduleSpec *out,
                    std::string *error)
{
    out->name.clear();
    out->params.clear();
    const std::string spec = trim(text);
    const size_t qmark = spec.find('?');
    out->name = trim(spec.substr(0, qmark));
    if (out->name.empty()) {
        if (error)
            *error = "empty schedule name in spec '" + text + "'";
        return false;
    }
    if (qmark == std::string::npos)
        return true;

    const std::string tail = spec.substr(qmark + 1);
    size_t start = 0;
    // Split on '&'; every segment must be a non-empty key=value.
    for (;;) {
        const size_t amp = tail.find('&', start);
        const std::string segment = trim(
            tail.substr(start, amp == std::string::npos ? std::string::npos
                                                        : amp - start));
        const size_t eq = segment.find('=');
        const std::string key =
            trim(eq == std::string::npos ? segment : segment.substr(0, eq));
        if (key.empty() || eq == std::string::npos) {
            if (error)
                *error = "malformed parameter '" + segment + "' in spec '" +
                         text + "' (want key=value)";
            return false;
        }
        out->params.emplace_back(key, trim(segment.substr(eq + 1)));
        if (amp == std::string::npos)
            break;
        start = amp + 1;
    }
    return true;
}

// ---------------------------------------------------- ScheduleRegistry

ScheduleRegistry &
ScheduleRegistry::instance()
{
    static ScheduleRegistry registry;
    return registry;
}

ScheduleRegistry::ScheduleRegistry()
{
    // Paper figure order; also the default schedule axis order of
    // runtime::ScenarioGrid.
    detail::registerSequentialSchedules(*this);
    detail::registerTutelSchedules(*this);
    detail::registerLinaSchedules(*this);
    detail::registerFsMoeSchedules(*this);
}

bool
ScheduleRegistry::registerSchedule(ScheduleInfo info, Factory factory)
{
    if (factory == nullptr) {
        FSMOE_WARN("schedule '", info.name, "': null factory");
        return false;
    }
    if (normalizeName(info.name).empty()) {
        FSMOE_WARN("schedule registration with an empty name");
        return false;
    }
    // Validate the declared params before touching the registry.
    std::vector<std::string> param_keys;
    for (const ScheduleParamInfo &p : info.params) {
        const std::string norm = normalizeName(p.key);
        if (norm.empty()) {
            FSMOE_WARN("schedule '", info.name,
                       "': declared parameter with an empty key");
            return false;
        }
        for (const std::string &seen : param_keys) {
            if (seen == norm) {
                FSMOE_WARN("schedule '", info.name,
                           "': duplicate declared parameter '", p.key, "'");
                return false;
            }
        }
        param_keys.push_back(norm);
        if (p.minValue > p.maxValue) {
            FSMOE_WARN("schedule '", info.name, "': parameter '", p.key,
                       "' declares minValue > maxValue");
            return false;
        }
        if (!p.defaultValue.empty()) {
            std::string canon, why;
            if (!canonicalValue(p, p.defaultValue, &canon, &why)) {
                FSMOE_WARN("schedule '", info.name, "': default '",
                           p.defaultValue, "' for parameter '", p.key,
                           "' ", why);
                return false;
            }
        }
    }

    std::lock_guard<std::mutex> lock(mu_);
    // Collect the normalized keys this plugin claims; an alias that
    // normalizes to the same key as the name (e.g. "dsmoe" for
    // "DS-MoE") is redundant, not an error, so deduplicate.
    std::vector<std::string> keys = {normalizeName(info.name)};
    for (const std::string &alias : info.aliases) {
        const std::string norm = normalizeName(alias);
        if (norm.empty()) {
            FSMOE_WARN("schedule '", info.name, "': empty alias");
            return false;
        }
        bool duplicate = false;
        for (const std::string &seen : keys)
            duplicate = duplicate || seen == norm;
        if (!duplicate)
            keys.push_back(norm);
    }
    for (const std::string &key : keys) {
        auto it = index_.find(key);
        if (it != index_.end()) {
            FSMOE_WARN("schedule '", info.name, "' collides with '",
                       entries_[it->second].info.name, "' on name '", key,
                       "'");
            return false;
        }
    }
    const size_t idx = entries_.size();
    entries_.push_back({std::move(info), std::move(factory)});
    for (const std::string &key : keys)
        index_.emplace(key, idx);
    return true;
}

bool
ScheduleRegistry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return index_.count(normalizeName(name)) > 0;
}

std::vector<ScheduleInfo>
ScheduleRegistry::list() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<ScheduleInfo> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.push_back(e.info);
    return out;
}

std::vector<std::string>
ScheduleRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.push_back(e.info.name);
    return out;
}

bool
ScheduleRegistry::info(const std::string &name, ScheduleInfo *info) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(normalizeName(name));
    if (it == index_.end())
        return false;
    if (info)
        *info = entries_[it->second].info;
    return true;
}

bool
ScheduleRegistry::validate(const ScheduleSpec &spec, Entry *entry,
                           ScheduleParams *params, std::string *canonical,
                           std::string *error) const
{
    // Copy the entry out under the lock (entries_ may reallocate as
    // other threads register), then validate outside it so factories
    // and parameter checks never hold the registry mutex.
    Entry snapshot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = index_.find(normalizeName(spec.name));
        if (it == index_.end()) {
            if (error) {
                std::vector<std::string> known;
                known.reserve(entries_.size());
                for (const Entry &e : entries_)
                    known.push_back(e.info.name);
                *error = "unknown schedule '" + spec.name +
                         "'; known: " + joinNames(known);
            }
            return false;
        }
        snapshot = entries_[it->second];
    }
    const ScheduleInfo &info = snapshot.info;

    // Validate every given parameter against the declaration, keeping
    // canonical values keyed by normalized key.
    std::vector<std::pair<std::string, std::string>> given; // norm -> canon
    for (const auto &kv : spec.params) {
        const std::string norm = normalizeName(kv.first);
        const ScheduleParamInfo *decl = nullptr;
        for (const ScheduleParamInfo &p : info.params) {
            if (normalizeName(p.key) == norm) {
                decl = &p;
                break;
            }
        }
        if (decl == nullptr) {
            if (error) {
                std::vector<std::string> declared;
                for (const ScheduleParamInfo &p : info.params)
                    declared.push_back(p.key);
                *error = "schedule '" + info.name + "' has no parameter '" +
                         kv.first + "'" +
                         (declared.empty()
                              ? std::string(" (it declares none)")
                              : "; declared: " + joinNames(declared));
            }
            return false;
        }
        for (const auto &seen : given) {
            if (seen.first == norm) {
                if (error)
                    *error = "duplicate parameter '" + decl->key +
                             "' in spec";
                return false;
            }
        }
        std::string canon, why;
        if (!canonicalValue(*decl, kv.second, &canon, &why)) {
            if (error)
                *error = "bad value '" + kv.second + "' for parameter '" +
                         decl->key + "' of schedule '" + info.name + "': " +
                         why;
            return false;
        }
        given.emplace_back(norm, std::move(canon));
    }

    // Canonical spec: canonical name, then the given params in
    // declared order with canonical key spelling and values.
    if (canonical) {
        *canonical = info.name;
        bool first = true;
        for (const ScheduleParamInfo &p : info.params) {
            const std::string norm = normalizeName(p.key);
            for (const auto &kv : given) {
                if (kv.first == norm) {
                    *canonical += (first ? "?" : "&") + p.key + "=" +
                                  kv.second;
                    first = false;
                    break;
                }
            }
        }
    }
    if (params)
        params->values_ = std::move(given);
    if (entry)
        *entry = std::move(snapshot);
    return true;
}

std::unique_ptr<Schedule>
ScheduleRegistry::tryCreate(const std::string &spec_text,
                            std::string *error) const
{
    ScheduleSpec spec;
    if (!ScheduleSpec::parse(spec_text, &spec, error))
        return nullptr;
    Entry entry;
    ScheduleParams params;
    std::string canonical;
    if (!validate(spec, &entry, &params, &canonical, error))
        return nullptr;
    std::unique_ptr<Schedule> schedule = entry.factory(params);
    if (schedule == nullptr) {
        if (error)
            *error = "factory for schedule '" + entry.info.name +
                     "' returned null";
        return nullptr;
    }
    schedule->name_ = entry.info.name;
    schedule->spec_ = std::move(canonical);
    return schedule;
}

std::unique_ptr<Schedule>
ScheduleRegistry::create(const std::string &spec) const
{
    std::string error;
    std::unique_ptr<Schedule> schedule = tryCreate(spec, &error);
    if (schedule == nullptr)
        FSMOE_FATAL(error);
    return schedule;
}

bool
ScheduleRegistry::canonicalize(const std::string &spec_text,
                               std::string *out, std::string *error) const
{
    ScheduleSpec spec;
    if (!ScheduleSpec::parse(spec_text, &spec, error))
        return false;
    return validate(spec, nullptr, nullptr, out, error);
}

ScheduleRegistrar::ScheduleRegistrar(ScheduleInfo info,
                                     ScheduleRegistry::Factory factory)
{
    ScheduleRegistry::instance().registerSchedule(std::move(info),
                                                 std::move(factory));
}

// Lives here rather than schedule.cc so the one-stop factory and the
// registry stay in one translation unit.
std::unique_ptr<Schedule>
Schedule::create(const std::string &spec)
{
    return ScheduleRegistry::instance().create(spec);
}

} // namespace fsmoe::core
