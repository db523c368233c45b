#include "core/schedules/schedule_registry.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>

#include "base/json.h"
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
 * Parse @p raw as @p type into @p bag under @p key. Only the grammar
 * is checked here ("04" -> 4, "Yes" -> true, "60.0" -> 60); the bounds,
 * the 32-bit Int range and finiteness are validate()'s. Returns false
 * with *why set on text that does not parse as the type.
 */
bool
parseValue(ScheduleParamType type, const std::string &key,
           const std::string &raw, ScheduleParams *bag, std::string *why)
{
    switch (type) {
      case ScheduleParamType::Int: {
        int64_t v;
        const NumberParse parsed = parseNumber(raw, &v);
        if (!parsed) {
            *why = parsed.outOfRange()
                       ? "out of range (must fit a 32-bit int)"
                       : "expected an integer";
            return false;
        }
        bag->setInt(key, v);
        return true;
      }
      case ScheduleParamType::Double: {
        double v;
        if (!parseNumber(raw, &v)) {
            *why = "expected a number";
            return false;
        }
        bag->setDouble(key, v);
        return true;
      }
      case ScheduleParamType::Bool: {
        bool v;
        if (!parseBoolValue(raw, &v)) {
            *why = "expected true/false";
            return false;
        }
        bag->setBool(key, v);
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

/** Index of the declared parameter whose normalized key is @p norm,
 *  or keys.size() when none is. */
size_t
declIndex(const std::vector<std::string> &keys, const std::string &norm)
{
    size_t j = 0;
    while (j < keys.size() && keys[j] != norm)
        ++j;
    return j;
}

std::string
noParamError(const std::string &kind, const ScheduleInfo &info,
             const std::string &key)
{
    std::vector<std::string> declared;
    for (const ScheduleParamInfo &p : info.params)
        declared.push_back(p.key);
    return kind + " '" + info.name + "' has no parameter '" + key + "'" +
           (declared.empty() ? std::string(" (it declares none)")
                             : "; declared: " + joinNames(declared));
}

std::string
badValueError(const std::string &text, const std::string &key,
              const std::string &kind, const std::string &name,
              const std::string &why)
{
    return "bad value '" + text + "' for parameter '" + key + "' of " +
           kind + " '" + name + "': " + why;
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

const ScheduleParams::Value *
ScheduleParams::find(const std::string &key) const
{
    const std::string norm = normalizeName(key);
    for (const Value &v : values_)
        if (v.given && v.norm == norm)
            return &v;
    return nullptr;
}

ScheduleParams::Value &
ScheduleParams::slot(const std::string &key, ScheduleParamType type)
{
    std::string norm = normalizeName(key);
    Value *v = nullptr;
    for (Value &existing : values_) {
        if (existing.norm == norm) {
            v = &existing;
            break;
        }
    }
    if (v == nullptr) {
        v = &values_.emplace_back();
        v->norm = std::move(norm);
    }
    v->key = key;
    v->type = type;
    v->given = true;
    return *v;
}

ScheduleParams &
ScheduleParams::setInt(const std::string &key, int64_t value)
{
    slot(key, ScheduleParamType::Int).intValue = value;
    return *this;
}

ScheduleParams &
ScheduleParams::setDouble(const std::string &key, double value)
{
    slot(key, ScheduleParamType::Double).doubleValue = value;
    return *this;
}

ScheduleParams &
ScheduleParams::setBool(const std::string &key, bool value)
{
    slot(key, ScheduleParamType::Bool).boolValue = value;
    return *this;
}

bool
ScheduleParams::has(const std::string &key) const
{
    return find(key) != nullptr;
}

int64_t
ScheduleParams::getInt(const std::string &key, int64_t fallback) const
{
    const Value *v = find(key);
    if (v == nullptr)
        return fallback;
    FSMOE_ASSERT(v->type == ScheduleParamType::Int, "param '", key,
                 "' is a ", scheduleParamTypeName(v->type), ", not an int");
    return v->intValue;
}

double
ScheduleParams::getDouble(const std::string &key, double fallback) const
{
    const Value *v = find(key);
    if (v == nullptr)
        return fallback;
    if (v->type == ScheduleParamType::Int)
        return static_cast<double>(v->intValue);
    FSMOE_ASSERT(v->type == ScheduleParamType::Double, "param '", key,
                 "' is a ", scheduleParamTypeName(v->type),
                 ", not a number");
    return v->doubleValue;
}

bool
ScheduleParams::getBool(const std::string &key, bool fallback) const
{
    const Value *v = find(key);
    if (v == nullptr)
        return fallback;
    FSMOE_ASSERT(v->type == ScheduleParamType::Bool, "param '", key,
                 "' is a ", scheduleParamTypeName(v->type), ", not a bool");
    return v->boolValue;
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
            *error = "empty name in spec '" + text + "'";
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

// ----------------------------------------------------------- ParamDecl

bool
ParamDecl::make(std::string kind, ScheduleInfo info, ParamDecl *out,
                std::string *error)
{
    ParamDecl decl;
    decl.kind_ = std::move(kind);
    decl.info_ = std::move(info);
    const auto fail = [&](const std::string &why) {
        if (error)
            *error = decl.kind_ + " '" + decl.info_.name + "': " + why;
        return false;
    };
    if (normalizeName(decl.info_.name).empty())
        return fail("empty name");
    for (const ScheduleParamInfo &p : decl.info_.params) {
        std::string norm = normalizeName(p.key);
        if (norm.empty())
            return fail("declared parameter with an empty key");
        if (declIndex(decl.paramKeys_, norm) < decl.paramKeys_.size())
            return fail("duplicate declared parameter '" + p.key + "'");
        if (p.minValue > p.maxValue)
            return fail("parameter '" + p.key +
                        "' declares minValue > maxValue");
        decl.paramKeys_.push_back(std::move(norm));
    }
    ScheduleParams defaults;
    for (const ScheduleParamInfo &p : decl.info_.params) {
        if (p.defaultValue.empty())
            continue;
        ScheduleParams bag;
        const std::vector<std::string> spelled = {p.defaultValue};
        std::string why;
        if (!parseValue(p.type, p.key, p.defaultValue, &bag, &why) ||
            !decl.validate(bag, &spelled, nullptr, nullptr, &why))
            return fail("default '" + p.defaultValue + "' for parameter '" +
                        p.key + "' rejected: " + why);
        parseValue(p.type, p.key, p.defaultValue, &defaults, &why);
    }
    // Every default at once, now that each alone passed.
    decl.validate(defaults, nullptr, &decl.defaults_, nullptr, nullptr);
    *out = std::move(decl);
    return true;
}

std::string
ParamDecl::valueText(const ScheduleParams::Value &v)
{
    switch (v.type) {
      case ScheduleParamType::Int:
        return std::to_string(v.intValue);
      case ScheduleParamType::Double:
        return json::fmtDouble(v.doubleValue);
      case ScheduleParamType::Bool:
        return v.boolValue ? "true" : "false";
    }
    return "?";
}

bool
ParamDecl::validate(const ScheduleParams &given,
                    const std::vector<std::string> *spelled,
                    ScheduleParams *validated, std::string *canonical,
                    std::string *error) const
{
    using Value = ScheduleParams::Value;
    // Why @p v cannot be @p decl's value (empty when it can); an Int
    // given for a Double is converted to one.
    const auto check = [](const ScheduleParamInfo &decl,
                          Value &v) -> std::string {
        switch (decl.type) {
          case ScheduleParamType::Int:
            if (v.type != ScheduleParamType::Int)
                return "expected an integer";
            // Factories consume Int params as 32-bit ints; a wider
            // value would silently wrap into a different configuration
            // than the canonical spec claims, so it is out of range.
            if (v.intValue < std::numeric_limits<int>::min() ||
                v.intValue > std::numeric_limits<int>::max())
                return "out of range (must fit a 32-bit int)";
            if (static_cast<double>(v.intValue) < decl.minValue)
                return "must be >= " +
                       std::to_string(static_cast<int64_t>(decl.minValue));
            if (static_cast<double>(v.intValue) > decl.maxValue)
                return "must be <= " +
                       std::to_string(static_cast<int64_t>(decl.maxValue));
            return "";
          case ScheduleParamType::Double: {
            if (v.type == ScheduleParamType::Int) {
                v.type = ScheduleParamType::Double;
                v.doubleValue = static_cast<double>(v.intValue);
            }
            if (v.type != ScheduleParamType::Double)
                return "expected a number";
            // NaN compares false against any bound, and an infinite
            // knob is never a meaningful configuration: require
            // finiteness before the bound check.
            if (!std::isfinite(v.doubleValue))
                return "expected a finite number";
            char buf[32];
            if (v.doubleValue < decl.minValue) {
                std::snprintf(buf, sizeof buf, "%g", decl.minValue);
                return std::string("must be >= ") + buf;
            }
            if (v.doubleValue > decl.maxValue) {
                std::snprintf(buf, sizeof buf, "%g", decl.maxValue);
                return std::string("must be <= ") + buf;
            }
            return "";
          }
          case ScheduleParamType::Bool:
            return v.type == ScheduleParamType::Bool ? ""
                                                     : "expected true/false";
        }
        return "unknown parameter type";
    };

    // One slot per declared parameter, in declared order.
    std::vector<Value> slots(info_.params.size());
    for (size_t j = 0; j < slots.size(); ++j) {
        slots[j].key = info_.params[j].key;
        slots[j].norm = paramKeys_[j];
        slots[j].type = info_.params[j].type;
    }
    for (size_t g = 0; g < given.values_.size(); ++g) {
        const Value &v = given.values_[g];
        if (!v.given)
            continue;
        const size_t j = declIndex(paramKeys_, v.norm);
        if (j == slots.size()) {
            if (error)
                *error = noParamError(kind_, info_, v.key);
            return false;
        }
        Value &slot = slots[j];
        slot.given = true;
        slot.type = v.type;
        slot.intValue = v.intValue;
        slot.doubleValue = v.doubleValue;
        slot.boolValue = v.boolValue;
        const std::string why = check(info_.params[j], slot);
        if (!why.empty()) {
            if (error)
                *error = badValueError(spelled ? (*spelled)[g] : valueText(v),
                                       info_.params[j].key, kind_,
                                       info_.name, why);
            return false;
        }
    }

    if (canonical)
        *canonical = formatSpec(slots, /*fill_defaults=*/false);
    if (validated)
        validated->values_ = std::move(slots);
    return true;
}

bool
ParamDecl::resolve(const ScheduleSpec &spec, ScheduleParams *validated,
                   std::string *canonical, std::string *error) const
{
    ScheduleParams given;
    std::vector<std::string> spelled;
    for (const auto &kv : spec.params) {
        const size_t j = declIndex(paramKeys_, normalizeName(kv.first));
        if (j == paramKeys_.size()) {
            if (error)
                *error = noParamError(kind_, info_, kv.first);
            return false;
        }
        const ScheduleParamInfo &decl = info_.params[j];
        if (given.has(decl.key)) {
            if (error)
                *error = "duplicate parameter '" + decl.key + "' in spec";
            return false;
        }
        std::string why;
        if (!parseValue(decl.type, kv.first, kv.second, &given, &why)) {
            if (error)
                *error =
                    badValueError(kv.second, decl.key, kind_, info_.name, why);
            return false;
        }
        spelled.push_back(kv.second);
    }
    return validate(given, &spelled, validated, canonical, error);
}

std::string
ParamDecl::formatSpec(const std::vector<ScheduleParams::Value> &slots,
                      bool fill_defaults) const
{
    std::string out = info_.name;
    out.reserve(out.size() + 32 * slots.size());
    char sep = '?';
    for (size_t j = 0; j < slots.size(); ++j) {
        const ScheduleParams::Value *v = &slots[j];
        if (!v->given && fill_defaults)
            v = &defaults_.values_[j];
        if (!v->given)
            continue;
        out += sep;
        out += v->key;
        out += '=';
        out += valueText(*v);
        sep = '&';
    }
    return out;
}

std::string
ParamDecl::defaultedSpec(const ScheduleParams &validated,
                         const std::string &canonical) const
{
    // A spec that gives every defaulted parameter is its own key.
    bool filled = true;
    for (size_t j = 0; j < validated.values_.size(); ++j)
        filled = filled && (validated.values_[j].given ||
                            !defaults_.values_[j].given);
    return filled ? canonical
                  : formatSpec(validated.values_, /*fill_defaults=*/true);
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
    // Validate the declaration before touching the registry.
    auto entry = std::make_shared<Entry>();
    std::string why;
    if (!ParamDecl::make("schedule", std::move(info), &entry->decl, &why)) {
        FSMOE_WARN(why);
        return false;
    }
    entry->factory = std::move(factory);

    const ScheduleInfo &added = entry->decl.info();
    std::lock_guard<std::mutex> lock(mu_);
    // Collect the normalized keys this plugin claims; an alias that
    // normalizes to the same key as the name (e.g. "dsmoe" for
    // "DS-MoE") is redundant, not an error, so deduplicate.
    std::vector<std::string> keys = {normalizeName(added.name)};
    for (const std::string &alias : added.aliases) {
        const std::string norm = normalizeName(alias);
        if (norm.empty()) {
            FSMOE_WARN("schedule '", added.name, "': empty alias");
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
            FSMOE_WARN("schedule '", added.name, "' collides with '",
                       entries_[it->second]->decl.info().name, "' on name '",
                       key, "'");
            return false;
        }
    }
    const size_t idx = entries_.size();
    entries_.push_back(std::move(entry));
    for (const std::string &key : keys)
        index_.emplace(key, idx);
    return true;
}

bool
ScheduleRegistry::has(const std::string &name) const
{
    const std::string norm = normalizeName(name);
    std::lock_guard<std::mutex> lock(mu_);
    return index_.count(norm) > 0;
}

std::vector<ScheduleInfo>
ScheduleRegistry::list() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<ScheduleInfo> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_)
        out.push_back(e->decl.info());
    return out;
}

std::vector<std::string>
ScheduleRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_)
        out.push_back(e->decl.info().name);
    return out;
}

bool
ScheduleRegistry::info(const std::string &name, ScheduleInfo *info) const
{
    const std::shared_ptr<const Entry> entry = find(name, nullptr);
    if (entry == nullptr)
        return false;
    if (info)
        *info = entry->decl.info();
    return true;
}

std::shared_ptr<const ScheduleRegistry::Entry>
ScheduleRegistry::find(const std::string &name, std::string *error) const
{
    const std::string norm = normalizeName(name);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(norm);
    if (it != index_.end())
        return entries_[it->second];
    if (error) {
        std::vector<std::string> known;
        known.reserve(entries_.size());
        for (const auto &e : entries_)
            known.push_back(e->decl.info().name);
        *error = "unknown schedule '" + name + "'; known: " +
                 joinNames(known);
    }
    return nullptr;
}

std::unique_ptr<Schedule>
ScheduleRegistry::construct(const Entry &entry, const ScheduleParams &params,
                            std::string canonical, std::string *error)
{
    std::unique_ptr<Schedule> schedule = entry.factory(params);
    if (schedule == nullptr) {
        if (error)
            *error = "factory for schedule '" + entry.decl.info().name +
                     "' returned null";
        return nullptr;
    }
    schedule->name_ = entry.decl.info().name;
    schedule->graph_key_ = entry.decl.defaultedSpec(params, canonical);
    schedule->spec_ = std::move(canonical);
    return schedule;
}

std::unique_ptr<Schedule>
ScheduleRegistry::tryCreate(const std::string &spec_text,
                            std::string *error) const
{
    ScheduleSpec spec;
    if (!ScheduleSpec::parse(spec_text, &spec, error))
        return nullptr;
    const std::shared_ptr<const Entry> entry = find(spec.name, error);
    ScheduleParams params;
    std::string canonical;
    if (entry == nullptr ||
        !entry->decl.resolve(spec, &params, &canonical, error))
        return nullptr;
    return construct(*entry, params, std::move(canonical), error);
}

std::unique_ptr<Schedule>
ScheduleRegistry::tryCreate(const std::string &name,
                            const ScheduleParams &params,
                            std::string *error) const
{
    const std::shared_ptr<const Entry> entry = find(name, error);
    ScheduleParams validated;
    std::string canonical;
    if (entry == nullptr || !entry->decl.validate(params, nullptr, &validated,
                                                  &canonical, error))
        return nullptr;
    return construct(*entry, validated, std::move(canonical), error);
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
    const std::shared_ptr<const Entry> entry = find(spec.name, error);
    return entry != nullptr && entry->decl.resolve(spec, nullptr, out, error);
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
