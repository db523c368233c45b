#include "runtime/result_store.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "base/fileio.h"
#include "base/json.h"
#include "base/logging.h"
#include "base/number.h"
#include "sim/trace.h"

namespace fsmoe::runtime {

namespace {

constexpr size_t kNumOps = static_cast<size_t>(sim::OpType::NumOpTypes);
constexpr size_t kNumLinks = static_cast<size_t>(sim::Link::NumLinks);

const char *
opName(size_t i)
{
    return sim::opTypeName(static_cast<sim::OpType>(i));
}

const char *
linkName(size_t i)
{
    return sim::linkName(static_cast<sim::Link>(i));
}

// 17-significant-digit printing and string escaping live in base/json
// so every persisted schema (sweep results, the tuner's advisor cache)
// stays bit-exact the same way.
using json::fmtDouble;
const auto jsonEscape = json::escape;

// JSON-in goes through base/json (json::parse and the typed member
// accessors); aliases keep the reader code below reading naturally.
const auto jsonString = json::asString;
const auto jsonNumber = json::asNumber;
const auto jsonInt = json::asInt;

/** jsonInt for the int-typed fields; false when the value does not fit. */
bool
jsonNarrowInt(const json::Value *v, int *out)
{
    int64_t n = 0;
    if (!jsonInt(v, &n) || n < INT_MIN || n > INT_MAX)
        return false;
    *out = static_cast<int>(n);
    return true;
}

// ------------------------------------------------------------- CSV

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/**
 * Split one CSV record (no trailing newline) into fields, honouring
 * quoted fields with doubled-quote escapes.
 */
bool
splitCsvRecord(const std::string &line, std::vector<std::string> *fields)
{
    fields->clear();
    std::string cur;
    bool quoted = false;
    for (size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cur += c;
            }
        } else if (c == '"' && cur.empty()) {
            quoted = true;
        } else if (c == ',') {
            fields->push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (quoted)
        return false; // unterminated quote
    fields->push_back(cur);
    return true;
}

/**
 * Split CSV text into records, honouring quotes: a newline inside a
 * quoted field belongs to the field, not the record separator. CRLF
 * record endings are normalised. Returns false on an unterminated
 * quote at end of input.
 */
bool
splitCsvRecords(const std::string &text, std::vector<std::string> *records)
{
    records->clear();
    std::string cur;
    bool quoted = false;
    for (char c : text) {
        if (c == '"') {
            // A doubled escape toggles twice; net state stays correct.
            quoted = !quoted;
            cur += c;
        } else if (c == '\n' && !quoted) {
            if (!cur.empty() && cur.back() == '\r')
                cur.pop_back();
            records->push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (quoted)
        return false;
    if (!cur.empty())
        records->push_back(cur);
    return true;
}

/**
 * The CSV header's column groups, in the order toCsv writes them: the
 * fixed columns, then the optional link group, then the optional
 * status group. Each optional group starts with its separating comma.
 */
struct CsvHeader
{
    std::string fixed, links, status;
};

CsvHeader
csvHeader()
{
    CsvHeader h;
    h.fixed = "model,cluster,schedule,batch,seq_len,num_layers,"
              "num_experts,r_max,makespan_ms";
    for (size_t i = 0; i < kNumOps; ++i)
        h.fixed += std::string(",op_") + opName(i) + "_ms";
    for (size_t i = 0; i < kNumLinks; ++i)
        h.links += std::string(",link_") + linkName(i) + "_busy_ms";
    h.status = ",status,attempts,error";
    return h;
}

/**
 * Read a CSV header line in one pass, group by group in csvHeader()'s
 * order. False for anything else: a partial, repeated or reordered
 * group, or a trailing unknown column.
 */
bool
readCsvHeader(std::string_view line, bool *with_links, bool *with_status)
{
    const auto take = [&line](const std::string &group) {
        if (line.substr(0, group.size()) != group)
            return false;
        line.remove_prefix(group.size());
        return true;
    };
    const CsvHeader h = csvHeader();
    if (!take(h.fixed))
        return false;
    *with_links = take(h.links);
    *with_status = take(h.status);
    return line.empty();
}

/// Does this set need the status columns / fields at all?
bool
anyNonOk(const std::vector<SweepResult> &results)
{
    for (const SweepResult &r : results)
        if (r.status != ResultStatus::Ok)
            return true;
    return false;
}

/// The file-extension rule readResults and writeResults share.
bool
isCsvPath(const std::string &path)
{
    return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::string error;
    if (!fileio::atomicWriteFile(path, text, &error)) {
        FSMOE_WARN(error);
        return false;
    }
    return true;
}

/// Serialise one record as a JSON object (no surrounding whitespace).
void
appendRecordJson(std::ostringstream &oss, const SweepResult &r,
                 bool include_link_stats)
{
    const Scenario &s = r.scenario;
    oss << "{\"model\":\"" << jsonEscape(s.model) << "\","
        << "\"cluster\":\"" << jsonEscape(s.cluster) << "\","
        << "\"schedule\":\"" << jsonEscape(s.schedule) << "\","
        << "\"batch\":" << s.batch << ","
        << "\"seq_len\":" << s.seqLen << ","
        << "\"num_layers\":" << s.numLayers << ","
        << "\"num_experts\":" << s.numExperts << ","
        << "\"r_max\":" << s.rMax << ","
        << "\"makespan_ms\":" << fmtDouble(r.makespanMs) << ","
        << "\"op_time_ms\":{";
    for (size_t op = 0; op < kNumOps; ++op) {
        oss << (op == 0 ? "" : ",") << '"' << opName(op)
            << "\":" << fmtDouble(r.opTimeMs[op]);
    }
    oss << '}';
    if (include_link_stats) {
        oss << ",\"link_busy_ms\":{";
        for (size_t li = 0; li < kNumLinks; ++li) {
            oss << (li == 0 ? "" : ",") << '"' << linkName(li)
                << "\":" << fmtDouble(r.linkBusyMs[li]);
        }
        oss << '}';
    }
    if (r.status != ResultStatus::Ok) {
        oss << ",\"status\":\"" << resultStatusName(r.status) << "\","
            << "\"attempts\":" << r.attempts << ","
            << "\"error\":\"" << jsonEscape(r.error) << "\"";
    }
    oss << '}';
}

/// Parse one JSON result object into *out (inverse of the above).
bool
parseRecordJson(const json::Value &entry, SweepResult *out,
                std::string *error, size_t index)
{
    const auto bad = [&](const char *field) {
        if (error) {
            std::ostringstream oss;
            oss << "result " << index << ": missing or mistyped \""
                << field << '"';
            *error = oss.str();
        }
        return false;
    };
    if (entry.kind != json::Value::Kind::Object) {
        if (error)
            *error = "results entry is not an object";
        return false;
    }
    SweepResult r;
    Scenario &s = r.scenario;
    if (!jsonString(entry.find("model"), &s.model))
        return bad("model");
    if (!jsonString(entry.find("cluster"), &s.cluster))
        return bad("cluster");
    if (!jsonString(entry.find("schedule"), &s.schedule))
        return bad("schedule");
    if (!jsonInt(entry.find("batch"), &s.batch))
        return bad("batch");
    if (!jsonInt(entry.find("seq_len"), &s.seqLen))
        return bad("seq_len");
    if (!jsonNarrowInt(entry.find("num_layers"), &s.numLayers))
        return bad("num_layers");
    if (!jsonNarrowInt(entry.find("num_experts"), &s.numExperts))
        return bad("num_experts");
    if (!jsonNarrowInt(entry.find("r_max"), &s.rMax))
        return bad("r_max");
    if (!jsonNumber(entry.find("makespan_ms"), &r.makespanMs))
        return bad("makespan_ms");
    const json::Value *ops = entry.find("op_time_ms");
    if (ops == nullptr || ops->kind != json::Value::Kind::Object)
        return bad("op_time_ms");
    for (size_t op = 0; op < kNumOps; ++op) {
        if (!jsonNumber(ops->find(opName(op)), &r.opTimeMs[op]))
            return bad(opName(op));
    }
    // Optional link breakdown (written with include_link_stats);
    // absent in older files, which parse identically to before.
    const json::Value *links = entry.find("link_busy_ms");
    if (links != nullptr) {
        if (links->kind != json::Value::Kind::Object)
            return bad("link_busy_ms");
        for (size_t li = 0; li < kNumLinks; ++li) {
            if (!jsonNumber(links->find(linkName(li)), &r.linkBusyMs[li]))
                return bad(linkName(li));
        }
        r.hasLinkStats = true;
    }
    // Optional fault-tolerance outcome; absent means Ok.
    const json::Value *status = entry.find("status");
    if (status != nullptr) {
        std::string name;
        if (!jsonString(status, &name) ||
            !parseResultStatus(name, &r.status))
            return bad("status");
        if (!jsonNarrowInt(entry.find("attempts"), &r.attempts))
            return bad("attempts");
        if (!jsonString(entry.find("error"), &r.error))
            return bad("error");
    }
    *out = std::move(r);
    return true;
}

} // namespace

// ---------------------------------------------------------- records

const char *
resultStatusName(ResultStatus status)
{
    switch (status) {
    case ResultStatus::Ok:
        return "ok";
    case ResultStatus::Failed:
        return "failed";
    case ResultStatus::Quarantined:
        return "quarantined";
    default:
        return "?";
    }
}

bool
parseResultStatus(const std::string &name, ResultStatus *out)
{
    if (name == "ok")
        *out = ResultStatus::Ok;
    else if (name == "failed")
        *out = ResultStatus::Failed;
    else if (name == "quarantined")
        *out = ResultStatus::Quarantined;
    else
        return false;
    return true;
}

SweepResult
SweepResult::fromScenarioResult(const ScenarioResult &r)
{
    SweepResult out;
    out.scenario = r.scenario;
    out.makespanMs = r.makespanMs;
    for (size_t i = 0; i < kNumOps; ++i)
        out.opTimeMs[i] = r.sim.opTime[i];
    for (size_t i = 0; i < kNumLinks; ++i)
        out.linkBusyMs[i] = r.sim.linkBusyMs[i];
    out.hasLinkStats = true;
    return out;
}

std::vector<SweepResult>
toSweepResults(const std::vector<ScenarioResult> &results)
{
    std::vector<SweepResult> out;
    out.reserve(results.size());
    for (const ScenarioResult &r : results)
        out.push_back(SweepResult::fromScenarioResult(r));
    return out;
}

// ------------------------------------------------------------ writers

std::string
toJson(const std::vector<SweepResult> &results, bool include_link_stats)
{
    std::ostringstream oss;
    oss << "{\"schema\":\"fsmoe-sweep-results\",\"version\":1,"
           "\"results\":[";
    for (size_t i = 0; i < results.size(); ++i) {
        oss << (i == 0 ? "\n" : ",\n");
        appendRecordJson(oss, results[i], include_link_stats);
    }
    oss << "\n]}\n";
    return oss.str();
}

std::string
toJsonRecord(const SweepResult &r)
{
    std::ostringstream oss;
    appendRecordJson(oss, r, r.hasLinkStats);
    return oss.str();
}

bool
parseJsonRecord(const std::string &text, SweepResult *out,
                std::string *error)
{
    json::Value root;
    if (!json::parse(text, &root, error))
        return false;
    return parseRecordJson(root, out, error, 0);
}

std::string
toCsv(const std::vector<SweepResult> &results, bool include_link_stats)
{
    std::ostringstream oss;
    // The status group appears iff any record needs it — a
    // deterministic function of the result set, so an all-Ok sweep
    // emits the classic header bytes.
    const bool with_status = anyNonOk(results);
    const CsvHeader h = csvHeader();
    oss << h.fixed << (include_link_stats ? h.links : "")
        << (with_status ? h.status : "") << '\n';
    for (const SweepResult &r : results) {
        const Scenario &s = r.scenario;
        oss << csvEscape(s.model) << ',' << csvEscape(s.cluster) << ','
            << csvEscape(s.schedule) << ',' << s.batch << ',' << s.seqLen
            << ',' << s.numLayers << ',' << s.numExperts << ',' << s.rMax
            << ',' << fmtDouble(r.makespanMs);
        for (size_t op = 0; op < kNumOps; ++op)
            oss << ',' << fmtDouble(r.opTimeMs[op]);
        if (include_link_stats) {
            for (size_t li = 0; li < kNumLinks; ++li)
                oss << ',' << fmtDouble(r.linkBusyMs[li]);
        }
        if (with_status) {
            oss << ',' << resultStatusName(r.status) << ',' << r.attempts
                << ',' << csvEscape(r.error);
        }
        oss << '\n';
    }
    return oss.str();
}

// ------------------------------------------------------------ readers

bool
parseJson(const std::string &text, std::vector<SweepResult> *out,
          std::string *error)
{
    json::Value root;
    if (!json::parse(text, &root, error))
        return false;
    if (root.kind != json::Value::Kind::Object) {
        if (error)
            *error = "top level is not an object";
        return false;
    }
    std::string schema;
    if (!jsonString(root.find("schema"), &schema) ||
        schema != "fsmoe-sweep-results") {
        if (error)
            *error = "missing or unknown \"schema\"";
        return false;
    }
    // Version 1 is the only schema there is; refuse to guess at others.
    const json::Value *version = root.find("version");
    double v = 0.0;
    if (!jsonNumber(version, &v) || v != 1.0) {
        if (error)
            *error = version == nullptr ? "missing \"version\""
                     : version->kind != json::Value::Kind::Number
                         ? "\"version\" is not a number"
                         : "unsupported \"version\" " + fmtDouble(v) +
                               " (this reader knows version 1)";
        return false;
    }
    const json::Value *results = root.find("results");
    if (results == nullptr || results->kind != json::Value::Kind::Array) {
        if (error)
            *error = "missing \"results\" array";
        return false;
    }

    out->clear();
    out->reserve(results->array.size());
    for (size_t i = 0; i < results->array.size(); ++i) {
        SweepResult r;
        if (!parseRecordJson(results->array[i], &r, error, i))
            return false;
        out->push_back(std::move(r));
    }
    return true;
}

bool
parseCsv(const std::string &text, std::vector<SweepResult> *out,
         std::string *error)
{
    std::vector<std::string> records;
    if (!splitCsvRecords(text, &records)) {
        if (error)
            *error = "CSV: unterminated quote";
        return false;
    }
    if (records.empty()) {
        if (error)
            *error = "empty CSV";
        return false;
    }
    std::vector<std::string> fields;
    bool with_links = false;
    bool with_status = false;
    if (!readCsvHeader(records[0], &with_links, &with_status) ||
        !splitCsvRecord(records[0], &fields)) {
        if (error)
            *error = "CSV header does not match the sweep-result schema";
        return false;
    }

    out->clear();
    const size_t ncols = fields.size();
    for (size_t lineno = 2; lineno <= records.size(); ++lineno) {
        const std::string &line = records[lineno - 1];
        if (line.empty())
            continue;
        const auto bad = [&](const char *what) {
            if (error) {
                std::ostringstream oss;
                oss << "CSV record " << lineno << ": " << what;
                *error = oss.str();
            }
            return false;
        };
        if (!splitCsvRecord(line, &fields))
            return bad("unterminated quote");
        if (fields.size() != ncols)
            return bad("wrong field count");
        // Fields are taken in header order.
        size_t col = 0;
        const auto next = [&](auto *out) {
            return parseNumber(fields[col++], out);
        };
        SweepResult r;
        Scenario &s = r.scenario;
        s.model = fields[col++];
        s.cluster = fields[col++];
        s.schedule = fields[col++];
        if (!next(&s.batch))
            return bad("bad batch");
        if (!next(&s.seqLen))
            return bad("bad seq_len");
        if (!next(&s.numLayers))
            return bad("bad num_layers");
        if (!next(&s.numExperts))
            return bad("bad num_experts");
        if (!next(&s.rMax))
            return bad("bad r_max");
        if (!next(&r.makespanMs))
            return bad("bad makespan_ms");
        for (size_t op = 0; op < kNumOps; ++op) {
            if (!next(&r.opTimeMs[op]))
                return bad("bad op time");
        }
        if (with_links) {
            for (size_t li = 0; li < kNumLinks; ++li) {
                if (!next(&r.linkBusyMs[li]))
                    return bad("bad link time");
            }
            r.hasLinkStats = true;
        }
        if (with_status) {
            if (!parseResultStatus(fields[col++], &r.status))
                return bad("bad status");
            if (!next(&r.attempts))
                return bad("bad attempts");
            r.error = fields[col++];
        }
        out->push_back(std::move(r));
    }
    return true;
}

bool
writeResultsJson(const std::string &path,
                 const std::vector<SweepResult> &results,
                 bool include_link_stats)
{
    return writeTextFile(path, toJson(results, include_link_stats));
}

bool
writeResultsCsv(const std::string &path,
                const std::vector<SweepResult> &results,
                bool include_link_stats)
{
    return writeTextFile(path, toCsv(results, include_link_stats));
}

bool
readResults(const std::string &path, std::vector<SweepResult> *out,
            std::string *error)
{
    std::string text;
    if (!fileio::readTextFile(path, &text, error))
        return false;
    return isCsvPath(path) ? parseCsv(text, out, error)
                           : parseJson(text, out, error);
}

bool
writeResults(const std::string &path, const std::vector<SweepResult> &results,
             bool include_link_stats)
{
    return isCsvPath(path)
               ? writeResultsCsv(path, results, include_link_stats)
               : writeResultsJson(path, results, include_link_stats);
}

// ------------------------------------------------------------- diffing

std::vector<const DiffEntry *>
DiffReport::exceeding(double tolerance_frac) const
{
    std::vector<const DiffEntry *> out;
    for (const DiffEntry &e : matched) {
        // A non-finite makespan on either side is never comparable: a
        // NaN would otherwise slip through every tolerance (NaN > tol
        // is false) and an inf pair would "match" itself. Both mean
        // the producing run was broken, so they always fail the gate.
        if (!std::isfinite(e.baselineMs) || !std::isfinite(e.currentMs)) {
            out.push_back(&e);
            continue;
        }
        const double rel = e.relDelta();
        if (rel > tolerance_frac || rel < -tolerance_frac)
            out.push_back(&e);
    }
    return out;
}

bool
DiffReport::passes(double tolerance_frac) const
{
    return onlyBaseline.empty() && onlyCurrent.empty() &&
           duplicateKeys.empty() && exceeding(tolerance_frac).empty();
}

DiffReport
diffResults(const std::vector<SweepResult> &baseline,
            const std::vector<SweepResult> &current)
{
    DiffReport report;
    // Current records not yet matched, by key (the first of duplicates).
    std::unordered_map<std::string, const SweepResult *> unmatched;
    for (const SweepResult &r : current) {
        const std::string key = r.scenario.label();
        if (!unmatched.emplace(key, &r).second)
            report.duplicateKeys.push_back(key);
    }
    std::unordered_set<std::string> seen;
    for (const SweepResult &b : baseline) {
        const std::string key = b.scenario.label();
        if (!seen.insert(key).second) {
            report.duplicateKeys.push_back(key);
            continue;
        }
        auto it = unmatched.find(key);
        if (it == unmatched.end()) {
            report.onlyBaseline.push_back(key);
            continue;
        }
        report.matched.push_back({key, b.makespanMs, it->second->makespanMs});
        unmatched.erase(it);
    }
    for (const SweepResult &c : current) {
        const std::string key = c.scenario.label();
        if (unmatched.erase(key) > 0)
            report.onlyCurrent.push_back(key);
    }
    return report;
}

std::string
formatDiff(const DiffReport &report, double tolerance_frac)
{
    std::ostringstream oss;
    const auto over = report.exceeding(tolerance_frac);
    for (const DiffEntry *e : over) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%+.4f ms (%+.3f%%)", e->deltaMs(),
                      e->relDelta() * 100.0);
        oss << "  DRIFT " << e->key << ": " << fmtDouble(e->baselineMs)
            << " -> " << fmtDouble(e->currentMs) << "  " << buf << '\n';
    }
    for (const std::string &key : report.onlyBaseline)
        oss << "  MISSING (in baseline only): " << key << '\n';
    for (const std::string &key : report.onlyCurrent)
        oss << "  EXTRA (in current only): " << key << '\n';
    for (const std::string &key : report.duplicateKeys)
        oss << "  DUPLICATE key: " << key << '\n';

    char tol[32];
    std::snprintf(tol, sizeof tol, "%.4g%%", tolerance_frac * 100.0);
    if (report.passes(tolerance_frac)) {
        oss << "PASS: " << report.matched.size()
            << " scenarios within tolerance " << tol << '\n';
    } else {
        oss << "FAIL: " << over.size() << " of " << report.matched.size()
            << " scenarios drifted beyond " << tol << "; "
            << report.onlyBaseline.size() << " missing, "
            << report.onlyCurrent.size() << " extra, "
            << report.duplicateKeys.size() << " duplicate\n";
    }
    return oss.str();
}

// ------------------------------------------------------------- merging

bool
mergeResults(const std::vector<std::vector<SweepResult>> &shards,
             std::vector<SweepResult> *out, std::string *error)
{
    out->clear();
    size_t total = 0;
    for (const auto &shard : shards)
        total += shard.size();
    out->reserve(total);
    std::unordered_set<std::string> seen;
    seen.reserve(total);
    for (const auto &shard : shards) {
        for (const SweepResult &r : shard) {
            const std::string key = r.scenario.label();
            if (!seen.insert(key).second) {
                if (error)
                    *error = "duplicate scenario across shards: " + key;
                out->clear();
                return false;
            }
            out->push_back(r);
        }
    }
    return true;
}

} // namespace fsmoe::runtime
