#include "runtime/result_store.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <sstream>
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

std::vector<std::string>
csvHeader(bool with_links, bool with_status)
{
    std::vector<std::string> cols = {
        "model",      "cluster",     "schedule",
        "batch",      "seq_len",     "num_layers",
        "num_experts", "r_max",      "makespan_ms",
    };
    for (size_t i = 0; i < kNumOps; ++i)
        cols.push_back(std::string("op_") + opName(i) + "_ms");
    if (with_links) {
        for (size_t i = 0; i < kNumLinks; ++i)
            cols.push_back(std::string("link_") + linkName(i) + "_busy_ms");
    }
    if (with_status) {
        cols.push_back("status");
        cols.push_back("attempts");
        cols.push_back("error");
    }
    return cols;
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
    oss << "{\"model\":\"" << jsonEscape(r.model) << "\","
        << "\"cluster\":\"" << jsonEscape(r.cluster) << "\","
        << "\"schedule\":\"" << jsonEscape(r.schedule) << "\","
        << "\"batch\":" << r.batch << ","
        << "\"seq_len\":" << r.seqLen << ","
        << "\"num_layers\":" << r.numLayers << ","
        << "\"num_experts\":" << r.numExperts << ","
        << "\"r_max\":" << r.rMax << ","
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
    if (!jsonString(entry.find("model"), &r.model))
        return bad("model");
    if (!jsonString(entry.find("cluster"), &r.cluster))
        return bad("cluster");
    if (!jsonString(entry.find("schedule"), &r.schedule))
        return bad("schedule");
    if (!jsonInt(entry.find("batch"), &r.batch))
        return bad("batch");
    if (!jsonInt(entry.find("seq_len"), &r.seqLen))
        return bad("seq_len");
    if (!jsonNarrowInt(entry.find("num_layers"), &r.numLayers))
        return bad("num_layers");
    if (!jsonNarrowInt(entry.find("num_experts"), &r.numExperts))
        return bad("num_experts");
    if (!jsonNarrowInt(entry.find("r_max"), &r.rMax))
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

std::string
SweepResult::key() const
{
    // Mirrors Scenario::label() so persisted keys match live labels.
    std::ostringstream oss;
    oss << model << '/' << cluster << '/' << schedule << "/b" << batch
        << "/L" << seqLen;
    if (numLayers > 0)
        oss << "/l" << numLayers;
    if (numExperts > 0)
        oss << "/e" << numExperts;
    if (rMax != 16)
        oss << "/r" << rMax;
    return oss.str();
}

Scenario
SweepResult::toScenario() const
{
    Scenario s;
    s.model = model;
    s.cluster = cluster;
    s.schedule = schedule;
    s.batch = batch;
    s.seqLen = seqLen;
    s.numLayers = numLayers;
    s.numExperts = numExperts;
    s.rMax = rMax;
    return s;
}

SweepResult
SweepResult::fromScenarioResult(const ScenarioResult &r)
{
    SweepResult out;
    out.model = r.scenario.model;
    out.cluster = r.scenario.cluster;
    out.schedule = r.scenario.schedule;
    out.batch = r.scenario.batch;
    out.seqLen = r.scenario.seqLen;
    out.numLayers = r.scenario.numLayers;
    out.numExperts = r.scenario.numExperts;
    out.rMax = r.scenario.rMax;
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
    // The status columns appear iff any record needs them — a
    // deterministic function of the result set, so an all-Ok sweep
    // emits the classic header bytes.
    const bool with_status = anyNonOk(results);
    const std::vector<std::string> header =
        csvHeader(include_link_stats, with_status);
    for (size_t i = 0; i < header.size(); ++i)
        oss << (i == 0 ? "" : ",") << header[i];
    oss << '\n';
    for (const SweepResult &r : results) {
        oss << csvEscape(r.model) << ',' << csvEscape(r.cluster) << ','
            << csvEscape(r.schedule) << ',' << r.batch << ',' << r.seqLen
            << ',' << r.numLayers << ',' << r.numExperts << ',' << r.rMax
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
    // The header row decides which writer shape this file has: the
    // classic columns, optionally plus the link columns, optionally
    // plus the status columns.
    std::vector<std::string> fields;
    bool with_links = false;
    bool with_status = false;
    if (!splitCsvRecord(records[0], &fields)) {
        if (error)
            *error = "CSV header does not match the sweep-result schema";
        return false;
    }
    bool known = false;
    for (bool links : {false, true}) {
        for (bool status : {false, true}) {
            if (fields == csvHeader(links, status)) {
                with_links = links;
                with_status = status;
                known = true;
            }
        }
    }
    if (!known) {
        if (error)
            *error = "CSV header does not match the sweep-result schema";
        return false;
    }

    out->clear();
    const size_t ncols = fields.size(); // == csvHeader(with_links).size()
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
        SweepResult r;
        r.model = fields[0];
        r.cluster = fields[1];
        r.schedule = fields[2];
        if (!parseNumber(fields[3], &r.batch))
            return bad("bad batch");
        if (!parseNumber(fields[4], &r.seqLen))
            return bad("bad seq_len");
        if (!parseNumber(fields[5], &r.numLayers))
            return bad("bad num_layers");
        if (!parseNumber(fields[6], &r.numExperts))
            return bad("bad num_experts");
        if (!parseNumber(fields[7], &r.rMax))
            return bad("bad r_max");
        if (!parseNumber(fields[8], &r.makespanMs))
            return bad("bad makespan_ms");
        for (size_t op = 0; op < kNumOps; ++op) {
            if (!parseNumber(fields[9 + op], &r.opTimeMs[op]))
                return bad("bad op time");
        }
        if (with_links) {
            for (size_t li = 0; li < kNumLinks; ++li) {
                if (!parseNumber(fields[9 + kNumOps + li],
                                 &r.linkBusyMs[li]))
                    return bad("bad link time");
            }
            r.hasLinkStats = true;
        }
        if (with_status) {
            const size_t base = 9 + kNumOps + (with_links ? kNumLinks : 0);
            if (!parseResultStatus(fields[base], &r.status))
                return bad("bad status");
            if (!parseNumber(fields[base + 1], &r.attempts))
                return bad("bad attempts");
            r.error = fields[base + 2];
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
    const bool csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    return csv ? parseCsv(text, out, error) : parseJson(text, out, error);
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
    std::unordered_map<std::string, const SweepResult *> current_by_key;
    std::unordered_set<std::string> seen;
    for (const SweepResult &r : current) {
        if (!current_by_key.emplace(r.key(), &r).second)
            report.duplicateKeys.push_back(r.key());
    }
    std::unordered_set<std::string> matched_keys;
    for (const SweepResult &b : baseline) {
        const std::string key = b.key();
        if (!seen.insert(key).second) {
            report.duplicateKeys.push_back(key);
            continue;
        }
        auto it = current_by_key.find(key);
        if (it == current_by_key.end()) {
            report.onlyBaseline.push_back(key);
            continue;
        }
        matched_keys.insert(key);
        DiffEntry entry;
        entry.key = key;
        entry.baselineMs = b.makespanMs;
        entry.currentMs = it->second->makespanMs;
        report.matched.push_back(std::move(entry));
    }
    for (const SweepResult &c : current) {
        if (matched_keys.count(c.key()) == 0 &&
            current_by_key.at(c.key()) == &c)
            report.onlyCurrent.push_back(c.key());
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
            if (!seen.insert(r.key()).second) {
                if (error)
                    *error = "duplicate scenario across shards: " + r.key();
                out->clear();
                return false;
            }
            out->push_back(r);
        }
    }
    return true;
}

} // namespace fsmoe::runtime
