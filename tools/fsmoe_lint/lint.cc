#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

namespace fsmoe::lint {

namespace {

const char *const kRuleIds[] = {
    "unordered-iter", "float-accum-unordered", "banned-rand",
    "banned-time",    "pointer-hash",          "thread-id",
    "addr-order",     "static-mutable",        "nonatomic-write",
    "wallclock-deadline", "lenient-number",
};

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else if (c != '\r') {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

/**
 * Blank comments and string/char literals so pattern matches never
 * fire inside them. Comment *text* is preserved separately per line
 * (the static-mutable rule searches it for thread-safety keywords).
 */
struct Stripped
{
    std::vector<std::string> code;    ///< Literal/comment-blanked lines.
    std::vector<std::string> comment; ///< Comment text per line.
};

Stripped
stripComments(const std::vector<std::string> &lines)
{
    Stripped out;
    out.code.reserve(lines.size());
    out.comment.resize(lines.size());
    bool in_block = false;
    for (size_t li = 0; li < lines.size(); ++li) {
        const std::string &s = lines[li];
        std::string code;
        code.reserve(s.size());
        for (size_t i = 0; i < s.size();) {
            if (in_block) {
                if (s[i] == '*' && i + 1 < s.size() && s[i + 1] == '/') {
                    in_block = false;
                    i += 2;
                } else {
                    out.comment[li].push_back(s[i]);
                    ++i;
                }
                continue;
            }
            char c = s[i];
            if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
                out.comment[li].append(s.substr(i + 2));
                break;
            }
            if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
                in_block = true;
                i += 2;
                continue;
            }
            if (c == '"' || c == '\'') {
                char quote = c;
                ++i;
                while (i < s.size()) {
                    if (s[i] == '\\') {
                        i += 2;
                        continue;
                    }
                    if (s[i] == quote) {
                        ++i;
                        break;
                    }
                    ++i;
                }
                code.push_back(quote);
                code.push_back(quote);
                continue;
            }
            code.push_back(c);
            ++i;
        }
        out.code.push_back(code);
    }
    return out;
}

/** Last identifier in @p s before position @p end. */
std::string
lastIdentifierBefore(const std::string &s, size_t end)
{
    size_t e = end;
    while (e > 0 && !(std::isalnum(static_cast<unsigned char>(s[e - 1])) ||
                      s[e - 1] == '_'))
        --e;
    size_t b = e;
    while (b > 0 && (std::isalnum(static_cast<unsigned char>(s[b - 1])) ||
                     s[b - 1] == '_'))
        --b;
    return s.substr(b, e - b);
}

/**
 * Names declared with an unordered / ordered associative container
 * type in @p code lines. A declaration may span lines; we accumulate
 * from the line introducing the type to the terminating ';' and take
 * the last identifier before it.
 */
void
collectContainerDecls(const std::vector<std::string> &code,
                      std::set<std::string> *unordered,
                      std::set<std::string> *ordered)
{
    static const std::regex kUnordered(
        R"(std\s*::\s*unordered_(map|set|multimap|multiset)\s*<)");
    static const std::regex kOrdered(
        R"(std\s*::\s*(map|set|multimap|multiset)\s*<)");
    for (size_t li = 0; li < code.size(); ++li) {
        bool is_uno = std::regex_search(code[li], kUnordered);
        bool is_ord = !is_uno && std::regex_search(code[li], kOrdered);
        if (!is_uno && !is_ord)
            continue;
        // Join lines to the terminating ';' (bounded lookahead).
        std::string joined = code[li];
        size_t lj = li;
        while (joined.find(';') == std::string::npos &&
               lj + 1 < code.size() && lj - li < 8) {
            ++lj;
            joined += ' ';
            joined += code[lj];
        }
        size_t semi = joined.find(';');
        if (semi == std::string::npos)
            continue;
        // `... > name;` / `... > name = ...;` / `... > name{...};`
        size_t stop = semi;
        size_t eq = joined.rfind('=', semi);
        if (eq != std::string::npos)
            stop = eq;
        size_t brace = joined.rfind('{', stop);
        if (brace != std::string::npos && brace > joined.rfind('>', stop))
            stop = brace;
        std::string name = lastIdentifierBefore(joined, stop);
        if (name.empty() || name == "const")
            continue;
        (is_uno ? unordered : ordered)->insert(name);
    }
}

/** Identifier the range expression of a range-for names (last path
 *  component: `state.counts` -> "counts", `*m` -> "m"). */
std::string
rangeIdentifier(const std::string &range_expr)
{
    std::string e = trim(range_expr);
    // Drop trailing calls like `.items()` -> keep the callee name.
    while (!e.empty() && (e.back() == ')' || e.back() == '(')) {
        e.pop_back();
    }
    return lastIdentifierBefore(e, e.size());
}

bool
isCommentKeyworded(const std::vector<std::string> &comment, size_t line_idx)
{
    static const std::regex kKeywords(
        R"(thread[- ]saf|thread[- ]safety|synchroni[sz]|guarded by|protected by|single[- ]threaded|atomic|magic static|immutable after|init[- ]once|once_flag)",
        std::regex::icase);
    size_t begin = line_idx >= 10 ? line_idx - 10 : 0;
    for (size_t i = begin; i <= line_idx && i < comment.size(); ++i) {
        if (!comment[i].empty() && std::regex_search(comment[i], kKeywords))
            return true;
    }
    return false;
}

/** Brace-context tracking: what kind of scope each '{' opened. */
enum class ScopeKind
{
    Namespace,
    Record,
    Other
};

struct SimpleRule
{
    const char *rule;
    std::regex pattern;
    const char *message;
};

const std::vector<SimpleRule> &
simpleRules()
{
    static const std::vector<SimpleRule> rules = [] {
        std::vector<SimpleRule> r;
        r.push_back({"banned-rand",
                     std::regex(R"(\bstd\s*::\s*rand\b|\bsrand\s*\(|\brandom_device\b|(^|[^\w:.])rand\s*\(\s*\))"),
                     "unseeded/global randomness; use a seeded tensor::Rng "
                     "(or thread explicit seeds) so runs reproduce"});
        r.push_back({"banned-time",
                     std::regex(R"((^|[^\w:.])time\s*\(|\bgettimeofday\b|\bsystem_clock\b|(^|[^\w:.])clock\s*\(\s*\))"),
                     "wall-clock value; results must not depend on when "
                     "they ran (steady_clock durations that feed only "
                     "telemetry belong in base/stats timers)"});
        r.push_back({"pointer-hash",
                     std::regex(R"(std\s*::\s*hash\s*<[^>]*\*)"),
                     "hashing a pointer keys on an address, which differs "
                     "per run under ASLR; key on stable content instead"});
        r.push_back({"thread-id",
                     std::regex(R"(this_thread\s*::\s*get_id|\bpthread_self\b|\bgettid\b)"),
                     "thread-id-dependent value; results must be identical "
                     "across thread counts and scheduling"});
        r.push_back({"addr-order",
                     std::regex(R"(reinterpret_cast\s*<\s*u?intptr_t\s*>|std\s*::\s*less\s*<[^>]*\*)"),
                     "address-keyed ordering; addresses differ per run "
                     "under ASLR — order by stable ids or content"});
        // Literal-stripping blanks fopen's mode string, so read-mode
        // fopen also fires; audited read probes go on the allowlist.
        r.push_back({"nonatomic-write",
                     std::regex(R"(std\s*::\s*ofstream\b|\bfopen\s*\()"),
                     "direct stream/FILE write to a final path; a crash "
                     "mid-write leaves a torn file that readers see as "
                     "valid-but-truncated — route output through "
                     "fsmoe::fileio::atomicWriteFile (tmp + rename)"});
        r.push_back({"lenient-number",
                     std::regex(R"(\bstrto(l|ll|ul|ull|d|f|ld|imax|umax)\s*\(|\bato(i|l|ll|f)\s*\(|\bstd\s*::\s*sto(i|l|ll|ul|ull|f|d|ld)\s*\()"),
                     "hand-rolled text-to-number conversion: it skips "
                     "whitespace, takes '+' (and hex floats), and "
                     "saturates, wraps or throws on overflow — parse "
                     "with fsmoe::parseNumber (base/number.h)"});
        return r;
    }();
    return rules;
}

struct FileAnalysis
{
    std::vector<std::string> raw;
    Stripped stripped;
    std::set<std::string> unordered;
    std::set<std::string> ordered;
};

void
analyzeDecls(FileAnalysis *fa)
{
    collectContainerDecls(fa->stripped.code, &fa->unordered, &fa->ordered);
}

void
addFinding(std::vector<Finding> *out, const std::string &path, size_t li,
           const std::string &rule, const std::string &msg,
           const std::string &raw_line)
{
    Finding f;
    f.file = path;
    f.line = static_cast<int>(li + 1);
    f.rule = rule;
    f.message = msg;
    f.excerpt = trim(raw_line);
    out->push_back(std::move(f));
}

} // namespace

const std::vector<std::string> &
ruleIds()
{
    static const std::vector<std::string> ids(std::begin(kRuleIds),
                                              std::end(kRuleIds));
    return ids;
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &text,
           const std::string &header_text)
{
    FileAnalysis fa;
    fa.raw = splitLines(text);
    fa.stripped = stripComments(fa.raw);
    analyzeDecls(&fa);
    if (!header_text.empty()) {
        Stripped hs = stripComments(splitLines(header_text));
        collectContainerDecls(hs.code, &fa.unordered, &fa.ordered);
    }

    const std::vector<std::string> &code = fa.stripped.code;
    const std::vector<std::string> &comment = fa.stripped.comment;
    std::vector<Finding> findings;

    // ---- Simple pattern rules -------------------------------------
    for (size_t li = 0; li < code.size(); ++li) {
        for (const SimpleRule &r : simpleRules()) {
            if (std::regex_search(code[li], r.pattern))
                addFinding(&findings, path, li, r.rule, r.message,
                           fa.raw[li]);
        }
    }

    // ---- wallclock-deadline ---------------------------------------
    // banned-time already flags system_clock anywhere; this rule is
    // the sharper complaint for wall-clock sources (including
    // high_resolution_clock, which may alias system_clock, and
    // CLOCK_REALTIME, which banned-time cannot see) feeding deadline
    // or timeout arithmetic, where an NTP step or suspend/resume makes
    // the deadline fire early, late, or never. Context is judged over
    // a +/-2 line window so the keyword may sit in the signature or
    // the comparison rather than on the clock call itself.
    static const std::regex kWallClock(
        R"(\bsystem_clock\b|\bhigh_resolution_clock\b|\bCLOCK_REALTIME\b|\bgettimeofday\b)");
    static const std::regex kDeadlineCtx(
        R"(deadline|timeout|time_out|expir|backoff|watchdog|heartbeat|wait_until|wait_for|retry|lease)",
        std::regex::icase);
    for (size_t li = 0; li < code.size(); ++li) {
        if (!std::regex_search(code[li], kWallClock))
            continue;
        size_t begin = li >= 2 ? li - 2 : 0;
        size_t end = std::min(code.size(), li + 3);
        bool ctx = false;
        for (size_t wi = begin; wi < end && !ctx; ++wi)
            ctx = std::regex_search(code[wi], kDeadlineCtx);
        if (ctx)
            addFinding(&findings, path, li, "wallclock-deadline",
                       "wall-clock source in deadline/timeout "
                       "arithmetic: an NTP step or suspend/resume "
                       "makes this deadline fire early, late, or "
                       "never — measure waits on "
                       "std::chrono::steady_clock",
                       fa.raw[li]);
    }

    // ---- unordered-iter + float-accum-unordered -------------------
    static const std::regex kRangeFor(R"(for\s*\(([^;)]*):([^)]*)\))");
    static const std::regex kSort(R"(std\s*::\s*(stable_)?sort\s*\()");
    static const std::regex kAccum(R"([\w\]\.\->]+\s*[+\-]=[^=])");
    for (size_t li = 0; li < code.size(); ++li) {
        // Range-for headers may wrap; join up to 3 lines.
        std::string head = code[li];
        for (size_t j = 1; j <= 2 && li + j < code.size(); ++j)
            head += ' ' + code[li + j];
        std::smatch m;
        if (!std::regex_search(head, m, kRangeFor))
            continue;
        // Only report at the line the `for` itself starts on.
        if (code[li].find("for") == std::string::npos)
            continue;
        std::string id = rangeIdentifier(m[2].str());
        if (id.empty() || fa.unordered.count(id) == 0)
            continue;

        // Examine the loop body plus a trailing window for a sorting
        // sink: std::sort/std::stable_sort, or insertion into an
        // ordered associative container declared in this file.
        size_t window_end = std::min(code.size(), li + 16);
        bool sorted_sink = false;
        bool float_accum = false;
        bool in_body = true; // Rough bound: body ends at a bare '}'.
        for (size_t wi = li; wi < window_end; ++wi) {
            if (std::regex_search(code[wi], kSort)) {
                sorted_sink = true;
            }
            for (const std::string &ord : fa.ordered) {
                if (code[wi].find(ord + ".insert") != std::string::npos ||
                    code[wi].find(ord + ".emplace") != std::string::npos)
                    sorted_sink = true;
            }
            // Accumulation only counts inside the loop body proper.
            if (in_body && wi > li && !float_accum &&
                std::regex_search(code[wi], kAccum) &&
                code[wi].find("||") == std::string::npos)
                float_accum = true;
            std::string t = trim(code[wi]);
            if (wi > li && (t == "}" || t == "};"))
                in_body = false;
        }
        if (float_accum) {
            addFinding(&findings, path, li, "float-accum-unordered",
                       "accumulation inside iteration over unordered "
                       "container '" + id + "': float addition is not "
                       "associative, so the total depends on hash order; "
                       "accumulate over a sorted copy",
                       fa.raw[li]);
        }
        if (!sorted_sink) {
            addFinding(&findings, path, li, "unordered-iter",
                       "iteration over unordered container '" + id +
                       "' with no sorting sink in sight: results flow "
                       "onward in hash order; collect and std::sort "
                       "(or insert into a std::set/std::map)",
                       fa.raw[li]);
        }
    }

    // ---- static-mutable -------------------------------------------
    // Track brace scopes so namespace-scope object declarations are
    // distinguishable from locals and record members.
    static const std::regex kStaticDecl(R"(^\s*static\s+(.*))");
    static const std::regex kExemptType(
        R"(\bstd\s*::\s*(mutex|recursive_mutex|shared_mutex|atomic|once_flag|condition_variable)\b|\bconst\b|\bconstexpr\b|\bthread_local\b)");
    static const std::regex kNamespaceOpen(R"(\bnamespace\b[^;{]*\{)");
    static const std::regex kRecordOpen(
        R"((\bstruct\b|\bclass\b|\bunion\b|\benum\b)[^;{]*\{)");
    static const std::regex kNsDecl(
        R"(^([A-Za-z_][\w:]*(\s*<[^;]*>)?(\s*[&*])?\s+)+([A-Za-z_]\w*)\s*(;|=|\{))");
    static const std::regex kNsDeclExclude(
        R"(^\s*(using|typedef|namespace|template|extern|return|friend|public|private|protected|case|goto|delete|new|throw|if|else|for|while|do|switch|class|struct|union|enum)\b|\(|^\s*#)");

    std::vector<ScopeKind> scopes;
    for (size_t li = 0; li < code.size(); ++li) {
        const std::string &cl = code[li];
        // Handle declarations *before* pushing this line's braces so
        // the decl is judged in its enclosing scope.
        bool at_ns_scope =
            !scopes.empty() && scopes.back() == ScopeKind::Namespace;

        std::smatch m;
        if (std::regex_search(cl, m, kStaticDecl)) {
            std::string joined = cl;
            size_t lj = li;
            while (joined.find(';') == std::string::npos &&
                   joined.find('{') == std::string::npos &&
                   lj + 1 < code.size() && lj - li < 4) {
                ++lj;
                joined += ' ' + code[lj];
            }
            bool exempt = std::regex_search(joined, kExemptType) ||
                          joined.find('(') != std::string::npos;
            if (!exempt) {
                // Meyer singleton: `static T x;` followed by
                // `return x;` within two lines is the C++11
                // thread-safe local-static idiom.
                size_t semi = joined.find(';');
                size_t stop = semi == std::string::npos ? joined.size()
                                                        : semi;
                size_t eq = joined.rfind('=', stop);
                if (eq != std::string::npos)
                    stop = eq;
                std::string name =
                    semi == std::string::npos
                        ? std::string()
                        : lastIdentifierBefore(joined, stop);
                bool meyer = false;
                for (size_t j = lj + 1;
                     !name.empty() && j < code.size() && j <= lj + 2; ++j) {
                    if (trim(code[j]) == "return " + name + ";")
                        meyer = true;
                }
                if (!meyer && !isCommentKeyworded(comment, li)) {
                    addFinding(
                        &findings, path, li, "static-mutable",
                        "mutable static '" + name +
                            "' has no documented thread-safety story; "
                            "add a comment (e.g. \"guarded by <mutex>\" "
                            "or \"thread-safe: atomic\") or make it "
                            "const/constexpr",
                        fa.raw[li]);
                }
            }
        } else if (at_ns_scope && std::regex_search(cl, m, kNsDecl) &&
                   !std::regex_search(cl, kNsDeclExclude) &&
                   !std::regex_search(cl, kExemptType) &&
                   !std::regex_search(cl, kNamespaceOpen) &&
                   !std::regex_search(cl, kRecordOpen)) {
            std::string joined = cl;
            size_t lj = li;
            while (joined.find(';') == std::string::npos &&
                   lj + 1 < code.size() && lj - li < 4) {
                ++lj;
                joined += ' ' + code[lj];
            }
            if (!std::regex_search(joined, kExemptType) &&
                joined.find('(') == std::string::npos &&
                !isCommentKeyworded(comment, li)) {
                size_t semi = joined.find(';');
                size_t stop = semi == std::string::npos ? joined.size()
                                                        : semi;
                size_t eq = joined.rfind('=', stop);
                if (eq != std::string::npos)
                    stop = eq;
                std::string name = lastIdentifierBefore(joined, stop);
                addFinding(
                    &findings, path, li, "static-mutable",
                    "namespace-scope mutable '" + name +
                        "' has no documented thread-safety story; add "
                        "a comment (e.g. \"guarded by <mutex>\") or "
                        "make it const/constexpr",
                    fa.raw[li]);
            }
        }

        // Update scope stack from this line's braces.
        for (size_t i = 0; i < cl.size(); ++i) {
            if (cl[i] == '{') {
                std::string prefix = cl.substr(0, i + 1);
                if (std::regex_search(prefix, kNamespaceOpen))
                    scopes.push_back(ScopeKind::Namespace);
                else if (std::regex_search(prefix, kRecordOpen))
                    scopes.push_back(ScopeKind::Record);
                else
                    scopes.push_back(ScopeKind::Other);
            } else if (cl[i] == '}') {
                if (!scopes.empty())
                    scopes.pop_back();
            }
        }
    }

    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.line < b.line;
                     });
    return findings;
}

bool
loadAllowlist(const std::string &path, std::vector<AllowEntry> *out,
              std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open allowlist: " + path;
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        std::istringstream iss(t);
        AllowEntry e;
        iss >> e.rule >> e.fileSuffix;
        std::getline(iss, e.substring);
        e.substring = trim(e.substring);
        if (e.rule.empty() || e.fileSuffix.empty() || e.substring.empty()) {
            if (error)
                *error = path + ":" + std::to_string(lineno) +
                         ": malformed allowlist entry (want: rule "
                         "file-suffix line-substring)";
            return false;
        }
        out->push_back(std::move(e));
    }
    return true;
}

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
allowed(const Finding &f, const std::vector<AllowEntry> &allow)
{
    for (const AllowEntry &e : allow) {
        if (e.rule != "*" && e.rule != f.rule)
            continue;
        if (!endsWith(f.file, e.fileSuffix))
            continue;
        if (f.excerpt.find(e.substring) != std::string::npos)
            return true;
    }
    return false;
}

std::string
readFile(const std::string &path, bool *ok)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *ok = false;
        return "";
    }
    std::ostringstream oss;
    oss << in.rdbuf();
    *ok = true;
    return oss.str();
}

} // namespace

std::vector<Finding>
lintPaths(const std::vector<std::string> &paths,
          const std::vector<AllowEntry> &allow, size_t *suppressed,
          std::string *error)
{
    namespace fs = std::filesystem;
    std::set<std::string> files; // sorted + deduplicated
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (auto it = fs::recursive_directory_iterator(p, ec);
                 !ec && it != fs::recursive_directory_iterator(); ++it) {
                if (!it->is_regular_file())
                    continue;
                std::string ext = it->path().extension().string();
                if (ext == ".h" || ext == ".cc" || ext == ".cpp")
                    files.insert(it->path().generic_string());
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.insert(fs::path(p).generic_string());
        } else {
            if (error)
                *error = "no such file or directory: " + p;
            return {};
        }
    }

    std::vector<Finding> all;
    size_t dropped = 0;
    for (const std::string &f : files) {
        bool ok = false;
        std::string text = readFile(f, &ok);
        if (!ok) {
            if (error)
                *error = "cannot read: " + f;
            return {};
        }
        std::string header_text;
        if (endsWith(f, ".cc") || endsWith(f, ".cpp")) {
            fs::path hp = fs::path(f);
            hp.replace_extension(".h");
            std::error_code ec;
            if (fs::is_regular_file(hp, ec)) {
                bool hok = false;
                header_text = readFile(hp.generic_string(), &hok);
            }
        }
        for (Finding &fd : lintSource(f, text, header_text)) {
            if (allowed(fd, allow))
                ++dropped;
            else
                all.push_back(std::move(fd));
        }
    }
    if (suppressed)
        *suppressed = dropped;
    return all;
}

} // namespace fsmoe::lint
